//! Fixtures shared by the bounded-arena suite and the smoke tests:
//! small random connected graphs, the four fault shapes every
//! executor must agree under, and a FloodMax population.

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use welle_congest::testing::FloodMax;
use welle_congest::{
    AsyncEngine, Engine, EngineConfig, Exec, Executor, FaultPlan, LatencyModel, ThreadedEngine,
};
use welle_graph::Graph;

/// A random spanning tree on `n` nodes plus up to `extra` chords.
pub fn random_connected_graph(n: usize, extra: usize, seed: u64) -> Arc<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = welle_graph::GraphBuilder::new(n);
    for child in 1..n {
        let parent = rand::RngExt::random_range(&mut rng, 0..child);
        b.add_edge(parent, child).unwrap();
    }
    for _ in 0..extra {
        let u = rand::RngExt::random_range(&mut rng, 0..n);
        let v = rand::RngExt::random_range(&mut rng, 0..n);
        if u != v && !b.has_edge(u, v) {
            b.add_edge(u, v).unwrap();
        }
    }
    Arc::new(b.build().unwrap())
}

/// Clean, drops, delays, and drops + crashes.
pub fn fault_plan(kind: u8, seed: u64) -> Option<FaultPlan> {
    match kind % 4 {
        0 => None,
        1 => Some(FaultPlan::new(seed).drop_rate(0.15)),
        2 => Some(FaultPlan::new(seed).delay_all(2)),
        _ => Some(FaultPlan::new(seed).drop_rate(0.1).crash_fraction(0.1, 3)),
    }
}

/// FloodMax with scrambled, repeating ids (ties exercise the flood).
pub fn mk_node(i: usize) -> FloodMax {
    FloodMax::new((i as u64).wrapping_mul(131) % 97)
}

/// A FloodMax engine of the chosen kind (`Exec::Auto` is not accepted)
/// on `g`, with `plan` installed.
pub fn flood_executor(
    exec: Exec,
    g: &Arc<Graph>,
    seed: u64,
    plan: Option<&FaultPlan>,
) -> Box<dyn Executor<FloodMax>> {
    let cfg = EngineConfig {
        seed,
        bandwidth_bits: None,
    };
    let g = Arc::clone(g);
    match exec {
        Exec::Serial => {
            let mut e = Engine::from_fn(g, cfg, mk_node);
            if let Some(p) = plan {
                e.set_fault_plan(p).unwrap();
            }
            Box::new(e)
        }
        Exec::Threaded(workers) => {
            let mut e = ThreadedEngine::from_fn(g, cfg, workers, mk_node);
            if let Some(p) = plan {
                e.set_fault_plan(p).unwrap();
            }
            Box::new(e)
        }
        Exec::Async(model) => {
            let mut e = AsyncEngine::from_fn(g, cfg, model, mk_node);
            if let Some(p) = plan {
                e.set_fault_plan(p).unwrap();
            }
            Box::new(e)
        }
        Exec::Auto => panic!("pick a concrete executor"),
    }
}

/// The three executors that must replay each other exactly.
pub fn agreeing_executors(workers: usize) -> [(&'static str, Exec); 3] {
    [
        ("serial", Exec::Serial),
        ("threaded", Exec::Threaded(workers)),
        ("async-zero", Exec::Async(LatencyModel::zero())),
    ]
}
