//! Engine hot-path smoke test: a tiny, fully deterministic max-id
//! election on an expander, end to end through the event-driven engine.
//!
//! This is deliberately small (n = 64, < 1 s) so that any regression in
//! the simulator hot path — message delivery, congestion queues, idle
//! round skipping, metrics — is caught by a test that runs on every
//! `cargo test`, not only by the heavyweight integration suites.

mod common;

use std::sync::Arc;

use common::{agreeing_executors, fault_plan, flood_executor, random_connected_graph};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use welle_congest::testing::FloodMax;
use welle_congest::{Engine, EngineConfig, NoopObserver, RecordingObserver};
use welle_graph::gen;

/// Runs one seeded election and returns `(leader_indices, messages)`.
fn run_once(seed: u64) -> (Vec<usize>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = Arc::new(gen::random_regular(64, 4, &mut rng).unwrap());
    // Random distinct ids drawn from the same seeded stream.
    let ids: Vec<u64> = (0..g.n() as u64)
        .map(|i| (rng.random_range(0..u64::MAX / 2) << 6) | i)
        .collect();
    let nodes: Vec<FloodMax> = ids.iter().map(|&id| FloodMax::new(id)).collect();
    let mut engine = Engine::new(Arc::clone(&g), nodes, EngineConfig::default());
    let outcome = engine.run(10_000);
    assert!(outcome.is_done(), "flood must stabilize well within bound");

    let max = *ids.iter().max().unwrap();
    let leaders: Vec<usize> = engine
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, node)| node.is_leader())
        .map(|(i, _)| i)
        .collect();
    for (i, node) in engine.nodes().iter().enumerate() {
        assert_eq!(node.best(), max, "node {i} must learn the global max");
    }
    (leaders, engine.metrics().messages)
}

#[test]
fn deterministic_expander_election_elects_unique_leader() {
    let (leaders, messages) = run_once(0xC0FFEE);
    assert_eq!(leaders.len(), 1, "exactly one leader, got {leaders:?}");
    assert!(messages > 0);

    // The run is a pure function of the seed: identical leader set and
    // message count on a re-run.
    let (leaders2, messages2) = run_once(0xC0FFEE);
    assert_eq!(leaders, leaders2);
    assert_eq!(messages, messages2);

    // And a different seed still elects exactly one leader.
    let (leaders3, _) = run_once(7);
    assert_eq!(leaders3.len(), 1);
}

/// An observer that declines events (`NoopObserver`) gets the same run
/// as one that records them: the engines skip building events for it,
/// and that shortcut must not touch delivery. The recorded stream, in
/// turn, names exactly the delivered messages, each at the target its
/// directed edge leads to.
#[test]
fn observer_choice_changes_nothing_but_the_event_stream() {
    for seed in 0..6u64 {
        let g = random_connected_graph(6 + 3 * seed as usize, 2 * seed as usize, seed);
        for kind in 0..4u8 {
            let plan = fault_plan(kind, seed ^ 0xBEEF);
            for (name, exec) in agreeing_executors(2) {
                let what = format!("{name}, seed {seed}, fault shape {kind}");
                let mut quiet = flood_executor(exec, &g, seed, plan.as_ref());
                let out_quiet = quiet.run_observed(10_000, &mut NoopObserver);
                let mut loud = flood_executor(exec, &g, seed, plan.as_ref());
                let mut rec = RecordingObserver::default();
                let out_loud = loud.run_observed(10_000, &mut rec);

                assert_eq!(quiet.metrics(), loud.metrics(), "{what}: metrics");
                assert_eq!(quiet.round(), loud.round(), "{what}: final round");
                assert_eq!(out_quiet, out_loud, "{what}: outcome");
                assert_eq!(rec.events.len() as u64, loud.metrics().messages, "{what}");
                for ev in &rec.events {
                    let dir = g.directed_index(ev.from, ev.from_port);
                    assert_eq!(
                        (ev.to, ev.to_port),
                        g.directed_target(dir),
                        "{what}: {ev:?}"
                    );
                }
            }
        }
    }
}
