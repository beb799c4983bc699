//! Property-based tests for the walk machinery.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use welle_graph::{analysis, gen, NodeId, Port};
use welle_walks::{
    endpoint_distribution, lazy_step, run_walk_fleet, split_lazy, split_lazy_into, Hop, LazySplit,
    ReverseRoute, TrailStore,
};

/// The `Hop` an op's `kind`/`port` pair encodes: kind 0 is a lazy stay,
/// anything else crosses `port`.
fn hop(kind: u8, port: usize) -> Hop {
    if kind == 0 {
        Hop::Stay
    } else {
        Hop::Via(Port::new(port))
    }
}

/// Reference model of one stored trail: what `TrailStore` must expose.
#[derive(Clone, Debug, Default)]
struct ModelTrail {
    epoch: u32,
    len: u32,
    finalized: bool,
    ins: Vec<(u32, usize)>,
    outs: Vec<(u32, usize)>,
    out_ports: BTreeSet<usize>,
}

/// A `BTreeMap` reference for `TrailStore`, with the epoch rules spelled
/// out case by case.
#[derive(Default)]
struct ModelStore {
    trails: BTreeMap<u64, ModelTrail>,
}

impl ModelStore {
    fn enter_epoch(&mut self, origin: u64, epoch: u32, len: u32) -> Option<&mut ModelTrail> {
        let fresh = ModelTrail {
            epoch,
            len,
            ..ModelTrail::default()
        };
        match self.trails.get(&origin) {
            Some(t) if t.finalized && t.epoch != epoch => return None,
            Some(t) if t.epoch > epoch => return None,
            Some(t) if t.epoch == epoch => {}
            _ => {
                self.trails.insert(origin, fresh);
            }
        }
        self.trails.get_mut(&origin)
    }

    fn finalize(&mut self, origin: u64, epoch: u32) {
        if let Some(t) = self.trails.get_mut(&origin) {
            if t.epoch == epoch {
                t.finalized = true;
            }
        }
    }

    fn gc(&mut self, current_epoch: u32) {
        self.trails
            .retain(|_, t| t.finalized || t.epoch >= current_epoch);
    }
}

/// A lazy split written out independently of the library: per walk, a
/// stay coin and, for a mover, a port; then the nonzero ports in
/// ascending order. The reference for the draws both split entry points
/// must make.
fn reference_split(count: u32, degree: usize, rng: &mut StdRng) -> LazySplit {
    let mut stay = 0u32;
    let mut port_counts = vec![0u32; degree];
    for _ in 0..count {
        if rand::RngExt::random_bool(rng, 0.5) {
            stay += 1;
        } else {
            port_counts[rand::RngExt::random_range(rng, 0..degree)] += 1;
        }
    }
    let moves = port_counts
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .map(|(p, c)| (Port::new(p), c))
        .collect();
    LazySplit { stay, moves }
}

fn record(list: &mut Vec<(u32, usize)>, step: u32, port: usize) {
    if !list.contains(&(step, port)) {
        list.push((step, port));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn split_conserves_arbitrary_counts(count in 0u32..5_000, degree in 1usize..64, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = split_lazy(count, degree, &mut rng);
        let moved: u32 = s.moves.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(s.stay + moved, count);
        let mut ports: Vec<usize> = s.moves.iter().map(|&(p, _)| p.index()).collect();
        ports.dedup();
        prop_assert_eq!(ports.len(), s.moves.len(), "ports are distinct and sorted");
    }

    #[test]
    fn distribution_mass_is_preserved(n in 4usize..32, steps in 0u32..50, start_seed in any::<u64>()) {
        let g = gen::ring(n.max(3)).unwrap();
        let start = NodeId::new((start_seed % n as u64) as usize % g.n());
        let d = endpoint_distribution(&g, start, steps);
        let mass: f64 = d.iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        prop_assert!(d.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn stationary_is_fixed_point_on_random_graphs(seed in any::<u64>(), n in 6usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::gnp_connected(n, 0.5, &mut rng).unwrap();
        let pi = analysis::stationary_distribution(&g).unwrap();
        let mut next = vec![0.0; g.n()];
        lazy_step(&g, &pi, &mut next);
        for (a, b) in pi.iter().zip(&next) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn trail_reverse_route_terminates(steps in 1u32..40, seed in any::<u64>()) {
        // Build a random single-walk trail: at each step, stay or come
        // from a random port; reverse routing must reach Origin.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = TrailStore::new();
        let t = store.enter_epoch(9, 0, steps).unwrap();
        t.record_in(0, Hop::Origin);
        for s in 1..=steps {
            let hop = if rand::RngExt::random_bool(&mut rng, 0.5) {
                Hop::Stay
            } else {
                Hop::Via(welle_graph::Port::new(rand::RngExt::random_range(&mut rng, 0..4usize)))
            };
            t.record_in(s, hop);
        }
        // From any step, the route either forwards over an edge or lands
        // at the origin — never Broken.
        let trail = store.current(9).unwrap();
        for s in 0..=steps {
            prop_assert_ne!(trail.reverse_route(s), ReverseRoute::Broken);
        }
    }

    #[test]
    fn walk_fleet_conservation_on_random_graphs(seed in any::<u64>(), n in 8usize..24, walks in 1u32..200, len in 1u32..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Arc::new(gen::gnp_connected(n, 0.4, &mut rng).unwrap());
        let origin = (seed % n as u64) as usize;
        let (counts, reported) = run_walk_fleet(&g, origin, walks, len, seed ^ 7);
        let total: u32 = counts.iter().sum();
        prop_assert_eq!(total, walks, "every walk ends exactly once");
        prop_assert_eq!(reported, walks, "every endpoint reports back");
    }

    #[test]
    fn endpoints_stay_within_walk_radius(seed in any::<u64>(), len in 1u32..6) {
        let g = Arc::new(gen::torus2d(6, 6).unwrap());
        let (counts, _) = run_walk_fleet(&g, 0, 50, len, seed);
        let dist = analysis::bfs(&g, NodeId::new(0));
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                prop_assert!(dist[i] <= len, "endpoint {i} at distance {} > {len}", dist[i]);
            }
        }
    }

    #[test]
    fn cached_out_ports_match_recomputation(
        ops in prop::collection::vec((0u32..8, 0u8..3, 0usize..6), 0..64),
    ) {
        let mut store = TrailStore::new();
        let t = store.enter_epoch(1, 0, 8).unwrap();
        for &(step, kind, port) in &ops {
            t.record_out(step, hop(kind, port));
            let mut want: Vec<Port> = (0..8)
                .flat_map(|s| t.outs(s).collect::<Vec<_>>())
                .filter_map(|h| match h {
                    Hop::Via(p) => Some(p),
                    _ => None,
                })
                .collect();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(t.distinct_out_ports(), &want[..]);
        }
    }

    #[test]
    fn buffer_split_matches_allocating_split(
        draws in prop::collection::vec((0u32..3_000, 1usize..40), 1..6),
        seed in any::<u64>(),
    ) {
        let mut reference_rng = StdRng::seed_from_u64(seed);
        let mut fresh_rng = StdRng::seed_from_u64(seed);
        let mut buffer_rng = StdRng::seed_from_u64(seed);
        // Start from a dirty buffer: the fill must overwrite it whole.
        let mut buf = LazySplit { stay: 77, moves: vec![(Port::new(3), 9); 50] };
        for &(count, degree) in &draws {
            let want = reference_split(count, degree, &mut reference_rng);
            prop_assert_eq!(&split_lazy(count, degree, &mut fresh_rng), &want);
            split_lazy_into(count, degree, &mut buffer_rng, &mut buf);
            prop_assert_eq!(&buf, &want);
            prop_assert!(buf.moves.len() <= degree);
        }
        // Same draws, so the three generators are in the same state.
        let next = |r: &mut StdRng| rand::RngExt::random_range(r, 0..u64::MAX);
        let after = next(&mut reference_rng);
        prop_assert_eq!(next(&mut fresh_rng), after);
        prop_assert_eq!(next(&mut buffer_rng), after);
    }

    #[test]
    fn trail_store_matches_btree_model(
        ops in prop::collection::vec((0u8..4, 0u64..6, 0u32..5, 1u32..4, 0u32..4, 0usize..4), 0..80),
    ) {
        let mut store = TrailStore::new();
        let mut model = ModelStore::default();
        for &(op, origin, epoch, len, step, port) in &ops {
            match op {
                0 | 1 => {
                    let got = store.enter_epoch(origin, epoch, len);
                    let want = model.enter_epoch(origin, epoch, len);
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(t), Some(m)) = (got, want) {
                        // Leave marks, so a reset that kept old records
                        // shows up in the comparison below.
                        t.record_in(step, hop(1, port));
                        t.record_out(step, hop(1, port + op as usize));
                        record(&mut m.ins, step, port);
                        record(&mut m.outs, step, port + op as usize);
                        m.out_ports.insert(port + op as usize);
                    }
                }
                2 => {
                    store.finalize(origin, epoch);
                    model.finalize(origin, epoch);
                }
                _ => {
                    store.gc(epoch);
                    model.gc(epoch);
                }
            }
            prop_assert_eq!(store.len(), model.trails.len());
            prop_assert!(store.iter().map(|(o, _)| o).eq(model.trails.keys().copied()));
            for ((o, t), m) in store.iter().zip(model.trails.values()) {
                prop_assert_eq!((t.epoch(), t.len(), t.is_finalized()), (m.epoch, m.len, m.finalized));
                prop_assert_eq!(t.footprint(), (m.ins.len(), m.outs.len()));
                let ports: Vec<usize> = t.distinct_out_ports().iter().map(|p| p.index()).collect();
                prop_assert!(ports.iter().eq(m.out_ports.iter()), "origin {}", o);
                for s in 0..4 {
                    let ins: Vec<Hop> = t.ins(s).collect();
                    let want: Vec<Hop> =
                        m.ins.iter().filter(|&&(ms, _)| ms == s).map(|&(_, p)| hop(1, p)).collect();
                    prop_assert_eq!(ins, want);
                }
                prop_assert_eq!(store.current(o).map(|c| c.epoch()), Some(m.epoch));
            }
        }
    }
}
