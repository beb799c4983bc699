//! Differential suite for the recycling message arena.
//!
//! Every round, each backlogged edge's head is popped from the shared
//! slot arena straight into its target's inbox, its slot freed before
//! delivery. The contract: the arena is invisible to behaviour and
//! airtight in memory. On any graph, seed and fault plan, the serial,
//! threaded and zero-latency async executors replay the same
//! transmission stream, metrics, outcome and arena peak, and a
//! finished run leaves no message behind.
//!
//! This file is the CI fence for the arena (see
//! `.github/workflows/ci.yml`).

mod common;

use std::sync::Arc;

use common::{agreeing_executors, fault_plan, flood_executor, random_connected_graph};
use proptest::prelude::*;
use welle_congest::{Exec, FaultPlan, Metrics, RecordingObserver, TransmitEvent};
use welle_graph::Graph;

struct Run {
    events: Vec<TransmitEvent>,
    metrics: Metrics,
    round: u64,
    done: bool,
    peak_arena_slots: u64,
    in_flight: u64,
}

fn run(exec: Exec, g: &Arc<Graph>, seed: u64, plan: Option<&FaultPlan>) -> Run {
    let mut e = flood_executor(exec, g, seed, plan);
    let mut rec = RecordingObserver::default();
    let out = e.run_observed(10_000, &mut rec);
    Run {
        events: rec.events,
        metrics: e.metrics().clone(),
        round: e.round(),
        done: out.is_done(),
        peak_arena_slots: e.peak_arena_slots(),
        in_flight: e.in_flight(),
    }
}

fn assert_same(base: &Run, other: &Run, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&base.events, &other.events, "{}: transmission streams diverge", what);
    prop_assert_eq!(&base.metrics, &other.metrics, "{}: metrics diverge", what);
    prop_assert_eq!(base.round, other.round, "{}: round counts diverge", what);
    prop_assert_eq!(base.done, other.done, "{}: outcomes diverge", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every executor drains the arena identically: the same stream,
    /// metrics and outcome, and — since the high-water mark is a pure
    /// function of the traffic — the same arena peak, under every
    /// fault shape.
    #[test]
    fn executors_agree_on_stream_and_arena_peak(
        n in 4usize..24,
        extra in 0usize..16,
        seed in any::<u64>(),
        fault_kind in 0u8..4,
        workers in 1usize..4,
    ) {
        let g = random_connected_graph(n, extra, seed);
        let plan = fault_plan(fault_kind, seed ^ 0xBEEF);
        let base = run(Exec::Serial, &g, seed, plan.as_ref());
        for (name, exec) in agreeing_executors(workers) {
            let other = run(exec, &g, seed, plan.as_ref());
            assert_same(&base, &other, name)?;
            prop_assert_eq!(base.peak_arena_slots, other.peak_arena_slots,
                "{}: the arena peak must not depend on the executor", name);
        }
    }

    /// Arena recycling is airtight: after a finished run every message
    /// has left the queues, the pending batch and the fault layer's
    /// parking (no leaks), and the peak never exceeds the total traffic
    /// that ever entered the queues.
    #[test]
    fn arena_slots_recycle_without_leaking(
        n in 4usize..24,
        extra in 0usize..16,
        seed in any::<u64>(),
        fault_kind in 0u8..4,
    ) {
        let g = random_connected_graph(n, extra, seed);
        let plan = fault_plan(fault_kind, seed ^ 0xBEEF);
        let run = run(Exec::Serial, &g, seed, plan.as_ref());
        prop_assert!(run.done, "FloodMax finishes under every fault shape");
        prop_assert_eq!(run.in_flight, 0, "a finished run left messages in flight");
        prop_assert!(run.peak_arena_slots <= run.metrics.messages + run.metrics.dropped_messages,
            "peak {} exceeds total traffic {}",
            run.peak_arena_slots, run.metrics.messages + run.metrics.dropped_messages);
    }
}
