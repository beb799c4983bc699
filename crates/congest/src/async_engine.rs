//! The event-driven asynchronous executor.
//!
//! [`AsyncEngine`] drives the same protocol instances as the round
//! engines, but message arrival times come from a seeded
//! [`LatencyModel`] instead of the constant one-round hop: each crossing
//! schedules a delivery event on a due-tick `BinaryHeap` (deterministic
//! `(due, seq)` tie-breaking), nodes advance on local virtual time, and
//! per-edge service rates below 1 make hub congestion queue. Runs remain
//! pure functions of `(graph, protocols, seed, model, fault plan)`.
//!
//! **Equivalence contract:** under [`LatencyModel::zero`] every delivery
//! lands exactly on the next round boundary, so the engine executes the
//! round engine's schedule event for event — same protocol callbacks in
//! the same order, same RNG draws, same metrics, same observer stream.
//! The differential test suites pin this down, which is what lets the
//! round engine serve as the bit-exact oracle for the async one.
//!
//! The fault layer composes at the delivery site: drop/cut/crash
//! decisions are made at the crossing round exactly as in the round
//! engine, and per-edge fault delays fold into the due tick (one heap,
//! not two).

use std::cmp::Reverse;
use std::sync::Arc;

use welle_graph::{Graph, NodeId, Port};

use crate::engine::{Engine, EngineConfig, RunOutcome, Transmitter};
use crate::exec::Executor;
use crate::faults::{CompiledFaultPlan, FaultError, FaultPlan};
use crate::latency::{LatencyModel, LatencyState, TICKS_PER_ROUND};
use crate::metrics::{Metrics, NoopObserver, TransmitObserver};
use crate::protocol::{Protocol, Signal};
use crate::telemetry::{SpanStage, TelemetryConfig, TelemetryReport};

/// Deterministic event-driven executor of the *asynchronous* CONGEST
/// model, parameterized by a [`LatencyModel`].
///
/// ```
/// use std::sync::Arc;
/// use welle_congest::{AsyncEngine, EngineConfig, LatencyModel, testing::FloodMax};
/// use welle_graph::gen;
///
/// let g = Arc::new(gen::hypercube(3).unwrap());
/// let nodes = (0..g.n()).map(|i| FloodMax::new(i as u64)).collect();
/// let model = LatencyModel::log_normal(0.0, 0.5).seed(7);
/// let mut engine = AsyncEngine::new(Arc::clone(&g), nodes, EngineConfig::default(), model);
/// let outcome = engine.run(1_000);
/// assert!(outcome.is_done());
/// // Virtual time spans past the crossing count once latency is real.
/// assert!(engine.virtual_time() > 0.0);
/// ```
#[derive(Debug)]
pub struct AsyncEngine<P: Protocol> {
    /// The full round-engine state — graph, protocol instances, RNGs,
    /// inboxes, edge queues, wake-ups, fault schedule. Reusing it
    /// verbatim (protocol phase and transmission discipline included) is
    /// what makes the zero-latency equivalence structural rather than
    /// merely tested.
    core: Engine<P>,
    /// The latency layer: due-tick heap, per-edge busy horizons, and the
    /// virtual-time span.
    lat: LatencyState<P::Msg>,
}

impl<P: Protocol> AsyncEngine<P> {
    /// Creates an async engine over `graph` with one protocol instance
    /// per node, delivering under `model`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != graph.n()` or if `model` fails
    /// [`LatencyModel::validate`] (fallible callers validate first).
    pub fn new(
        graph: Arc<Graph>,
        nodes: Vec<P>,
        cfg: EngineConfig,
        model: LatencyModel,
    ) -> Self {
        if let Err(e) = model.validate() {
            panic!("invalid latency model: {e}");
        }
        let dirs = graph.directed_edge_count();
        AsyncEngine {
            core: Engine::new(graph, nodes, cfg),
            lat: LatencyState::new(model, dirs),
        }
    }

    /// Creates an async engine with protocols built per node index.
    pub fn from_fn(
        graph: Arc<Graph>,
        cfg: EngineConfig,
        model: LatencyModel,
        mut make: impl FnMut(usize) -> P,
    ) -> Self {
        let nodes = (0..graph.n()).map(&mut make).collect();
        AsyncEngine::new(graph, nodes, cfg, model)
    }

    /// Installs adversarial network conditions (see
    /// [`Engine::set_fault_plan`] for scheduling semantics). Fault
    /// delays compose with latency: a delayed edge adds whole rounds on
    /// top of the sampled latency at each crossing.
    ///
    /// # Errors
    ///
    /// A [`FaultError`] when the plan does not fit the graph.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), FaultError> {
        self.core.set_fault_plan(plan)
    }

    /// Installs an already-compiled fault plan in `O(1)` (see
    /// [`Engine::set_compiled_faults`]).
    pub fn set_compiled_faults(&mut self, plan: &CompiledFaultPlan) {
        self.core.set_compiled_faults(plan)
    }

    /// Installs the telemetry layer; see [`Engine::set_telemetry`].
    /// Under [`LatencyModel::zero`] the recorded sample stream is
    /// bit-identical to the round engines' (parked-heap depth and
    /// virtual-tick included) — part of the equivalence contract.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        self.core.set_telemetry(cfg)
    }

    /// Removes the telemetry layer and returns everything it recorded;
    /// see [`Engine::take_telemetry`].
    pub fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        self.core.take_telemetry()
    }

    /// The simulated network.
    pub fn graph(&self) -> &Arc<Graph> {
        self.core.graph()
    }

    /// Current round (the floor of local virtual time — event horizons
    /// are still quantized on round boundaries for the protocol phase).
    pub fn round(&self) -> u64 {
        self.core.round()
    }

    /// Traffic metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        self.core.metrics()
    }

    /// Immutable view of the protocol instances.
    pub fn nodes(&self) -> &[P] {
        self.core.nodes()
    }

    /// The protocol instance at node `i`.
    pub fn node(&self, i: usize) -> &P {
        self.core.node(i)
    }

    /// Messages queued for transmission or parked on the event heap, not
    /// yet delivered. Termination detection waits for this to hit zero —
    /// a parked high-latency message keeps the run alive.
    pub fn in_flight(&self) -> u64 {
        self.core.in_flight().saturating_add(self.lat.parked() as u64)
    }

    /// Peak queued-message population of the underlying edge queues
    /// (parked heap messages excluded); see [`Engine::peak_arena_slots`].
    pub fn peak_arena_slots(&self) -> u64 {
        self.core.peak_arena_slots()
    }

    /// Virtual time elapsed, in rounds: the later of the round clock and
    /// the latest delivery completion. Under the zero model this equals
    /// [`AsyncEngine::round`] exactly; heavy-tailed models stretch it
    /// past the crossing count.
    pub fn virtual_time(&self) -> f64 {
        let round_ticks = self.core.round().saturating_mul(TICKS_PER_ROUND);
        round_ticks.max(self.lat.last_tick()) as f64 / TICKS_PER_ROUND as f64
    }

    /// Runs until [`RunOutcome::Done`], [`RunOutcome::Quiescent`], or
    /// the round limit (a bound on *virtual* rounds).
    pub fn run(&mut self, round_limit: u64) -> RunOutcome {
        self.run_core(round_limit, &mut NoopObserver)
    }

    /// Like [`AsyncEngine::run`] but notifying `obs` of every
    /// transmission.
    pub fn run_observed(
        &mut self,
        round_limit: u64,
        obs: &mut dyn TransmitObserver,
    ) -> RunOutcome {
        self.run_core(round_limit, obs)
    }

    /// Broadcasts a control signal to every node (see
    /// [`crate::Protocol::on_signal`]).
    pub fn signal(&mut self, signal: Signal) {
        self.core.signal(signal)
    }

    /// The run loop: the round engine's drain/idle-skip logic with the
    /// latency heap standing in for the fault delay heap.
    fn run_core<O: TransmitObserver + ?Sized>(
        &mut self,
        round_limit: u64,
        obs: &mut O,
    ) -> RunOutcome {
        loop {
            let core = &mut self.core;
            if core.started {
                let drained = core.inbox_active.is_empty()
                    && core.pending.is_empty()
                    && core.queues.in_flight() == 0;
                let parked = self.lat.parked();
                if drained && parked == 0 {
                    if core.done_count == core.nodes.len() {
                        return RunOutcome::Done { round: core.round };
                    }
                    match core.wakeups.peek() {
                        None => return RunOutcome::Quiescent { round: core.round },
                        Some(&Reverse((r, _))) => {
                            if r > core.round {
                                // Skip the idle stretch in O(1).
                                core.round = r;
                            }
                        }
                    }
                } else if drained {
                    // Only parked events remain in flight: jump to the
                    // earlier of the next release and the next wake-up.
                    let due = self
                        .lat
                        .next_release_round()
                        // welle-lint: allow(no-lib-unwrap) — invariant: this branch is only reached when parked > 0, and every parked event has a release tick
                        .expect("parked > 0 implies a next release round");
                    let target = match core.wakeups.peek() {
                        Some(&Reverse((r, _))) => due.min(r),
                        None => due,
                    };
                    if target > core.round {
                        core.round = target;
                    }
                }
            }
            if core.round >= round_limit {
                return RunOutcome::RoundLimit { round: core.round };
            }
            self.step_core(obs);
        }
    }

    /// One event-loop iteration: the shared protocol phase, then the
    /// latency-aware transmission phase (release due events, cross this
    /// round's messages through the latency model).
    fn step_core<O: TransmitObserver + ?Sized>(&mut self, obs: &mut O) {
        let core = &mut self.core;
        let lat = &mut self.lat;
        // Telemetry mirrors the round engine exactly (see
        // `Engine::step_core`): one take, one restore, per round.
        let mut tel = core.telemetry.take();
        let t_round = tel.as_deref_mut().and_then(|t| t.begin(SpanStage::Round));

        let t_cb = tel.as_deref_mut().and_then(|t| t.begin(SpanStage::Callbacks));
        let acts_before = core.activations;
        let any_activity = core.protocol_phase();
        let callbacks_run = core.activations - acts_before;
        if let Some(t) = tel.as_deref_mut() {
            t.end(SpanStage::Callbacks, t_cb, callbacks_run);
        }

        let mut pending = std::mem::take(&mut core.pending);
        // The compiled fault schedule rides the core's fault state, but
        // its delay heap stays empty: latency and fault delays share the
        // tick heap in `lat`.
        let faults = core.faults.take();
        let compiled = faults.as_deref().map(|f| &*f.compiled);
        let horizon = core
            .round
            .saturating_add(1)
            .saturating_mul(TICKS_PER_ROUND);
        let transmitted =
            core.queues.in_flight() > 0 || !pending.is_empty() || lat.due_now(horizon);
        let t_deliver = tel.as_deref_mut().and_then(|t| t.begin(SpanStage::Deliver));
        let flow;
        {
            let mut tx = Transmitter::new(
                &core.graph,
                &mut core.queues,
                &mut core.last_carried,
                core.round,
                obs.wants_events(),
            );
            let inboxes = &mut core.inboxes;
            let inbox_flag = &mut core.inbox_flag;
            let inbox_active = &mut core.inbox_active;
            let mut sink = |v: NodeId, q: Port, msg: P::Msg| {
                inboxes[v.index()].push((q, msg));
                if !inbox_flag[v.index()] {
                    inbox_flag[v.index()] = true;
                    inbox_active.push(v.raw());
                }
            };
            let t_lh = tel.as_deref_mut().and_then(|t| t.begin(SpanStage::LatencyHeap));
            tx.release_latent(lat, compiled, obs, &mut sink);
            if let Some(t) = tel.as_deref_mut() {
                // Events: heap releases delivered before this round's
                // own crossings.
                t.end(SpanStage::LatencyHeap, t_lh, tx.delivered_so_far());
            }
            // The fault decisions are taken at each crossing, inside the
            // pump and the offers, so the filter's span wraps both.
            let t_ff = match (compiled, tel.as_deref_mut()) {
                (Some(_), Some(t)) => t.begin(SpanStage::FaultFilter),
                _ => None,
            };
            let before = t_ff.map(|_| tx.settled_so_far() + lat.parked() as u64);
            tx.pump_backlog_latent(lat, compiled, obs, &mut sink);
            for (dir, msg) in pending.drain() {
                tx.offer_latent(lat, compiled, dir as usize, msg, obs, &mut sink);
            }
            if let (Some(t), Some(before)) = (tel.as_deref_mut(), before) {
                // Events: every crossing the filter inspected, whether it
                // was delivered now, dropped, or parked on the heap.
                let inspected = tx.settled_so_far() + lat.parked() as u64 - before;
                t.end(SpanStage::FaultFilter, t_ff, inspected);
            }
            flow = tx.finish(&mut core.metrics);
        }
        if let Some(t) = tel.as_deref_mut() {
            t.end(SpanStage::Deliver, t_deliver, flow.messages);
        }
        core.faults = faults;
        core.pending = pending;
        if any_activity || transmitted {
            core.metrics.active_rounds += 1;
            if let Some(t) = tel.as_deref_mut() {
                // The parked-heap depth: under the zero model the
                // latency heap holds exactly the messages the round
                // engine's fault-delay heap would (same park and release
                // rounds), so the streams agree byte for byte.
                let parked = lat.parked() as u64;
                t.end_round(
                    core.round,
                    core.phase_seen.take(),
                    callbacks_run,
                    &flow,
                    parked,
                    horizon,
                );
            }
        }
        if let Some(t) = tel.as_deref_mut() {
            t.end(SpanStage::Round, t_round, callbacks_run + flow.messages);
        }
        core.telemetry = tel;
        core.round += 1;
    }
}

impl<P: Protocol> Executor<P> for AsyncEngine<P> {
    fn graph(&self) -> &Arc<Graph> {
        AsyncEngine::graph(self)
    }

    fn round(&self) -> u64 {
        AsyncEngine::round(self)
    }

    fn metrics(&self) -> &Metrics {
        AsyncEngine::metrics(self)
    }

    fn nodes(&self) -> &[P] {
        AsyncEngine::nodes(self)
    }

    fn in_flight(&self) -> u64 {
        AsyncEngine::in_flight(self)
    }

    fn peak_arena_slots(&self) -> u64 {
        AsyncEngine::peak_arena_slots(self)
    }

    fn virtual_time(&self) -> f64 {
        AsyncEngine::virtual_time(self)
    }

    fn run_observed(
        &mut self,
        round_limit: u64,
        obs: &mut dyn TransmitObserver,
    ) -> RunOutcome {
        AsyncEngine::run_observed(self, round_limit, obs)
    }

    fn signal(&mut self, signal: Signal) {
        AsyncEngine::signal(self, signal)
    }

    fn run(&mut self, round_limit: u64) -> RunOutcome {
        AsyncEngine::run(self, round_limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RecordingObserver;
    use crate::testing::{Echo, FloodMax};
    use welle_graph::gen;

    fn flood_async(n: usize, seed: u64, model: LatencyModel) -> AsyncEngine<FloodMax> {
        let g = Arc::new(gen::ring(n).unwrap());
        AsyncEngine::from_fn(
            g,
            EngineConfig {
                seed,
                bandwidth_bits: None,
            },
            model,
            |i| FloodMax::new(i as u64),
        )
    }

    #[test]
    fn zero_latency_event_stream_matches_the_round_engine() {
        let g = Arc::new(gen::torus2d(4, 5).unwrap());
        let mk = |i: usize| FloodMax::new((i as u64 * 7919) % 101);
        let cfg = EngineConfig::default();
        let mut sync = Engine::from_fn(Arc::clone(&g), cfg, mk);
        let mut async_ = AsyncEngine::from_fn(Arc::clone(&g), cfg, LatencyModel::zero(), mk);
        let mut obs_a = RecordingObserver::default();
        let mut obs_b = RecordingObserver::default();
        let out_a = sync.run_observed(10_000, &mut obs_a);
        let out_b = async_.run_observed(10_000, &mut obs_b);
        assert_eq!(out_a, out_b);
        assert_eq!(obs_a.events, obs_b.events, "event-for-event equivalence");
        assert_eq!(sync.metrics(), async_.metrics());
        assert_eq!(async_.virtual_time(), async_.round() as f64);
    }

    #[test]
    fn fixed_latency_shifts_arrival_rounds() {
        // One ping down a path edge under 3 extra rounds of latency:
        // the crossing at round 0 lands at round 3 (observer view), the
        // pong's crossing at round 4 lands at round 7 — the same
        // timeline the fault layer's delay-3 plan produces.
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = AsyncEngine::from_fn(
            Arc::clone(&g),
            EngineConfig::default(),
            LatencyModel::fixed(3.0),
            |i| Echo::new(i == 0),
        );
        let mut obs = RecordingObserver::default();
        let out = e.run_observed(1_000, &mut obs);
        let rounds: Vec<u64> = obs.events.iter().map(|ev| ev.round).collect();
        assert_eq!(rounds, vec![3, 7], "outcome: {out:?}");
        assert_eq!(e.node(0).replies_received(), 1);
        // The pong completed service at round 8 and was processed in
        // round 8's protocol phase; the clock then reads 9.
        assert!(e.virtual_time() >= 8.0);
        assert_eq!(e.virtual_time(), e.round() as f64);
    }

    #[test]
    fn termination_never_outruns_a_parked_event() {
        // A single ping with 50 rounds of latency: the run must stay
        // alive (in-flight > 0) until the event lands, then finish —
        // without stepping the idle stretch round by round.
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = AsyncEngine::from_fn(
            Arc::clone(&g),
            EngineConfig::default(),
            LatencyModel::fixed(50.0),
            |i| Echo::new(i == 0),
        );
        let out = e.run(10_000);
        // Echo nodes never report done; the run ends quiescent only
        // after both the ping (released round 50) and the pong
        // (released round 101) have landed — never before.
        assert!(matches!(out, RunOutcome::Quiescent { .. }), "{out:?}");
        assert!(out.round() >= 101, "round {}", out.round());
        assert_eq!(e.in_flight(), 0);
        assert_eq!(e.node(0).replies_received(), 1);
        assert!(
            e.metrics().active_rounds <= 6,
            "idle stretches must be skipped, not stepped: {}",
            e.metrics().active_rounds
        );
    }

    #[test]
    fn simultaneous_events_release_in_crossing_order() {
        // All first-round floods share one due tick under a fixed
        // model; release must preserve the crossing (seq) order, which
        // is the round engine's delivery order for the same round.
        let model = LatencyModel::fixed(2.0);
        let mut a = flood_async(12, 3, model);
        let mut b = flood_async(12, 3, model);
        let mut obs_a = RecordingObserver::default();
        let mut obs_b = RecordingObserver::default();
        a.run_observed(10_000, &mut obs_a);
        b.run_observed(10_000, &mut obs_b);
        assert_eq!(obs_a.events, obs_b.events, "deterministic release order");
        // Same-round releases arrive in ascending crossing order: the
        // observer stream is sorted by round, and within a round matches
        // the zero-latency crossing order of that round's batch.
        let mut prev_round = 0;
        for ev in &obs_a.events {
            assert!(ev.round >= prev_round, "releases sorted by round");
            prev_round = ev.round;
        }
    }

    #[test]
    fn per_edge_fifo_is_preserved_under_equal_latencies() {
        // FloodMax on a ring improves repeatedly: the same directed
        // edge carries several messages over the run. Under a uniform
        // positive latency all its crossings get distinct due ticks in
        // crossing order (ticks grow with the round), so arrivals on
        // one edge must be in crossing order — FIFO per edge.
        let mut e = flood_async(16, 9, LatencyModel::fixed(1.25));
        let mut obs = RecordingObserver::default();
        let out = e.run_observed(10_000, &mut obs);
        assert!(out.is_done(), "{out:?}");
        use std::collections::HashMap;
        // Each later crossing of a directed edge gets a strictly larger
        // due tick, so its arrival round must never precede an earlier
        // crossing's — FIFO per edge.
        let mut last_round: HashMap<(u32, u32), u64> = HashMap::new();
        for ev in &obs.events {
            let key = (ev.from.raw(), ev.to.raw());
            if let Some(&prev) = last_round.get(&key) {
                assert!(prev <= ev.round, "edge {key:?} reordered");
            }
            last_round.insert(key, ev.round);
        }
        // Everyone converged despite the latency.
        assert!(e.nodes().iter().all(|n| n.best() == 15));
    }

    #[test]
    fn nonzero_latency_is_deterministic_across_repeats() {
        for model in [
            LatencyModel::uniform(0.0, 2.0).seed(11),
            LatencyModel::log_normal(0.0, 0.75).seed(12),
            LatencyModel::fixed(0.5).service_rate(0.25),
        ] {
            let mut a = flood_async(20, 5, model);
            let mut b = flood_async(20, 5, model);
            let mut obs_a = RecordingObserver::default();
            let mut obs_b = RecordingObserver::default();
            let out_a = a.run_observed(100_000, &mut obs_a);
            let out_b = b.run_observed(100_000, &mut obs_b);
            assert_eq!(out_a, out_b);
            assert_eq!(obs_a.events, obs_b.events);
            assert_eq!(a.metrics(), b.metrics());
            assert_eq!(a.virtual_time(), b.virtual_time());
        }
    }

    #[test]
    fn service_rate_congestion_stretches_virtual_time() {
        // Rate 0.25: every crossing occupies its edge for 4 rounds.
        // FloodMax floods every edge at start-up, so the run's virtual
        // span must stretch well past the zero-model run's.
        let mut fast = flood_async(16, 2, LatencyModel::zero());
        let mut slow = flood_async(16, 2, LatencyModel::zero().service_rate(0.25));
        fast.run(100_000);
        slow.run(100_000);
        assert!(
            slow.virtual_time() >= fast.virtual_time() * 2.0,
            "slow {} vs fast {}",
            slow.virtual_time(),
            fast.virtual_time()
        );
        // Congestion reorders nothing fatal: everyone still converges.
        assert!(slow.nodes().iter().all(|n| n.best() == 15));
    }

    #[test]
    fn faults_compose_with_latency_at_the_crossing() {
        // Cut the only edge at round 0: nothing is ever delivered, and
        // the drop is counted — same as the round engine.
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = AsyncEngine::from_fn(
            Arc::clone(&g),
            EngineConfig::default(),
            LatencyModel::fixed(2.0),
            |i| Echo::new(i == 0),
        );
        e.set_fault_plan(&FaultPlan::new(0).cut(0, 1, 0)).unwrap();
        let out = e.run(1_000);
        assert!(matches!(out, RunOutcome::Quiescent { .. }), "{out:?}");
        assert_eq!(e.metrics().messages, 0);
        assert_eq!(e.metrics().dropped_messages, 1);
        assert_eq!(e.node(0).replies_received(), 0);
    }

    #[test]
    fn fault_delay_folds_into_the_tick_heap() {
        // delay_all(3) under the zero model reproduces the round
        // engine's delayed-echo timeline: arrivals at rounds 3 and 7.
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = AsyncEngine::from_fn(
            Arc::clone(&g),
            EngineConfig::default(),
            LatencyModel::zero(),
            |i| Echo::new(i == 0),
        );
        e.set_fault_plan(&FaultPlan::new(0).delay_all(3)).unwrap();
        let mut obs = RecordingObserver::default();
        e.run_observed(1_000, &mut obs);
        let rounds: Vec<u64> = obs.events.iter().map(|ev| ev.round).collect();
        assert_eq!(rounds, vec![3, 7]);
        assert_eq!(e.node(0).replies_received(), 1);
    }
}
