//! The event-driven synchronous engine (the default executor).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use welle_graph::{Graph, NodeId, Port};

use crate::faults::{CompiledFaultPlan, CompiledFaults, FaultError, FaultPlan, FaultState};
use crate::latency::{LatencyState, TICKS_PER_ROUND};
use crate::message::Payload;
use crate::metrics::{Metrics, NoopObserver, TransmitEvent, TransmitObserver};
use crate::protocol::{Context, Protocol, Signal};
use crate::queues::{DirBatch, EdgeQueues, SHRINK_FLOOR, SHRINK_RATIO};
use crate::telemetry::{RoundFlow, SpanStage, TelemetryConfig, TelemetryReport, TelemetryState};

/// Engine-wide configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Master seed; each node's private RNG is derived from it and the
    /// node index, so a run is a pure function of `(graph, protocols,
    /// seed)`.
    pub seed: u64,
    /// Per-message size cap in bits (the CONGEST `O(log n)` budget).
    /// `None` disables the check (LOCAL model).
    pub bandwidth_bits: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0x5EED_0001,
            bandwidth_bits: None,
        }
    }
}

/// Why a [`Engine::run`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every node reported [`Protocol::is_done`] and no message is in
    /// flight.
    Done {
        /// Round at which the run stopped.
        round: u64,
    },
    /// No messages in flight, no pending wake-ups, but not all nodes are
    /// done — the system can never make progress again.
    Quiescent {
        /// Round at which the run stopped.
        round: u64,
    },
    /// The round limit was reached first.
    RoundLimit {
        /// Round at which the run stopped.
        round: u64,
    },
    /// The caller-provided stop predicate fired.
    Stopped {
        /// Round at which the run stopped.
        round: u64,
    },
}

impl RunOutcome {
    /// Round at which the run ended, whatever the reason.
    pub fn round(&self) -> u64 {
        match *self {
            RunOutcome::Done { round }
            | RunOutcome::Quiescent { round }
            | RunOutcome::RoundLimit { round }
            | RunOutcome::Stopped { round } => round,
        }
    }

    /// Whether the run ended with every node done.
    pub fn is_done(&self) -> bool {
        matches!(self, RunOutcome::Done { .. })
    }
}

/// Deterministic, event-driven executor of the synchronous CONGEST model.
///
/// Nodes run in lock-step rounds; each directed edge carries at most one
/// message per round (queued excess is delivered in later rounds — this is
/// how congestion manifests as time). Idle stretches (all nodes waiting on
/// a scheduled wake-up) are skipped in `O(1)`, so the paper's generous
/// fixed-`T` schedules cost nothing to simulate.
///
/// ```
/// use std::sync::Arc;
/// use welle_congest::{Engine, EngineConfig, testing::FloodMax};
/// use welle_graph::gen;
///
/// let g = Arc::new(gen::ring(8).unwrap());
/// let nodes = (0..8).map(|i| FloodMax::new(i as u64)).collect();
/// let mut engine = Engine::new(g, nodes, EngineConfig::default());
/// let outcome = engine.run(1_000);
/// assert!(outcome.is_done());
/// // Everyone learned the maximum id.
/// assert!(engine.nodes().iter().all(|n| n.best() == 7));
/// ```
#[derive(Debug)]
pub struct Engine<P: Protocol> {
    pub(crate) graph: Arc<Graph>,
    pub(crate) cfg: EngineConfig,
    pub(crate) nodes: Vec<P>,
    pub(crate) rngs: Vec<StdRng>,
    pub(crate) queues: EdgeQueues<P::Msg>,
    pub(crate) inboxes: Vec<Vec<(Port, P::Msg)>>,
    pub(crate) inbox_active: Vec<u32>,
    pub(crate) inbox_flag: Vec<bool>,
    pub(crate) wakeups: BinaryHeap<Reverse<(u64, u32)>>,
    pub(crate) round: u64,
    pub(crate) started: bool,
    pub(crate) done_flags: Vec<bool>,
    pub(crate) done_count: usize,
    pub(crate) metrics: Metrics,
    /// Sends of the current round, in send order, awaiting transmission.
    /// Uncongested messages go straight from here to the target inbox;
    /// only backlogged edges touch the arena in `queues`.
    pub(crate) pending: DirBatch<P::Msg>,
    /// Round at which each directed edge last carried a message; the
    /// CONGEST one-per-round discipline without per-edge clearing.
    pub(crate) last_carried: Vec<u64>,
    /// Installed adversarial network conditions, if any. `None` keeps
    /// the delivery loop on the exact fault-free fast path (the branch
    /// is taken once per round, not per message).
    pub(crate) faults: Option<Box<FaultState<P::Msg>>>,
    /// Installed telemetry, if any — the same single-branch-per-round
    /// design as `faults`: `None` keeps the hot path untouched.
    pub(crate) telemetry: Option<Box<TelemetryState>>,
    /// Maximum phase tag published (via [`Protocol::phase_tag`]) by the
    /// callbacks of the round in progress; drained into the telemetry
    /// sample at round end.
    pub(crate) phase_seen: Option<u8>,
    /// Monotone count of protocol callbacks executed (crashed nodes
    /// excluded); per-round deltas give a sample's `active_nodes`.
    pub(crate) activations: u64,
}

impl<P: Protocol> Engine<P> {
    /// Creates an engine over `graph` with one protocol instance per node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != graph.n()`.
    pub fn new(graph: Arc<Graph>, nodes: Vec<P>, cfg: EngineConfig) -> Self {
        assert_eq!(
            nodes.len(),
            graph.n(),
            "need exactly one protocol instance per node"
        );
        let n = graph.n();
        let rngs = (0..n).map(|i| node_rng(cfg.seed, i)).collect();
        Engine {
            queues: EdgeQueues::new(graph.directed_edge_count()),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            inbox_active: Vec::new(),
            inbox_flag: vec![false; n],
            wakeups: BinaryHeap::new(),
            round: 0,
            started: false,
            done_flags: vec![false; n],
            done_count: 0,
            metrics: Metrics::new(n),
            pending: DirBatch::new(),
            last_carried: vec![u64::MAX; graph.directed_edge_count()],
            faults: None,
            telemetry: None,
            phase_seen: None,
            activations: 0,
            graph,
            cfg,
            nodes,
            rngs,
        }
    }

    /// Installs adversarial network conditions (see [`FaultPlan`]): the
    /// plan is compiled against this engine's graph and applied to every
    /// round simulated from now on. Install before the first
    /// `run`/`step` call to cover the whole execution. Note that crash
    /// and cut schedules are *predicates on the round number* ("silent
    /// from round `r` on"): installing mid-run applies any schedule
    /// whose round has already passed from the current round forward,
    /// while drop and delay decisions only affect crossings after
    /// installation.
    ///
    /// # Errors
    ///
    /// A [`FaultError`] when the plan does not fit the graph (bad
    /// probabilities, crash targets out of range, cuts naming missing
    /// edges). The engine is unchanged on error.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), FaultError> {
        let compiled = plan.compile_for(&self.graph)?;
        self.set_compiled_faults(&compiled);
        Ok(())
    }

    /// Installs an already-compiled fault plan in `O(1)` (see
    /// [`FaultPlan::compile_for`]; same semantics as
    /// [`Engine::set_fault_plan`]). The handle must have been compiled
    /// for this engine's graph.
    ///
    /// Replacing a plan mid-run discards any messages the *previous*
    /// plan still held in its delay buffer; they are counted in
    /// [`Metrics::dropped_messages`] rather than silently vanishing.
    pub fn set_compiled_faults(&mut self, plan: &CompiledFaultPlan) {
        if let Some(old) = self.faults.take() {
            self.metrics.dropped_messages += old.parked() as u64;
        }
        self.metrics.crashed_nodes = plan.0.scheduled_crashes;
        self.faults = Some(Box::new(FaultState::new(Arc::clone(&plan.0))));
    }

    /// The compiled fault schedule, for executors that share it with
    /// worker threads.
    pub(crate) fn compiled_faults(&self) -> Option<Arc<CompiledFaults>> {
        self.faults.as_ref().map(|f| Arc::clone(&f.compiled))
    }

    /// Installs the telemetry layer (see [`crate::TelemetryConfig`]):
    /// every *active* round simulated from now on appends one
    /// [`crate::RoundSample`] and updates the per-phase aggregates.
    /// Replaces (and discards) any previously installed telemetry.
    /// Install before the first `run`/`step` call to cover the whole
    /// execution; without this call the engine pays a single null check
    /// per round and allocates nothing.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        self.phase_seen = None;
        self.telemetry = Some(Box::new(TelemetryState::new(cfg)));
    }

    /// Removes the telemetry layer and returns everything it recorded,
    /// or `None` when [`Engine::set_telemetry`] was never called (or the
    /// report was already taken).
    pub fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        self.telemetry.take().map(|t| t.into_report())
    }

    /// Creates an engine with protocols built per node index.
    pub fn from_fn(
        graph: Arc<Graph>,
        cfg: EngineConfig,
        mut make: impl FnMut(usize) -> P,
    ) -> Self {
        let nodes = (0..graph.n()).map(&mut make).collect();
        Engine::new(graph, nodes, cfg)
    }

    /// Resets this engine in place to exactly the state
    /// [`Engine::from_fn`]`(graph, cfg, make)` would construct, but
    /// reusing every arena the previous run grew — node and RNG vectors,
    /// per-node inboxes, the edge-queue slot pool and the pending
    /// batch. The graph may differ from the previous run's (vectors
    /// resize as needed), which is what lets a batch scheduler keep one
    /// engine per worker across thousands of trials.
    ///
    /// Reuse also *shrinks*: a message arena whose capacity exceeds a
    /// high-water ratio of the target graph's directed-edge count
    /// (8× today, with an 8192-slot floor under which nothing is ever
    /// shed) is released rather than pinned for the pool's lifetime, so
    /// resetting from an `n = 10⁶` scenario to an `n = 10³` one returns
    /// the large buffers to the allocator while same-scale reuse stays
    /// allocation-free.
    ///
    /// A reset engine is bit-identical to a fresh one: the only
    /// difference is where its buffers' memory came from.
    pub fn reset_with(
        &mut self,
        graph: Arc<Graph>,
        cfg: EngineConfig,
        mut make: impl FnMut(usize) -> P,
    ) {
        let n = graph.n();
        let dcount = graph.directed_edge_count();
        self.nodes.clear();
        self.nodes.extend((0..n).map(&mut make));
        self.rngs.clear();
        self.rngs.extend((0..n).map(|i| node_rng(cfg.seed, i)));
        self.queues.reset(dcount);
        for inbox in self.inboxes.iter_mut() {
            inbox.clear(); // keep each node's inbox allocation
        }
        self.inboxes.resize_with(n, Vec::new);
        self.inbox_active.clear();
        self.inbox_flag.clear();
        self.inbox_flag.resize(n, false);
        self.wakeups.clear();
        self.round = 0;
        self.started = false;
        self.done_flags.clear();
        self.done_flags.resize(n, false);
        self.done_count = 0;
        self.metrics.reset(n);
        let limit = SHRINK_RATIO.saturating_mul(dcount).max(SHRINK_FLOOR);
        if self.pending.capacity() > limit {
            self.pending.release();
        } else {
            self.pending.clear();
        }
        self.last_carried.clear();
        self.last_carried.resize(dcount, u64::MAX);
        self.faults = None;
        self.telemetry = None;
        self.phase_seen = None;
        self.activations = 0;
        self.graph = graph;
        self.cfg = cfg;
    }

    /// Total slots the engine's reusable message buffers can hold
    /// without re-allocating: the edge-queue arena plus the pending
    /// batch. Diagnostic only — pooling tests assert that
    /// [`Engine::reset_with`] preserves it.
    pub fn arena_capacity(&self) -> usize {
        self.queues.arena_capacity() + self.pending.capacity()
    }

    /// High-water mark of simultaneously queued messages since the last
    /// reset: the edge-queue arena recycles vacated slots and only grows
    /// one when none is free, so its occupied length is the run's peak
    /// backlog population. The memory-budget fences in `tests/large_n.rs`
    /// assert big-`n` elections stay under a stated slot count.
    pub fn peak_arena_slots(&self) -> u64 {
        self.queues.peak_slots() as u64
    }

    /// Current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The simulated network.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Traffic metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Messages queued for transmission (current-round sends, edge
    /// backlog, and fault-delayed messages), not yet delivered. `u64`
    /// deliberately: at `n = 10⁶` the in-flight population exceeds what
    /// a 32-bit host's `usize` can count.
    pub fn in_flight(&self) -> u64 {
        (self.pending.len() as u64)
            .saturating_add(self.queues.in_flight())
            .saturating_add(self.faults.as_ref().map_or(0, |f| f.parked() as u64))
    }

    /// Immutable view of the protocol instances.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// The protocol instance at node `i`.
    pub fn node(&self, i: usize) -> &P {
        &self.nodes[i]
    }

    /// Consumes the engine, returning the protocol instances.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }

    /// Runs until [`RunOutcome::Done`], [`RunOutcome::Quiescent`], or the
    /// round limit.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use welle_congest::{Engine, EngineConfig, testing::FloodMax};
    /// use welle_graph::gen;
    ///
    /// // A minimal election: flood the maximum id on a small expander.
    /// let g = Arc::new(gen::hypercube(3).unwrap());
    /// let nodes = (0..g.n()).map(|i| FloodMax::new(i as u64)).collect();
    /// let mut engine = Engine::new(Arc::clone(&g), nodes, EngineConfig::default());
    /// let outcome = engine.run(1_000);
    /// assert!(outcome.is_done());
    /// // Exactly one node still believes its own id is the largest.
    /// assert_eq!(engine.nodes().iter().filter(|n| n.is_leader()).count(), 1);
    /// ```
    pub fn run(&mut self, round_limit: u64) -> RunOutcome {
        // Concrete `NoopObserver` so the per-message observer call (and
        // the `TransmitEvent` it would be fed) compiles away entirely.
        self.run_core(round_limit, &mut NoopObserver, |_| false)
    }

    /// Like [`Engine::run`] but notifying `obs` of every transmission.
    pub fn run_observed(
        &mut self,
        round_limit: u64,
        obs: &mut dyn TransmitObserver,
    ) -> RunOutcome {
        self.run_core(round_limit, obs, |_| false)
    }

    /// Runs until done/quiescent/limit or until `stop` returns true
    /// (checked after every simulated round).
    pub fn run_until(
        &mut self,
        round_limit: u64,
        stop: impl FnMut(&Engine<P>) -> bool,
    ) -> RunOutcome {
        self.run_core(round_limit, &mut NoopObserver, stop)
    }

    /// The most general run loop: observer plus stop predicate.
    pub fn run_until_observed(
        &mut self,
        round_limit: u64,
        obs: &mut dyn TransmitObserver,
        stop: impl FnMut(&Engine<P>) -> bool,
    ) -> RunOutcome {
        self.run_core(round_limit, obs, stop)
    }

    /// Monomorphic run loop; `O = NoopObserver` specializes to zero
    /// observer overhead, `O = dyn TransmitObserver` serves the public
    /// observed entry points.
    pub(crate) fn run_core<O: TransmitObserver + ?Sized>(
        &mut self,
        round_limit: u64,
        obs: &mut O,
        mut stop: impl FnMut(&Engine<P>) -> bool,
    ) -> RunOutcome {
        loop {
            if self.started {
                let drained = self.inbox_active.is_empty()
                    && self.pending.is_empty()
                    && self.queues.in_flight() == 0;
                let parked = self.faults.as_ref().map_or(0, |f| f.parked());
                if drained && parked == 0 {
                    if self.done_count == self.nodes.len() {
                        return RunOutcome::Done { round: self.round };
                    }
                    match self.wakeups.peek() {
                        None => return RunOutcome::Quiescent { round: self.round },
                        Some(&Reverse((r, _))) => {
                            if r > self.round {
                                // Skip the idle stretch in O(1).
                                self.round = r;
                            }
                        }
                    }
                } else if drained {
                    // Only fault-parked messages remain in flight: the
                    // same O(1) skip, to the earlier of the next due
                    // release and the next wake-up.
                    let due = self
                        .faults
                        .as_ref()
                        .and_then(|f| f.next_due())
                        // welle-lint: allow(no-lib-unwrap) — invariant: the surrounding `!drained` branch established parked > 0, and every parked message carries a due round
                        .expect("parked > 0 implies a next due round");
                    let target = match self.wakeups.peek() {
                        Some(&Reverse((r, _))) => due.min(r),
                        None => due,
                    };
                    if target > self.round {
                        self.round = target;
                    }
                }
            }
            if self.round >= round_limit {
                return RunOutcome::RoundLimit { round: self.round };
            }
            self.step_core(obs);
            if stop(self) {
                return RunOutcome::Stopped { round: self.round };
            }
        }
    }

    /// Simulates exactly one round (start-up on the first call).
    pub fn step(&mut self) {
        self.step_core(&mut NoopObserver);
    }

    /// One round with an observer.
    pub fn step_observed(&mut self, obs: &mut dyn TransmitObserver) {
        self.step_core(obs);
    }

    /// Monomorphic single-round step (see [`Engine::run_core`] for why).
    fn step_core<O: TransmitObserver + ?Sized>(&mut self, obs: &mut O) {
        // Telemetry mirrors the fault layer: taken once per round, so a
        // run without it pays exactly one null check and nothing else.
        let mut tel = self.telemetry.take();
        let t_round = tel.as_deref_mut().and_then(|t| t.begin(SpanStage::Round));

        let t_cb = tel.as_deref_mut().and_then(|t| t.begin(SpanStage::Callbacks));
        let acts_before = self.activations;
        let any_activity = self.protocol_phase();
        let callbacks_run = self.activations - acts_before;
        if let Some(t) = tel.as_deref_mut() {
            t.end(SpanStage::Callbacks, t_cb, callbacks_run);
        }

        // Transmission phase: one message per active directed edge.
        // Backlogged edges deliver their queue head first (popped
        // straight into the target inbox); then the round's fresh sends
        // either deliver directly (edge idle this round — the common,
        // allocation-free case) or join the backlog.
        let mut pending = std::mem::take(&mut self.pending);
        let mut faults = self.faults.take();
        let transmitted = self.queues.in_flight() > 0
            || !pending.is_empty()
            || faults.as_ref().is_some_and(|f| f.due_now(self.round));
        let t_deliver = tel.as_deref_mut().and_then(|t| t.begin(SpanStage::Deliver));
        let flow;
        {
            let mut tx = Transmitter::new(
                &self.graph,
                &mut self.queues,
                &mut self.last_carried,
                self.round,
                obs.wants_events(),
            );
            let inboxes = &mut self.inboxes;
            let inbox_flag = &mut self.inbox_flag;
            let inbox_active = &mut self.inbox_active;
            let mut sink = |v: NodeId, q: Port, msg: P::Msg| {
                inboxes[v.index()].push((q, msg));
                if !inbox_flag[v.index()] {
                    inbox_flag[v.index()] = true;
                    inbox_active.push(v.raw());
                }
            };
            match faults.as_deref_mut() {
                // Fault-free fast path: decided once per round, so the
                // per-message loop stays exactly the unfaulted hot path.
                None => {
                    tx.pump_backlog(obs, &mut sink);
                    for (dir, msg) in pending.drain() {
                        tx.offer(dir as usize, msg, obs, &mut sink);
                    }
                }
                Some(fs) => {
                    let t_ff = tel.as_deref_mut().and_then(|t| t.begin(SpanStage::FaultFilter));
                    tx.release_due(fs, obs, &mut sink);
                    tx.pump_backlog_faulty(fs, obs, &mut sink);
                    for (dir, msg) in pending.drain() {
                        tx.offer_faulty(fs, dir as usize, msg, obs, &mut sink);
                    }
                    if let Some(t) = tel.as_deref_mut() {
                        // Events: every crossing the filter inspected.
                        t.end(SpanStage::FaultFilter, t_ff, tx.settled_so_far());
                    }
                }
            }
            flow = tx.finish(&mut self.metrics);
        }
        if let Some(t) = tel.as_deref_mut() {
            t.end(SpanStage::Deliver, t_deliver, flow.messages);
        }
        self.faults = faults;
        self.pending = pending;
        if any_activity || transmitted {
            self.metrics.active_rounds += 1;
            if let Some(t) = tel.as_deref_mut() {
                let parked = self.faults.as_ref().map_or(0, |f| f.parked()) as u64;
                let tick = self.round.saturating_add(1).saturating_mul(TICKS_PER_ROUND);
                t.end_round(
                    self.round,
                    self.phase_seen.take(),
                    callbacks_run,
                    &flow,
                    parked,
                    tick,
                );
            }
        }
        if let Some(t) = tel.as_deref_mut() {
            t.end(SpanStage::Round, t_round, callbacks_run + flow.messages);
        }
        self.telemetry = tel;
        self.round += 1;
    }

    /// The protocol half of a round — start-up on the first call, then
    /// inbox/wake-up callbacks in deterministic node order. Returns
    /// whether any callback ran. Shared verbatim with the async
    /// executor, which pairs it with its own transmission phase (this is
    /// what keeps the two engines event-for-event identical on
    /// zero-latency models).
    pub(crate) fn protocol_phase(&mut self) -> bool {
        let mut any_activity = false;
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                let mut empty = Vec::new();
                self.run_callback(i, &mut empty, CallKind::Start);
            }
            any_activity = true;
        } else {
            let mut active: Vec<u32> = std::mem::take(&mut self.inbox_active);
            // `inbox_flag` doubles as the membership set: delivery already
            // guards `inbox_active` with it, so guarding due wake-ups the
            // same way keeps `active` duplicate-free without a dedup pass.
            while let Some(&Reverse((r, node))) = self.wakeups.peek() {
                if r <= self.round {
                    self.wakeups.pop();
                    if !self.inbox_flag[node as usize] {
                        self.inbox_flag[node as usize] = true;
                        active.push(node);
                    }
                } else {
                    break;
                }
            }
            // Deterministic node order: a linear flag scan when dense
            // (cheaper and cache-friendly), a sort when sparse.
            if active.len() >= self.nodes.len() / 8 {
                active.clear();
                for (i, flag) in self.inbox_flag.iter().enumerate() {
                    if *flag {
                        active.push(crate::idx32(i));
                    }
                }
            } else {
                active.sort_unstable();
            }
            for &node in &active {
                let i = node as usize;
                self.inbox_flag[i] = false;
                let mut inbox = std::mem::take(&mut self.inboxes[i]);
                self.run_callback(i, &mut inbox, CallKind::Round);
                inbox.clear();
                self.inboxes[i] = inbox; // recycle the allocation
                any_activity = true;
            }
        }
        any_activity
    }

    /// Broadcasts a control signal to every node (see
    /// [`Protocol::on_signal`]); resulting sends are transmitted starting
    /// with the next round.
    pub fn signal(&mut self, signal: Signal) {
        for i in 0..self.nodes.len() {
            let mut empty = Vec::new();
            self.run_callback(i, &mut empty, CallKind::Signal(signal));
        }
    }

    fn run_callback(&mut self, i: usize, inbox: &mut Vec<(Port, P::Msg)>, kind: CallKind) {
        if let Some(f) = &self.faults {
            if f.compiled.is_crashed(i, self.round) {
                // Crash-stop: from its crash round on, the node executes
                // nothing — no callbacks, no sends, no wake-ups. Its
                // inbox (cleared by the caller) is lost with it.
                return;
            }
        }
        self.activations += 1;
        let u = NodeId::new(i);
        let degree = self.graph.degree(u);
        let n = self.graph.n();
        let mut wake = None;
        let sent;
        {
            // Sends go straight into `pending` as `(directed_index, msg)`
            // — `Context::send` resolves the index from `dir_base`, so no
            // per-message recomputation or intermediate buffer.
            let mut ctx = Context {
                round: self.round,
                n,
                degree,
                dir_base: crate::idx32(self.graph.directed_base(u)),
                budget: self.cfg.bandwidth_bits,
                sent: 0,
                rng: &mut self.rngs[i],
                sends: &mut self.pending,
                wake: &mut wake,
            };
            match kind {
                CallKind::Start => self.nodes[i].on_start(&mut ctx),
                CallKind::Round => self.nodes[i].on_round(&mut ctx, inbox),
                CallKind::Signal(s) => self.nodes[i].on_signal(&mut ctx, s),
            }
            sent = ctx.sent;
        }
        if sent > 0 {
            self.metrics.sent_by_node[i] += sent as u64;
        }
        if let Some(r) = wake {
            self.wakeups.push(Reverse((r.max(self.round + 1), crate::idx32(i))));
        }
        let done_now = self.nodes[i].is_done();
        if done_now != self.done_flags[i] {
            self.done_flags[i] = done_now;
            if done_now {
                self.done_count += 1;
            } else {
                self.done_count -= 1;
            }
        }
        // The phase-observer pull (see `Protocol::phase_tag`): merge by
        // maximum so the per-round reduction is order-free.
        if let Some(tag) = self.nodes[i].phase_tag() {
            self.phase_seen = Some(match self.phase_seen {
                Some(cur) => cur.max(tag),
                None => tag,
            });
        }
    }
}

#[derive(Clone, Copy)]
enum CallKind {
    Start,
    Round,
    Signal(Signal),
}

/// The per-message transmission discipline shared by every executor:
/// the CONGEST one-message-per-directed-edge rule (`last_carried` round
/// stamps), the backlog arena, and per-message metrics/observer events.
/// Executor-specific delivery — which inbox structure receives the
/// message — is injected as the `sink` argument of each call, so the
/// engines cannot drift apart on the discipline itself (their
/// executions must stay bit-identical).
pub(crate) struct Transmitter<'a, M> {
    queues: &'a mut EdgeQueues<M>,
    wire: Wire<'a>,
}

/// Everything a crossing touches besides the backlog queues. It is a
/// separate borrow so that a backlog pass, which holds the queues, can
/// deliver each head the moment it is popped.
struct Wire<'a> {
    graph: &'a Graph,
    last_carried: &'a mut [u64],
    round: u64,
    /// The round's answer to [`TransmitObserver::wants_events`]: when
    /// `false`, no [`TransmitEvent`] is built.
    events: bool,
    delivered_msgs: u64,
    delivered_bits: u64,
    dropped_msgs: u64,
    max_backlog_seen: u64,
}

impl<'a, M: Payload> Transmitter<'a, M> {
    /// A transmitter for one round. `events` is the observer's
    /// [`TransmitObserver::wants_events`], asked once for the round.
    pub(crate) fn new(
        graph: &'a Graph,
        queues: &'a mut EdgeQueues<M>,
        last_carried: &'a mut [u64],
        round: u64,
        events: bool,
    ) -> Self {
        Transmitter {
            queues,
            wire: Wire {
                graph,
                last_carried,
                round,
                events,
                delivered_msgs: 0,
                delivered_bits: 0,
                dropped_msgs: 0,
                max_backlog_seen: 0,
            },
        }
    }

    /// One backlog pass: the head of every active directed edge, in
    /// active-list order, crosses through `cross` straight from the
    /// arena. Each head is entitled to this round by construction (one
    /// pop per active edge).
    fn pump(&mut self, mut cross: impl FnMut(&mut Wire<'a>, usize, M)) {
        let wire = &mut self.wire;
        self.queues.transmit_each(|dir, msg| {
            let dir = dir as usize;
            wire.last_carried[dir] = wire.round;
            cross(wire, dir, msg);
        });
    }

    /// Delivers this round's whole backlog.
    pub(crate) fn pump_backlog<O: TransmitObserver + ?Sized>(
        &mut self,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) {
        self.pump(|w, dir, msg| w.deliver(dir, msg, obs, sink));
    }

    /// [`Transmitter::pump_backlog`] with the fault layer applied at
    /// each crossing.
    pub(crate) fn pump_backlog_faulty<O: TransmitObserver + ?Sized>(
        &mut self,
        fs: &mut FaultState<M>,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) {
        self.pump(|w, dir, msg| w.transit(fs, dir, msg, obs, sink));
    }

    /// [`Transmitter::pump_backlog`] with the latency (and optional
    /// fault) layer applied at each crossing.
    pub(crate) fn pump_backlog_latent<O: TransmitObserver + ?Sized>(
        &mut self,
        lat: &mut LatencyState<M>,
        faults: Option<&CompiledFaults>,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) {
        self.pump(|w, dir, msg| w.transit_latent(lat, faults, dir, msg, obs, sink));
    }

    /// Claims directed edge `dir` for a fresh send: returns the message
    /// when the edge is idle this round (stamping it as carrying), and
    /// otherwise queues it behind the backlog (FIFO). A queued message
    /// meets the fault and latency layers only in the round it actually
    /// crosses.
    #[inline]
    fn claim(&mut self, dir: usize, msg: M) -> Option<M> {
        if self.wire.last_carried[dir] == self.wire.round {
            let len = self.queues.push_dir(dir, msg);
            // `+ 1` counts the message that already crossed this round.
            self.wire.max_backlog_seen = self.wire.max_backlog_seen.max(len + 1);
            None
        } else {
            self.wire.last_carried[dir] = self.wire.round;
            Some(msg)
        }
    }

    /// Offers a fresh send: delivers directly when the edge is idle
    /// this round, otherwise joins the backlog (FIFO).
    #[inline]
    pub(crate) fn offer<O: TransmitObserver + ?Sized>(
        &mut self,
        dir: usize,
        msg: M,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) {
        if let Some(msg) = self.claim(dir, msg) {
            self.wire.deliver(dir, msg, obs, sink);
        }
    }

    /// [`Transmitter::offer`] with the fault layer applied at the
    /// crossing.
    #[inline]
    pub(crate) fn offer_faulty<O: TransmitObserver + ?Sized>(
        &mut self,
        fs: &mut FaultState<M>,
        dir: usize,
        msg: M,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) {
        if let Some(msg) = self.claim(dir, msg) {
            self.wire.transit(fs, dir, msg, obs, sink);
        }
    }

    /// [`Transmitter::offer`] with the latency (and optional fault)
    /// layer applied at the crossing.
    #[inline]
    pub(crate) fn offer_latent<O: TransmitObserver + ?Sized>(
        &mut self,
        lat: &mut LatencyState<M>,
        faults: Option<&CompiledFaults>,
        dir: usize,
        msg: M,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) {
        if let Some(msg) = self.claim(dir, msg) {
            self.wire.transit_latent(lat, faults, dir, msg, obs, sink);
        }
    }

    /// Releases every fault-delayed message due this round, in
    /// `(due round, crossing order)` order — identical on every
    /// executor because the heap itself lives in the shared engine
    /// state. Arrivals at nodes that crashed in the meantime are
    /// discarded (the destination is gone).
    pub(crate) fn release_due<O: TransmitObserver + ?Sized>(
        &mut self,
        fs: &mut FaultState<M>,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) {
        let w = &mut self.wire;
        while fs.due_now(w.round) {
            // welle-lint: allow(no-lib-unwrap) — invariant: due_now() just peeked a head element at or before this round
            let d = fs.delayed.pop().expect("due_now implies nonempty");
            let (dst, _) = w.graph.directed_target(d.dir as usize);
            if fs.compiled.is_crashed(dst.index(), w.round) {
                w.dropped_msgs += 1;
                continue;
            }
            w.deliver(d.dir as usize, d.msg, obs, sink);
        }
    }

    /// Releases every latency-parked message due by this round's
    /// boundary, in `(due tick, park order)` order. Arrivals at nodes
    /// that crashed in the meantime are discarded, exactly as in
    /// [`Transmitter::release_due`].
    pub(crate) fn release_latent<O: TransmitObserver + ?Sized>(
        &mut self,
        lat: &mut LatencyState<M>,
        faults: Option<&CompiledFaults>,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) {
        let w = &mut self.wire;
        let horizon = w.round.saturating_add(1).saturating_mul(TICKS_PER_ROUND);
        while let Some(d) = lat.pop_due(horizon) {
            if let Some(c) = faults {
                let (dst, _) = w.graph.directed_target(d.dir as usize);
                if c.is_crashed(dst.index(), w.round) {
                    w.dropped_msgs += 1;
                    continue;
                }
            }
            lat.note_delivered(d.due);
            w.deliver(d.dir as usize, d.msg, obs, sink);
        }
    }

    /// Messages delivered so far this round (for span event counts).
    pub(crate) fn delivered_so_far(&self) -> u64 {
        self.wire.delivered_msgs
    }

    /// Crossings settled so far this round: delivered plus dropped.
    pub(crate) fn settled_so_far(&self) -> u64 {
        self.wire.delivered_msgs + self.wire.dropped_msgs
    }

    /// Folds the accumulated counters into `metrics` and returns them as
    /// this round's flow, for the telemetry layer (ignored when
    /// telemetry is off).
    pub(crate) fn finish(self, metrics: &mut Metrics) -> RoundFlow {
        let w = self.wire;
        metrics.messages += w.delivered_msgs;
        metrics.bits += w.delivered_bits;
        metrics.dropped_messages += w.dropped_msgs;
        metrics.max_edge_backlog = metrics.max_edge_backlog.max(w.max_backlog_seen);
        RoundFlow {
            messages: w.delivered_msgs,
            bits: w.delivered_bits,
            dropped: w.dropped_msgs,
            max_backlog: w.max_backlog_seen,
        }
    }
}

impl Wire<'_> {
    /// One message crossing directed edge `dir` this round, under
    /// faults: suppressed if the edge is cut or either endpoint has
    /// crashed, dropped i.i.d. per the plan's rate, parked if the edge
    /// is slow, delivered otherwise. All decisions are pure functions of
    /// the compiled plan and `(round, dir)`, so executors agree.
    fn transit<M: Payload, O: TransmitObserver + ?Sized>(
        &mut self,
        fs: &mut FaultState<M>,
        dir: usize,
        msg: M,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) {
        let info = self.graph.directed_info(dir);
        let c = &fs.compiled;
        if c.edge_cut(info.edge.index(), self.round)
            || c.is_crashed(info.src.index(), self.round)
            || c.is_crashed(info.dst.index(), self.round)
            || c.dropped_in_transit(self.round, dir)
        {
            self.dropped_msgs += 1;
            return;
        }
        let delay = c.edge_delay(info.edge.index());
        if delay == 0 {
            self.deliver(dir, msg, obs, sink);
        } else {
            fs.park(self.round + delay as u64, crate::idx32(dir), msg);
        }
    }

    /// One message crossing directed edge `dir` this round, under a
    /// latency model and (optionally) faults. Fault decisions — cuts,
    /// crashes, i.i.d. drops — are exactly those of [`Wire::transit`];
    /// the fault layer's per-edge delay folds into the due tick instead
    /// of using a second heap. A delivery due at or before the next
    /// round boundary happens now — with the zero model that is *every*
    /// unfaulted delivery, which keeps this path event-for-event
    /// identical to the round engine — and later ones park on the tick
    /// heap.
    fn transit_latent<M: Payload, O: TransmitObserver + ?Sized>(
        &mut self,
        lat: &mut LatencyState<M>,
        faults: Option<&CompiledFaults>,
        dir: usize,
        msg: M,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) {
        let mut fault_delay = 0u32;
        if let Some(c) = faults {
            let info = self.graph.directed_info(dir);
            if c.edge_cut(info.edge.index(), self.round)
                || c.is_crashed(info.src.index(), self.round)
                || c.is_crashed(info.dst.index(), self.round)
                || c.dropped_in_transit(self.round, dir)
            {
                self.dropped_msgs += 1;
                return;
            }
            fault_delay = c.edge_delay(info.edge.index());
        }
        let due = lat.crossing_due(self.round, crate::idx32(dir), fault_delay);
        let horizon = self
            .round
            .saturating_add(1)
            .saturating_mul(TICKS_PER_ROUND);
        if due <= horizon {
            lat.note_delivered(due);
            self.deliver(dir, msg, obs, sink);
        } else {
            lat.park(due, crate::idx32(dir), msg);
        }
    }

    /// Hands `msg` to its target's inbox. Only the two target columns
    /// are read; the full [`welle_graph::DirInfo`] behind a
    /// [`TransmitEvent`] is assembled only for a listening observer.
    #[inline]
    fn deliver<M: Payload, O: TransmitObserver + ?Sized>(
        &mut self,
        dir: usize,
        msg: M,
        obs: &mut O,
        sink: &mut impl FnMut(NodeId, Port, M),
    ) {
        let bits = msg.bit_size();
        self.delivered_msgs += 1;
        self.delivered_bits += bits as u64;
        if self.events {
            let info = self.graph.directed_info(dir);
            obs.on_transmit(&TransmitEvent {
                round: self.round,
                from: info.src,
                from_port: info.src_port,
                to: info.dst,
                to_port: info.dst_port,
                edge: info.edge,
                bits,
            });
        }
        let (dst, dst_port) = self.graph.directed_target(dir);
        sink(dst, dst_port, msg);
    }
}

/// Derives a node's private RNG from the master seed (SplitMix64-style
/// stream separation).
pub(crate) fn node_rng(seed: u64, index: usize) -> StdRng {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RecordingObserver;
    use crate::testing::{Echo, FloodMax};
    use welle_graph::gen;

    fn flood_engine(n: usize, seed: u64) -> Engine<FloodMax> {
        let g = Arc::new(gen::ring(n).unwrap());
        let nodes = (0..n).map(|i| FloodMax::new(i as u64)).collect();
        Engine::new(
            g,
            nodes,
            EngineConfig {
                seed,
                bandwidth_bits: None,
            },
        )
    }

    #[test]
    fn flood_max_converges_on_ring() {
        let mut e = flood_engine(10, 1);
        let out = e.run(10_000);
        assert!(out.is_done(), "outcome: {out:?}");
        for node in e.nodes() {
            assert_eq!(node.best(), 9);
        }
        // Round count ~ diameter: information travels one hop per round.
        assert!(out.round() >= 5, "needs at least eccentricity rounds");
        assert!(out.round() <= 20, "{} rounds is too slow", out.round());
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let mut a = flood_engine(16, 42);
        let mut b = flood_engine(16, 42);
        a.run(10_000);
        b.run(10_000);
        assert_eq!(a.metrics().messages, b.metrics().messages);
        assert_eq!(a.metrics().bits, b.metrics().bits);
        assert_eq!(a.round(), b.round());
    }

    #[test]
    fn observer_sees_every_message() {
        let mut e = flood_engine(8, 3);
        let mut rec = RecordingObserver::default();
        e.run_observed(10_000, &mut rec);
        assert_eq!(rec.events.len() as u64, e.metrics().messages);
        // Events are ordered by round.
        for w in rec.events.windows(2) {
            assert!(w[0].round <= w[1].round);
        }
    }

    #[test]
    fn one_message_per_edge_per_round() {
        // A node that sends k messages through one port in a single round
        // must have them delivered over k successive rounds.
        struct Burst {
            sent: bool,
        }
        impl Protocol for Burst {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                if ctx.degree() == 1 && !self.sent {
                    self.sent = true;
                    for k in 0..5 {
                        ctx.send(Port::new(0), k);
                    }
                }
            }
            fn on_round(&mut self, _ctx: &mut Context<'_, u64>, inbox: &mut Vec<(Port, u64)>) {
                inbox.clear();
            }
        }
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = Engine::new(
            g,
            vec![Burst { sent: false }, Burst { sent: false }],
            EngineConfig::default(),
        );
        let mut rec = RecordingObserver::default();
        e.run_observed(100, &mut rec);
        // Both endpoints burst 5 messages; each direction carries exactly
        // one message per round: rounds 0..=4 have 2 transmissions each.
        assert_eq!(rec.events.len(), 10);
        for r in 0..5u64 {
            assert_eq!(rec.events.iter().filter(|e| e.round == r).count(), 2);
        }
        assert_eq!(e.metrics().max_edge_backlog, 5);
    }

    #[test]
    fn bandwidth_cap_panics_on_oversized_message() {
        struct Big;
        impl Protocol for Big {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                ctx.send(Port::new(0), 1);
            }
            fn on_round(&mut self, _: &mut Context<'_, u64>, i: &mut Vec<(Port, u64)>) {
                i.clear();
            }
        }
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = Engine::new(
            g,
            vec![Big, Big],
            EngineConfig {
                seed: 0,
                bandwidth_bits: Some(32), // u64 payload claims 64 bits
            },
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.run(10);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn echo_round_trip_and_quiescence() {
        let g = Arc::new(gen::star(5).unwrap());
        let nodes = (0..5).map(|i| Echo::new(i == 1)).collect();
        let mut e = Engine::new(g, nodes, EngineConfig::default());
        let out = e.run(100);
        // Echo never reports done; the run ends quiescent.
        assert!(matches!(out, RunOutcome::Quiescent { .. }));
        // The initiator (leaf 1) pinged the hub and got a reply.
        assert_eq!(e.node(1).replies_received(), 1);
        assert_eq!(e.metrics().messages, 2);
    }

    #[test]
    fn wakeups_skip_idle_rounds_cheaply() {
        struct Sleeper {
            fired: bool,
        }
        impl Protocol for Sleeper {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.wake_at(1_000_000);
            }
            fn on_round(&mut self, ctx: &mut Context<'_, ()>, inbox: &mut Vec<(Port, ())>) {
                inbox.clear();
                if ctx.round() >= 1_000_000 {
                    self.fired = true;
                }
            }
            fn is_done(&self) -> bool {
                self.fired
            }
        }
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = Engine::new(
            g,
            vec![Sleeper { fired: false }, Sleeper { fired: false }],
            EngineConfig::default(),
        );
        let out = e.run(2_000_000);
        assert!(out.is_done());
        assert_eq!(out.round(), 1_000_001);
        // Only 2 active rounds (start + wake), despite the huge clock.
        assert!(e.metrics().active_rounds <= 3);
    }

    #[test]
    fn round_limit_respected() {
        let mut e = flood_engine(64, 5);
        let out = e.run(2);
        assert!(matches!(out, RunOutcome::RoundLimit { .. }));
        assert_eq!(e.round(), 2);
    }

    #[test]
    fn stop_predicate_fires() {
        let mut e = flood_engine(32, 7);
        let out = e.run_until(10_000, |eng| eng.metrics().messages >= 10);
        assert!(matches!(out, RunOutcome::Stopped { .. }));
        assert!(e.metrics().messages >= 10);
    }

    #[test]
    fn signal_reaches_every_node() {
        struct SignalCounter {
            seen: u64,
        }
        impl Protocol for SignalCounter {
            type Msg = ();
            fn on_round(&mut self, _: &mut Context<'_, ()>, i: &mut Vec<(Port, ())>) {
                i.clear();
            }
            fn on_signal(&mut self, _: &mut Context<'_, ()>, s: Signal) {
                self.seen = s;
            }
        }
        let g = Arc::new(gen::ring(4).unwrap());
        let mut e = Engine::new(
            g,
            (0..4).map(|_| SignalCounter { seen: 0 }).collect(),
            EngineConfig::default(),
        );
        e.step();
        e.signal(99);
        assert!(e.nodes().iter().all(|n| n.seen == 99));
    }

    #[test]
    fn vacuous_fault_plan_is_bit_identical() {
        use crate::faults::FaultPlan;
        let mut plain = flood_engine(24, 9);
        let mut rec_plain = RecordingObserver::default();
        let out_plain = plain.run_observed(10_000, &mut rec_plain);

        let mut faulty = flood_engine(24, 9);
        faulty.set_fault_plan(&FaultPlan::new(123)).unwrap();
        let mut rec_faulty = RecordingObserver::default();
        let out_faulty = faulty.run_observed(10_000, &mut rec_faulty);

        assert_eq!(out_plain, out_faulty);
        assert_eq!(plain.metrics().messages, faulty.metrics().messages);
        assert_eq!(plain.metrics().bits, faulty.metrics().bits);
        assert_eq!(faulty.metrics().dropped_messages, 0);
        assert_eq!(rec_plain.events, rec_faulty.events);
    }

    #[test]
    fn full_drop_rate_silences_the_network() {
        use crate::faults::FaultPlan;
        let n = 10;
        let mut e = flood_engine(n, 4);
        e.set_fault_plan(&FaultPlan::new(1).drop_rate(1.0)).unwrap();
        let out = e.run(1_000);
        // Every node flooded once at start (and is then done), but
        // nothing arrived: the initial 2n sends were all lost.
        assert!(out.is_done());
        assert_eq!(e.metrics().messages, 0);
        assert_eq!(e.metrics().dropped_messages, 2 * n as u64);
        // Nobody learned anything.
        for (i, node) in e.nodes().iter().enumerate() {
            assert_eq!(node.best(), i as u64);
        }
    }

    #[test]
    fn crashed_node_neither_sends_nor_receives() {
        use crate::faults::FaultPlan;
        use crate::testing::BfsWave;
        // Path 0 - 1 - 2 with the middle node crashed from the start:
        // the wave from 0 can never reach 2.
        let g = Arc::new(gen::path(3).unwrap());
        let nodes = (0..3).map(|i| BfsWave::new(i == 0)).collect();
        let mut e = Engine::new(g, nodes, EngineConfig::default());
        e.set_fault_plan(&FaultPlan::new(0).crash(1, 0)).unwrap();
        let out = e.run(1_000);
        assert!(matches!(out, RunOutcome::Quiescent { .. }));
        assert_eq!(e.node(0).level(), Some(0));
        assert_eq!(e.node(1).level(), None, "crashed nodes execute nothing");
        assert_eq!(e.node(2).level(), None, "the wave cannot cross a crash");
        assert_eq!(e.metrics().crashed_nodes, 1);
        assert!(e.metrics().dropped_messages >= 1);
    }

    #[test]
    fn mid_run_crash_halts_a_node() {
        use crate::faults::FaultPlan;
        use crate::testing::BfsWave;
        // The wave reaches node 1 at round 1 and node 2 at round 2; a
        // crash of node 2 at round 2 arrives exactly with the wave, so
        // node 2 stays at level None while node 1 finished normally.
        let g = Arc::new(gen::path(3).unwrap());
        let nodes = (0..3).map(|i| BfsWave::new(i == 0)).collect();
        let mut e = Engine::new(g, nodes, EngineConfig::default());
        e.set_fault_plan(&FaultPlan::new(0).crash(2, 2)).unwrap();
        e.run(1_000);
        assert_eq!(e.node(1).level(), Some(1));
        assert_eq!(e.node(2).level(), None);
    }

    #[test]
    fn delayed_edges_shift_arrival_rounds() {
        use crate::faults::FaultPlan;
        let g = Arc::new(gen::path(2).unwrap());
        let nodes = vec![Echo::new(true), Echo::new(false)];
        let mut e = Engine::new(g, nodes, EngineConfig::default());
        e.set_fault_plan(&FaultPlan::new(0).delay_all(3)).unwrap();
        let mut rec = RecordingObserver::default();
        let out = e.run_observed(1_000, &mut rec);
        // Ping crosses at round 0 and is released at round 3; the pong
        // (sent on processing it at round 4) is released at round 7.
        // The delay buffer counts as in-flight, so the run cannot
        // quiesce while messages are parked.
        assert!(matches!(out, RunOutcome::Quiescent { .. }));
        assert_eq!(e.node(0).replies_received(), 1);
        let rounds: Vec<u64> = rec.events.iter().map(|ev| ev.round).collect();
        assert_eq!(rounds, vec![3, 7]);
        assert_eq!(e.metrics().messages, 2);
        assert_eq!(e.metrics().dropped_messages, 0);
    }

    #[test]
    fn long_delays_skip_idle_stretches_cheaply() {
        use crate::faults::FaultPlan;
        // A 1000-round link delay must not cost 1000 empty simulated
        // rounds: when only parked messages remain, the engine jumps to
        // the next release in O(1), exactly like the wake-up skip.
        let g = Arc::new(gen::path(2).unwrap());
        let nodes = vec![Echo::new(true), Echo::new(false)];
        let mut e = Engine::new(g, nodes, EngineConfig::default());
        e.set_fault_plan(&FaultPlan::new(0).delay_all(1000)).unwrap();
        let out = e.run(100_000);
        assert!(matches!(out, RunOutcome::Quiescent { .. }));
        assert_eq!(e.node(0).replies_received(), 1);
        assert!(out.round() >= 2001, "two 1000-round hops: {}", out.round());
        assert!(
            e.metrics().active_rounds <= 5,
            "idle stretches must be skipped, got {} active rounds",
            e.metrics().active_rounds
        );
    }

    #[test]
    fn cut_edge_stops_all_later_traffic() {
        use crate::faults::FaultPlan;
        let g = Arc::new(gen::path(3).unwrap());
        let nodes = (0..3).map(|i| FloodMax::new(i as u64)).collect();
        let mut e = Engine::new(g, nodes, EngineConfig::default());
        e.set_fault_plan(&FaultPlan::new(0).cut(1, 2, 0)).unwrap();
        e.run(1_000);
        // 2 is the max id, but its edge to 1 is gone from round 0.
        assert_eq!(e.node(0).best(), 1);
        assert_eq!(e.node(1).best(), 1);
        assert_eq!(e.node(2).best(), 2);
        assert!(e.metrics().dropped_messages >= 1);
    }

    #[test]
    fn reset_engine_is_bit_identical_to_fresh() {
        // Run once (dirtying every piece of state, including fault
        // structures and edge backlog), reset, run again: the second run
        // must match a never-used engine exactly.
        use crate::faults::FaultPlan;
        let g = Arc::new(gen::ring(16).unwrap());
        let cfg = EngineConfig {
            seed: 21,
            bandwidth_bits: None,
        };
        let mk = |i: usize| FloodMax::new(i as u64);
        let mut pooled = Engine::from_fn(Arc::clone(&g), cfg, mk);
        pooled.set_fault_plan(&FaultPlan::new(7).drop_rate(0.3)).unwrap();
        pooled.run(10_000);

        // Reset onto a *different* graph and seed.
        let g2 = Arc::new(gen::star(9).unwrap());
        let cfg2 = EngineConfig {
            seed: 4,
            bandwidth_bits: None,
        };
        pooled.reset_with(Arc::clone(&g2), cfg2, mk);
        let mut rec_pooled = RecordingObserver::default();
        let out_pooled = pooled.run_observed(10_000, &mut rec_pooled);

        let mut fresh = Engine::from_fn(g2, cfg2, mk);
        let mut rec_fresh = RecordingObserver::default();
        let out_fresh = fresh.run_observed(10_000, &mut rec_fresh);

        assert_eq!(out_pooled, out_fresh);
        assert_eq!(pooled.metrics().messages, fresh.metrics().messages);
        assert_eq!(pooled.metrics().bits, fresh.metrics().bits);
        assert_eq!(pooled.metrics().dropped_messages, 0);
        assert_eq!(rec_pooled.events, rec_fresh.events);
        for (a, b) in pooled.nodes().iter().zip(fresh.nodes()) {
            assert_eq!(a.best(), b.best());
        }
    }

    #[test]
    fn reset_keeps_the_arenas() {
        // A bursty protocol forces the edge-queue arena to grow; a reset
        // must keep that capacity instead of re-allocating per trial.
        struct Burst;
        impl Protocol for Burst {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                for k in 0..8 {
                    ctx.send(Port::new(0), k);
                }
            }
            fn on_round(&mut self, _: &mut Context<'_, u64>, i: &mut Vec<(Port, u64)>) {
                i.clear();
            }
        }
        let g = Arc::new(gen::path(2).unwrap());
        let mut e = Engine::from_fn(Arc::clone(&g), EngineConfig::default(), |_| Burst);
        e.run(100);
        let grown = e.arena_capacity();
        assert!(grown > 0, "the burst must have grown the arena");
        e.reset_with(g, EngineConfig::default(), |_| Burst);
        assert_eq!(e.arena_capacity(), grown, "reset must not shed capacity");
        e.run(100);
        assert_eq!(e.arena_capacity(), grown, "warm rerun must not re-allocate");
    }

    #[test]
    fn node_rng_streams_differ() {
        use rand::RngExt;
        let mut a = node_rng(1, 0);
        let mut b = node_rng(1, 1);
        let va: u64 = a.random();
        let vb: u64 = b.random();
        assert_ne!(va, vb);
    }
}
