//! The three workloads. Each builds its inputs from `--seed`, times a
//! fixed batch of elections untraced, checks every output, and with
//! `--trace 1` runs the batch for two more passes under the engine's
//! span profiler to report the per-layer metrics.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use welle_bench::workloads::Family;
use welle_congest::{Engine, EngineConfig, Protocol, SPAN_STAGES};
use welle_core::baselines::{run_flood_max, FloodMaxElection};
use welle_core::{
    Campaign, Election, ElectionConfig, ElectionNode, ElectionReport, Exec, FaultPlan,
    LatencyModel, Params, Phase, SpanStage, TelemetryConfig, TelemetryReport,
};
use welle_graph::{gen, Graph};

use crate::{
    alloc, end_to_end, host, median, passes, peak_rss_mib, reset_peak_rss, Args, Counted, Outcome,
    Pass, Spans, Timed,
};

/// Untraced passes of the election batch (one, so that a run spends its
/// time on as many distinct elections as it can: one election's cost
/// varies with a coefficient of variation of 0.46), of the campaign,
/// and of the flood, whose pass is far shorter. A run stops early,
/// after two passes, when the next would end past `--seconds`. A traced
/// run adds one traced pass.
const ELECTION_PASSES: usize = 1;
const CAMPAIGN_PASSES: usize = 2;
const FLOOD_PASSES: usize = 40;
/// Nodes of each election graph, graphs, and elections per pass. The
/// elections take the graphs in turn, so no one graph's quirks set the
/// batch's cost.
const EXPANDER_N: usize = 128;
const EXPANDER_GRAPHS: u64 = 16;
const ELECTIONS: u64 = 200;
/// Walk-length cap of every election. The family default (16·ln² n)
/// lets the protocol's w.h.p. tail — every contender unsatisfied —
/// double its walks 4–5 more times before giving up, at 17–30× the
/// cost of a typical election; the outcome is the same zero leaders
/// either way (see NOTES.md).
const WALK_CAP: u32 = 64;
/// Nodes and degree of the flood graph, and floods per pass. At
/// n = 2¹² the flood's working set fits a core's L2 cache, so its time
/// follows the code, not the other tenants' use of the shared L3.
const FLOOD_N: usize = 1 << 12;
const FLOOD_DEGREE: usize = 4;
const FLOODS: u64 = 128;
/// Round limit of a flood (`run_flood_max` uses the same).
const FLOOD_ROUND_LIMIT: u64 = 1_000_000;
/// Nodes per campaign scenario, seeds per scenario, and drop rate.
/// Every scenario runs the same seeds, and an election's seed sets its
/// contenders, so more scenarios would not add independent trials.
const CAMPAIGN_N: usize = 64;
const CAMPAIGN_SEEDS: u64 = 128;
const CAMPAIGN_DROP_RATE: f64 = 0.01;
/// Set-up samples are spread over each untraced pass: one after every
/// `SETUP_EVERY`-th election (33 a pass), one after every
/// `FLOOD_SETUP_EVERY`-th flood (8 a pass), and `CAMPAIGN_SETUP_SAMPLES` before and
/// after each campaign, whose trials run on the workers. A sample takes
/// at least `SETUP_SAMPLE_S`: it is the mean of as many set-ups as fill
/// it.
const SETUP_EVERY: usize = 6;
const FLOOD_SETUP_EVERY: usize = 16;
const CAMPAIGN_SETUP_SAMPLES: usize = 8;
const SETUP_SAMPLE_S: f64 = 0.02;
/// The reference kernel ([`host::Reference`]) runs after every election
/// of an untraced pass, after every `FLOOD_REF_EVERY`-th flood (a flood
/// takes about as long as two runs of the kernel), and
/// `CAMPAIGN_REF_SAMPLES` times before and after each campaign.
const FLOOD_REF_EVERY: usize = 4;
const CAMPAIGN_REF_SAMPLES: usize = 64;
/// `Engine::from_fn` builds per traced run; the metric is their median.
const ENGINE_BUILDS: usize = 5;

/// The stream tags passed to [`crate::derive_seed`].
const GRAPH_STREAM: u64 = 1;
const EXPANDER_STREAM: u64 = 10;
const CAMPAIGN_GRAPH_STREAM: u64 = 20;
const CAMPAIGN_FAULT_STREAM: u64 = 40;
const ELECTION_STREAM: u64 = 100;

fn seed_of(args: &Args, stream: u64) -> u64 {
    crate::derive_seed(args.seed, stream)
}

/// The election seeds of one batch.
fn election_seeds(args: &Args, count: u64) -> Vec<u64> {
    (0..count)
        .map(|i| seed_of(args, ELECTION_STREAM + i))
        .collect()
}

fn capped(mut cfg: ElectionConfig) -> ElectionConfig {
    cfg.max_walk_len = Some(WALK_CAP);
    cfg
}

fn derive_params(graph: &Graph, cfg: ElectionConfig) -> Result<Arc<Params>, String> {
    Params::try_derive(graph.n(), cfg)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

fn counted(r: &ElectionReport) -> Counted {
    Counted {
        leaders: r.leaders.clone(),
        contenders: r.contenders,
        gave_up: r.gave_up,
        messages: r.messages,
        decided_round: r.decided_round,
        engine_rounds: r.engine_rounds,
        peak_arena_slots: r.peak_arena_slots,
        dropped: r.dropped_messages,
    }
}

fn telemetry_of(r: &ElectionReport) -> Result<&TelemetryReport, String> {
    r.telemetry
        .as_ref()
        .ok_or_else(|| "traced run returned no telemetry".to_string())
}

/// Times `samples` set-up samples, each the mean of as many set-ups as
/// fill `SETUP_SAMPLE_S`, so set-ups of a few microseconds are not timed
/// alone. Their spans go to `timing`; their allocations are not
/// counted.
fn setup_block<T>(
    setup: &mut impl FnMut(&mut Spans) -> Result<T, String>,
    samples: usize,
    timing: &mut Spans,
) -> Result<Vec<f64>, String> {
    let counting = alloc::pause();
    let block = (0..samples)
        .map(|_| {
            let (mut total, mut count) = (0.0, 0u32);
            while total < SETUP_SAMPLE_S {
                let (value, secs) = timing.time("setup", &mut *setup);
                // Freed outside the timed span, and before the next
                // set-up, so peak RSS holds one instance.
                drop(value?);
                total += secs;
                count += 1;
            }
            Ok(total / f64::from(count))
        })
        .collect();
    alloc::resume(counting);
    block
}

/// The batch timed untraced. In a traced run it also counts
/// allocations, and sets the untraced rate that `trace.overhead`
/// compares.
fn timed_batch<T: PartialEq + std::fmt::Debug>(
    args: &Args,
    spans: &mut Spans,
    out: &mut Outcome,
    layers: &mut Layers,
    elections: u64,
    max_passes: usize,
    batch: impl FnMut(&mut Spans) -> Result<Pass<T>, String>,
) -> Result<Timed<T>, String> {
    // Counting stays on for the traced batch too, so `trace.overhead`
    // compares two batches that both count.
    if args.trace {
        alloc::start_counting();
    }
    let attempted = out.attempted;
    let timed = passes(max_passes, args.seconds, spans, elections, out, batch)?;
    layers.allocs = alloc::counted();
    layers.alloc_elections = out.attempted - attempted;
    layers.untraced_rate = timed.raw_rate();
    layers.host_speed = timed.host_speed();
    eprintln!(
        "untraced: {:.4} elections per CPU second as measured, host speed {:.4}",
        layers.untraced_rate, layers.host_speed
    );
    layers.peak_rss_mib = median(&timed.first.peaks_mib);
    Ok(timed)
}

/// The batch timed traced, over one pass, in CPU time as measured, like
/// the untraced rate that `trace.overhead` compares.
fn traced_batch<T: PartialEq + std::fmt::Debug>(
    spans: &mut Spans,
    out: &mut Outcome,
    layers: &mut Layers,
    elections: u64,
    batch: impl FnMut(&mut Spans) -> Result<Pass<T>, String>,
) -> Result<Timed<T>, String> {
    let timed = spans
        .time("traced", |spans| {
            passes(1, 0.0, spans, elections, out, batch)
        })
        .0?;
    layers.traced_rate = timed.raw_rate();
    Ok(timed)
}

/// Runs `f` in a span; returns its value, CPU seconds, and the
/// resident-set high-water meanwhile in MiB.
fn measured<T>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> (T, f64, f64) {
    reset_peak_rss();
    let (value, secs) = spans.time(name, |_| f());
    (value, secs, peak_rss_mib())
}

/// Median seconds of `Engine::from_fn` over `ENGINE_BUILDS` builds.
fn engine_build_s<P: Protocol>(spans: &mut Spans, mut build: impl FnMut() -> Engine<P>) -> f64 {
    let times: Vec<f64> = (0..ENGINE_BUILDS)
        .map(|_| spans.time("Engine::from_fn", |_| drop(build())).1)
        .collect();
    median(&times)
}

/// An election engine as `Election::run` builds it.
fn election_engine(graph: &Arc<Graph>, params: &Arc<Params>, seed: u64) -> Engine<ElectionNode> {
    Engine::from_fn(
        Arc::clone(graph),
        EngineConfig {
            seed,
            bandwidth_bits: params.bandwidth_bits,
        },
        |_| ElectionNode::new(Arc::clone(params)),
    )
}

/// Checks the outcome every fault-free election must have: one leader,
/// or none because a contender gave up at the walk cap, which
/// `unique_leader_rate` counts. Contenders that already deferred to a
/// contender that then gives up do not stand again, so one give-up can
/// leave the election without a leader.
fn check_outcomes(out: &mut Outcome, what: &str, elections: &[Counted]) {
    for (i, c) in elections.iter().enumerate() {
        let ok = c.leaders.len() == 1 || (c.leaders.is_empty() && c.gave_up > 0);
        out.check(ok, 1, || {
            format!(
                "{what} {i}: {} leaders, {} of {} contenders gave up",
                c.leaders.len(),
                c.gave_up,
                c.contenders
            )
        });
    }
}

/// Checks a traced election against its untraced twin: identical
/// counters, and a phase table that accounts for every message and
/// every active round.
fn compare_traced(
    out: &mut Outcome,
    what: &str,
    untraced: &Counted,
    traced: &Counted,
    t: &TelemetryReport,
) {
    out.check(traced == untraced, 1, || {
        format!("{what}: traced counters {traced:?} differ from untraced {untraced:?}")
    });
    let msgs: u64 = t.phases.iter().map(|(_, p)| p.messages).sum();
    let rounds: u64 = t.phases.iter().map(|(_, p)| p.rounds).sum();
    out.check(
        msgs == untraced.messages && rounds == t.total_samples,
        1,
        || {
            format!(
                "{what}: phase table holds {msgs} messages and {rounds} rounds, \
             the run sent {} messages in {} active rounds",
                untraced.messages, t.total_samples
            )
        },
    );
}

/// One profiler stage's totals.
#[derive(Clone, Copy, Default)]
struct SpanSum {
    events: u64,
    wall_ns: u64,
}

/// Sums of the per-layer figures over the elections of a traced batch.
#[derive(Default)]
struct Layers {
    elections: u64,
    graph_build_s: f64,
    directed_edges: u64,
    engine_build_s: f64,
    /// Span profiler totals, in `SPAN_STAGES` order.
    spans: [SpanSum; SPAN_STAGES.len()],
    phase_messages: [u64; 5],
    phase_rounds: [u64; 5],
    active_rounds: u64,
    peak_arena_slots: u64,
    /// Median resident-set high-water of one untraced election.
    peak_rss_mib: f64,
    dropped: u64,
    /// Allocations and bytes counted over `alloc_elections` untraced
    /// elections.
    allocs: (u64, u64),
    alloc_elections: u64,
    trials_per_s_k1: f64,
    speedup_k2: f64,
    engines_built: u64,
    sink_bytes: u64,
    /// Elections per CPU second untraced and traced, as measured.
    untraced_rate: f64,
    traced_rate: f64,
    host_speed: f64,
}

impl Layers {
    fn absorb(&mut self, c: &Counted, t: &TelemetryReport) -> Result<(), String> {
        self.elections += 1;
        self.active_rounds += t.total_samples;
        self.peak_arena_slots = self.peak_arena_slots.max(c.peak_arena_slots);
        self.dropped += c.dropped;
        for &(tag, totals) in &t.phases {
            if let Some(p) = tag.and_then(Phase::from_tag) {
                self.phase_messages[p.tag() as usize] += totals.messages;
                self.phase_rounds[p.tag() as usize] += totals.rounds;
            }
        }
        let profile = t
            .profile
            .as_ref()
            .ok_or("traced run returned no span profile")?;
        for s in profile {
            let i = SPAN_STAGES
                .iter()
                .position(|&st| st == s.stage)
                .ok_or("unknown span stage")?;
            self.spans[i].events += s.events;
            self.spans[i].wall_ns += s.wall_ns;
        }
        Ok(())
    }

    fn stage(&self, stage: SpanStage) -> SpanSum {
        SPAN_STAGES
            .iter()
            .position(|&s| s == stage)
            .map_or_else(SpanSum::default, |i| self.spans[i])
    }

    /// Emits every per-layer metric, per election where it is a total
    /// (the same names on every workload; a layer a workload does not
    /// reach reads 0).
    fn emit(&self, out: &mut Outcome) {
        let k = self.elections.max(1) as f64;
        let secs = |ns: u64| ns as f64 * 1e-9 / k;
        let per = |v: u64| v as f64 / k;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let round = self.stage(SpanStage::Round);
        let callbacks = self.stage(SpanStage::Callbacks);
        let deliver = self.stage(SpanStage::Deliver);
        let fault = self.stage(SpanStage::FaultFilter);
        let latency = self.stage(SpanStage::LatencyHeap);
        let deliver_self_ns = deliver
            .wall_ns
            .saturating_sub(fault.wall_ns + latency.wall_ns);

        out.metric("graph.build_s", self.graph_build_s, "s");
        out.metric("graph.directed_edges", self.directed_edges as f64, "count");
        out.metric("congest.engine_build_s", self.engine_build_s, "s");
        out.metric("congest.round_s", secs(round.wall_ns), "s");
        out.metric("congest.deliver_s", secs(deliver_self_ns), "s");
        out.metric("congest.deliveries", per(deliver.events), "count");
        out.metric(
            "congest.ns_per_delivery",
            ratio(deliver_self_ns as f64, deliver.events as f64),
            "ns",
        );
        out.metric("congest.active_rounds", per(self.active_rounds), "rounds");
        out.metric(
            "congest.peak_arena_slots",
            self.peak_arena_slots as f64,
            "count",
        );
        out.metric("congest.latency_heap_s", secs(latency.wall_ns), "s");
        out.metric("congest.latency_heap_events", per(latency.events), "count");
        out.metric("congest.fault_filter_s", secs(fault.wall_ns), "s");
        out.metric("congest.dropped_messages", per(self.dropped), "count");
        out.metric("protocol.callbacks_s", secs(callbacks.wall_ns), "s");
        out.metric("protocol.callbacks", per(callbacks.events), "count");
        out.metric(
            "protocol.ns_per_callback",
            ratio(callbacks.wall_ns as f64, callbacks.events as f64),
            "ns",
        );
        out.metric(
            "protocol.callback_share",
            ratio(callbacks.wall_ns as f64, round.wall_ns as f64),
            "ratio",
        );
        for p in Phase::ALL {
            let (i, name) = (p.tag() as usize, p.name());
            let messages = per(self.phase_messages[i]);
            out.metric(format!("protocol.phase_messages.{name}"), messages, "count");
            let rounds = per(self.phase_rounds[i]);
            out.metric(format!("protocol.phase_rounds.{name}"), rounds, "rounds");
        }
        out.metric("peak_rss_mib", self.peak_rss_mib, "MiB");
        let a = self.alloc_elections.max(1) as f64;
        out.metric(
            "alloc.count_per_election",
            self.allocs.0 as f64 / a,
            "count",
        );
        out.metric("alloc.bytes_per_election", self.allocs.1 as f64 / a, "B");
        out.metric("campaign.trials_per_s.k1", self.trials_per_s_k1, "1/s");
        out.metric("campaign.speedup_k2", self.speedup_k2, "ratio");
        out.metric("campaign.engines_built", self.engines_built as f64, "count");
        out.metric("campaign.sink_bytes", self.sink_bytes as f64, "B");
        out.metric(
            "trace.overhead",
            ratio(self.untraced_rate, self.traced_rate) - 1.0,
            "ratio",
        );
        out.metric("host.speed", self.host_speed, "ratio");
    }
}

// ---------------------------------------------------------------------
// election-expander
// ---------------------------------------------------------------------

/// Serial elections on random 4-regular graphs.
pub fn election_expander(args: &Args, spans: &mut Spans, out: &mut Outcome) -> Result<(), String> {
    let seeds = election_seeds(args, ELECTIONS);
    let cfg = capped(Family::Expander.election_config(EXPANDER_N));
    let mut setup = |spans: &mut Spans| {
        let graphs: Vec<Arc<Graph>> = (0..EXPANDER_GRAPHS)
            .map(|g| {
                let seed = seed_of(args, EXPANDER_STREAM + g);
                spans
                    .time("gen", |_| Family::Expander.build(EXPANDER_N, seed))
                    .0
            })
            .collect();
        spans
            .time("validate", |_| derive_params(&graphs[0], cfg))
            .0?;
        Ok(graphs)
    };
    let graphs = &spans.time("setup", setup).0?;
    let mut timing = Spans::default();
    let mut reference = host::Reference::new();
    // One pass: each election's report, CPU seconds and resident-set
    // high-water. `after(i)` runs after election `i`, untimed.
    let batch = |spans: &mut Spans,
                 telemetry: Option<TelemetryConfig>,
                 after: &mut dyn FnMut(usize) -> Result<(), String>| {
        let mut pass = Pass::new(Vec::with_capacity(seeds.len()));
        for (i, (&seed, graph)) in seeds.iter().zip(graphs.iter().cycle()).enumerate() {
            let election = Election::on(graph)
                .config(cfg)
                .seed(seed)
                .executor(Exec::Serial);
            let election = match telemetry {
                Some(t) => election.telemetry(t),
                None => election,
            };
            let (report, secs, peak) = measured(spans, "Election::run", || election.run());
            pass.counters.push(report.map_err(|e| e.to_string())?);
            pass.secs.push(secs);
            pass.peaks_mib.push(peak);
            after(i)?;
        }
        Ok::<_, String>(pass)
    };
    let mut layers = Layers::default();
    let timed = timed_batch(
        args,
        spans,
        out,
        &mut layers,
        ELECTIONS,
        ELECTION_PASSES,
        |spans| {
            let (mut setup_secs, mut ref_secs) = (Vec::new(), Vec::new());
            let pass = batch(spans, None, &mut |i| {
                ref_secs.push(reference.sample());
                if i % SETUP_EVERY == SETUP_EVERY - 1 {
                    setup_secs.extend(setup_block(&mut setup, 1, &mut timing)?);
                }
                Ok(())
            })?;
            Ok(Pass {
                setup_secs,
                ref_secs,
                ..pass.map(|reports| reports.iter().map(counted).collect::<Vec<_>>())
            })
        },
    )?;
    let untraced = &timed.first.counters;
    check_outcomes(out, "election", untraced);
    if !args.trace {
        end_to_end(out, timed.setup_s(), timed.rate(), untraced);
        return Ok(());
    }

    layers.graph_build_s = timing.median_of("gen");
    layers.directed_edges = graphs.iter().map(|g| g.directed_edge_count() as u64).sum();
    let params = derive_params(&graphs[0], cfg)?;
    layers.engine_build_s =
        engine_build_s(spans, || election_engine(&graphs[0], &params, seeds[0]));
    // The traced pass's telemetry.
    let mut telemetry: Vec<TelemetryReport> = Vec::new();
    let profile = Some(TelemetryConfig::full().with_profile());
    let traced = traced_batch(spans, out, &mut layers, ELECTIONS, |spans| {
        let mut pass = batch(spans, profile, &mut |_| Ok(()))?;
        for r in &mut pass.counters {
            let t = r.telemetry.take();
            telemetry.push(t.ok_or("traced run returned no telemetry")?);
        }
        Ok(pass.map(|reports| reports.iter().map(counted).collect::<Vec<_>>()))
    })?;
    for (i, ((u, t), tel)) in untraced
        .iter()
        .zip(&traced.first.counters)
        .zip(&telemetry)
        .enumerate()
    {
        compare_traced(out, &format!("election {i}"), u, t, tel);
        layers.absorb(t, tel)?;
    }
    layers.emit(out);
    Ok(())
}

// ---------------------------------------------------------------------
// flood-baseline
// ---------------------------------------------------------------------

/// Flood-max on one random 4-regular graph: delivery only, no election
/// protocol.
pub fn flood_baseline(args: &Args, spans: &mut Spans, out: &mut Outcome) -> Result<(), String> {
    let graph_seed = seed_of(args, GRAPH_STREAM);
    let seeds = election_seeds(args, FLOODS);
    let mut setup = |spans: &mut Spans| {
        spans
            .time("gen", |_| {
                let mut rng = StdRng::seed_from_u64(graph_seed);
                gen::random_regular(FLOOD_N, FLOOD_DEGREE, &mut rng)
            })
            .0
            .map(Arc::new)
            .map_err(|e| e.to_string())
    };
    let graph = &spans.time("setup", setup).0?;
    let mut timing = Spans::default();
    let mut reference = host::Reference::new();
    let mut layers = Layers::default();
    let timed = timed_batch(
        args,
        spans,
        out,
        &mut layers,
        FLOODS,
        FLOOD_PASSES,
        |spans| {
            let mut pass = Pass::new(Vec::with_capacity(seeds.len()));
            for (i, &seed) in seeds.iter().enumerate() {
                let (r, secs, peak) =
                    measured(spans, "run_flood_max", || run_flood_max(graph, seed));
                pass.counters.push(Counted {
                    leaders: r.leaders,
                    messages: r.messages,
                    decided_round: r.rounds,
                    engine_rounds: r.rounds,
                    ..Counted::default()
                });
                pass.secs.push(secs);
                pass.peaks_mib.push(peak);
                if i % FLOOD_REF_EVERY == FLOOD_REF_EVERY - 1 {
                    pass.ref_secs.push(reference.sample());
                }
                if i % FLOOD_SETUP_EVERY == FLOOD_SETUP_EVERY - 1 {
                    let sample = setup_block(&mut setup, 1, &mut timing)?;
                    pass.setup_secs.extend(sample);
                }
            }
            Ok(pass)
        },
    )?;
    let untraced = &timed.first.counters;

    // The same floods through `Engine::from_fn`, so the drawn ids are
    // visible: one round is enough, as ids are drawn at start-up.
    let id_max = (FLOOD_N as u128).pow(4).min(u64::MAX as u128) as u64;
    let build = |seed: u64| {
        Engine::from_fn(
            Arc::clone(graph),
            EngineConfig {
                seed,
                bandwidth_bits: None,
            },
            |_| FloodMaxElection::new(id_max),
        )
    };
    for (i, (&seed, flood)) in seeds.iter().zip(untraced).enumerate() {
        let mut engine = build(seed);
        engine.step();
        let nodes = engine.nodes();
        let max_id = nodes.iter().map(FloodMaxElection::id).max().unwrap_or(0);
        let holders: Vec<usize> = (0..nodes.len())
            .filter(|&v| nodes[v].id() == max_id)
            .collect();
        out.check(holders.len() == 1 && flood.leaders == holders, 1, || {
            format!(
                "flood {i}: max id held by {holders:?}, run_flood_max elected {:?}",
                flood.leaders
            )
        });
    }
    if !args.trace {
        end_to_end(out, timed.setup_s(), timed.rate(), untraced);
        return Ok(());
    }

    // Traced, the replay runs each flood to the end under the profiler.
    layers.engine_build_s = engine_build_s(spans, || build(seeds[0]));
    let mut telemetry: Vec<(TelemetryReport, u64)> = Vec::new();
    let traced = traced_batch(spans, out, &mut layers, FLOODS, |spans| {
        let mut pass = Pass::new(Vec::with_capacity(seeds.len()));
        for &seed in &seeds {
            // Timed like `run_flood_max`: from building the engine to
            // the end of the run.
            let ((mut engine, outcome), secs) = spans.time("replay", |_| {
                let mut engine = build(seed);
                engine.set_telemetry(TelemetryConfig::full().with_profile());
                let outcome = engine.run(FLOOD_ROUND_LIMIT);
                (engine, outcome)
            });
            let nodes = engine.nodes();
            pass.counters.push(Counted {
                leaders: (0..nodes.len()).filter(|&v| nodes[v].is_leader()).collect(),
                messages: engine.metrics().messages,
                decided_round: outcome.round(),
                engine_rounds: outcome.round(),
                ..Counted::default()
            });
            pass.secs.push(secs);
            let tel = engine
                .take_telemetry()
                .ok_or("traced replay returned no telemetry")?;
            telemetry.push((tel, engine.peak_arena_slots()));
        }
        Ok(pass)
    })?;
    for (i, ((u, t), (tel, arena))) in untraced
        .iter()
        .zip(&traced.first.counters)
        .zip(&telemetry)
        .enumerate()
    {
        compare_traced(out, &format!("flood {i}"), u, t, tel);
        let t = Counted {
            peak_arena_slots: *arena,
            ..t.clone()
        };
        layers.absorb(&t, tel)?;
    }
    layers.graph_build_s = timing.median_of("gen");
    layers.directed_edges = graph.directed_edge_count() as u64;
    layers.emit(out);
    Ok(())
}

// ---------------------------------------------------------------------
// campaign-async-lossy
// ---------------------------------------------------------------------

/// The campaign's scenarios (label, graph, config, fault plan), its
/// latency model and its trial seeds.
struct CampaignInputs {
    scenarios: Vec<(String, Arc<Graph>, ElectionConfig, FaultPlan)>,
    model: LatencyModel,
    seeds: Vec<u64>,
}

const CAMPAIGN_FAMILIES: [Family; 2] = [Family::Expander, Family::Hypercube];

fn campaign_inputs(args: &Args, spans: &mut Spans) -> Result<CampaignInputs, String> {
    let model = LatencyModel::log_normal(0.3, 0.6);
    model.validate().map_err(|e| e.to_string())?;
    let mut scenarios = Vec::new();
    for (s, family) in (0u64..).zip(CAMPAIGN_FAMILIES) {
        let (label, graph, cfg) = spans
            .time("gen", |_| {
                family.scenario(CAMPAIGN_N, seed_of(args, CAMPAIGN_GRAPH_STREAM + s))
            })
            .0;
        let cfg = capped(cfg);
        let plan =
            FaultPlan::new(seed_of(args, CAMPAIGN_FAULT_STREAM + s)).drop_rate(CAMPAIGN_DROP_RATE);
        spans
            .time("validate", |_| -> Result<(), String> {
                derive_params(&graph, cfg)?;
                plan.compile_for(&graph).map_err(|e| e.to_string())?;
                Ok(())
            })
            .0?;
        scenarios.push((label, graph, cfg, plan));
    }
    Ok(CampaignInputs {
        scenarios,
        model,
        seeds: election_seeds(args, CAMPAIGN_SEEDS),
    })
}

/// One campaign's outputs: per-trial counters, the streamed CSV, and
/// the pooled engines it built.
#[derive(Debug, PartialEq)]
struct CampaignRun {
    trials: Vec<Counted>,
    csv: Vec<u8>,
    engines_built: usize,
}

/// A finished campaign: its outputs, the full reports, the CPU seconds
/// (all workers together) and wall seconds of `Campaign::run`, and the
/// resident-set high-water between consecutive trial completions, in
/// MiB (with two workers each interval covers about two trials).
struct Finished {
    run: CampaignRun,
    reports: Vec<ElectionReport>,
    secs: f64,
    wall_s: f64,
    peaks_mib: Vec<f64>,
}

fn run_campaign(
    inputs: &CampaignInputs,
    threads: usize,
    telemetry: Option<TelemetryConfig>,
    sink: &Path,
    spans: &mut Spans,
) -> Result<Finished, String> {
    let [(label0, g0, cfg0, plan0), rest @ ..] = inputs.scenarios.as_slice() else {
        return Err("campaign has no scenarios".into());
    };
    let mut campaign = Campaign::new(
        Election::on(g0)
            .config(*cfg0)
            .executor(Exec::Async(inputs.model))
            .faults(plan0.clone()),
    )
    .label(label0.clone());
    for (label, g, cfg, plan) in rest {
        campaign = campaign
            .scenario(label.clone(), g, *cfg)
            .faults(plan.clone());
    }
    let campaign = campaign
        .seeds(inputs.seeds.iter().copied())
        .trial_threads(threads)
        .stream_csv(sink);
    let campaign = match telemetry {
        Some(t) => campaign.telemetry(t),
        None => campaign,
    };
    let mut peaks_mib = Vec::with_capacity(inputs.seeds.len() * inputs.scenarios.len());
    let campaign = campaign.on_trial(|_| {
        peaks_mib.push(peak_rss_mib());
        reset_peak_rss();
    });
    reset_peak_rss();
    let start = crate::now();
    let (report, secs) = spans.time("Campaign::run", |_| campaign.run());
    let wall_s = crate::secs_since(start);
    let report = report.map_err(|e| e.to_string())?;
    let csv = std::fs::read(sink).map_err(|e| format!("reading {}: {e}", sink.display()))?;
    let reports: Vec<ElectionReport> = report.trials.into_iter().map(|t| t.report).collect();
    let run = CampaignRun {
        trials: reports.iter().map(counted).collect(),
        csv,
        engines_built: report.engines_built,
    };
    Ok(Finished {
        run,
        reports,
        secs,
        wall_s,
        peaks_mib,
    })
}

/// Checks that a campaign ran every trial and streamed one row each.
fn check_complete(out: &mut Outcome, what: &str, run: &CampaignRun, expected: usize) {
    let lines = run
        .csv
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count();
    out.check(
        run.trials.len() == expected && lines == expected + 1,
        expected as u64,
        || {
            format!(
                "{what}: {} trials and {lines} CSV lines, expected {expected} trials",
                run.trials.len()
            )
        },
    );
}

/// A `Campaign` of lossy async elections over an expander and a
/// hypercube at n = 128: many small trials on the trial scheduler.
pub fn campaign_async_lossy(
    args: &Args,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setup = |spans: &mut Spans| campaign_inputs(args, spans);
    let inputs = spans.time("setup", setup).0?;
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("creating {}: {e}", args.scratch.display()))?;
    let sink = |tag: &str| -> PathBuf {
        args.scratch
            .join(format!("campaign-{}-{tag}.csv", std::process::id()))
    };
    let sinks = [sink("untraced"), sink("k1"), sink("k2")];
    let result = campaign_runs(args, spans, out, &inputs, &mut setup, &sinks);
    for path in &sinks {
        // A sink that was never created is fine; nothing else can fail here.
        let _ = std::fs::remove_file(path);
    }
    result
}

fn campaign_runs(
    args: &Args,
    spans: &mut Spans,
    out: &mut Outcome,
    inputs: &CampaignInputs,
    setup: &mut impl FnMut(&mut Spans) -> Result<CampaignInputs, String>,
    [untraced_sink, k1_sink, k2_sink]: &[PathBuf; 3],
) -> Result<(), String> {
    // Two workers, never more than the host has.
    let nproc = std::thread::available_parallelism().map_or(1, |c| c.get());
    let k = nproc.min(2);
    let trials = inputs.scenarios.len() * inputs.seeds.len();
    // A campaign is timed whole: its trials overlap on the workers.
    let pass = |done: Finished| Pass {
        secs: vec![done.secs],
        peaks_mib: done.peaks_mib,
        ..Pass::new(done.run)
    };
    let mut timing = Spans::default();
    let mut reference = host::Reference::new();
    let mut layers = Layers::default();
    let timed = timed_batch(
        args,
        spans,
        out,
        &mut layers,
        trials as u64,
        CAMPAIGN_PASSES,
        |spans| {
            let mut samples = |setup_secs: &mut Vec<f64>, ref_secs: &mut Vec<f64>| {
                setup_secs.extend(setup_block(setup, CAMPAIGN_SETUP_SAMPLES, &mut timing)?);
                ref_secs.extend((0..CAMPAIGN_REF_SAMPLES).map(|_| reference.sample()));
                Ok::<_, String>(())
            };
            let (mut setup_secs, mut ref_secs) = (Vec::new(), Vec::new());
            samples(&mut setup_secs, &mut ref_secs)?;
            let done = run_campaign(inputs, k, None, untraced_sink, spans)?;
            samples(&mut setup_secs, &mut ref_secs)?;
            Ok(Pass {
                setup_secs,
                ref_secs,
                ..pass(done)
            })
        },
    )?;
    let untraced = &timed.first.counters;
    check_complete(out, "campaign", untraced, trials);
    for (i, c) in untraced.trials.iter().enumerate() {
        out.check(c.leaders.len() <= 1, 1, || {
            format!("campaign trial {i}: {} leaders", c.leaders.len())
        });
    }
    if !args.trace {
        end_to_end(out, timed.setup_s(), timed.rate(), &untraced.trials);
        return Ok(());
    }

    let profile = Some(TelemetryConfig::full().with_profile());
    // The traced pass's reports, for their telemetry.
    let mut reports: Vec<ElectionReport> = Vec::new();
    let mut k2_wall_s = 0.0;
    let traced_k2 = traced_batch(spans, out, &mut layers, trials as u64, |spans| {
        let mut done = run_campaign(inputs, k, profile, k2_sink, spans)?;
        reports = std::mem::take(&mut done.reports);
        k2_wall_s = done.wall_s;
        Ok(pass(done))
    })?;
    let traced_k1 = run_campaign(inputs, 1, profile, k1_sink, spans)?;
    out.attempted += trials as u64;
    check_complete(out, "traced campaign", &traced_k2.first.counters, trials);
    out.check(
        traced_k2.first.counters.csv == traced_k1.run.csv,
        trials as u64,
        || format!("the k = {k} CSV stream differs from the k = 1 stream"),
    );
    for (i, (u, t)) in untraced.trials.iter().zip(&reports).enumerate() {
        let tel = telemetry_of(t)?;
        compare_traced(out, &format!("campaign trial {i}"), u, &counted(t), tel);
        layers.absorb(&counted(t), tel)?;
    }
    layers.graph_build_s = timing.median_of("gen");
    layers.directed_edges = inputs
        .scenarios
        .iter()
        .map(|s| s.1.directed_edge_count() as u64)
        .sum();
    let (_, g0, cfg0, _) = &inputs.scenarios[0];
    let params = derive_params(g0, *cfg0)?;
    layers.engine_build_s = engine_build_s(spans, || election_engine(g0, &params, inputs.seeds[0]));
    // One k = 1 run against the k = 2 pass. The speed-up is the one ratio of wall times, since CPU time does not
    // shrink when trials overlap.
    layers.trials_per_s_k1 = trials as f64 / traced_k1.secs;
    layers.speedup_k2 = traced_k1.wall_s / k2_wall_s;
    layers.engines_built = untraced.engines_built as u64;
    layers.sink_bytes = untraced.csv.len() as u64;
    layers.emit(out);
    Ok(())
}
