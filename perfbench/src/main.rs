//! The repository benchmark: three closed-loop workloads that time the
//! simulator from outside, through the public API of `welle_graph`,
//! `welle_congest` and `welle_core`, and check every output they time.
//!
//! ```text
//! welle-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 --scratch <dir> [--rev <revision>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `perfbench/NOTES.md` gives the reason for each workload and the map
//! from each layer metric to the end-to-end metric it moves.

mod alloc;
mod host;
mod workloads;

use std::fmt::{Debug, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for files a workload writes (the campaign's CSV sink).
    pub scratch: PathBuf,
    rev: String,
}

const USAGE: &str = "usage: welle-perfbench --workload <election-expander|flood-baseline|\
campaign-async-lossy> --seed <n> --seconds <s> --trace <0|1> --scratch <dir> [--rev <revision>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = None;
    let mut rev = String::from("unknown");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--rev" => rev = value,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        scratch: scratch.ok_or_else(|| missing("--scratch"))?,
        rev,
    })
}

/// The wall clock, read in one place. It only keeps a run within
/// `--seconds`; the figures are CPU time ([`host::cpu_secs`]). Benchmark time
/// never feeds the simulation: every input derives from `--seed`.
pub fn now() -> Instant {
    // welle-lint: allow(no-ambient-entropy) — the benchmark's own stopwatch; no simulated state reads it
    Instant::now()
}

/// Seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Derives the seed of one input stream (`tag`) from the benchmark
/// seed (SplitMix64), so every graph and election seed follows from
/// `--seed` alone.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of a sample (NaN if it is empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Benchmark-side spans around the calls into each layer: name,
/// parent, start and end, kept in memory and summarised on standard
/// error when the run ends.
#[derive(Default)]
pub struct Spans {
    open: Vec<usize>,
    done: Vec<SpanRec>,
}

struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    /// CPU seconds at the start; `None` once the span has ended.
    start: Option<f64>,
    secs: f64,
}

impl Spans {
    /// Runs `f` inside a span named `name`; returns its value and the
    /// span's CPU seconds ([`host::cpu_secs`]).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.done.len();
        self.done.push(SpanRec {
            name,
            parent: self.open.last().copied(),
            start: Some(host::cpu_secs()),
            secs: 0.0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let rec = &mut self.done[id];
        rec.secs = rec
            .start
            .take()
            .map_or(0.0, |start| host::cpu_secs() - start);
        (out, rec.secs)
    }

    /// Median seconds of the spans named `name` (0 if none ran).
    pub fn median_of(&self, name: &str) -> f64 {
        let secs: Vec<f64> = self
            .done
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.secs)
            .collect();
        if secs.is_empty() {
            0.0
        } else {
            median(&secs)
        }
    }

    /// Per span name: calls, parent name, total and self seconds (self
    /// time is the span's duration minus its children's).
    fn summary(&self) -> String {
        let mut rows: Vec<(&str, &str, u64, f64, f64)> = Vec::new();
        for (i, rec) in self.done.iter().enumerate() {
            let children: f64 = self
                .done
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.secs)
                .sum();
            let parent = rec.parent.map_or("-", |p| self.done[p].name);
            match rows.iter_mut().find(|r| r.0 == rec.name && r.1 == parent) {
                Some(r) => {
                    r.2 += 1;
                    r.3 += rec.secs;
                    r.4 += rec.secs - children;
                }
                None => rows.push((rec.name, parent, 1, rec.secs, rec.secs - children)),
            }
        }
        let mut s = String::from(
            "span                      parent                calls    total_s     self_s\n",
        );
        for (name, parent, calls, total, own) in rows {
            let _ = writeln!(
                s,
                "{name:<25} {parent:<20} {calls:>6} {total:>10.4} {own:>10.4}"
            );
        }
        s
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Elections (trials, flood runs) run, timed or checked.
    pub attempted: u64,
    /// Of those, the ones whose output failed a check.
    pub failed: u64,
    /// Failed checks, in order.
    pub errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records a check on `elections` outputs; a failure counts all of
    /// them as failed.
    pub fn check(&mut self, ok: bool, elections: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += elections;
            self.errors.push(what());
        }
    }

    /// Records one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty() && self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// The deterministic counters of one election, compared across
/// passes and between the traced and untraced runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counted {
    pub leaders: Vec<usize>,
    pub contenders: usize,
    /// Contenders that reached the walk cap unsatisfied.
    pub gave_up: usize,
    pub messages: u64,
    /// The round by which every contender had decided (flood-max: the
    /// round it went quiet).
    pub decided_round: u64,
    /// The engine's round clock at the end (`ElectionReport::engine_rounds`).
    pub engine_rounds: u64,
    pub peak_arena_slots: u64,
    pub dropped: u64,
}

/// What one pass over a workload's batch measured.
pub struct Pass<T> {
    /// The deterministic counters, equal on every pass.
    pub counters: T,
    /// CPU seconds of each timed unit: one election (or flood) each, or
    /// one for a whole campaign, whose trials run on several workers.
    pub secs: Vec<f64>,
    /// Resident-set high-water of each election, in MiB.
    pub peaks_mib: Vec<f64>,
    /// Seconds of each set-up sample taken during the pass (none in a
    /// traced pass).
    pub setup_secs: Vec<f64>,
    /// Seconds of each run of the reference kernel interleaved with the
    /// pass (none in a traced pass).
    pub ref_secs: Vec<f64>,
}

impl<T> Pass<T> {
    /// A pass with `counters` and nothing timed yet.
    pub fn new(counters: T) -> Self {
        Pass {
            counters,
            secs: Vec::new(),
            peaks_mib: Vec::new(),
            setup_secs: Vec::new(),
            ref_secs: Vec::new(),
        }
    }

    /// The same pass with its counters mapped by `f`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Pass<U> {
        Pass {
            counters: f(self.counters),
            secs: self.secs,
            peaks_mib: self.peaks_mib,
            setup_secs: self.setup_secs,
            ref_secs: self.ref_secs,
        }
    }
}

/// What [`passes`] reports: the first pass, as a fresh process sees it,
/// and the times of all passes together.
pub struct Timed<T> {
    pub first: Pass<T>,
    /// Elections timed, over all passes.
    elections: u64,
    /// Their CPU seconds.
    secs: f64,
    setup_secs: Vec<f64>,
    ref_secs: Vec<f64>,
}

impl<T> Timed<T> {
    /// Elections per CPU second, as measured.
    pub fn raw_rate(&self) -> f64 {
        self.elections as f64 / self.secs
    }

    /// The host's speed during the passes: see [`host::speed`].
    pub fn host_speed(&self) -> f64 {
        host::speed(&self.ref_secs)
    }

    /// Elections per second at the reference speed of the host: the
    /// rate as measured, divided by [`Self::host_speed`]. Every election
    /// counts, the slow ones too.
    pub fn rate(&self) -> f64 {
        self.raw_rate() / self.host_speed()
    }

    /// Seconds of one set-up at the reference speed of the host: the
    /// median set-up sample, times [`Self::host_speed`].
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_secs) * self.host_speed()
    }
}

/// Passes every batch runs, at least.
pub const MIN_PASSES: usize = 2;

/// Runs `batch` (`elections` elections) `max_passes` times, stopping
/// early, after `MIN_PASSES`, when the next pass would end after
/// `seconds`. A pass whose counters differ from the first fails its
/// elections.
pub fn passes<T: PartialEq + Debug>(
    max_passes: usize,
    seconds: f64,
    spans: &mut Spans,
    elections: u64,
    out: &mut Outcome,
    mut batch: impl FnMut(&mut Spans) -> Result<Pass<T>, String>,
) -> Result<Timed<T>, String> {
    let start = now();
    let mut first: Option<Pass<T>> = None;
    let mut secs = 0.0;
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut ref_secs: Vec<f64> = Vec::new();
    let mut count = 0;
    loop {
        let pass_start = now();
        let pass = spans.time("pass", &mut batch).0?;
        let pass_s = secs_since(pass_start);
        count += 1;
        out.attempted += elections;
        secs += pass.secs.iter().sum::<f64>();
        setup_secs.extend_from_slice(&pass.setup_secs);
        ref_secs.extend_from_slice(&pass.ref_secs);
        match &first {
            None => first = Some(pass),
            Some(f) => out.check(f.counters == pass.counters, elections, || {
                format!("pass {count} differs from the first")
            }),
        }
        let late = secs_since(start) + pass_s > seconds;
        if count >= max_passes || (count >= MIN_PASSES && late) {
            break;
        }
    }
    eprintln!("passes: {count} in {:.3} s", secs_since(start));
    Ok(Timed {
        first: first.ok_or("no pass ran")?,
        elections: elections * count as u64,
        secs,
        setup_secs,
        ref_secs,
    })
}

/// The end-to-end metrics of a workload.
pub fn end_to_end(out: &mut Outcome, setup_s: f64, elections_per_s: f64, elections: &[Counted]) {
    let k = elections.len() as f64;
    let sum = |f: fn(&Counted) -> u64| elections.iter().map(f).sum::<u64>() as f64;
    out.metric("setup_s", setup_s, "s");
    out.metric("elections_per_s", elections_per_s, "1/s");
    out.metric("messages_per_election", sum(|c| c.messages) / k, "count");
    out.metric(
        "rounds_per_election",
        sum(|c| c.decided_round) / k,
        "rounds",
    );
    let unique = elections.iter().filter(|c| c.leaders.len() == 1).count() as f64;
    out.metric("unique_leader_rate", unique / k, "ratio");
}

/// Resets the process's resident-set high-water mark to its current
/// resident set (Linux `clear_refs`), so the next [`peak_rss_mib`]
/// covers only what runs in between. Where that is unsupported the mark
/// stays, and covers the process so far.
pub fn reset_peak_rss() {
    // Best effort by design: see above.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB; 0
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut spans = Spans::default();
    match args.workload.as_str() {
        "election-expander" => workloads::election_expander(args, &mut spans, &mut out)?,
        "flood-baseline" => workloads::flood_baseline(args, &mut spans, &mut out)?,
        "campaign-async-lossy" => workloads::campaign_async_lossy(args, &mut spans, &mut out)?,
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
    if args.trace {
        eprint!("{}", spans.summary());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("welle-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!(
        "stamp: workload={} seed={} seconds={} trace={} nproc={nproc} rev={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.rev
    );
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("welle-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for e in &out.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let bad_value = out.metrics.iter().find(|m| !m.1.is_finite());
    if let Some((name, value, _)) = bad_value {
        eprintln!("welle-perfbench: metric {name} is not finite ({value})");
        return ExitCode::from(2);
    }
    println!("{}", out.json());
    if out.errors.is_empty() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
