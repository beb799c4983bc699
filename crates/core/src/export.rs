//! Telemetry exporters: the per-round sample stream as CSV or JSONL,
//! and the human-readable phase/profile tables the CLI prints.
//!
//! Everything here renders data already recorded by the telemetry layer
//! ([`Election::telemetry`](crate::Election::telemetry)); nothing
//! re-runs or perturbs a simulation. The machine formats
//! ([`write_round_log`], [`write_samples_jsonl`]) emit one record per
//! retained [`RoundSample`](crate::RoundSample) and are deterministic byte-for-byte: the
//! same `(graph, config, seed, plan)` produces the same file on every
//! executor. The human tables ([`phase_table`], [`profile_table`]) are
//! for eyes, not parsers — the CLI routes them to stderr when stdout
//! must stay machine-pure.

use std::io::{self, Write};

use welle_congest::{SpanStats, TelemetryReport};

use crate::config::Phase;
use crate::runner::ElectionReport;

/// The column names of one [`write_round_log`] row.
pub const ROUND_LOG_HEADER: &str =
    "round,phase,messages,bits,active_nodes,max_backlog,dropped,parked,tick";

/// Renders a phase tag the way both exporters spell it: the election
/// phase's name when the tag is one ([`Phase::from_tag`]), the bare
/// number for foreign protocols' tags, empty before the first publish.
fn phase_label(tag: Option<u8>) -> String {
    match tag {
        None => String::new(),
        Some(t) => match Phase::from_tag(t) {
            Some(p) => p.name().to_string(),
            None => t.to_string(),
        },
    }
}

/// Writes the retained sample stream as CSV: [`ROUND_LOG_HEADER`], then
/// one row per [`RoundSample`](crate::RoundSample), oldest first. Under ring retention this
/// is the stream's tail; [`TelemetryReport::total_samples`] says how
/// many rounds the whole run sampled.
///
/// # Errors
///
/// Any [`io::Error`] of the underlying writer.
pub fn write_round_log(report: &TelemetryReport, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "{ROUND_LOG_HEADER}")?;
    for s in &report.samples {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{}",
            s.round,
            phase_label(s.phase),
            s.messages,
            s.bits,
            s.active_nodes,
            s.max_backlog,
            s.dropped,
            s.parked,
            s.tick,
        )?;
    }
    Ok(())
}

/// Writes the retained sample stream as JSONL: one JSON object per
/// [`RoundSample`](crate::RoundSample), oldest first, with the same fields as
/// [`write_round_log`]. `phase` is `null` before the first publish,
/// otherwise the same label the CSV uses (a JSON string).
///
/// # Errors
///
/// Any [`io::Error`] of the underlying writer.
pub fn write_samples_jsonl(report: &TelemetryReport, w: &mut impl Write) -> io::Result<()> {
    for s in &report.samples {
        let phase = match s.phase {
            None => "null".to_string(),
            Some(_) => format!("\"{}\"", phase_label(s.phase)),
        };
        writeln!(
            w,
            concat!(
                "{{\"round\":{},\"phase\":{},\"messages\":{},\"bits\":{},",
                "\"active_nodes\":{},\"max_backlog\":{},\"dropped\":{},",
                "\"parked\":{},\"tick\":{}}}"
            ),
            s.round,
            phase,
            s.messages,
            s.bits,
            s.active_nodes,
            s.max_backlog,
            s.dropped,
            s.parked,
            s.tick,
        )?;
    }
    Ok(())
}

/// Renders the report's per-phase breakdown as a small aligned table —
/// one row per election phase with its active rounds and messages, and
/// a totals row. Returns the paper-faithful "all zeros" table when the
/// run did not enable telemetry; callers that want to suppress it can
/// check [`ElectionReport::telemetry`] first.
pub fn phase_table(report: &ElectionReport) -> String {
    let mut out = String::new();
    out.push_str("phase  active_rounds      messages\n");
    for p in Phase::ALL {
        let i = p.tag() as usize;
        out.push_str(&format!(
            "{:<6} {:>13} {:>13}\n",
            p.name(),
            report.phase_rounds[i],
            report.phase_messages[i],
        ));
    }
    out.push_str(&format!(
        "{:<6} {:>13} {:>13}\n",
        "total",
        report.phase_rounds.iter().sum::<u64>(),
        report.phase_messages.iter().sum::<u64>(),
    ));
    out
}

/// Renders the span profiler's output as an aligned table — one row per
/// stage in hierarchy order, children indented under their parent, with
/// entry/event counts (deterministic) and wall-clock milliseconds
/// (not). `None` when the run did not profile
/// ([`TelemetryConfig::profile`](welle_congest::TelemetryConfig) off, or
/// telemetry absent entirely).
pub fn profile_table(report: &TelemetryReport) -> Option<String> {
    let profile: &[SpanStats] = report.profile.as_deref()?;
    let mut out = String::new();
    out.push_str("span             entries        events       wall_ms\n");
    for s in profile {
        let depth = std::iter::successors(Some(s.stage), |st| st.parent()).count() - 1;
        let name = format!("{}{}", "  ".repeat(depth), s.stage.name());
        out.push_str(&format!(
            "{:<14} {:>9} {:>13} {:>13.3}\n",
            name,
            s.entries,
            s.events,
            s.wall_ns as f64 / 1e6,
        ));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::{Election, ElectionConfig};
    use welle_congest::TelemetryConfig;
    use welle_graph::gen;

    fn observed_report() -> ElectionReport {
        let g = Arc::new(gen::hypercube(6).unwrap());
        Election::on(&g)
            .config(ElectionConfig::tuned_for_simulation(64))
            .seed(3)
            .telemetry(TelemetryConfig::full().with_profile())
            .run()
            .unwrap()
    }

    #[test]
    fn round_log_has_one_row_per_sample_and_a_header() {
        let report = observed_report();
        let t = report.telemetry.as_ref().unwrap();
        let mut buf = Vec::new();
        write_round_log(t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), ROUND_LOG_HEADER);
        assert_eq!(lines.count() as u64, t.total_samples);
        // Every data row has exactly the header's column count.
        for row in text.lines().skip(1) {
            assert_eq!(
                row.split(',').count(),
                ROUND_LOG_HEADER.split(',').count(),
                "row: {row}"
            );
        }
        // The election publishes phases from round one, so the log names
        // them.
        assert!(text.contains(",walk,"));
    }

    #[test]
    fn jsonl_mirrors_the_csv_stream() {
        let report = observed_report();
        let t = report.telemetry.as_ref().unwrap();
        let mut buf = Vec::new();
        write_samples_jsonl(t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), t.samples.len());
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("{\"round\":"), "{first}");
        assert!(first.ends_with('}'), "{first}");
        assert!(first.contains("\"phase\":\"walk\""), "{first}");
    }

    #[test]
    fn phase_table_rows_cover_all_phases_and_total() {
        let report = observed_report();
        let table = phase_table(&report);
        for p in Phase::ALL {
            assert!(table.contains(p.name()), "missing {}", p.name());
        }
        assert!(table.starts_with("phase  active_rounds      messages\n"));
        assert!(table.contains("total"));
        // The totals row agrees with the report's arrays.
        let rounds: u64 = report.phase_rounds.iter().sum();
        assert!(table.contains(&rounds.to_string()));
    }

    #[test]
    fn profile_table_present_iff_profiling_ran() {
        let report = observed_report();
        let t = report.telemetry.as_ref().unwrap();
        let table = profile_table(t).expect("profiling was on");
        assert!(table.contains("round"));
        assert!(table.contains("  callbacks"), "children are indented");
        let g = Arc::new(gen::hypercube(6).unwrap());
        let unprofiled = Election::on(&g)
            .config(ElectionConfig::tuned_for_simulation(64))
            .seed(3)
            .telemetry(TelemetryConfig::full())
            .run()
            .unwrap();
        assert!(profile_table(unprofiled.telemetry.as_ref().unwrap()).is_none());
    }

    #[test]
    fn foreign_phase_tags_render_numerically() {
        assert_eq!(phase_label(None), "");
        assert_eq!(phase_label(Some(0)), "walk");
        assert_eq!(phase_label(Some(4)), "wait");
        assert_eq!(phase_label(Some(9)), "9");
    }
}
