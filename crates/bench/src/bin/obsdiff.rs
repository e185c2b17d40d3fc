//! `obsdiff` — explain a latency/throughput delta between two runs by
//! exact phase attribution.
//!
//! Compares either two canonical event traces (`TRACE_*.jsonl`, written
//! by [`grw_obs::Obs::trace_jsonl`]) or two bench records
//! (`BENCH_*.json` carrying a `"phases"` block) and renders a markdown
//! report: end-to-end latency shift, the additive per-phase breakdown
//! (batch-wait / backend-service / sink-wait mean deltas that sum
//! *exactly* to the end-to-end mean delta), a one-line verdict naming
//! the phase that regressed, and — in trace mode — the event-census
//! shifts. The perf gate runs this in CI when a bench regression fails
//! the build, so the failure names its phase instead of just a number.
//!
//! Usage: `obsdiff BASELINE CURRENT [OUT.md]` — each input is a
//! `.jsonl` trace or a `.json` bench record (both inputs must be the
//! same kind); with no output path the markdown goes to stdout.

use grw_bench::json::{phase_summary, Json};
use grw_obs::{PhaseSummary, TraceDiff};

/// The `phases` block of a bench record's text, if the text parses and
/// carries a complete one.
fn record_phases(record: &str) -> Option<PhaseSummary> {
    phase_summary(&Json::parse(record).ok()?)
}

/// Loads one input as a phase-diffable side: a raw trace (any line
/// carries an `"ev"` field) stays a trace; a bench record yields its
/// `"phases"` summary.
enum Side {
    Trace(String),
    Record(PhaseSummary),
}

fn load(path: &str) -> Result<Side, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if content
        .lines()
        .any(|l| l.trim_start().starts_with("{\"ev\":"))
    {
        return Ok(Side::Trace(content));
    }
    record_phases(&content).map(Side::Record).ok_or_else(|| {
        format!("{path} is neither a trace nor a bench record with a \"phases\" block")
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(baseline_path), Some(current_path)) = (args.next(), args.next()) else {
        eprintln!("usage: obsdiff BASELINE CURRENT [OUT.md]  (traces or bench records)");
        std::process::exit(2);
    };
    let sides = (load(&baseline_path), load(&current_path));
    let diff = match sides {
        (Ok(Side::Trace(b)), Ok(Side::Trace(c))) => TraceDiff::from_traces(&b, &c),
        (Ok(Side::Record(b)), Ok(Side::Record(c))) => TraceDiff::from_summaries(b, c),
        (Ok(_), Ok(_)) => {
            eprintln!("obsdiff: inputs must both be traces or both be bench records");
            std::process::exit(2);
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("obsdiff: {e}");
            std::process::exit(1);
        }
    };
    let markdown = diff.render_markdown(&baseline_path, &current_path);
    match args.next() {
        Some(out_path) => {
            if let Err(e) = std::fs::write(&out_path, &markdown) {
                eprintln!("obsdiff: cannot write {out_path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {out_path}: {}", diff.verdict());
        }
        None => print!("{markdown}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_block_extraction_finds_the_flat_object() {
        let record = concat!(
            "{\n  \"bench\": \"sinks\",\n",
            "  \"phases\": {\"count\": 4, \"batch_wait_sum\": 2, \"batch_wait_p99\": 1, ",
            "\"backend_sum\": 8, \"backend_p99\": 3, \"sink_wait_sum\": 4, ",
            "\"sink_wait_p99\": 2, \"total_sum\": 14, \"total_p99\": 5, \"total_max\": 6},\n",
            "  \"summary\": {\"x\": 1}\n}\n"
        );
        let sum = record_phases(record).unwrap();
        assert_eq!(sum.count, 4);
        assert_eq!(sum.phase_sums, [2, 8, 4]);
        assert_eq!(sum.total_sum, 14);
    }

    #[test]
    fn gate_tolerance_block_before_the_summary_is_skipped() {
        // A gate list that names the phase sums, written before the
        // block itself, must not be mistaken for it.
        let record = concat!(
            "{\n  \"bench\": \"qps\",\n",
            "  \"gate\": [{\"path\": \"phases.count\", \"better\": \"higher\", ",
            "\"band\": 0.0, \"floor\": 0.0}],\n",
            "  \"phases\": {\"count\": 4, \"batch_wait_sum\": 2, \"batch_wait_p99\": 1, ",
            "\"backend_sum\": 8, \"backend_p99\": 3, \"sink_wait_sum\": 4, ",
            "\"sink_wait_p99\": 2, \"total_sum\": 14, \"total_p99\": 5, \"total_max\": 6}\n}\n"
        );
        let sum = record_phases(record).unwrap();
        assert_eq!(sum.count, 4);
        assert_eq!(sum.total_sum, 14);
    }

    #[test]
    fn records_without_phases_are_rejected_not_zeroed() {
        assert!(record_phases("{\"bench\": \"sampling\"}").is_none());
        assert!(record_phases("{\"phases\": {\"count\": 3}}").is_none());
        assert!(record_phases("not json").is_none());
    }
}
