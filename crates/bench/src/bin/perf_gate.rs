//! CI perf-regression gate over the `BENCH_*.json` records.
//!
//! Compares the current smoke-run bench records against the committed
//! baselines in `benchmarks/baselines/` and fails (exit code 1) when any
//! gated metric regresses beyond its band, naming every offending
//! metric. Improvements beyond the band pass but are flagged so the
//! baseline gets refreshed.
//!
//! ```text
//! perf_gate <baseline_dir> <current_dir>
//! ```
//!
//! Each baseline says what is gated: its `gate` list holds one entry per
//! gated metric, with the metric's path, which way is better, a relative
//! band and an absolute floor (see [`grw_bench::json`]). The gate judges
//! exactly that list. The bench writers declare each entry in the call
//! that writes the metric, so refreshing a baseline keeps its bands.
//!
//! Most gated metrics are deterministic: simulated cycles, tick
//! latencies, saturation in queries per tick, exact counts. A few are
//! wall-clock ratios measured within one run, where machine speed
//! cancels: the sampling bench's two arm-vs-arm speedups (wide bands)
//! and the qps bench's `obs_overhead` (an absolute 3% ceiling).
//!
//! Baselines are regenerated by running the seven smoke benches and
//! copying their output:
//!
//! ```text
//! SERVING_SMOKE=1 cargo run --release --example serving_accel
//! for w in urw ppr deepwalk node2vec; do
//!   LOAD_SMOKE=1 cargo run --release --example latency_load -- --workload "$w"
//! done
//! SINKS_SMOKE=1 cargo run --release --example sink_stream
//! ROUTING_SMOKE=1 cargo run --release --example routing
//! SAMPLING_SMOKE=1 cargo run --release --example sampling
//! QPS_SMOKE=1 cargo run --release --example qps
//! AUTOSCALE_SMOKE=1 cargo run --release --example autoscale
//! cp BENCH_*.json benchmarks/baselines/
//! ```

use grw_bench::json::{gates, phase_summary, Band};
use grw_bench::Json;
use grw_obs::TraceDiff;
use std::path::Path;
use std::process::ExitCode;

/// Outcome of one metric comparison.
#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    /// Better than baseline by more than the band (refresh suggested).
    Improved,
    Regressed,
    MissingCurrent,
    /// Baseline value is null — nothing to gate.
    SkippedNull,
    /// A bench gained a metric since the baseline was captured. Not a
    /// failure, but called out loudly so the baseline gets refreshed —
    /// until then the new metric is flying without a gate.
    UngatedNew,
}

const UNGATED_NEW: &str = "ungated (new) - refresh baseline to gate it";

/// Compares one metric value pair under its band.
fn judge(band: &Band, base: f64, current: f64) -> Verdict {
    let slack = (band.rel * base.abs()).max(band.floor);
    let worse = if band.higher_is_better {
        base - current
    } else {
        current - base
    };
    if worse > slack {
        Verdict::Regressed
    } else if worse < -slack {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Compares every metric the baseline declares; appends `file:metric`
/// for each regression to `offenders`.
fn gate_file(name: &str, base: &Json, current: &Json, offenders: &mut Vec<String>) {
    let start = offenders.len();
    let (declared, current_declared) = match (gates(base), gates(current)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            println!("  malformed gate list: {e}");
            offenders.push(format!("{name}:<malformed gate list: {e}>"));
            return;
        }
    };
    let fmt_v = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.4}"));
    let line = |path: &str, base_v: Option<f64>, cur_v: Option<f64>, band: &Band, tag: &str| {
        let delta = match (base_v, cur_v) {
            (Some(b), Some(c)) if b != 0.0 => format!("{:+.1}%", (c - b) / b.abs() * 100.0),
            _ => "-".to_string(),
        };
        println!(
            "  {:<44} base {:>12} -> cur {:>12}  {:>7}  ±{:>2.0}%  {}",
            path,
            fmt_v(base_v),
            fmt_v(cur_v),
            delta,
            band.rel * 100.0,
            tag
        );
    };
    let mut gated = 0;
    for g in &declared {
        let base_v = match base.get(&g.path) {
            Some(Json::Num(v)) => Some(*v),
            Some(Json::Null) => None,
            // A declaration with no value behind it gates nothing; that
            // is a broken baseline, not a skipped metric.
            _ => {
                println!("  {:<44} not a number in the baseline", g.path);
                offenders.push(format!("{name}:{} (not in baseline)", g.path));
                continue;
            }
        };
        let cur_v = current.get(&g.path).and_then(Json::as_f64);
        let verdict = match (base_v, cur_v) {
            (None, None) => Verdict::SkippedNull,
            (None, Some(_)) => Verdict::UngatedNew,
            (Some(_), None) => Verdict::MissingCurrent,
            (Some(b), Some(c)) => judge(&g.band, b, c),
        };
        if base_v.is_some() {
            gated += 1;
        }
        let tag = match verdict {
            Verdict::Ok => "ok",
            Verdict::Improved => "IMPROVED (refresh baseline?)",
            Verdict::Regressed => "REGRESSED",
            Verdict::MissingCurrent => "MISSING IN CURRENT",
            Verdict::SkippedNull => "skipped (null baseline)",
            Verdict::UngatedNew => UNGATED_NEW,
        };
        line(&g.path, base_v, cur_v, &g.band, tag);
        if matches!(verdict, Verdict::Regressed | Verdict::MissingCurrent) {
            offenders.push(format!("{name}:{}", g.path));
        }
    }
    for g in current_declared
        .iter()
        .filter(|g| declared.iter().all(|d| d.path != g.path))
    {
        let cur_v = current.get(&g.path).and_then(Json::as_f64);
        line(&g.path, None, cur_v, &g.band, UNGATED_NEW);
    }
    // A baseline where *every* gated metric is null protects nothing —
    // the file would silently wave any regression through. That is a
    // broken baseline, not a clean pass.
    if gated == 0 {
        offenders.push(format!("{name}:<no gated metrics in baseline>"));
    }
    // A failing file with phase attribution on both sides gets its delta
    // explained, not just measured: the exact per-phase decomposition
    // names where the regressed latency lives (the same verdict
    // `obsdiff` renders in full from the two records).
    if offenders.len() > start {
        if let (Some(b), Some(c)) = (phase_summary(base), phase_summary(current)) {
            let diff = TraceDiff::from_summaries(b, c);
            println!("  phase attribution: {}", diff.verdict());
        }
    }
}

fn load_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Gates every `BENCH_*.json` baseline in `baseline_dir` against the
/// record of the same name in `current_dir`; returns the offenders.
fn gate_dirs(baseline_dir: &Path, current_dir: &Path) -> Result<Vec<String>, String> {
    let mut names: Vec<String> = std::fs::read_dir(baseline_dir)
        .map_err(|e| format!("cannot list {}: {e}", baseline_dir.display()))?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!(
            "no BENCH_* baselines in {}",
            baseline_dir.display()
        ));
    }
    println!(
        "perf gate: {} baseline(s), each judged on the metrics its gate list declares\n",
        names.len()
    );
    let mut offenders: Vec<String> = Vec::new();
    for name in &names {
        println!("{name}:");
        let base = match load_json(&baseline_dir.join(name)) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("  {e}");
                offenders.push(format!("{name}:<unreadable baseline>"));
                continue;
            }
        };
        let current = match load_json(&current_dir.join(name)) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("  {e} (did the bench step run?)");
                offenders.push(format!("{name}:<missing current record>"));
                continue;
            }
        };
        gate_file(name, &base, &current, &mut offenders);
        println!();
    }
    Ok(offenders)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_dir, current_dir] = args.as_slice() else {
        eprintln!("usage: perf_gate <baseline_dir> <current_dir>");
        return ExitCode::from(2);
    };
    match gate_dirs(Path::new(baseline_dir), Path::new(current_dir)) {
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
        Ok(offenders) if offenders.is_empty() => {
            println!("perf gate passed");
            ExitCode::SUCCESS
        }
        Ok(offenders) => {
            eprintln!(
                "perf gate FAILED: {} regression(s) beyond the tolerance band:",
                offenders.len()
            );
            for o in &offenders {
                eprintln!("  - {o}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_bench::json::{higher, lower};

    const HI: Band = higher(0.2);
    const LO: Band = lower(0.2, 0.0);
    const LO_FLOOR: Band = lower(0.2, 0.05);

    #[test]
    fn within_band_passes_both_directions() {
        assert_eq!(judge(&HI, 100.0, 90.0), Verdict::Ok);
        assert_eq!(judge(&HI, 100.0, 110.0), Verdict::Ok);
        assert_eq!(judge(&LO, 100.0, 110.0), Verdict::Ok);
    }

    #[test]
    fn regressions_fail_in_the_worse_direction_only() {
        assert_eq!(judge(&HI, 100.0, 70.0), Verdict::Regressed);
        assert_eq!(judge(&HI, 100.0, 130.0), Verdict::Improved);
        assert_eq!(judge(&LO, 100.0, 130.0), Verdict::Regressed);
        assert_eq!(judge(&LO, 100.0, 70.0), Verdict::Improved);
    }

    #[test]
    fn absolute_floor_shields_near_zero_baselines() {
        // A 0.01 -> 0.04 bubble-ratio change is +300% relative but within
        // the 0.05 absolute floor.
        assert_eq!(judge(&LO_FLOOR, 0.01, 0.04), Verdict::Ok);
        assert_eq!(judge(&LO_FLOOR, 0.01, 0.10), Verdict::Regressed);
    }

    fn gate(name: &str, base: &Json, cur: &Json) -> (usize, Vec<String>) {
        let mut offenders = Vec::new();
        gate_file(name, base, cur, &mut offenders);
        (offenders.len(), offenders)
    }

    fn doc(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    const SATURATION_GATE: &str =
        r#"[{"path": "summary.saturation_qpt", "better": "higher", "band": 0.1, "floor": 0.0}]"#;

    #[test]
    fn gate_file_counts_missing_metrics() {
        let base = doc(&format!(
            r#"{{"summary": {{"saturation_qpt": 1.0}}, "gate": {SATURATION_GATE}}}"#
        ));
        let cur = doc(r#"{"summary": {}}"#);
        let (n, offenders) = gate("BENCH_load_urw.json", &base, &cur);
        assert_eq!(n, 1, "present baseline + missing current = regression");
        assert_eq!(
            offenders,
            vec!["BENCH_load_urw.json:summary.saturation_qpt"]
        );
        // A metric the current record declares but the baseline does not
        // is reported ("ungated (new)") but never fails, however it moved.
        let richer = doc(r#"{"summary": {"saturation_qpt": 1.0, "p99": 300},
                "gate": [{"path": "summary.p99", "better": "lower", "band": 0.0, "floor": 0.0}]}"#);
        let (n, _) = gate("BENCH_load_urw.json", &base, &richer);
        assert_eq!(n, 0, "new metrics are ungated, not regressions");
    }

    #[test]
    fn baselines_gating_nothing_fail_instead_of_passing_silently() {
        let cur = doc(&format!(
            r#"{{"summary": {{"saturation_qpt": 1.0}}, "gate": {SATURATION_GATE}}}"#
        ));
        for empty in [
            r#"{"summary": {}}"#.to_string(),
            format!(r#"{{"summary": {{"saturation_qpt": null}}, "gate": {SATURATION_GATE}}}"#),
        ] {
            let (n, offenders) = gate("BENCH_load_urw.json", &doc(&empty), &cur);
            assert_eq!(n, 1, "{empty}");
            assert_eq!(
                offenders,
                vec!["BENCH_load_urw.json:<no gated metrics in baseline>"]
            );
        }
    }

    #[test]
    fn malformed_gate_entries_are_offenders_not_skips() {
        let cur = doc(r#"{"summary": {"saturation_qpt": 1.0}}"#);
        for bad in [
            // Unknown direction.
            r#"{"summary": {"saturation_qpt": 1.0},
                "gate": [{"path": "summary.saturation_qpt", "better": "up", "band": 0.1, "floor": 0.0}]}"#,
            // Negative band.
            r#"{"summary": {"saturation_qpt": 1.0},
                "gate": [{"path": "summary.saturation_qpt", "better": "higher", "band": -0.1, "floor": 0.0}]}"#,
            // The old nested band block is not read.
            r#"{"summary": {"saturation_qpt": 1.0}, "gate": {"summary": {"saturation_qpt": 0.1}}}"#,
        ] {
            let (n, offenders) = gate("BENCH_x.json", &doc(bad), &cur);
            assert_eq!(n, 1, "{bad}");
            assert!(offenders[0].starts_with("BENCH_x.json:<malformed gate list"));
        }
        // A declared path with no value in the baseline gates nothing.
        let absent = doc(&format!(
            r#"{{"summary": {{}}, "gate": {SATURATION_GATE}}}"#
        ));
        let (_, offenders) = gate("BENCH_x.json", &absent, &cur);
        assert!(offenders.contains(&"BENCH_x.json:summary.saturation_qpt (not in baseline)".into()));
    }

    #[test]
    fn the_baseline_list_is_judged_not_the_current_one() {
        // 1.0 -> 0.84 saturation is -16%: regressed under the baseline's
        // 10% band, though the current record declares a loose 30% band.
        let base = doc(&format!(
            r#"{{"summary": {{"saturation_qpt": 1.0}}, "gate": {SATURATION_GATE}}}"#
        ));
        let cur = doc(r#"{"summary": {"saturation_qpt": 0.84},
                "gate": [{"path": "summary.saturation_qpt", "better": "higher", "band": 0.3, "floor": 0.0}]}"#);
        let (n, offenders) = gate("BENCH_load_urw.json", &base, &cur);
        assert_eq!(n, 1, "the baseline's tight band must fire");
        assert_eq!(
            offenders,
            vec!["BENCH_load_urw.json:summary.saturation_qpt"]
        );
        // With the roles swapped, the baseline's loose band passes it.
        assert_eq!(gate("BENCH_load_urw.json", &cur, &base).0, 0);
    }

    #[test]
    fn qps_benches_gate_determinism_but_never_the_wall_clock() {
        // The bench declares ±0% bands on its counters and nothing on
        // its wall-clock fields. A 10x wall-clock swing passes untouched;
        // a checksum mismatch (1 -> 0) or any drift in the deterministic
        // counters fails.
        let base = doc(
            r#"{"summary": {"completed": 4096, "steps": 240000, "checksum_match": 1,
                            "threaded_qps_wall": 50000.0, "speedup_wall": 2.4},
                "gate": [
                  {"path": "summary.completed", "better": "higher", "band": 0.0, "floor": 0.0},
                  {"path": "summary.steps", "better": "higher", "band": 0.0, "floor": 0.0},
                  {"path": "summary.checksum_match", "better": "higher", "band": 0.0, "floor": 0.0}]}"#,
        );
        let slower_but_same_walks = doc(
            r#"{"summary": {"completed": 4096, "steps": 240000, "checksum_match": 1,
                            "threaded_qps_wall": 5000.0, "speedup_wall": 0.9}}"#,
        );
        assert_eq!(gate("BENCH_qps.json", &base, &slower_but_same_walks).0, 0);
        let diverged = doc(
            r#"{"summary": {"completed": 4096, "steps": 239000, "checksum_match": 0,
                            "threaded_qps_wall": 50000.0, "speedup_wall": 2.4}}"#,
        );
        let (n, offenders) = gate("BENCH_qps.json", &base, &diverged);
        assert_eq!(n, 2);
        assert_eq!(
            offenders,
            vec![
                "BENCH_qps.json:summary.steps",
                "BENCH_qps.json:summary.checksum_match",
            ]
        );
    }

    #[test]
    fn phase_blocks_are_gated_and_their_diff_names_the_phase() {
        let phase_gate = r#""gate": [
            {"path": "phases.sink_wait_sum", "better": "lower", "band": 0.5, "floor": 64.0},
            {"path": "phases.total_sum", "better": "lower", "band": 0.3, "floor": 64.0}]"#;
        let base = doc(&format!(
            r#"{{"summary": {{"walks_delivered": 100}},
                "phases": {{"count": 100, "batch_wait_sum": 100, "batch_wait_p99": 2,
                           "backend_sum": 300, "backend_p99": 5,
                           "sink_wait_sum": 0, "sink_wait_p99": 0,
                           "total_sum": 400, "total_p99": 8, "total_max": 10}},
                {phase_gate}}}"#
        ));
        // Injected regression: the same spans now spend 8 extra ticks
        // each waiting for the sink — past the 64-tick absolute floor
        // and the relative band on both the phase and the total.
        let cur = doc(r#"{"summary": {"walks_delivered": 100},
                "phases": {"count": 100, "batch_wait_sum": 100, "batch_wait_p99": 2,
                           "backend_sum": 300, "backend_p99": 5,
                           "sink_wait_sum": 800, "sink_wait_p99": 12,
                           "total_sum": 1200, "total_p99": 20, "total_max": 24}}"#);
        let (_, offenders) = gate("BENCH_sinks.json", &base, &cur);
        assert_eq!(
            offenders,
            vec![
                "BENCH_sinks.json:phases.sink_wait_sum",
                "BENCH_sinks.json:phases.total_sum"
            ]
        );
        // The attribution the gate prints on failure names the phase and
        // decomposes the delta additively.
        let diff =
            TraceDiff::from_summaries(phase_summary(&base).unwrap(), phase_summary(&cur).unwrap());
        assert_eq!(diff.top_regressed_phase(), Some("sink-wait"));
        assert!(diff.verdict().contains("sink-wait"), "{}", diff.verdict());
        let mean_delta: f64 = diff.phase_mean_deltas().iter().sum();
        assert!((mean_delta - 8.0).abs() < 1e-9, "additive: {mean_delta}");
        // Identical records stay clean.
        assert_eq!(gate("BENCH_sinks.json", &base, &base).0, 0);
        assert!(phase_summary(&doc(r#"{"summary": {}}"#)).is_none());
    }

    const BASELINES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/baselines");

    /// Gates a committed baseline against a copy of itself with the
    /// values at `edits` replaced; returns the offenders.
    fn gate_edited(name: &str, edits: &[(&str, f64)]) -> Vec<String> {
        fn set(doc: &mut Json, path: &str, value: f64) {
            let (head, rest) = path.split_once('.').unwrap_or((path, ""));
            let Json::Obj(fields) = doc else {
                panic!("{path} crosses a non-object")
            };
            let (_, child) = fields.iter_mut().find(|(k, _)| k == head).unwrap();
            if rest.is_empty() {
                *child = Json::Num(value);
            } else {
                set(child, rest, value);
            }
        }
        let base = load_json(&Path::new(BASELINES).join(name)).unwrap();
        let mut cur = base.clone();
        for (path, value) in edits {
            set(&mut cur, path, *value);
        }
        gate(name, &base, &cur).1
    }

    #[test]
    fn sink_benches_pick_the_sink_metric_set() {
        // A halved delivery count regresses; a residency jump past both
        // the band and the absolute floor regresses too.
        assert_eq!(
            gate_edited(
                "BENCH_sinks.json",
                &[
                    ("summary.walks_delivered", 3072.0),
                    ("summary.sink_peak_resident", 400.0)
                ]
            ),
            vec![
                "BENCH_sinks.json:summary.walks_delivered",
                "BENCH_sinks.json:summary.sink_peak_resident"
            ],
            "failures name the offending metrics"
        );
    }

    #[test]
    fn routing_benches_pick_the_routing_metric_set() {
        // The adaptive p99 grows 60%; the ungated derived ratio moving
        // with it is not an offence.
        assert_eq!(
            gate_edited(
                "BENCH_routing.json",
                &[
                    ("summary.p99_adaptive", 222.0),
                    ("summary.p99_improvement", 2.144)
                ]
            ),
            vec!["BENCH_routing.json:summary.p99_adaptive"]
        );
    }

    #[test]
    fn sampling_benches_pick_the_sampling_metric_set() {
        // Speedup more than halved (outside even the 50% band), hit count
        // drifted past the 5% band, and the deterministic step count
        // changed at all: three regressions.
        assert_eq!(
            gate_edited(
                "BENCH_sampling.json",
                &[
                    ("summary.node2vec_speedup_skewed", 0.8),
                    ("summary.cache_hits", 4000.0),
                    ("summary.total_steps", 195_594.0)
                ]
            ),
            vec![
                "BENCH_sampling.json:summary.node2vec_speedup_skewed",
                "BENCH_sampling.json:summary.cache_hits",
                "BENCH_sampling.json:summary.total_steps",
            ]
        );
    }

    #[test]
    fn autoscale_benches_pick_the_autoscale_metric_set() {
        // The headline claims are pinned: the autoscaled arm stops
        // holding the SLO (1 -> 0) and the under-provisioned control
        // starts holding it (0 -> 1, the bench lost its contrast), and
        // the fleet forgets how to shrink (1 -> 0 scale-downs).
        assert_eq!(
            gate_edited(
                "BENCH_autoscale.json",
                &[
                    ("summary.scale_downs", 0.0),
                    ("summary.slo_held_autoscaled", 0.0),
                    ("summary.slo_held_static_under", 1.0)
                ]
            ),
            vec![
                "BENCH_autoscale.json:summary.scale_downs",
                "BENCH_autoscale.json:summary.slo_held_autoscaled",
                "BENCH_autoscale.json:summary.slo_held_static_under",
            ]
        );
    }

    #[test]
    fn committed_baselines_declare_resolvable_metrics_and_gate_clean_against_themselves() {
        let dir = Path::new(BASELINES);
        let mut files = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let record = load_json(&path).unwrap();
            let declared = gates(&record).unwrap();
            assert!(!declared.is_empty(), "{} gates nothing", path.display());
            for g in &declared {
                assert!(
                    record.get(&g.path).and_then(Json::as_f64).is_some(),
                    "{}: {} is not a number",
                    path.display(),
                    g.path
                );
            }
            files += 1;
        }
        assert!(files >= 10, "only {files} committed baselines");
        assert_eq!(gate_dirs(dir, dir), Ok(Vec::new()));
    }
}
