//! Property tests for the open-loop load-generation stack: arrival
//! processes, per-query latency accounting, and the latency-vs-load
//! harness invariants the CI acceptance criteria rest on.

use ridgewalker_suite::algo::{PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};
use ridgewalker_suite::bench::json::{gates, Json};
use ridgewalker_suite::bench::load::{run_latency_load, LoadConfig, LoadDelivery, LoadWorkload};
use ridgewalker_suite::graph::generators::{Dataset, ScaleFactor};
use ridgewalker_suite::queueing::ArrivalProcess;
use ridgewalker_suite::service::{Driver, ServiceConfig, TenantId};
use std::sync::Arc;

/// The Poisson generator's empirical mean inter-arrival time must match
/// `1/rate` within tolerance, across rates.
#[test]
fn poisson_interarrival_mean_matches_rate() {
    for (rate, seed) in [(0.25f64, 1u64), (2.0, 2), (7.5, 3)] {
        let mut p = ArrivalProcess::poisson(rate, seed);
        let n = 50_000;
        let last = p.take(n).pop().unwrap();
        let mean_gap = last / n as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean_gap - expected).abs() / expected < 0.03,
            "rate {rate}: mean gap {mean_gap} vs expected {expected}"
        );
    }
}

/// Every arrival shape at the same mean rate delivers the same long-run
/// count (the open-loop grids are comparable across traffic shapes).
#[test]
fn arrival_shapes_agree_on_the_mean_rate() {
    let n = 40_000;
    for mut p in [
        ArrivalProcess::poisson(3.0, 9),
        ArrivalProcess::deterministic(3.0),
        ArrivalProcess::bursty(3.0, 8.0, 9),
    ] {
        assert!((p.mean_rate() - 3.0).abs() < 1e-12);
        let last = p.take(n).pop().unwrap();
        let empirical = n as f64 / last;
        assert!(
            (empirical - 3.0).abs() / 3.0 < 0.05,
            "empirical rate {empirical}"
        );
    }
}

/// Per-query end-to-end latency is at least the batching delay, and the
/// service's tick stamps are ordered, under a trickled open-loop stream.
#[test]
fn per_query_latency_bounds_batching_delay() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(8);
    let prepared = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let nv = prepared.graph().vertex_count();
    let shared = prepared.clone();
    let mut svc = Driver::new(
        ServiceConfig::new(2).max_batch(16).max_delay_ticks(3),
        move |shard| {
            ReferenceBackend::new(shared.clone(), spec.clone(), 0xD0 ^ shard as u64).threads(2)
        },
    );
    let qs = QuerySet::random(nv, 400, 11);
    let mut arrivals = ArrivalProcess::poisson(7.0, 5);
    let ticks: Vec<u64> = arrivals
        .take(400)
        .iter()
        .map(|t| t.floor() as u64)
        .collect();
    let mut done = Vec::new();
    let mut submitted = 0;
    while done.len() < 400 {
        let now = svc.now();
        let mut due = submitted;
        while due < 400 && ticks[due] <= now {
            due += 1;
        }
        while submitted < due {
            let taken = svc.submit(TenantId(1), &qs.queries()[submitted..due]);
            if taken == 0 {
                break;
            }
            submitted += taken;
        }
        done.extend(svc.tick());
        assert!(svc.now() < 100_000, "stream must complete");
    }
    for c in &done {
        assert!(
            c.latency_ticks() >= c.batching_delay_ticks(),
            "latency {} < batching delay {}",
            c.latency_ticks(),
            c.batching_delay_ticks()
        );
        assert!(c.arrival_tick <= c.flushed_tick && c.flushed_tick <= c.completed_tick);
    }
    let stats = svc.stats();
    assert_eq!(stats.completed, 400);
    assert!(
        stats.mean_query_latency_ticks >= 1.0,
        "ticks quantize to ≥1"
    );
}

/// The acceptance properties of the latency-vs-load sweep, on the tiny
/// fixed-seed configuration: mean latency monotone non-decreasing in
/// offered load (small slack for tick discretisation), the lowest-load
/// point within 25% of the closed-form M/M/n prediction, and the JSON
/// record well-formed with the summary fields the CI gate reads.
#[test]
fn load_sweep_is_monotone_and_matches_queueing_theory() {
    let report = run_latency_load(LoadWorkload::Urw, &LoadConfig::test_tiny());

    // Every grid point serves the full stream.
    for p in report.incremental.iter().chain(&report.batch) {
        assert_eq!(p.completed, report.config.queries_per_point);
    }

    assert!(
        report.incremental_monotone(0.03),
        "latency must not decrease with load: {:?}",
        report
            .incremental
            .iter()
            .map(|p| p.mean_latency_ticks)
            .collect::<Vec<_>>()
    );
    // The overloaded end must sit clearly above the low-load end — a flat
    // "curve" would satisfy monotonicity without showing saturation.
    let first = &report.incremental[0];
    let last = report.incremental.last().unwrap();
    assert!(
        last.mean_latency_ticks > first.mean_latency_ticks,
        "overload must cost latency: {} vs {}",
        last.mean_latency_ticks,
        first.mean_latency_ticks
    );

    let err = report.low_load_model_error().expect("lowest point stable");
    assert!(
        err <= 0.25,
        "low-load point {:.1}% off the M/M/n prediction",
        err * 100.0
    );

    let doc = Json::parse(&report.to_json()).expect("bench record is valid JSON");
    for path in [
        "summary.saturation_qpt",
        "summary.low_load_mean_latency_ticks",
        "summary.high_load_mean_latency_ticks",
        "calibration.solo_latency_ticks",
    ] {
        assert!(
            doc.get(path).and_then(Json::as_f64).is_some(),
            "gate metric {path} missing from the record"
        );
    }
    assert_eq!(
        doc.get("incremental").unwrap().as_arr().unwrap().len(),
        report.config.load_grid.len()
    );
    // Every workload's record declares the same gates, exactly as its
    // committed baseline does.
    for baseline in [
        include_str!("../benchmarks/baselines/BENCH_load_urw.json"),
        include_str!("../benchmarks/baselines/BENCH_load_ppr.json"),
        include_str!("../benchmarks/baselines/BENCH_load_deepwalk.json"),
        include_str!("../benchmarks/baselines/BENCH_load_node2vec.json"),
    ] {
        assert_eq!(gates(&doc), gates(&Json::parse(baseline).unwrap()));
    }

    // The highest-load incremental point carries its exact phase
    // attribution: one span per query, phases telescoping to the total,
    // and the journal's mean agreeing with the independently measured
    // point mean.
    let p = &report.high_load_phases;
    assert_eq!(p.count as usize, report.config.queries_per_point);
    assert_eq!(p.phase_sums.iter().sum::<u64>(), p.total_sum);
    assert_eq!(p.phase_sums[2], 0, "collect delivery has no sink phase");
    let journal_mean = p.total_sum as f64 / p.count.max(1) as f64;
    assert!(
        (journal_mean - last.mean_latency_ticks).abs() < 1e-9,
        "journal mean {journal_mean} vs measured mean {}",
        last.mean_latency_ticks
    );
    assert!(
        doc.get("phases.total_sum").and_then(Json::as_f64).is_some(),
        "the record embeds the phases block"
    );
}

/// Under overload the machine's occupancy split is the queue-depth
/// observation the load story rests on: in-flight residency is bounded by
/// the configured cap while the awaiting-injection queue absorbs the
/// backlog — that queue is where the latency of an overloaded point
/// comes from.
#[test]
fn overload_backlog_queues_at_injection_not_in_flight() {
    use ridgewalker_suite::accel::{Accelerator, AcceleratorConfig};
    use ridgewalker_suite::algo::WalkBackend;

    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(16);
    let prepared = PreparedGraph::new(g, &spec).unwrap();
    let accel = Accelerator::new(
        AcceleratorConfig::new()
            .pipelines(4)
            .max_inflight(32)
            .poll_quantum(8),
    );
    let mut backend = accel.backend(&prepared, &spec).queue_capacity(4096);
    let queries = QuerySet::random(prepared.graph().vertex_count(), 512, 3);
    assert_eq!(backend.submit(queries.queries()), 512);
    let mut max_in_flight = 0;
    let mut saw_backlog_behind_full_pipelines = false;
    let mut done = 0;
    while done < 512 {
        done += backend.poll().len();
        let (awaiting, in_flight) = backend.telemetry().occupancy_split.unwrap();
        assert_eq!(
            awaiting + in_flight,
            backend.in_flight(),
            "split sums to residency"
        );
        assert!(in_flight <= 32, "issue slots bounded by max_inflight");
        max_in_flight = max_in_flight.max(in_flight);
        if in_flight == 32 && awaiting > 0 {
            saw_backlog_behind_full_pipelines = true;
        }
    }
    assert_eq!(max_in_flight, 32, "overload fills every issue slot");
    assert!(
        saw_backlog_behind_full_pipelines,
        "overload must queue at injection while the pipelines are full"
    );
    assert_eq!(
        backend.telemetry().occupancy_split,
        Some((0, 0)),
        "drained machine is empty"
    );
}

/// The sweep is bit-deterministic for a fixed seed — the basis for both
/// the fixed-seed property tests and the CI baseline comparison.
#[test]
fn load_sweep_is_deterministic() {
    let cfg = {
        let mut c = LoadConfig::test_tiny();
        c.queries_per_point = 128;
        c.calibration_queries = 256;
        c.load_grid = vec![0.5, 1.2];
        c
    };
    let a = run_latency_load(LoadWorkload::Ppr, &cfg);
    let b = run_latency_load(LoadWorkload::Ppr, &cfg);
    assert_eq!(a.to_json(), b.to_json());
}

/// Sink-aware load benching: driving the sweep through `tick_into` with
/// an unbounded counting sink measures the same latencies as the
/// collect path (acceptance happens the tick a walk completes), while a
/// *bounded* sink turns delivery backpressure into a visible latency
/// term — spilled walks wait for flush windows, and that wait now counts.
#[test]
fn sink_delivery_exposes_backpressure_as_latency() {
    let base_cfg = {
        let mut c = LoadConfig::test_tiny();
        c.queries_per_point = 192;
        c.calibration_queries = 256;
        c.load_grid = vec![0.4, 1.2];
        c
    };
    let collect = run_latency_load(LoadWorkload::Urw, &base_cfg);

    let mut open_cfg = base_cfg.clone();
    open_cfg.delivery = LoadDelivery::Sink { window: usize::MAX };
    let open = run_latency_load(LoadWorkload::Urw, &open_cfg);

    let mut gated_cfg = base_cfg.clone();
    gated_cfg.delivery = LoadDelivery::Sink { window: 8 };
    let gated = run_latency_load(LoadWorkload::Urw, &gated_cfg);

    for (c, o, g) in collect
        .incremental
        .iter()
        .zip(&open.incremental)
        .zip(&gated.incremental)
        .map(|((c, o), g)| (c, o, g))
    {
        assert_eq!(c.completed, o.completed);
        assert_eq!(c.completed, g.completed, "conservation through the gate");
        assert!(
            (o.mean_latency_ticks - c.mean_latency_ticks).abs() < 1e-9,
            "rho {}: an unbounded sink accepts at completion — same latency ({} vs {})",
            c.rho,
            o.mean_latency_ticks,
            c.mean_latency_ticks
        );
        assert_eq!(o.sink_spilled, 0, "unbounded sink never spills");
        assert!(
            g.mean_latency_ticks >= c.mean_latency_ticks,
            "rho {}: delivery backpressure can only add latency ({} vs {})",
            c.rho,
            g.mean_latency_ticks,
            c.mean_latency_ticks
        );
    }
    // At high load the 8-walk flush window must actually bite: walks
    // spill, flushes are forced, and the latency term is visible.
    let g_high = gated.incremental.last().unwrap();
    let c_high = collect.incremental.last().unwrap();
    assert!(g_high.sink_spilled > 0, "the gate must backpressure");
    assert!(g_high.sink_forced_flushes > 0);
    assert!(
        g_high.mean_latency_ticks > c_high.mean_latency_ticks,
        "high-rho delivery backpressure must show up as latency ({} vs {})",
        g_high.mean_latency_ticks,
        c_high.mean_latency_ticks
    );
    // The mode is recorded in the bench JSON.
    let json = Json::parse(&gated.to_json()).unwrap();
    assert_eq!(
        json.get("delivery").and_then(Json::as_str),
        Some("sink"),
        "delivery mode recorded"
    );
    // The phase attribution explains the injected regression: against
    // the collect baseline, the gated sweep's extra high-load latency
    // lives in the sink-wait phase — and a trace diff of the two records
    // names that phase, which is the CI failure-explanation contract.
    use ridgewalker_suite::obs::TraceDiff;
    assert!(
        gated.high_load_phases.phase_sums[2] > 0,
        "spilled walks must accrue sink-wait ticks"
    );
    let diff = TraceDiff::from_summaries(collect.high_load_phases, gated.high_load_phases);
    assert_eq!(
        diff.top_regressed_phase(),
        Some("sink-wait"),
        "phase deltas {:?}",
        diff.phase_mean_deltas()
    );
    assert!(diff.verdict().contains("sink-wait"), "{}", diff.verdict());
}
