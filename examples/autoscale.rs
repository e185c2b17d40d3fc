//! SLO-driven elastic fleet scaling vs static provisioning.
//!
//! Replays a diurnal multi-tenant stream with MMPP-2 bursts riding the
//! envelope through three provisioning arms sharing common random
//! numbers: an autoscaled fleet (starts at `min_shards`, a `TargetSlo`
//! policy grows and shrinks the live `Driver` through the router's
//! append/drain-retire path), a static over-provisioned fleet
//! (`max_shards` throughout), and a static under-provisioned fleet
//! (`min_shards` throughout). Reports per-arm p99 latency and
//! fleet-ticks (the cost proxy: one unit per live shard per tick), and
//! writes `BENCH_autoscale.json` for the CI perf-regression gate plus
//! the autoscaled arm's deterministic event journal,
//! `TRACE_autoscale.jsonl` (render it with `obsdump`).
//!
//! The run asserts the tentpole claim on the spot: the autoscaled arm
//! must hold the p99 SLO at strictly fewer fleet-ticks than static
//! over-provisioning.
//!
//! ```text
//! cargo run --release --example autoscale                    # figure scale
//! AUTOSCALE_SMOKE=1 cargo run --release --example autoscale  # CI smoke
//! ```

use ridgewalker_suite::bench::autoscale::{run_autoscale_bench, AutoscaleBenchConfig};

fn main() {
    let smoke =
        std::env::var_os("AUTOSCALE_SMOKE").is_some() || std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke {
        AutoscaleBenchConfig::smoke()
    } else {
        AutoscaleBenchConfig::full()
    };

    println!(
        "autoscale bench ({} mode): {}..{} shards, {} tenants, {} queries, rho {:.2}, {:.1} diurnal cycles, {} bursts\n",
        if smoke { "smoke" } else { "full" },
        cfg.min_shards,
        cfg.max_shards,
        cfg.tenants,
        cfg.queries,
        cfg.rho,
        cfg.diurnal_cycles,
        cfg.arrival.name(),
    );

    let report = run_autoscale_bench(&cfg);

    println!(
        "calibration: {:.3} q/tick/shard, SLO target {:.1} ticks, lambda mid {:.3} q/tick",
        report.shard_qpt, report.slo_target_ticks, report.lambda_mid
    );
    println!(
        "   {:<14} {:>8} {:>12} {:>7} {:>5} {:>5} {:>5} {:>10} {:>8} {:>8} {:>8} {:>5}",
        "arm",
        "ticks",
        "fleet-ticks",
        "shards",
        "peak",
        "ups",
        "downs",
        "mean",
        "p50",
        "p99",
        "max",
        "slo"
    );
    for a in &report.arms {
        println!(
            "   {:<14} {:>8} {:>12} {:>7.2} {:>5} {:>5} {:>5} {:>10.1} {:>8} {:>8} {:>8} {:>5}",
            a.arm,
            a.ticks,
            a.fleet_ticks,
            a.mean_shards,
            a.peak_shards,
            a.scale_ups,
            a.scale_downs,
            a.mean_latency_ticks,
            a.p50_latency_ticks,
            a.p99_latency_ticks,
            a.max_latency_ticks,
            if a.slo_held { "yes" } else { "NO" },
        );
    }

    let auto = report.arm("autoscaled").expect("autoscaled arm ran");
    let over = report.arm("static-over").expect("static-over arm ran");
    let under = report.arm("static-under").expect("static-under arm ran");
    println!(
        "\ncost: autoscaled {} vs static-over {} fleet-ticks ({:.2}x cheaper) at p99 {} <= SLO {:.1}",
        auto.fleet_ticks,
        over.fleet_ticks,
        over.fleet_ticks as f64 / auto.fleet_ticks.max(1) as f64,
        auto.p99_latency_ticks,
        report.slo_target_ticks,
    );

    // The acceptance claims, checked on the spot.
    assert_eq!(auto.completed, cfg.queries, "conservation: autoscaled");
    assert_eq!(over.completed, cfg.queries, "conservation: static-over");
    assert_eq!(under.completed, cfg.queries, "conservation: static-under");
    assert!(
        auto.slo_held,
        "autoscaled p99 {} must meet the SLO target {:.1}",
        auto.p99_latency_ticks, report.slo_target_ticks
    );
    assert!(
        auto.fleet_ticks < over.fleet_ticks,
        "autoscaled fleet-ticks {} must undercut static-over {}",
        auto.fleet_ticks,
        over.fleet_ticks
    );
    assert!(
        !under.slo_held,
        "static-under p99 {} should breach the SLO {:.1}",
        under.p99_latency_ticks, report.slo_target_ticks
    );

    let json = report.to_json();
    std::fs::write("BENCH_autoscale.json", &json).expect("write BENCH_autoscale.json");
    // The autoscaled arm's deterministic event journal. It renders to a
    // markdown timeline with
    // `cargo run --release -p grw_obs --bin obsdump -- TRACE_autoscale.jsonl`.
    std::fs::write("TRACE_autoscale.jsonl", &report.trace_jsonl)
        .expect("write TRACE_autoscale.jsonl");
    println!(
        "wrote BENCH_autoscale.json, TRACE_autoscale.jsonl ({} events)",
        report.trace_jsonl.lines().count()
    );
}
