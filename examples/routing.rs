//! Adaptive routing on a mixed accelerator/CPU fleet.
//!
//! Builds a heterogeneous `Driver` (incremental accelerator shards
//! plus deliberately slower CPU shards), calibrates each backend class's
//! saturation rate μ̂, and replays the identical bursty (MMPP-2)
//! open-loop multi-tenant stream through a `grw_route::Router` under
//! three placement policies — static vertex hash (today's behaviour),
//! rate-weighted join-shortest-queue, and the cost-based adaptive policy
//! with hysteresis. Reports per-policy p99 latency, migrations and the
//! accel/CPU routing split per workload, and writes `BENCH_routing.json`
//! for the CI perf-regression gate.
//!
//! The run asserts the tentpole claim on the spot: at equal offered
//! load, adaptive placement must deliver a lower worst-case p99 than
//! static hashing on the mixed fleet.
//!
//! ```text
//! cargo run --release --example routing                    # figure scale
//! ROUTING_SMOKE=1 cargo run --release --example routing    # CI smoke
//! ```

use ridgewalker_suite::bench::routing::{run_routing_bench, RoutingBenchConfig};

fn main() {
    let smoke =
        std::env::var_os("ROUTING_SMOKE").is_some() || std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke {
        RoutingBenchConfig::smoke()
    } else {
        RoutingBenchConfig::full()
    };

    println!(
        "routing bench ({} mode): {}x accel + {}x cpu shards, {} tenants, {} queries, rho {:.2}, {} arrivals\n",
        if smoke { "smoke" } else { "full" },
        cfg.accel_shards,
        cfg.cpu_shards,
        cfg.tenants,
        cfg.queries,
        cfg.rho,
        cfg.arrival.name(),
    );

    let report = run_routing_bench(&cfg);

    for w in &report.workloads {
        println!(
            "== {} ==  accel {:.3} q/tick/shard, cpu {:.3} q/tick/shard, lambda {:.3} q/tick",
            w.workload, w.accel_qpt, w.cpu_qpt, w.lambda_per_tick
        );
        println!(
            "   {:<14} {:>8} {:>10} {:>8} {:>8} {:>8} {:>11} {:>9} {:>9}",
            "policy", "ticks", "mean", "p50", "p99", "max", "migrations", "->accel", "->cpu"
        );
        for o in &w.outcomes {
            println!(
                "   {:<14} {:>8} {:>10.1} {:>8} {:>8} {:>8} {:>11} {:>9} {:>9}",
                o.policy,
                o.ticks,
                o.mean_latency_ticks,
                o.p50_latency_ticks,
                o.p99_latency_ticks,
                o.max_latency_ticks,
                o.migrations,
                o.routed_accel,
                o.routed_cpu,
            );
        }
        let stat = w.outcome("static-hash").expect("baseline ran");
        let adapt = w.outcome("adaptive").expect("adaptive ran");
        println!(
            "   p99: static {} vs adaptive {} ticks ({:.2}x)\n",
            stat.p99_latency_ticks,
            adapt.p99_latency_ticks,
            stat.p99_latency_ticks as f64 / adapt.p99_latency_ticks.max(1) as f64
        );
        // The acceptance claim, checked per workload on the spot.
        assert!(
            adapt.p99_latency_ticks < stat.p99_latency_ticks,
            "{}: adaptive p99 {} must beat static {} at equal offered load",
            w.workload,
            adapt.p99_latency_ticks,
            stat.p99_latency_ticks
        );
        assert_eq!(adapt.completed, cfg.queries, "conservation");
        assert_eq!(stat.completed, cfg.queries, "conservation");
    }

    println!(
        "matrix worst-case p99: static {} vs adaptive {} ticks ({:.2}x), {} adaptive migrations",
        report.worst_p99("static-hash"),
        report.worst_p99("adaptive"),
        report.worst_p99("static-hash") as f64 / report.worst_p99("adaptive").max(1) as f64,
        report.total_migrations("adaptive"),
    );

    let json = report.to_json();
    std::fs::write("BENCH_routing.json", &json).expect("write BENCH_routing.json");
    println!("wrote BENCH_routing.json");
}
