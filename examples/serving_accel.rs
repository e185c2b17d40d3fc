//! Accelerator-shard serving benchmark: batch vs incremental execution.
//!
//! Serves the identical open-loop query stream through a sharded
//! `Driver` twice over `AcceleratorBackend` shards — once in batch mode
//! (every poll runs the machine until it is empty, so each micro-batch
//! pays fill and drain) and once in incremental mode (every poll advances
//! a bounded cycle quantum, so queries join the running machine) — then
//! reports MStep/s in wall and simulated time plus the pipeline bubble
//! ratio for each, and writes the comparison to `BENCH_serving.json` for
//! the perf-trajectory recorder. Both modes walk the same paths.
//!
//! ```text
//! cargo run --release --example serving_accel            # figure scale
//! SERVING_SMOKE=1 cargo run --release --example serving_accel   # CI smoke
//! ```

use ridgewalker_suite::bench::serving::{run_serving_comparison, ModeReport, ServingWorkload};

fn print_mode(name: &str, m: &ModeReport) {
    println!("{name}:");
    println!("  completed walks      : {}", m.completed);
    println!("  steps                : {}", m.steps);
    println!("  MStep/s (wall)       : {:.2}", m.msteps_wall);
    println!("  MStep/s (simulated)  : {:.1}", m.msteps_simulated);
    println!("  simulated cycles     : {}", m.simulated_cycles);
    println!("  bubble ratio         : {:.4}", m.bubble_ratio);
    println!("  pipeline utilization : {:.4}", m.utilization);
    println!(
        "  p99 batch latency    : {} ticks",
        m.p99_batch_latency_ticks
    );
}

fn main() {
    let smoke =
        std::env::var_os("SERVING_SMOKE").is_some() || std::env::args().any(|a| a == "--smoke");
    let workload = if smoke {
        ServingWorkload::smoke()
    } else {
        ServingWorkload::figure()
    };
    println!(
        "serving {} queries (walk_len {}, {} arrivals/tick) over {} shards x {} pipelines\n",
        workload.queries,
        workload.walk_len,
        workload.arrivals_per_tick,
        workload.shards,
        workload.pipelines
    );

    let cmp = run_serving_comparison(workload);
    print_mode("batch shards (micro-batch per poll)", &cmp.batch);
    println!();
    print_mode(
        "incremental shards (queries join the running machine)",
        &cmp.incremental,
    );
    println!();
    println!(
        "incremental vs batch: {:.2}x simulated MStep/s, {:.2}x fewer bubbles",
        cmp.incremental.msteps_simulated / cmp.batch.msteps_simulated.max(1e-9),
        cmp.bubble_improvement()
    );
    assert!(
        cmp.incremental.bubble_ratio < cmp.batch.bubble_ratio,
        "incremental mode must keep the pipeline fuller under sustained load"
    );

    let path = "BENCH_serving.json";
    std::fs::write(path, cmp.to_json()).expect("write bench json");
    println!("\nwrote {path}");
}
