//! Bounded-memory result streaming: sink delivery vs drain-to-`Vec`.
//!
//! Drives the identical open-loop DeepWalk stream through the serving
//! tier twice — once consumed the legacy way (every `CompletedWalk`
//! accumulates in the caller's `Vec`) and once streamed through a
//! bounded `CorpusSink` (`Driver::tick_into`) — and reports the
//! peak resident completed-path count of each, plus the skip-gram corpus
//! the sink produced along the way. Writes `BENCH_sinks.json` for the CI
//! perf-regression gate.
//!
//! ```text
//! cargo run --release --example sink_stream                 # figure scale
//! SINKS_SMOKE=1 cargo run --release --example sink_stream   # CI smoke
//! ```

use ridgewalker_suite::bench::sinks::{run_sink_bench, SinkBenchConfig};

fn main() {
    let smoke =
        std::env::var_os("SINKS_SMOKE").is_some() || std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke {
        SinkBenchConfig::smoke()
    } else {
        SinkBenchConfig::full()
    };

    println!(
        "sink-delivery bench ({} mode): {} queries, walk_len {}, window {}, {} pair buffer, {} spill\n",
        if smoke { "smoke" } else { "full" },
        cfg.queries,
        cfg.walk_len,
        cfg.corpus_window,
        cfg.corpus_capacity,
        cfg.spill_capacity
    );

    let report = run_sink_bench(&cfg);

    println!("resident completed paths (the unbounded-growth question):");
    println!(
        "  legacy drain-to-Vec: peak {:>8} (= every walk produced), final {:>8}",
        report.legacy.peak_resident_paths, report.legacy.final_resident_paths
    );
    println!(
        "  tick_into(CorpusSink): peak {:>8} (spill bound {}), final {:>8}",
        report.sink.peak_resident_paths, cfg.spill_capacity, report.sink.final_resident_paths
    );
    println!(
        "  residency improvement: {:.0}x\n",
        report.residency_ratio()
    );

    println!("corpus produced while streaming:");
    println!(
        "  {} walks -> {} tokens -> {} skip-gram pairs (window {})",
        report.sink.completed, report.corpus_tokens, report.pairs_emitted, cfg.corpus_window
    );
    println!(
        "  pair buffer: peak {} of {} | {} flushes downstream",
        report.peak_buffered_pairs, cfg.corpus_capacity, report.corpus_flushes
    );
    println!(
        "  delivery: {} accepted, {} backpressured, {} spilled, {} forced flushes",
        report.sink_accepted,
        report.sink_backpressured,
        report.sink_spilled,
        report.sink_forced_flushes
    );
    println!(
        "  throughput: {:.0} walks/s (sink) vs {:.0} walks/s (legacy), {} ticks\n",
        report.sink.walks_per_sec(),
        report.legacy.walks_per_sec(),
        report.sink.ticks
    );

    // The acceptance claims, checked on the spot.
    assert_eq!(
        report.legacy.peak_resident_paths, cfg.queries,
        "legacy residency grows linearly with walks completed"
    );
    assert!(
        report.sink.peak_resident_paths <= cfg.spill_capacity,
        "sink residency {} must stay within the spill bound {}",
        report.sink.peak_resident_paths,
        cfg.spill_capacity
    );
    assert_eq!(
        report.sink.completed, report.legacy.completed,
        "conservation: both consumption paths deliver every walk"
    );
    assert_eq!(
        report.sink.final_resident_paths, 0,
        "drain leaves nothing resident"
    );
    assert!(
        report.peak_buffered_pairs <= cfg.corpus_capacity,
        "the corpus pair buffer is bounded"
    );

    std::fs::write("BENCH_sinks.json", report.to_json()).expect("write bench json");
    println!("wrote BENCH_sinks.json");
}
