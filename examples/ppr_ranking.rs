//! Personalized PageRank via accelerated random walks, validated against
//! exact power iteration — with the walk stream folded *incrementally*
//! into a [`PprAggregator`] sink instead of materialising 150k paths.
//!
//! The Monte-Carlo estimator: launch many PPR walks from a source; the
//! fraction of walks terminating at `v` estimates PPR(v). This is the
//! database workload the paper motivates (personalized recommendation),
//! executed on the simulated accelerator behind the serving tier. The
//! aggregator keeps one count per distinct terminal plus an exact
//! incrementally-maintained top-k — memory O(vertices), not O(walks) —
//! and the ranking is available at any point of the stream.
//!
//! ```text
//! cargo run --release --example ppr_ranking
//! ```
//!
//! [`PprAggregator`]: ridgewalker_suite::sink::PprAggregator

use ridgewalker_suite::accel::{Accelerator, AcceleratorConfig};
use ridgewalker_suite::algo::ppr_exact::{l1_distance, personalized_pagerank};
use ridgewalker_suite::algo::{PreparedGraph, QuerySet, WalkSpec};
use ridgewalker_suite::graph::generators::RmatConfig;
use ridgewalker_suite::service::{accelerator_driver, AccelShardMode, ServiceConfig, TenantId};
use ridgewalker_suite::sink::PprAggregator;
use std::sync::Arc;

fn main() {
    // An undirected community graph (no dead ends, so the walk estimator
    // matches the classic restart formulation exactly).
    let graph = RmatConfig::balanced(9, 8).seed(11).generate();
    let n = graph.vertex_count();
    let source = 7u32;
    let alpha = 0.15;

    // Exact reference by power iteration.
    let exact = personalized_pagerank(&graph, source, alpha, 200);

    // Monte-Carlo through the serving tier: 150k walks from the source
    // (the L1 error over ~512 vertices shrinks as 1/sqrt(walks)), folded
    // into terminal-visit counts as they complete.
    let spec = WalkSpec::Ppr {
        alpha,
        max_len: 400,
    };
    let prepared = Arc::new(PreparedGraph::new(graph, &spec).expect("unweighted graph"));
    let queries = QuerySet::repeated(source, 150_000);
    let accel = Accelerator::new(AcceleratorConfig::new().pipelines(8).seed(3));
    let mut service = accelerator_driver(
        ServiceConfig::new(1)
            .max_batch(512)
            .max_delay_ticks(1)
            .buffer_capacity(200_000),
        &accel,
        prepared.clone(),
        &spec,
        AccelShardMode::Incremental,
    );

    let mut ranking = PprAggregator::new(10);
    let mut offered = queries.queries();
    while !offered.is_empty() {
        let taken = service.submit(TenantId(0), offered);
        offered = &offered[taken..];
        if taken == 0 {
            service.tick_into(&mut ranking);
        }
    }
    let total = 150_000u64;
    // Mid-stream the ranking is already live — that is the point of an
    // incremental aggregate.
    service.tick_into(&mut ranking);
    if ranking.walks() > 0 {
        let (v, _, est) = ranking.top_k()[0];
        println!(
            "mid-stream ({} of {total} walks folded): current top vertex {v} at {est:.5}",
            ranking.walks()
        );
    }
    service.drain_into(&mut ranking);
    assert_eq!(ranking.walks(), total, "every walk folded exactly once");

    println!("top-10 personalized PageRank for source {source} (alpha {alpha}):");
    println!("vertex   walk-estimate   exact");
    for (v, _count, est) in ranking.top_k() {
        println!("{v:>6}   {est:>12.5}   {:.5}", exact[v as usize]);
    }

    let estimate = ranking.estimates(n);
    let d = l1_distance(&estimate, &exact);
    println!("\nL1 distance estimator vs exact: {d:.4} ({total} walks)");
    println!(
        "aggregator footprint: {} distinct terminals (graph has {n} vertices; no path retained)",
        ranking.distinct_terminals()
    );
    let stats = service.stats();
    println!(
        "service: {} walks streamed into the sink, {:.0} MStep/s simulated, mean walk length {:.2} (expected {:.2})",
        stats.sink_accepted,
        stats.msteps_per_sec_simulated.unwrap_or(0.0),
        stats.steps as f64 / total as f64,
        (1.0 - alpha) / alpha
    );
    assert!(d < 0.05, "estimator should converge to the exact vector");
}
