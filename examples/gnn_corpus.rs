//! Node2Vec corpus generation for GNN/embedding training — the
//! graph-learning workload from the paper's introduction — with the
//! corpus *streamed* out of the serving tier through a bounded
//! skip-gram sink instead of materialising every walk, plus the
//! RidgeWalker-vs-LightRW throughput comparison on the same workload.
//!
//! ```text
//! cargo run --release --example gnn_corpus
//! ```

use ridgewalker_suite::accel::{Accelerator, AcceleratorConfig};
use ridgewalker_suite::algo::{Node2VecMethod, PreparedGraph, QuerySet, WalkSpec};
use ridgewalker_suite::baselines::LightRw;
use ridgewalker_suite::graph::generators::{Dataset, ScaleFactor};
use ridgewalker_suite::graph::GraphStats;
use ridgewalker_suite::service::{accelerator_driver, AccelShardMode, ServiceConfig, TenantId};
use ridgewalker_suite::sim::FpgaPlatform;
use ridgewalker_suite::sink::{CorpusSink, SkipGramPair, WalkSink};
use std::sync::Arc;

/// word2vec's usual skip-gram window.
const WINDOW: usize = 5;
/// Pair-buffer bound: the only corpus state resident at any moment.
const PAIR_BUFFER: usize = 32_768;

fn main() {
    // The LiveJournal stand-in: the social graph DeepWalk/Node2Vec papers
    // train embeddings on.
    let graph = Dataset::LiveJournal.generate_weighted(ScaleFactor::Tiny);
    let stats = GraphStats::compute(&graph);
    println!(
        "LJ stand-in: {} vertices, {} edges, max degree {}",
        stats.vertices, stats.edges, stats.max_degree
    );

    // Node2Vec with the paper's parameters p=2, q=0.5; one walk per vertex.
    let spec = WalkSpec::node2vec(40, Node2VecMethod::Reservoir);
    let prepared = Arc::new(PreparedGraph::new(graph, &spec).expect("weighted graph"));
    let queries = QuerySet::one_per_vertex(prepared.graph().vertex_count());

    // Stream the corpus: walks leave the accelerator shards, get windowed
    // into (center, context) pairs, and are dropped — the trainer-feed
    // stand-in below is the only place pairs accumulate. At no point does
    // the process hold the whole walk set.
    let accel_cfg = AcceleratorConfig::new().platform(FpgaPlatform::AlveoU250);
    let accel = Accelerator::new(accel_cfg);
    let mut service = accelerator_driver(
        ServiceConfig::new(2).max_batch(256).max_delay_ticks(1),
        &accel,
        prepared.clone(),
        &spec,
        AccelShardMode::Incremental,
    );

    let mut pairs_emitted = 0u64;
    let mut sample: Vec<SkipGramPair> = Vec::new();
    let mut corpus = CorpusSink::new(WINDOW, PAIR_BUFFER, |window: &[SkipGramPair]| {
        // A real deployment hands the window to the embedding trainer (or
        // appends it to a corpus shard on disk); the example just counts.
        if pairs_emitted == 0 {
            sample.extend_from_slice(&window[..window.len().min(6)]);
        }
        pairs_emitted += window.len() as u64;
    });

    let accepted = service.submit(TenantId(0), queries.queries());
    assert_eq!(accepted, queries.queries().len(), "stream fits the buffers");
    // Tick the stream through so the spill depth is observable per tick
    // (drain_into always finishes with an empty spill), then drain the
    // tail and the final partial window.
    let mut delivered = 0;
    let mut peak_spilled = 0;
    while service.queue_depth() > 0 {
        delivered += service.tick_into(&mut corpus);
        peak_spilled = peak_spilled.max(service.spill_depth());
    }
    delivered += service.drain_into(&mut corpus);

    let walks = corpus.walks();
    let tokens = corpus.tokens();
    let peak_pairs = corpus.report().peak_buffered;
    drop(corpus);

    println!("\ncorpus (streamed, never materialised):");
    println!(
        "  {walks} walks, {tokens} tokens -> {pairs_emitted} skip-gram pairs (window {WINDOW})"
    );
    println!(
        "  resident while streaming: <= {peak_pairs} buffered pairs (cap {PAIR_BUFFER}) + peak {peak_spilled} spilled walks"
    );
    println!(
        "  sample pairs: {:?}",
        sample
            .iter()
            .map(|p| (p.center, p.context))
            .collect::<Vec<_>>()
    );
    assert_eq!(delivered, walks as usize, "every walk reached the sink");

    // Throughput comparison on the same workload (paper Fig. 8c): the
    // detached batch runs report cycle-accurate MStep/s for both designs.
    let ridge = Accelerator::new(accel_cfg).run(&prepared, &spec, queries.queries());
    let light = LightRw::new().run(&prepared, &spec, queries.queries());
    println!("\nthroughput on the Alveo U250 model:");
    println!(
        "  RidgeWalker: {:>8.1} MStep/s (bubble ratio {:.1}%)",
        ridge.msteps_per_sec,
        100.0 * ridge.bubble_ratio
    );
    println!(
        "  LightRW:     {:>8.1} MStep/s (bubble ratio {:.1}%)",
        light.msteps_per_sec,
        100.0 * light.bubble_ratio
    );
    println!(
        "  speedup:     {:>8.2}x (paper Fig. 8c: 1.1-1.5x)",
        ridge.speedup_over(&light)
    );
}
