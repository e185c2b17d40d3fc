//! Criterion microbenchmarks of the sampling kernels behind the
//! runtime-adaptive strategy layer: every [`grw_algo::sampler`] kernel in
//! isolation, plus the second-order edge cache's hit, miss/build and
//! insert/evict paths.
//!
//! The macro comparison (legacy vs adaptive wall-clock on full query
//! streams) lives in `grw_bench::sampling` / `examples/sampling.rs`;
//! these microbenches isolate the per-sample costs that comparison is
//! made of, so a regression can be attributed to one kernel.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use grw_algo::sampler::{self, AliasSlot, EdgeAliasCache};
use grw_algo::SamplerRuntime;
use grw_graph::generators::RmatConfig;
use grw_graph::{AliasTables, CsrGraph};
use grw_rng::SplitMix64;

/// The hostile corner of the standard node2vec grid (`p = 0.25, q = 4`):
/// rejection's envelope is ~16 expected trials per accepted sample, the
/// regime the second-order alias cache targets.
const P: f64 = 0.25;
const Q: f64 = 4.0;

fn skewed_graph() -> CsrGraph {
    RmatConfig::graph500(12, 16)
        .seed(3)
        .generate()
        .with_weights(grw_graph::weights::thunder_rw(1))
}

fn hub_of(g: &CsrGraph) -> u32 {
    (0..g.vertex_count() as u32)
        .max_by_key(|&v| g.degree(v))
        .expect("non-empty graph")
}

fn bench_first_order_kernels(c: &mut Criterion) {
    let g = skewed_graph();
    let tables = AliasTables::build(&g);
    let hub = hub_of(&g);
    let low = (0..g.vertex_count() as u32)
        .find(|&v| (2..=6).contains(&g.degree(v)))
        .expect("a low-degree vertex exists");
    let mut group = c.benchmark_group("sampling_first_order");
    group.throughput(Throughput::Elements(1));
    group.bench_function("uniform_hub", |b| {
        let mut rng = SplitMix64::new(2);
        b.iter(|| sampler::uniform_sample(g.degree(hub), &mut rng))
    });
    group.bench_function("alias_table_hub", |b| {
        let mut rng = SplitMix64::new(2);
        b.iter(|| sampler::alias_sample(&g, &tables, hub, &mut rng))
    });
    group.bench_function("alias_onthefly_low_degree", |b| {
        let mut rng = SplitMix64::new(2);
        b.iter(|| sampler::alias_onthefly(&g, low, &mut rng))
    });
    group.bench_function("weighted_reservoir_low_degree", |b| {
        let mut rng = SplitMix64::new(2);
        let ws = g.neighbor_weights(low).unwrap();
        b.iter(|| sampler::weighted_reservoir(ws, &mut rng))
    });
    group.finish();
}

fn bench_second_order_kernels(c: &mut Criterion) {
    let g = skewed_graph();
    let hub = hub_of(&g);
    let prev = g.neighbors(hub)[0];
    let mut group = c.benchmark_group("sampling_second_order");
    group.throughput(Throughput::Elements(1));
    group.bench_function("rejection_hub", |b| {
        let mut rng = SplitMix64::new(2);
        b.iter(|| sampler::node2vec_rejection(&g, hub, Some(prev), P, Q, &mut rng))
    });
    // The weighted kernels run in one executor's runtime, kept across
    // iterations as an engine worker keeps it.
    group.bench_function("reservoir_hub", |b| {
        let mut rng = SplitMix64::new(2);
        let mut rt = SamplerRuntime::disabled();
        b.iter(|| sampler::node2vec_reservoir(&g, hub, Some(prev), P, Q, &mut rt, &mut rng))
    });
    group.bench_function("alias_build_hub_uncached", |b| {
        let mut rng = SplitMix64::new(2);
        let mut rt = SamplerRuntime::disabled();
        b.iter(|| sampler::second_order_alias(&g, hub, Some(prev), P, Q, false, &mut rt, &mut rng))
    });
    group.bench_function("alias_cache_hit_hub", |b| {
        let mut rng = SplitMix64::new(2);
        let mut rt = SamplerRuntime::with_cache(Some(EdgeAliasCache::new(32 << 20, 4)));
        // Prime the one row; every iteration after that is a pure hit.
        sampler::second_order_alias(&g, hub, Some(prev), P, Q, false, &mut rt, &mut rng);
        b.iter(|| sampler::second_order_alias(&g, hub, Some(prev), P, Q, false, &mut rt, &mut rng))
    });
    group.finish();
}

fn bench_edge_cache_paths(c: &mut Criterion) {
    let g = skewed_graph();
    let hub = hub_of(&g);
    // A spread of (prev, cur) edges, hub-biased like real walk traffic.
    let edges: Vec<(u32, u32)> = (0..g.vertex_count() as u32)
        .filter(|&v| g.degree(v) > 0)
        .map(|v| (g.neighbors(v)[0], v))
        .collect();
    let mut group = c.benchmark_group("edge_cache");
    group.throughput(Throughput::Elements(1));
    // A lookup's cost depends on the row's length, not its contents.
    let row_of = |cur: u32| vec![AliasSlot { prob: 1.0, alt: 0 }; g.degree(cur) as usize].into();
    group.bench_function("hit_hot_row", |b| {
        let mut cache = EdgeAliasCache::new(32 << 20, 4);
        let prev = g.neighbors(hub)[0];
        cache.insert(prev, hub, row_of(hub));
        b.iter(|| cache.lookup(prev, hub).map(|row| row.len()))
    });
    group.bench_function("hit_wide_working_set", |b| {
        // Cycle hits across thousands of cached rows: what a hit costs
        // when the working set no longer fits the fast cache levels.
        let mut cache = EdgeAliasCache::new(256 << 20, 4);
        for &(prev, cur) in &edges {
            cache.insert(prev, cur, row_of(cur));
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % edges.len();
            let (prev, cur) = edges[i];
            cache.lookup(prev, cur).map(|row| row.len())
        })
    });
    group.bench_function("miss_lookup", |b| {
        let mut cache = EdgeAliasCache::new(32 << 20, 4);
        b.iter(|| cache.lookup(7, 9).is_none())
    });
    group.bench_function("build_insert_under_pressure", |b| {
        // Tiny budget: every insert evicts — the thrash path.
        let mut rng = SplitMix64::new(2);
        let mut rt = SamplerRuntime::with_cache(Some(EdgeAliasCache::new(64 << 10, 4)));
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % edges.len();
            let (prev, cur) = edges[i];
            sampler::second_order_alias(&g, cur, Some(prev), P, Q, false, &mut rt, &mut rng)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_first_order_kernels,
    bench_second_order_kernels,
    bench_edge_cache_paths
);
criterion_main!(benches);
