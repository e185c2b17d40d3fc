//! Criterion microbenchmarks of the substrate components: the building
//! blocks whose line-rate behaviour the paper's claims rest on.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use grw_algo::{
    run_streamed, sampler, Node2VecMethod, PreparedGraph, QuerySet, ReferenceBackend,
    SamplerConfig, WalkBackend, WalkPath, WalkQuery, WalkSpec,
};
use grw_graph::generators::{Dataset, RmatConfig, ScaleFactor};
use grw_graph::AliasTables;
use grw_rng::{RandomSource, SplitMix64, WalkKey};
use grw_route::{Router, StaticHashPolicy};
use grw_service::{Driver, DynWalkBackend, ServiceConfig, TenantId};
use grw_sim::{Fifo, MemoryChannel, MemoryChannelSpec};
use grw_sink::{CountingSink, PprAggregator, SinkRouter};
use ridgewalker::{Accelerator, AcceleratorConfig};
use std::sync::Arc;

fn bench_rng(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng");
    group.throughput(Throughput::Elements(1));
    group.bench_function("splitmix64", |b| {
        let mut g = SplitMix64::new(1);
        b.iter(|| g.next_u64())
    });
    // A walk's key derivation plus one draw of one of its hops.
    group.bench_function("hop_stream_draw", |b| {
        let mut q = 0u64;
        b.iter(|| {
            q += 1;
            WalkKey::new(7, q).hop(3).next_u64()
        })
    });
    group.finish();
}

fn bench_samplers(c: &mut Criterion) {
    let g = RmatConfig::graph500(12, 16)
        .seed(3)
        .generate()
        .with_weights(grw_graph::weights::thunder_rw(1));
    let tables = AliasTables::build(&g);
    let hub = (0..g.vertex_count() as u32)
        .max_by_key(|&v| g.degree(v))
        .unwrap();
    let mut group = c.benchmark_group("samplers");
    group.throughput(Throughput::Elements(1));
    group.bench_function("uniform", |b| {
        let mut rng = SplitMix64::new(2);
        b.iter(|| sampler::uniform_sample(g.degree(hub), &mut rng))
    });
    group.bench_function("alias", |b| {
        let mut rng = SplitMix64::new(2);
        b.iter(|| sampler::alias_sample(&g, &tables, hub, &mut rng))
    });
    group.bench_function("weighted_reservoir_hub", |b| {
        let mut rng = SplitMix64::new(2);
        let ws = g.neighbor_weights(hub).unwrap();
        b.iter(|| sampler::weighted_reservoir(ws, &mut rng))
    });
    group.bench_function("node2vec_rejection", |b| {
        let mut rng = SplitMix64::new(2);
        let prev = g.neighbors(hub)[0];
        b.iter(|| sampler::node2vec_rejection(&g, hub, Some(prev), 2.0, 0.5, &mut rng))
    });
    group.finish();
}

fn bench_hardware_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("hw_primitives");
    group.throughput(Throughput::Elements(1));
    group.bench_function("fifo_push_pop_commit", |b| {
        let mut f: Fifo<u64> = Fifo::new(16);
        b.iter(|| {
            f.push(1);
            f.commit();
            f.pop()
        })
    });
    group.bench_function("memory_channel_cycle", |b| {
        let mut ch = MemoryChannel::new(MemoryChannelSpec::default());
        let mut cycle = 0u64;
        b.iter(|| {
            ch.begin_cycle(cycle);
            ch.try_issue(cycle, 1.0, cycle);
            while ch.pop_ready().is_some() {}
            cycle += 1;
        })
    });
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    let g = RmatConfig::balanced(11, 8).seed(1).generate();
    let spec = WalkSpec::urw(16);
    let p = PreparedGraph::new(g, &spec).unwrap();
    let qs = QuerySet::random(p.graph().vertex_count(), 256, 1);
    let mut group = c.benchmark_group("engines");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("reference_engine_256q", |b| {
        b.iter(|| {
            run_streamed(
                &mut ReferenceBackend::new(&p, spec.clone(), 1),
                qs.queries(),
            )
            .len()
        })
    });
    group.bench_function("accelerator_sim_256q_n4", |b| {
        let acc = Accelerator::new(AcceleratorConfig::new().pipelines(4));
        b.iter(|| acc.run(&p, &spec, qs.queries()).steps)
    });

    // One accelerator shard of the mixed Node2Vec serving workload: the
    // weighted reservoir under the auto sampler on Tiny WebGoogle, 4
    // pipelines, 64 queries in flight, 64-cycle polls, fed four bursts of
    // the 128 highest-degree starts. A fresh machine per pass makes the
    // simulated cycle count fixed; throughput counts those cycles, so the
    // rate reads as Mcycles/s.
    let n2v = WalkSpec::node2vec(16, Node2VecMethod::Reservoir);
    let weighted = Dataset::WebGoogle.generate_weighted(ScaleFactor::Tiny);
    let hub_p = PreparedGraph::with_sampler(weighted, &n2v, SamplerConfig::auto()).unwrap();
    let g = hub_p.graph();
    let mut by_degree: Vec<u32> = (0..g.vertex_count() as u32).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    let burst: Vec<WalkQuery> = by_degree[..128]
        .iter()
        .zip(0..)
        .map(|(&start, id)| WalkQuery { id, start })
        .collect();
    let shard = Accelerator::new(
        AcceleratorConfig::new()
            .pipelines(4)
            .max_inflight(64)
            .poll_quantum(64),
    );
    let simulate_bursts = || {
        let mut backend = shard.backend(&hub_p, &n2v);
        for _ in 0..4 {
            assert_eq!(backend.submit(&burst), burst.len());
            while backend.in_flight() > 0 {
                std::hint::black_box(backend.poll());
            }
        }
        backend.cycles()
    };
    group.throughput(Throughput::Elements(simulate_bursts()));
    group.bench_function("accelerator_n2v_hub_bursts_n4", |b| b.iter(simulate_bursts));

    // The same workload's CPU shard: one worker walking 4,096 queries
    // from those 128 hubs in polls of 4, its edge cache kept across
    // passes as a serving shard keeps it. Throughput counts steps.
    let hubs = QuerySet::hot_set(&by_degree[..128], 4096, 2);
    let mut cpu_shard = ReferenceBackend::new(&hub_p, n2v.clone(), 1).poll_chunk(4);
    let mut walk_hubs = || {
        assert_eq!(cpu_shard.submit(hubs.queries()), hubs.len());
        let mut steps = 0;
        while cpu_shard.in_flight() > 0 {
            steps += cpu_shard.poll().iter().map(WalkPath::steps).sum::<u64>();
        }
        steps
    };
    group.throughput(Throughput::Elements(walk_hubs()));
    group.bench_function("reference_backend_node2vec16_webgoogle_tiny_hubs", |b| {
        b.iter(&mut walk_hubs)
    });

    // The walk kernel alone, in the backend's default 256-query polls:
    // ns/step out of cache (30 MB LiveJournal stand-in) and in cache.
    let kernels = [
        (
            "reference_backend_urw80_livejournal_standard",
            Dataset::LiveJournal.generate(ScaleFactor::Standard),
            WalkSpec::urw(80),
        ),
        (
            "reference_backend_deepwalk80_webgoogle_tiny",
            Dataset::WebGoogle.generate_weighted(ScaleFactor::Tiny),
            WalkSpec::deepwalk(80),
        ),
    ];
    for (name, g, spec) in kernels {
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::random(p.graph().vertex_count(), 4096, 2);
        let mut backend = ReferenceBackend::new(&p, spec, 1);
        let mut walk_all = || {
            assert_eq!(backend.submit(qs.queries()), qs.len());
            let mut steps = 0;
            while backend.in_flight() > 0 {
                steps += backend.poll().iter().map(WalkPath::steps).sum::<u64>();
            }
            steps
        };
        // Every pass walks the same paths, so its step count is fixed.
        group.throughput(Throughput::Elements(walk_all()));
        group.bench_function(name, |b| b.iter(&mut walk_all));
    }
    group.finish();
}

/// Graph set-up: the LiveJournal stand-in at Standard scale from its RMAT
/// draws to the finished CSR, which is `urw-lj-threaded`'s
/// `graph.generate_s`. Throughput counts the CSR's stored edges (both
/// directions of every undirected edge), so the rate reads in Medges/s.
fn bench_graph(c: &mut Criterion) {
    let generate = || Dataset::LiveJournal.generate(ScaleFactor::Standard);
    let mut group = c.benchmark_group("graph");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(5));
    group.throughput(Throughput::Elements(generate().edge_count() as u64));
    group.bench_function("generate_livejournal_standard", |b| b.iter(generate));
    group.finish();
}

/// The serving path around the kernel, without the benchmark harness:
/// `Router` → inline `Driver` → two `ReferenceBackend` shards → a
/// `SinkRouter` of 16 per-tenant `PprAggregator`s, on Tiny WebGoogle.
/// Each iteration submits 256 queries, one per call from 16 alternating
/// tenants, then ticks once; throughput counts queries, so the rate reads
/// as the service layer's queries per second (ns/query = 1e3 / Melem/s).
fn bench_serving(c: &mut Criterion) {
    const TENANTS: u16 = 16;
    const PER_TICK: usize = 256;
    let spec = WalkSpec::ppr(80);
    let p = Arc::new(
        PreparedGraph::new(Dataset::WebGoogle.generate(ScaleFactor::Tiny), &spec).unwrap(),
    );
    let cfg = ServiceConfig::new(2)
        .max_batch(PER_TICK)
        .max_delay_ticks(1)
        .buffer_capacity(1 << 16);
    let driver = Driver::new(cfg, |shard| -> DynWalkBackend {
        Box::new(ReferenceBackend::new(p.clone(), spec.clone(), shard as u64))
    });
    let mut router = Router::new(driver, StaticHashPolicy);
    router.attach_sinks(|_| {
        let mut sinks = SinkRouter::new(Box::new(CountingSink::new()));
        for t in 0..TENANTS {
            sinks.add_route(TenantId(t), Box::new(PprAggregator::new(10)));
        }
        Box::new(sinks)
    });
    let starts = QuerySet::random(p.graph().vertex_count(), PER_TICK, 3);
    let mut next_id = 0u64;
    let mut group = c.benchmark_group("serving");
    group.throughput(Throughput::Elements(PER_TICK as u64));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("ppr_16_tenants_inline_256q_per_tick", |b| {
        b.iter(|| {
            for (i, q) in starts.queries().iter().enumerate() {
                let query = WalkQuery {
                    id: next_id,
                    start: q.start,
                };
                next_id += 1;
                router.submit(TenantId(i as u16 % TENANTS), &[query]);
            }
            router.tick()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rng,
    bench_samplers,
    bench_hardware_primitives,
    bench_engines,
    bench_graph,
    bench_serving
);
criterion_main!(benches);
