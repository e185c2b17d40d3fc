//! Sink-delivery properties, end to end: conservation (the exact
//! multiset of `CompletedWalk`s reaches exactly one sink route, per
//! tenant, under arbitrary schedules and backpressure) and bounded
//! residency — for both accelerator shard modes.

use ridgewalker_suite::accel::{Accelerator, AcceleratorConfig};
use ridgewalker_suite::algo::{PreparedGraph, QuerySet, WalkQuery, WalkSpec};
use ridgewalker_suite::graph::generators::{Dataset, ScaleFactor};
use ridgewalker_suite::rng::{RandomSource, SplitMix64};
use ridgewalker_suite::service::{
    accelerator_driver, AccelShardMode, CompletedWalk, Driver, DynWalkBackend, ServiceConfig,
    TenantId,
};
use ridgewalker_suite::sink::{CollectingSink, CountingSink, HistogramSink, SinkRouter, WalkSink};
use std::collections::HashMap;
use std::sync::Arc;

fn setup() -> (Arc<PreparedGraph>, WalkSpec) {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(12);
    (Arc::new(PreparedGraph::new(g, &spec).unwrap()), spec)
}

fn service(
    prepared: &Arc<PreparedGraph>,
    spec: &WalkSpec,
    mode: AccelShardMode,
) -> Driver<DynWalkBackend> {
    let accel = Accelerator::new(AcceleratorConfig::new().pipelines(4).poll_quantum(128));
    accelerator_driver(
        ServiceConfig::new(2)
            .max_batch(32)
            .max_delay_ticks(2)
            .sink_spill_capacity(48),
        &accel,
        prepared.clone(),
        spec,
        mode,
    )
}

/// One step of a randomized but replayable delivery schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Submit the next `count` queries of tenant `tenant`.
    Submit {
        tenant: usize,
        count: usize,
    },
    Tick,
}

/// Generates a schedule that interleaves submissions of `tenants` query
/// pools (each `per_tenant` long) with ticks, deterministically from
/// `seed`.
fn random_schedule(seed: u64, tenants: usize, per_tenant: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let mut remaining = vec![per_tenant; tenants];
    let mut ops = Vec::new();
    while remaining.iter().any(|&r| r > 0) {
        if rng.next_u64().is_multiple_of(2) {
            let t = (rng.next_u64() as usize) % tenants;
            if remaining[t] > 0 {
                let count = 1 + (rng.next_u64() as usize) % 24;
                let count = count.min(remaining[t]);
                remaining[t] -= count;
                ops.push(Op::Submit { tenant: t, count });
            }
        } else {
            ops.push(Op::Tick);
        }
    }
    // A few trailing ticks so some walks complete before the drain.
    for _ in 0..4 {
        ops.push(Op::Tick);
    }
    ops
}

/// Replays `ops` submitting from per-tenant pools; `on_tick` advances the
/// service however the consumption mode does. Refused prefixes are
/// resubmitted after a tick, so the submission order is schedule-defined.
fn replay(
    svc: &mut Driver<DynWalkBackend>,
    ops: &[Op],
    pools: &[(TenantId, Vec<WalkQuery>)],
    on_tick: &mut dyn FnMut(&mut Driver<DynWalkBackend>),
) {
    let mut offsets = vec![0usize; pools.len()];
    for op in ops {
        match *op {
            Op::Submit { tenant, count } => {
                let (tid, pool) = &pools[tenant];
                let end = offsets[tenant] + count;
                while offsets[tenant] < end {
                    let taken = svc.submit(*tid, &pool[offsets[tenant]..end]);
                    offsets[tenant] += taken;
                    if taken == 0 {
                        on_tick(svc);
                    }
                }
            }
            Op::Tick => on_tick(svc),
        }
    }
}

/// Groups walks per tenant, sorted for multiset comparison.
fn by_tenant(walks: Vec<CompletedWalk>) -> HashMap<TenantId, Vec<CompletedWalk>> {
    let mut map: HashMap<TenantId, Vec<CompletedWalk>> = HashMap::new();
    for w in walks {
        map.entry(w.tenant).or_default().push(w);
    }
    for group in map.values_mut() {
        group.sort_by(|a, b| {
            (a.path.query, &a.path.vertices, a.arrival_tick).cmp(&(
                b.path.query,
                &b.path.vertices,
                b.arrival_tick,
            ))
        });
    }
    map
}

#[test]
fn tick_into_yields_the_exact_multiset_of_the_legacy_path_per_tenant() {
    let (prepared, spec) = setup();
    let nv = prepared.graph().vertex_count();
    let tenants = [TenantId(1), TenantId(2), TenantId(40)];
    let per_tenant = 120;
    let pools: Vec<(TenantId, Vec<WalkQuery>)> = tenants
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            (
                t,
                QuerySet::random(nv, per_tenant, 0xAB ^ i as u64)
                    .queries()
                    .to_vec(),
            )
        })
        .collect();

    for mode in [AccelShardMode::Batch, AccelShardMode::Incremental] {
        for sched_seed in [0x7Au64, 0x7B, 0x7C] {
            let ops = random_schedule(sched_seed, tenants.len(), per_tenant);

            // Legacy consumption: growing Vec out of tick()/drain().
            let mut legacy_svc = service(&prepared, &spec, mode);
            let mut legacy: Vec<CompletedWalk> = Vec::new();
            replay(&mut legacy_svc, &ops, &pools, &mut |svc| {
                legacy.extend(svc.tick());
            });
            legacy.extend(legacy_svc.drain());

            // Streaming consumption on the identical schedule, through a
            // *backpressuring* collector (32-walk windows) so the spill
            // path is part of what conservation has to survive.
            let mut sink_svc = service(&prepared, &spec, mode);
            let mut sink = CollectingSink::unbounded().capacity(32);
            replay(&mut sink_svc, &ops, &pools, &mut |svc| {
                svc.tick_into(&mut sink);
            });
            sink_svc.drain_into(&mut sink);
            let stats = sink_svc.stats();
            let sunk = sink.into_walks();

            assert_eq!(
                legacy.len(),
                tenants.len() * per_tenant,
                "{mode:?}/{sched_seed:#x}: legacy path must answer everything"
            );
            let legacy_groups = by_tenant(legacy);
            let sink_groups = by_tenant(sunk);
            assert_eq!(
                legacy_groups, sink_groups,
                "{mode:?}/{sched_seed:#x}: per-tenant multisets must match exactly"
            );
            assert_eq!(stats.sink_accepted, (tenants.len() * per_tenant) as u64);
            assert_eq!(stats.sink_spill_depth, 0, "drain_into runs the spill dry");
            assert!(
                stats.sink_backpressured > 0,
                "{mode:?}/{sched_seed:#x}: the 32-walk window must push back"
            );
        }
    }
}

#[test]
fn attached_router_fans_out_per_tenant_without_loss_or_crosstalk() {
    let (prepared, spec) = setup();
    let nv = prepared.graph().vertex_count();
    for mode in [AccelShardMode::Batch, AccelShardMode::Incremental] {
        let mut svc = service(&prepared, &spec, mode);
        let router = SinkRouter::new(Box::new(CountingSink::new()))
            .route(TenantId(1), Box::new(CollectingSink::unbounded()))
            .route(TenantId(2), Box::new(HistogramSink::new(16)));
        svc.attach_sink(Box::new(router));

        let a = QuerySet::random(nv, 150, 1);
        let b = QuerySet::random(nv, 130, 2);
        let c = QuerySet::random(nv, 90, 3);
        assert_eq!(svc.submit(TenantId(1), a.queries()), 150);
        assert_eq!(svc.submit(TenantId(2), b.queries()), 130);
        assert_eq!(svc.submit(TenantId(9), c.queries()), 90);
        assert!(svc.tick().is_empty(), "subscription swallows deliveries");
        assert!(svc.drain().is_empty());

        let report = svc.sink_report().expect("router attached");
        assert_eq!(report.accepted, 370, "{mode:?}: conservation across routes");
        let boxed = svc.detach_sink().expect("router attached");
        // Box<dyn WalkSink> -> the router we put in: recover via report
        // fan-out instead of downcasting (the trait is object-safe, not Any).
        assert_eq!(boxed.report().accepted, 370);
        assert_eq!(svc.stats().sink_accepted, 370);
        assert_eq!(svc.stats().sink_spill_depth, 0);
    }
}

#[test]
fn sink_delivery_residency_stays_bounded_under_sustained_load() {
    let (prepared, spec) = setup();
    let nv = prepared.graph().vertex_count();
    let mut svc = service(&prepared, &spec, AccelShardMode::Incremental);
    let queries = QuerySet::random(nv, 2_000, 77);
    // A consumer that takes 16 walks between flushes — far slower than
    // the stream — so delivery leans on spill + forced flushes.
    let mut sink = CollectingSink::unbounded().capacity(16);
    let mut peak_depth = 0usize;
    let mut offered = queries.queries();
    while !offered.is_empty() {
        let taken = svc.submit(TenantId(5), offered);
        offered = &offered[taken..];
        svc.tick_into(&mut sink);
        peak_depth = peak_depth.max(svc.spill_depth());
    }
    svc.drain_into(&mut sink);
    assert_eq!(sink.len(), 2_000, "nothing lost under sustained pressure");
    assert!(
        peak_depth <= 48,
        "resident spilled walks must respect the configured bound, saw {peak_depth}"
    );
    let stats = svc.stats();
    assert!(
        stats.sink_forced_flushes > 0,
        "the bound was actually exercised"
    );
    assert_eq!(stats.sink_accepted, 2_000);
}
