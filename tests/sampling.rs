//! End-to-end properties of the runtime-adaptive sampling layer: every
//! forced kernel reproduces the spec's transition distribution
//! (chi-square, per degree bucket), auto mode draws bit-identically to
//! the forced strategy it selects per bucket, and the second-order edge
//! cache is *pure acceleration* — walk content is invariant across cache
//! budgets (off, thrashing-tiny, comfortable) through the reference
//! backend, both accelerator shard modes, and routed mixed fleets.

use ridgewalker_suite::accel::{Accelerator, AcceleratorConfig};
use ridgewalker_suite::algo::{
    distribution, run_streamed, strategy::degree_bucket, Node2VecMethod, PreparedGraph, QuerySet,
    ReferenceBackend, SamplerConfig, SamplerStrategy, SamplingCounters, WalkBackend, WalkPath,
    WalkSpec,
};
use ridgewalker_suite::graph::generators::RmatConfig;
use ridgewalker_suite::graph::{weights, CsrGraph, VertexId};
use ridgewalker_suite::rng::WalkKey;
use ridgewalker_suite::route::{AdaptiveConfig, AdaptivePolicy, Router};
use ridgewalker_suite::service::{
    mixed_fleet_driver, AccelShardMode, CompletedWalk, Driver, DynWalkBackend, ServiceConfig,
    ShardSpec, TenantId,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Hub 0 with 96 weighted spokes; spokes 1..24 also form a chain, so a
/// second-order step out of the hub with `prev = 1` sees all three
/// node2vec cases (return to 1, common neighbor 2, outward everywhere
/// else). Vertex 12 (degree 3: hub + chain) is the low-bucket probe.
fn hub_graph() -> CsrGraph {
    let mut edges: Vec<(VertexId, VertexId)> = (1..=96).map(|v| (0, v)).collect();
    edges.extend((1..24).map(|v| (v, v + 1)));
    CsrGraph::from_edges(97, &edges, false)
        .with_weights(|src, dst, _| 0.5 + ((src * 7 + dst * 13) % 9) as f32 * 0.25)
}

/// Theoretical next-hop probabilities out of `cur`: node2vec alpha bias
/// when `prev` is given, times the edge weight when `weighted`.
fn expected_probs(
    g: &CsrGraph,
    cur: VertexId,
    prev: Option<VertexId>,
    p: f64,
    q: f64,
    weighted: bool,
) -> Vec<f64> {
    let ws = g.neighbor_weights(cur).expect("weighted fixture");
    let mut mass: Vec<f64> = g
        .neighbors(cur)
        .iter()
        .zip(ws)
        .map(|(&x, &w)| {
            let alpha = match prev {
                None => 1.0,
                Some(pv) if x == pv => 1.0 / p,
                Some(pv) if g.has_edge(pv, x) => 1.0,
                Some(_) => 1.0 / q,
            };
            alpha * if weighted { f64::from(w) } else { 1.0 }
        })
        .collect();
    let total: f64 = mass.iter().sum();
    for m in &mut mass {
        *m /= total;
    }
    mass
}

/// Draws `n` next hops at a fixed `(cur, prev)` through the prepared
/// graph's bucket dispatch, one per walk key, and bins them over `cur`'s
/// neighbor list.
fn empirical_counts(
    prepared: &PreparedGraph,
    spec: &WalkSpec,
    cur: VertexId,
    prev: Option<VertexId>,
    n: usize,
    seed: u64,
) -> Vec<u64> {
    let mut rt = prepared.runtime();
    let hop = u32::from(prev.is_some());
    let mut counts: HashMap<VertexId, u64> = HashMap::new();
    for id in 0..n as u64 {
        let (v, _) = prepared
            .sample_neighbor_with(&mut rt, spec, cur, prev, hop, WalkKey::new(seed, id))
            .expect("probe vertices have neighbors");
        *counts.entry(v).or_insert(0) += 1;
    }
    distribution::counts_for_neighbors(&counts, prepared.graph().neighbors(cur))
}

/// Satellite 1a: every forced kernel passes a chi-square goodness-of-fit
/// test against the spec's theoretical transition probabilities, probed
/// in both a high-degree and a low-degree bucket (forced mode pins the
/// kernel in *every* bucket, so both probes exercise the same kernel at
/// different degrees).
#[test]
fn every_forced_strategy_fits_its_transition_distribution() {
    let g = hub_graph();
    const HUB: VertexId = 0; // degree 96
    const LOW: VertexId = 12; // degree 3
    const N: usize = 60_000;
    let (p, q) = (0.25, 4.0);

    // (case tag, spec, forced kernel, weighted expectation?)
    let cases: Vec<(&str, WalkSpec, SamplerStrategy, bool)> = vec![
        (
            "urw/inverse",
            WalkSpec::urw(8),
            SamplerStrategy::InverseTransform,
            false,
        ),
        (
            "deepwalk/inverse",
            WalkSpec::deepwalk(8),
            SamplerStrategy::InverseTransform,
            true,
        ),
        (
            "deepwalk/alias",
            WalkSpec::deepwalk(8),
            SamplerStrategy::Alias,
            true,
        ),
        (
            "node2vec/rejection",
            WalkSpec::node2vec_pq(8, p, q, Node2VecMethod::Rejection),
            SamplerStrategy::Rejection,
            false,
        ),
        (
            "node2vec/reservoir",
            WalkSpec::node2vec_pq(8, p, q, Node2VecMethod::Reservoir),
            SamplerStrategy::Reservoir,
            true,
        ),
        (
            "node2vec/cached-alias",
            WalkSpec::node2vec_pq(8, p, q, Node2VecMethod::Reservoir),
            SamplerStrategy::SecondOrderAlias,
            true,
        ),
    ];
    for (tag, spec, strategy, weighted) in cases {
        let prepared =
            PreparedGraph::with_sampler(g.clone(), &spec, SamplerConfig::forced(strategy))
                .expect("forced kernel supports its spec");
        let second_order = matches!(spec, WalkSpec::Node2Vec { .. });
        // Second-order specs get first-hop (prev = None) probes too: the
        // cached-alias kernel must reproduce the legacy kernel's
        // weight-proportional (reservoir) or uniform (rejection) first
        // hop, not degenerate to uniform everywhere.
        let probes: Vec<(VertexId, Option<VertexId>)> = if second_order {
            vec![(HUB, Some(1)), (LOW, Some(11)), (HUB, None), (LOW, None)]
        } else {
            vec![(HUB, None), (LOW, None)]
        };
        for (probe, prev) in probes {
            let bins = empirical_counts(
                &prepared,
                &spec,
                probe,
                prev,
                N,
                0xC41D15 ^ u64::from(probe),
            );
            let probs = expected_probs(&g, probe, prev, p, q, weighted);
            assert!(
                distribution::fits(&bins, &probs),
                "{tag} at vertex {probe} (bucket {}): empirical distribution \
                 rejects the spec's transition probabilities",
                degree_bucket(g.degree(probe)),
            );
        }
    }
}

/// Satellite 1b: at every degree bucket the graph populates, auto mode
/// consumes the hop stream exactly like the forced variant of the
/// strategy it selected for that bucket — the selection layer adds a
/// table lookup, never a different draw sequence.
#[test]
fn auto_mode_draws_bit_identically_to_its_chosen_forced_strategy() {
    let g = RmatConfig::graph500(9, 8)
        .seed(7)
        .generate()
        .with_weights(weights::thunder_rw(5));
    let specs = [
        WalkSpec::urw(8),
        WalkSpec::deepwalk(8),
        WalkSpec::node2vec(8, Node2VecMethod::Rejection),
        WalkSpec::node2vec(8, Node2VecMethod::Reservoir),
    ];
    for spec in specs {
        let auto_cfg = SamplerConfig::auto().second_order_min_degree(16);
        let auto = PreparedGraph::with_sampler(g.clone(), &spec, auto_cfg).expect("valid config");
        let mut forced: HashMap<SamplerStrategy, PreparedGraph> = HashMap::new();
        // One probe vertex per populated bucket.
        let mut seen = [false; 64];
        let second_order = matches!(spec, WalkSpec::Node2Vec { .. });
        for v in 0..g.vertex_count() as VertexId {
            let degree = g.degree(v);
            let bucket = degree_bucket(degree);
            if degree == 0 || std::mem::replace(&mut seen[bucket], true) {
                continue;
            }
            let strategy = auto.strategies().for_degree(degree);
            let arm = forced.entry(strategy).or_insert_with(|| {
                PreparedGraph::with_sampler(g.clone(), &spec, SamplerConfig::forced(strategy))
                    .expect("auto only selects supported kernels")
            });
            let prev = second_order.then(|| g.neighbors(v)[0]);
            let hop = u32::from(prev.is_some());
            let draws = |prepared: &PreparedGraph| -> Vec<VertexId> {
                let mut rt = prepared.runtime();
                (0..64)
                    .map(|id| {
                        let key = WalkKey::new(0xB17 ^ u64::from(v), id);
                        prepared
                            .sample_neighbor_with(&mut rt, &spec, v, prev, hop, key)
                            .expect("v has neighbors")
                            .0
                    })
                    .collect()
            };
            assert_eq!(
                draws(&auto),
                draws(arm),
                "{spec}: auto and forced {} diverge at vertex {v} (degree {degree})",
                strategy.name(),
            );
        }
    }
}

fn sampling_config(budget: usize) -> SamplerConfig {
    SamplerConfig::auto()
        .second_order_min_degree(8)
        .cache_budget_bytes(budget)
}

/// Satellite 2a: the edge cache is pure acceleration — the exact same
/// weighted node2vec paths come out with the cache disabled, with a
/// thrashing-tiny budget (every insert evicts), and with a comfortable
/// budget, through the reference backend.
#[test]
fn cache_budget_never_changes_a_weighted_node2vec_walk() {
    let g = RmatConfig::graph500(9, 8)
        .seed(11)
        .generate()
        .with_weights(weights::thunder_rw(9));
    let spec = WalkSpec::node2vec(16, Node2VecMethod::Reservoir);
    let queries = QuerySet::random(g.vertex_count(), 400, 0xC0);
    let run = |budget: usize| -> (Vec<WalkPath>, SamplingCounters) {
        let prepared =
            PreparedGraph::with_sampler(g.clone(), &spec, sampling_config(budget)).unwrap();
        assert!(
            prepared.strategies().uses_second_order(),
            "the fixture must route hub buckets to the cached kernel"
        );
        let mut backend = ReferenceBackend::new(&prepared, spec.clone(), 0xF00D)
            .queue_capacity(queries.len())
            .poll_chunk(queries.len());
        let paths = run_streamed(&mut backend, queries.queries());
        (paths, backend.telemetry().sampling)
    };

    let (want, off) = run(0);
    assert_eq!(off.cache_hits, 0, "no cache, no hits");
    assert_eq!(off.cache_evictions, 0);

    let (tiny_paths, tiny) = run(8 << 10);
    assert!(tiny.cache_evictions > 0, "a 8 KiB budget must evict");
    assert_eq!(tiny_paths, want, "eviction pressure changed a path");

    let (big_paths, big) = run(32 << 20);
    assert!(big.cache_hits > 0, "hub rows must be served from the cache");
    assert_eq!(big.cache_evictions, 0, "32 MiB holds the working set");
    assert_eq!(big_paths, want, "cache hits changed a path");
}

/// The walk seed every shard of these fleets shares.
const FLEET_SEED: u64 = 0x5EED_0CA5;

/// A 2-accel + 2-CPU fleet over a prepared graph (the routing bench's
/// shape, test-sized).
fn mixed(
    prepared: &Arc<PreparedGraph>,
    spec: &WalkSpec,
    mode: AccelShardMode,
) -> Driver<DynWalkBackend> {
    let accel = Accelerator::new(AcceleratorConfig::new().pipelines(4).poll_quantum(128));
    let plan = [
        ShardSpec::Accel(mode),
        ShardSpec::Accel(mode),
        ShardSpec::Cpu {
            threads: 1,
            poll_chunk: 4,
        },
        ShardSpec::Cpu {
            threads: 1,
            poll_chunk: 4,
        },
    ];
    mixed_fleet_driver(
        ServiceConfig::new(4).max_batch(32).max_delay_ticks(2),
        &accel,
        prepared.clone(),
        spec,
        &plan,
        FLEET_SEED,
    )
}

/// Per-tenant multiset of `(query id, walked vertices)` — the payload
/// that must be invariant across cache budgets.
fn by_tenant(walks: &[CompletedWalk]) -> HashMap<TenantId, Vec<(u64, Vec<u32>)>> {
    let mut map: HashMap<TenantId, Vec<(u64, Vec<u32>)>> = HashMap::new();
    for w in walks {
        map.entry(w.tenant)
            .or_default()
            .push((w.path.query, w.path.vertices.clone()));
    }
    for group in map.values_mut() {
        group.sort();
    }
    map
}

fn tenant_pools(nv: usize, tenants: &[TenantId], per_tenant: usize) -> Vec<(TenantId, QuerySet)> {
    tenants
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, QuerySet::random(nv, per_tenant, 0xAB ^ i as u64)))
        .collect()
}

/// Satellite 2b: walk conservation across cache budgets survives both
/// accelerator shard modes — the identical tenant streams yield the
/// identical per-tenant walk multisets whether the second-order cache is
/// off, thrashing, or comfortable.
#[test]
fn shard_fleets_conserve_walks_across_cache_budgets() {
    let g = RmatConfig::graph500(9, 8)
        .seed(21)
        .generate()
        .with_weights(weights::thunder_rw(13));
    let spec = WalkSpec::node2vec(12, Node2VecMethod::Reservoir);
    let tenants = [TenantId(4), TenantId(17)];
    let pools = tenant_pools(g.vertex_count(), &tenants, 90);

    for mode in [AccelShardMode::Batch, AccelShardMode::Incremental] {
        let run = |budget: usize| -> HashMap<TenantId, Vec<(u64, Vec<u32>)>> {
            let prepared = Arc::new(
                PreparedGraph::with_sampler(g.clone(), &spec, sampling_config(budget)).unwrap(),
            );
            let mut svc = mixed(&prepared, &spec, mode);
            let mut done: Vec<CompletedWalk> = Vec::new();
            for chunk_start in (0..90).step_by(15) {
                for (tid, pool) in &pools {
                    let chunk = &pool.queries()[chunk_start..chunk_start + 15];
                    let mut offset = 0;
                    while offset < chunk.len() {
                        offset += svc.submit(*tid, &chunk[offset..]);
                        done.extend(svc.tick());
                    }
                }
            }
            done.extend(svc.drain());
            assert_eq!(
                done.len(),
                tenants.len() * 90,
                "{mode:?}: every query answered"
            );
            by_tenant(&done)
        };
        let want = run(0);
        assert_eq!(
            run(8 << 10),
            want,
            "{mode:?}: eviction pressure changed a walk"
        );
        assert_eq!(run(8 << 20), want, "{mode:?}: warm cache changed a walk");
    }
}

/// Satellite 2c: the same invariance under *routed* execution — an
/// adaptive load-aware policy over the mixed fleet places and re-places
/// tenants identically at every cache budget (the budget moves no
/// logical tick), so the delivered multisets match exactly.
#[test]
fn routed_mixed_fleet_conserves_walks_across_cache_budgets() {
    let g = RmatConfig::graph500(9, 8)
        .seed(31)
        .generate()
        .with_weights(weights::thunder_rw(17));
    let spec = WalkSpec::node2vec(12, Node2VecMethod::Reservoir);
    let tenants = [TenantId(2), TenantId(9), TenantId(40)];
    let pools = tenant_pools(g.vertex_count(), &tenants, 60);

    let run = |budget: usize| -> HashMap<TenantId, Vec<(u64, Vec<u32>)>> {
        let prepared = Arc::new(
            PreparedGraph::with_sampler(g.clone(), &spec, sampling_config(budget)).unwrap(),
        );
        let policy = AdaptivePolicy::new(AdaptiveConfig {
            min_dwell_ticks: 4,
            ..AdaptiveConfig::default()
        });
        let mut router = Router::new(mixed(&prepared, &spec, AccelShardMode::Incremental), policy);
        let mut done: Vec<CompletedWalk> = Vec::new();
        for chunk_start in (0..60).step_by(12) {
            for (tid, pool) in &pools {
                let chunk = &pool.queries()[chunk_start..chunk_start + 12];
                let mut offset = 0;
                while offset < chunk.len() {
                    offset += router.submit(*tid, &chunk[offset..]);
                    done.extend(router.tick());
                }
            }
        }
        done.extend(router.drain());
        assert_eq!(
            done.len(),
            tenants.len() * 60,
            "every routed query answered"
        );
        by_tenant(&done)
    };

    let want = run(0);
    assert_eq!(
        run(8 << 10),
        want,
        "routed + thrashing cache changed a walk"
    );
    assert_eq!(run(8 << 20), want, "routed + warm cache changed a walk");
}
