//! Accelerator-backed shards, with the poll policy selected at runtime.
//!
//! The serving layer is generic over `B: WalkBackend`; this module builds
//! shards per deployment instead of per type. Every accelerator shard is
//! one persistent `ridgewalker::AcceleratorBackend`; [`AccelShardMode`]
//! only sets how far a poll advances it, so it changes simulated timing,
//! never walk content. Shards ship as `Box<dyn WalkBackend + Send>`, so a
//! fleet can mix modes — or mix accelerator and CPU shards — behind one
//! [`Driver`].
//!
//! # Thread-safety audit (threads executor)
//!
//! Every shard backend built here is **owned outright by its shard
//! runner** and moves onto a worker thread under
//! [`DriverMode::Threaded`](crate::DriverMode::Threaded), so the `Send`
//! story is exactly the `DynWalkBackend` bound (`Box<dyn WalkBackend +
//! Send>`): accelerator shards each own their whole cycle-level machine
//! (per-shard `Accelerator::new`, nothing shared), CPU shards own their
//! `ReferenceBackend` and its per-worker sampler runtimes (a multi-worker
//! poll lends them to scoped threads that end with the poll), and the one
//! piece of genuinely shared state — the prepared graph — travels as
//! `Arc<PreparedGraph>` (immutable after build, `Sync`). Sinks never
//! cross threads: the coordinator delivers every walk on the caller's
//! thread, so a sink only needs `Send` to live inside the [`Driver`]
//! itself.
//!
//! # Seeds
//!
//! Every shard of a fleet, accelerator or CPU, shares one walk *seed
//! value* (plain `u64` copies, no RNG state aliasing). Every backend keys
//! hop `h` of query `q` by `(seed, q, h)` ([`grw_rng::WalkKey`]), so a
//! query's path does not depend on which shard — of which class, on which
//! thread — serves it, nor on the order in which shards were appended or
//! retired.

use crate::{Driver, ServiceConfig};
use grw_algo::{PreparedGraph, ReferenceBackend, WalkBackend, WalkSpec};
use ridgewalker::Accelerator;
use std::sync::Arc;

/// How far one poll advances an accelerator shard's machine.
///
/// Both modes run one persistent machine per shard, and a query's
/// randomness is keyed by the seed and its id, so a query walks the same
/// path in either mode: the mode changes simulated timing only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccelShardMode {
    /// Every poll runs the machine until it holds no work (an unbounded
    /// [`poll_quantum`](ridgewalker::AcceleratorConfig::poll_quantum)), so
    /// every micro-batch pays pipeline fill at its head and drain at its
    /// tail — the LightRW-style per-batch bubble cost.
    Batch,
    /// Every poll advances the configured poll quantum; queries join the
    /// running pipeline at the next issue slot, so sustained load never
    /// re-pays fill/drain. Prefer this under continuous traffic.
    #[default]
    Incremental,
}

/// A runtime-selected shard backend.
pub type DynWalkBackend = Box<dyn WalkBackend + Send>;

/// What one shard of a heterogeneous fleet is made of.
///
/// A fleet plan is a `&[ShardSpec]`, one entry per shard — e.g. two
/// incremental accelerator shards fronted by two CPU overflow shards:
///
/// ```text
/// [Accel(Incremental), Accel(Incremental), Cpu{..}, Cpu{..}]
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSpec {
    /// A cycle-level accelerator shard in the given execution mode.
    Accel(AccelShardMode),
    /// A software shard: a [`ReferenceBackend`] on `threads` workers.
    /// `poll_chunk` bounds the queries each worker executes per service
    /// tick, which sets the shard's tick-time service rate (`threads ×
    /// poll_chunk` per tick) — the knob that makes CPU shards
    /// meaningfully slower (or faster) than accelerator shards in
    /// simulated time.
    Cpu {
        /// Worker threads.
        threads: usize,
        /// Queries each worker executes per poll.
        poll_chunk: usize,
    },
}

/// Builds a [`Driver`] over a *heterogeneous* fleet, on the executor
/// [`ServiceConfig::driver`] selects: shard `i` is whatever `plan[i]`
/// says — accelerator shards (batch or incremental mode) mixed with CPU
/// [`ReferenceBackend`] shards. Shard composition, seeds and walk output
/// are identical under both executors (see the
/// [thread-safety audit](self#thread-safety-audit-threads-executor)).
///
/// Every shard walks under the same `seed` (the accelerator shards'
/// machines take it in place of their configuration's seed), and every
/// backend keys its randomness by `(seed, query id)`, so a query's path
/// is identical no matter *which* shard, of either class, serves it —
/// placement policies can move tenants across the fleet without changing
/// walk output (the multiset-parity property the routing tests pin
/// down).
///
/// # Panics
///
/// Panics if `plan.len() != cfg.shards`, if the plan is empty, or if a
/// CPU spec has zero threads or poll chunk.
pub fn mixed_fleet_driver(
    cfg: ServiceConfig,
    accel: &Accelerator,
    prepared: Arc<PreparedGraph>,
    spec: &WalkSpec,
    plan: &[ShardSpec],
    seed: u64,
) -> Driver<DynWalkBackend> {
    Driver::new(cfg, fleet_factory(cfg, accel, prepared, spec, plan, seed))
}

/// The shard factory behind the fleet constructors: shard `i` becomes
/// whatever `plan[i]` says, whichever executor will run it.
fn fleet_factory(
    cfg: ServiceConfig,
    accel: &Accelerator,
    prepared: Arc<PreparedGraph>,
    spec: &WalkSpec,
    plan: &[ShardSpec],
    seed: u64,
) -> impl FnMut(usize) -> DynWalkBackend {
    assert_eq!(
        plan.len(),
        cfg.shards,
        "fleet plan must name exactly one spec per shard"
    );
    let base = *accel.config();
    let spec = spec.clone();
    let plan: Vec<ShardSpec> = plan.to_vec();
    move |shard| shard_backend_from(base, prepared.clone(), &spec, plan[shard], seed)
}

/// The backend a shard of spec `shard_spec` receives in any fleet built
/// from these ingredients — the single-shard form of the fleet
/// constructors, public so elastic fleets can *append* shards after
/// construction ([`crate::Driver::append_shard`]): an appended shard is
/// indistinguishable from one a fleet was born with.
///
/// `shard`, the index the shard takes in its fleet, is unused: every
/// shard walks under the one fleet `seed`, whatever its index.
pub fn shard_backend(
    accel: &Accelerator,
    prepared: Arc<PreparedGraph>,
    spec: &WalkSpec,
    shard_spec: ShardSpec,
    _shard: usize,
    seed: u64,
) -> DynWalkBackend {
    shard_backend_from(*accel.config(), prepared, spec, shard_spec, seed)
}

fn shard_backend_from(
    base: ridgewalker::AcceleratorConfig,
    prepared: Arc<PreparedGraph>,
    spec: &WalkSpec,
    shard_spec: ShardSpec,
    seed: u64,
) -> DynWalkBackend {
    match shard_spec {
        ShardSpec::Accel(mode) => {
            let cfg = base.seed(seed);
            let cfg = match mode {
                AccelShardMode::Batch => cfg.poll_quantum(u64::MAX),
                AccelShardMode::Incremental => cfg,
            };
            Box::new(Accelerator::new(cfg).backend(prepared, spec))
        }
        ShardSpec::Cpu {
            threads,
            poll_chunk,
        } => Box::new(
            ReferenceBackend::new(prepared, spec.clone(), seed)
                .threads(threads)
                .poll_chunk(threads * poll_chunk),
        ) as DynWalkBackend,
    }
}

/// Builds a [`Driver`] whose shards are accelerator instances in the
/// chosen execution `mode`, sharing one prepared graph, on the executor
/// [`ServiceConfig::driver`] selects. Every shard's machine walks under
/// the accelerator configuration's seed, so a query walks the same path
/// on whichever shard serves it.
pub fn accelerator_driver(
    cfg: ServiceConfig,
    accel: &Accelerator,
    prepared: Arc<PreparedGraph>,
    spec: &WalkSpec,
    mode: AccelShardMode,
) -> Driver<DynWalkBackend> {
    // A homogeneous fleet is the all-accelerator special case of the
    // mixed constructor.
    let plan = vec![ShardSpec::Accel(mode); cfg.shards];
    let seed = accel.config().seed;
    mixed_fleet_driver(cfg, accel, prepared, spec, &plan, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TenantId;
    use grw_algo::QuerySet;
    use grw_graph::generators::{Dataset, ScaleFactor};
    use ridgewalker::AcceleratorConfig;

    fn setup() -> (Arc<PreparedGraph>, WalkSpec) {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(10);
        (Arc::new(PreparedGraph::new(g, &spec).unwrap()), spec)
    }

    #[test]
    fn both_modes_answer_every_query_and_report_cycles() {
        let (prepared, spec) = setup();
        let accel = Accelerator::new(AcceleratorConfig::new().pipelines(2));
        let mut walks = Vec::new();
        for mode in [AccelShardMode::Batch, AccelShardMode::Incremental] {
            let mut svc = accelerator_driver(
                ServiceConfig::new(2).max_batch(64),
                &accel,
                prepared.clone(),
                &spec,
                mode,
            );
            let qs = QuerySet::random(prepared.graph().vertex_count(), 500, 9);
            let mut done = Vec::new();
            for wave in qs.queries().chunks(100) {
                assert_eq!(svc.submit(TenantId(4), wave), wave.len(), "{mode:?}");
                done.extend(svc.tick());
            }
            done.extend(svc.drain());
            assert_eq!(done.len(), 500, "{mode:?}");
            let stats = svc.stats();
            assert!(stats.simulated_cycles.unwrap() > 0, "{mode:?}");
            assert!(stats.msteps_per_sec_simulated.unwrap() > 0.0, "{mode:?}");
            assert!(stats.pipeline_bubble_ratio.is_some(), "{mode:?}");
            assert!(stats.pipeline_utilization.unwrap() > 0.0, "{mode:?}");
            let mut paths: Vec<_> = done.into_iter().map(|c| c.path).collect();
            paths.sort_by_key(|w| w.query);
            walks.push(paths);
        }
        assert_eq!(walks[0], walks[1], "the shard mode changes timing only");
    }

    /// A batch shard keys each query by its id, not by its position in
    /// its micro-batch: two queries from the same start, each the first of
    /// its own batch, walk differently.
    #[test]
    fn batch_shard_does_not_replay_a_walk_per_batch_position() {
        let (prepared, spec) = setup();
        let g = prepared.graph();
        let hub = (0..g.vertex_count() as u32)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        let accel = Accelerator::new(AcceleratorConfig::new().pipelines(2));
        let batch = ShardSpec::Accel(AccelShardMode::Batch);
        let mut shard = shard_backend(&accel, prepared.clone(), &spec, batch, 0, 0);
        let mut walk = |id| {
            let q = grw_algo::WalkQuery { id, start: hub };
            assert_eq!(shard.submit(&[q]), 1);
            let mut done = shard.poll();
            assert_eq!(done.len(), 1, "a batch poll finishes its batch");
            done.pop().unwrap().vertices
        };
        let first = walk(0);
        let second = walk(1);
        assert_eq!(first[0], second[0]);
        assert_ne!(first, second, "each batch replayed the same draws");
    }

    #[test]
    fn mixed_fleet_serves_and_reports_per_shard_classes() {
        use grw_algo::BackendClass;
        let (prepared, spec) = setup();
        let accel = Accelerator::new(AcceleratorConfig::new().pipelines(2));
        let plan = [
            ShardSpec::Accel(AccelShardMode::Incremental),
            ShardSpec::Accel(AccelShardMode::Batch),
            ShardSpec::Cpu {
                threads: 2,
                poll_chunk: 8,
            },
        ];
        let mut svc = mixed_fleet_driver(
            ServiceConfig::new(3).max_batch(32),
            &accel,
            prepared.clone(),
            &spec,
            &plan,
            0xC0FFEE,
        );
        let qs = QuerySet::random(prepared.graph().vertex_count(), 400, 5);
        assert_eq!(svc.submit(TenantId(2), qs.queries()), 400);
        let done = svc.drain();
        assert_eq!(done.len(), 400);
        let snaps = svc.shard_snapshots();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].class, BackendClass::Accelerator);
        assert_eq!(snaps[1].class, BackendClass::Accelerator);
        assert_eq!(snaps[2].class, BackendClass::Cpu);
        assert!(
            snaps[0].telemetry.occupancy_split.is_some(),
            "incremental shard reports its occupancy split"
        );
        for s in &snaps {
            assert_eq!(s.backlog(), 0, "drained fleet holds nothing");
            assert!(s.completed > 0, "hash spreads over every shard");
            assert!(s.ewma_latency_ticks.is_some());
            assert!(s.cost_hint > 0.0);
        }
        // A mixed fleet cannot merge cycle clocks (the CPU shard has
        // none), so simulated throughput is unavailable — by design.
        assert!(svc.stats().simulated_cycles.is_none());
    }

    #[test]
    fn submit_routed_pins_queries_to_the_chosen_shard() {
        let (prepared, spec) = setup();
        let accel = Accelerator::new(AcceleratorConfig::new().pipelines(2));
        let plan = [
            ShardSpec::Accel(AccelShardMode::Incremental),
            ShardSpec::Cpu {
                threads: 1,
                poll_chunk: 64,
            },
        ];
        let mut svc = mixed_fleet_driver(
            ServiceConfig::new(2).max_batch(16),
            &accel,
            prepared.clone(),
            &spec,
            &plan,
            7,
        );
        let qs = QuerySet::random(prepared.graph().vertex_count(), 100, 8);
        assert_eq!(svc.submit_routed(TenantId(1), qs.queries(), 1), 100);
        assert_eq!(svc.drain().len(), 100);
        let snaps = svc.shard_snapshots();
        assert_eq!(snaps[0].submitted, 0, "nothing hashed to shard 0");
        assert_eq!(snaps[1].submitted, 100);
        assert_eq!(snaps[1].completed, 100);
        let stats = svc.stats();
        assert_eq!(stats.per_tenant.len(), 1);
        assert_eq!(stats.per_tenant[0].completed, 100);
    }

    #[test]
    fn incremental_service_is_deterministic_for_a_fixed_schedule() {
        let (prepared, spec) = setup();
        let accel = Accelerator::new(AcceleratorConfig::new().pipelines(2));
        let run = || {
            let mut svc = accelerator_driver(
                ServiceConfig::new(2).max_batch(32).max_delay_ticks(1),
                &accel,
                prepared.clone(),
                &spec,
                AccelShardMode::Incremental,
            );
            let qs = QuerySet::random(prepared.graph().vertex_count(), 300, 2);
            let mut out = Vec::new();
            for chunk in qs.queries().chunks(50) {
                assert_eq!(svc.submit(TenantId(1), chunk), 50);
                out.extend(svc.tick());
            }
            out.extend(svc.drain());
            out.sort_by_key(|c| c.path.query);
            out
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), 300);
        assert_eq!(a, b);
    }

    /// A CPU shard polls `threads × poll_chunk` queries per poll, in
    /// submission order, whatever the split: this rate is the CPU shards'
    /// tick service rate in a mixed fleet.
    #[test]
    fn cpu_shard_polls_threads_times_chunk_in_submission_order() {
        let (prepared, spec) = setup();
        let accel = Accelerator::new(AcceleratorConfig::new());
        let qs = QuerySet::random(prepared.graph().vertex_count(), 18, 3);
        let polls = |threads, poll_chunk| {
            let cpu = ShardSpec::Cpu {
                threads,
                poll_chunk,
            };
            let mut b = shard_backend(&accel, prepared.clone(), &spec, cpu, 0, 11);
            assert_eq!(b.submit(qs.queries()), 18);
            (0..3).map(|_| b.poll()).collect::<Vec<_>>()
        };
        let split = polls(2, 3);
        for (poll, ids) in split.iter().zip(qs.queries().chunks(6)) {
            let got: Vec<u64> = poll.iter().map(|w| w.query).collect();
            let want: Vec<u64> = ids.iter().map(|q| q.id).collect();
            assert_eq!(got, want);
        }
        assert_eq!(split, polls(1, 6));
    }
}
