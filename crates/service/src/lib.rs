//! # grw_service — a sharded, multi-tenant walk-serving layer
//!
//! The ROADMAP north star is a production-scale system serving heavy walk
//! traffic. This crate is that serving layer, built entirely on the
//! streaming [`WalkBackend`](grw_algo::WalkBackend) interface from
//! `grw_algo`:
//!
//! * **Sharding** — N backend shards, each bound to the shared graph
//!   (`Arc<PreparedGraph>` fits the backend's `Borrow` bound), with
//!   queries partitioned by a hash of their start vertex. Any backend
//!   works: the software executor ([`grw_algo::ReferenceBackend`]), the
//!   cycle-level accelerator (`ridgewalker::AcceleratorBackend`), or a
//!   mix via trait objects.
//! * **Micro-batching** — a coalescing front-end parks incoming queries
//!   per shard and flushes size- or deadline-bounded micro-batches
//!   ([`FlushReason`]), the standard latency/throughput trade of a
//!   high-traffic serving tier.
//! * **Multi-tenancy** — tenants submit queries with their own id spaces;
//!   the service namespaces ids ([`TenantId::namespace`]) on the way in
//!   and routes every completed path back to its tenant on the way out.
//! * **Result streaming** — completed walks can stream into bounded
//!   [`WalkSink`] consumers ([`Driver::tick_into`],
//!   [`Driver::attach_sink`]) instead of accumulating in returned
//!   `Vec`s, with a conservation guarantee (every delivered walk reaches
//!   exactly one sink route exactly once) and a bounded spill buffer
//!   absorbing sink backpressure. Concrete sinks (skip-gram corpora, PPR
//!   aggregation, histograms, per-tenant fan-out) live in the `grw_sink`
//!   crate.
//! * **One coordinator, two executors** — the [`Driver`] does tenant
//!   namespacing, the logical clock, admission, delivery, stats and
//!   observability once, over the per-shard step logic in one
//!   `ShardRunner` unit. [`DriverMode`] picks who hosts the runners:
//!   the inline executor steps them on the caller's thread
//!   (bit-deterministic), the threads executor gives every shard its own
//!   OS thread behind bounded command queues (wall-clock overlap). For a
//!   fixed seed and submission sequence both produce the same multiset of
//!   completed walks, tick stamps included.
//! * **Observability** — [`ServiceStats`]: throughput in MStep/s (wall
//!   time, plus simulated time when backends report cycles), wall-clock
//!   walks/s, queue depth (total and per shard), micro-batch p50/p99
//!   latency, per-query end-to-end latency (arrival → delivery,
//!   bounded-reservoir percentiles plus exact mean/max), flush-reason
//!   and shard-balance breakdowns. Every [`CompletedWalk`] also carries
//!   its own arrival/flush/delivery tick stamps for exact per-query
//!   measurement.
//!
//! Time is a logical *tick*: every [`Driver::tick`] call advances the
//! deadline clock, flushes what is due, and polls every shard. Paths are
//! therefore a deterministic function of the submission/tick sequence —
//! wall time only shows up in the latency statistics.
//!
//! # Example
//!
//! ```
//! use grw_algo::{PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};
//! use grw_graph::CsrGraph;
//! use grw_service::{Driver, ServiceConfig, TenantId};
//! use std::sync::Arc;
//!
//! let g = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)], true);
//! let spec = WalkSpec::urw(6);
//! let prepared = Arc::new(PreparedGraph::new(g, &spec).unwrap());
//! let mut service = Driver::new(ServiceConfig::new(2), |shard| {
//!     ReferenceBackend::new(prepared.clone(), spec.clone(), 0xFEED ^ shard as u64).threads(2)
//! });
//!
//! let queries = QuerySet::random(8, 100, 1);
//! let accepted = service.submit(TenantId(7), queries.queries());
//! assert_eq!(accepted, 100);
//! let done = service.drain();
//! assert_eq!(done.len(), 100);
//! assert!(done.iter().all(|c| c.tenant == TenantId(7)));
//! println!("{}", service.stats());
//! ```

pub mod accel;
mod batch;
pub mod driver;
mod mpsc;
mod runner;
pub mod sink;
mod stats;
mod tenant;
mod threaded;

pub use accel::{
    accelerator_driver, mixed_fleet_driver, shard_backend, AccelShardMode, DynWalkBackend,
    ShardSpec,
};
pub use batch::FlushReason;
pub use driver::Driver;
pub use sink::{SinkAck, SinkReport, WalkSink};
pub use stats::{percentile, ServiceStats, TenantStats};
pub use tenant::{TenantId, LOCAL_ID_BITS, MAX_LOCAL_ID};

use grw_algo::{BackendClass, BackendTelemetry, WalkPath};

/// Smoothing factor for the per-shard latency EWMA: each delivery moves
/// the estimate 1/8 of the way to its own latency — responsive enough for
/// load-aware routing, smooth enough to ride out single-batch noise.
const LATENCY_EWMA_ALPHA: f64 = 0.125;

/// Which executor hosts the per-shard runners under the one
/// [`Driver`] coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriverMode {
    /// The inline executor: shards step on the caller's thread in index
    /// order, completions are bit-deterministic, and wall-clock
    /// parallelism is zero. The right choice for tests, baselines, and
    /// simulation studies.
    #[default]
    Deterministic,
    /// The threads executor: one OS thread per shard behind bounded
    /// command queues, ticks pipelined one deep. Same walks (multiset
    /// equality per tenant, paths and tick stamps included), real
    /// wall-clock overlap across shards. The right choice for serving
    /// actual traffic.
    Threaded,
}

/// Configuration of a [`Driver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of backend shards.
    pub shards: usize,
    /// Micro-batch size bound: a shard flushes as soon as this many
    /// queries have coalesced.
    pub max_batch: usize,
    /// Micro-batch deadline bound, in service ticks: a non-empty buffer
    /// never waits longer than this.
    pub max_delay_ticks: u64,
    /// Per-shard coalescing-buffer capacity (the service-level
    /// backpressure point).
    pub buffer_capacity: usize,
    /// Capacity of each latency reservoir (bounded uniform samples behind
    /// the percentile statistics; memory stays O(capacity) for week-long
    /// runs).
    pub latency_reservoir: usize,
    /// Completed walks the service will hold for a backpressured sink
    /// before forcing a flush — the delivery-side bound on resident
    /// paths when streaming through [`WalkSink`]s.
    pub sink_spill_capacity: usize,
    /// Event capacity of the observability journal built by
    /// [`Driver::attach_fresh_obs`].
    /// A run that outgrows it keeps the newest events and *counts* the
    /// drop (surfaced by `obsdump` as a warning banner) — overflow is
    /// never silent. Raise it for figure-scale runs whose traces must
    /// stay complete.
    pub journal_capacity: usize,
    /// Which executor [`Driver::new`] (and the fleet constructors
    /// [`mixed_fleet_driver`] / [`accelerator_driver`]) runs the shards
    /// on.
    pub driver: DriverMode,
}

impl ServiceConfig {
    /// A sensible default configuration with `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self {
            shards,
            max_batch: 256,
            max_delay_ticks: 4,
            buffer_capacity: 1024,
            latency_reservoir: 4096,
            sink_spill_capacity: 1024,
            journal_capacity: grw_obs::DEFAULT_JOURNAL_CAPACITY,
            driver: DriverMode::Deterministic,
        }
    }

    /// Sets the micro-batch size bound.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn max_batch(mut self, n: usize) -> Self {
        assert!(n > 0, "micro-batch size must be positive");
        self.max_batch = n;
        self
    }

    /// Sets the micro-batch deadline bound in ticks.
    pub fn max_delay_ticks(mut self, ticks: u64) -> Self {
        self.max_delay_ticks = ticks;
        self
    }

    /// Sets the per-shard buffer capacity.
    ///
    /// # Panics
    ///
    /// Panics if `n < max_batch` (a buffer must hold one full batch).
    pub fn buffer_capacity(mut self, n: usize) -> Self {
        assert!(n >= self.max_batch, "buffer must hold one full batch");
        self.buffer_capacity = n;
        self
    }

    /// Sets the latency-reservoir capacity.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn latency_reservoir(mut self, n: usize) -> Self {
        assert!(n > 0, "reservoir capacity must be positive");
        self.latency_reservoir = n;
        self
    }

    /// Sets the sink spill-buffer capacity (resident completed walks the
    /// service holds for a backpressured sink).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn sink_spill_capacity(mut self, n: usize) -> Self {
        assert!(n > 0, "spill capacity must be positive");
        self.sink_spill_capacity = n;
        self
    }

    /// Sets the event capacity of the journal behind
    /// [`Driver::attach_fresh_obs`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn journal_capacity(mut self, n: usize) -> Self {
        assert!(n > 0, "journal capacity must be positive");
        self.journal_capacity = n;
        self
    }

    /// Selects the executor.
    pub fn driver_mode(mut self, mode: DriverMode) -> Self {
        self.driver = mode;
        self
    }
}

/// A completed walk, routed back to the tenant that asked for it.
///
/// `path.query` is the *tenant-local* query id again — the namespacing
/// applied at submission is undone before delivery.
///
/// The three tick stamps trace the query through the serving tier:
/// accepted at `arrival_tick`, flushed to a backend at `flushed_tick`,
/// delivered at `completed_tick` — so end-to-end latency and its batching
/// component are both observable per query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedWalk {
    /// The tenant that submitted the query.
    pub tenant: TenantId,
    /// The walk, keyed by the tenant's own query id.
    pub path: WalkPath,
    /// Service tick at which the query was accepted.
    pub arrival_tick: u64,
    /// Service tick at which its micro-batch was flushed to a backend.
    pub flushed_tick: u64,
    /// Service tick at which the path was delivered. Queries delivered by
    /// [`Driver::drain`] carry the tick current when drain ran (drain
    /// does not advance the clock).
    pub completed_tick: u64,
}

impl CompletedWalk {
    /// End-to-end latency in service ticks (arrival → delivery).
    pub fn latency_ticks(&self) -> u64 {
        self.completed_tick - self.arrival_tick
    }

    /// Ticks spent coalescing in the micro-batch buffer (arrival → flush);
    /// always ≤ [`latency_ticks`](Self::latency_ticks).
    pub fn batching_delay_ticks(&self) -> u64 {
        self.flushed_tick - self.arrival_tick
    }
}

/// A point-in-time, per-shard view of the live signals a routing tier
/// places tenants with: what the shard is (class, static cost prior),
/// how loaded it is (coalescing-buffer depth, backend residency), and
/// how it has been performing (per-shard latency EWMA, the backend's
/// telemetry, which also carries the awaiting/executing residency split
/// and the pipeline-cycle breakdown where the backend reports them).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Shard index within the service.
    pub shard: usize,
    /// Execution substrate of the shard's backend.
    pub class: BackendClass,
    /// The backend's static relative cost prior (lower = cheaper).
    pub cost_hint: f64,
    /// Queries parked in the shard's coalescing buffer.
    pub queued: usize,
    /// Queries resident inside the backend (accepted, not yet returned).
    pub in_flight: usize,
    /// Queries routed to this shard since the service started.
    pub submitted: u64,
    /// Walks this shard has delivered.
    pub completed: u64,
    /// EWMA of per-query end-to-end latency delivered by this shard, in
    /// ticks; `None` until the first delivery.
    pub ewma_latency_ticks: Option<f64>,
    /// The shard backend's cumulative telemetry: steps, simulated cycles
    /// and clock, pipeline breakdown, occupancy split, sampling-kernel
    /// counters.
    pub telemetry: BackendTelemetry,
}

impl ShardSnapshot {
    /// Total queries this shard is responsible for right now (parked in
    /// its buffer plus resident in its backend).
    pub fn backlog(&self) -> usize {
        self.queued + self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_algo::{PreparedGraph, QuerySet, ReferenceBackend, WalkQuery, WalkSpec};
    use grw_graph::generators::{Dataset, ScaleFactor};
    use std::sync::Arc;

    fn shared() -> (Arc<PreparedGraph>, WalkSpec) {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(8);
        (Arc::new(PreparedGraph::new(g, &spec).unwrap()), spec)
    }

    fn service(
        shards: usize,
        cfg: ServiceConfig,
    ) -> (
        Driver<ReferenceBackend<Arc<PreparedGraph>>>,
        Arc<PreparedGraph>,
    ) {
        let (p, spec) = shared();
        let prepared = p.clone();
        let svc = Driver::new(cfg.max_batch(32), move |shard| {
            ReferenceBackend::new(prepared.clone(), spec.clone(), 0xBEEF ^ shard as u64).threads(2)
        });
        assert_eq!(svc.stats().shards, shards);
        (svc, p)
    }

    #[test]
    fn every_query_is_answered_exactly_once_for_its_tenant() {
        let (mut svc, p) = service(3, ServiceConfig::new(3));
        let nv = p.graph().vertex_count();
        let tenants = [TenantId(0), TenantId(1), TenantId(9)];
        let mut expected = std::collections::HashSet::new();
        for (i, &t) in tenants.iter().enumerate() {
            let qs = QuerySet::random(nv, 200, i as u64);
            assert_eq!(svc.submit(t, qs.queries()), 200);
            for q in qs.queries() {
                expected.insert((t, q.id));
            }
        }
        let mut done = Vec::new();
        for _ in 0..3 {
            done.extend(svc.tick());
        }
        done.extend(svc.drain());
        assert_eq!(done.len(), 600);
        let mut seen = std::collections::HashSet::new();
        for c in &done {
            assert!(
                seen.insert((c.tenant, c.path.query)),
                "duplicate delivery {:?}/{}",
                c.tenant,
                c.path.query
            );
        }
        assert_eq!(seen, expected, "every query answered exactly once");
        assert_eq!(svc.queue_depth(), 0);
        let stats = svc.stats();
        assert_eq!(stats.completed, 600);
        assert_eq!(stats.per_shard_submitted.iter().sum::<u64>(), 600);
        assert!(
            stats.per_shard_submitted.iter().all(|&n| n > 0),
            "hash balance"
        );
    }

    #[test]
    fn paths_are_deterministic_across_runs_and_backend_kinds() {
        let run = || {
            let (mut svc, _) = service(2, ServiceConfig::new(2));
            let qs = QuerySet::random(100, 300, 7);
            svc.submit(TenantId(3), qs.queries());
            let mut out = svc.drain();
            out.sort_by_key(|c| c.path.query);
            out
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        // Same sharding and seeds but sequential reference backends:
        // bit-identical, because software backends key RNG by (seed, id).
        let (p, spec) = shared();
        let prepared = p.clone();
        let mut svc = Driver::new(ServiceConfig::new(2).max_batch(32), move |shard| {
            ReferenceBackend::new(prepared.clone(), spec.clone(), 0xBEEF ^ shard as u64)
        });
        let qs = QuerySet::random(100, 300, 7);
        svc.submit(TenantId(3), qs.queries());
        let mut c = svc.drain();
        c.sort_by_key(|x| x.path.query);
        let a_paths: Vec<_> = a.iter().map(|x| &x.path).collect();
        let c_paths: Vec<_> = c.iter().map(|x| &x.path).collect();
        assert_eq!(a_paths, c_paths);
    }

    #[test]
    fn deadline_flushes_a_trickle() {
        let (mut svc, _) = service(2, ServiceConfig::new(2).max_delay_ticks(3));
        // One lonely query: far below max_batch.
        svc.submit(TenantId(0), &[WalkQuery { id: 1, start: 5 }]);
        assert!(svc.tick().is_empty());
        assert!(svc.tick().is_empty());
        let done = svc.tick(); // deadline reached -> flush + poll
        assert_eq!(done.len(), 1, "deadline must flush a below-size batch");
        assert_eq!(svc.stats().flushed_by_deadline, 1);
    }

    #[test]
    fn backpressure_stops_acceptance_prefix_wise() {
        let (p, spec) = shared();
        let prepared = p.clone();
        // Tiny backend queues + tiny buffers force pushback.
        let mut svc = Driver::new(
            ServiceConfig::new(1).max_batch(4).buffer_capacity(4),
            move |_| ReferenceBackend::new(prepared.clone(), spec.clone(), 1).queue_capacity(4),
        );
        let qs = QuerySet::random(50, 100, 2);
        let accepted = svc.submit(TenantId(0), qs.queries());
        assert!(
            accepted < 100,
            "bounded service must push back, took {accepted}"
        );
        let done = svc.drain();
        assert_eq!(done.len(), accepted);
        // The rejected suffix can be resubmitted afterwards.
        let rest = svc.submit(TenantId(0), &qs.queries()[accepted..]);
        assert!(rest > 0);
        assert_eq!(svc.drain().len(), rest);
    }

    #[test]
    fn stats_track_throughput_and_latency() {
        let (mut svc, _) = service(2, ServiceConfig::new(2));
        let qs = QuerySet::random(100, 400, 3);
        svc.submit(TenantId(5), qs.queries());
        let done = svc.drain();
        let stats = svc.stats();
        assert_eq!(stats.completed, 400);
        assert!(
            stats.batches_flushed >= 12,
            "32-sized batches over 400 queries"
        );
        assert!(stats.steps > 0);
        let expected_steps: u64 = done.iter().map(|c| c.path.steps()).sum();
        assert_eq!(stats.steps, expected_steps);
        assert!(stats.msteps_per_sec_wall > 0.0);
        assert!(stats.p99_batch_latency_us >= stats.p50_batch_latency_us);
        assert!(
            stats.simulated_cycles.is_none(),
            "software backends report no cycle clock"
        );
    }

    #[test]
    fn per_query_latency_spans_batching_delay() {
        let (mut svc, p) = service(2, ServiceConfig::new(2).max_delay_ticks(2));
        let nv = p.graph().vertex_count();
        // Trickle queries over several ticks so arrival ticks differ.
        let qs = QuerySet::random(nv, 120, 4);
        let mut done = Vec::new();
        for chunk in qs.queries().chunks(10) {
            assert_eq!(svc.submit(TenantId(2), chunk), 10);
            done.extend(svc.tick());
        }
        done.extend(svc.drain());
        assert_eq!(done.len(), 120);
        for c in &done {
            assert!(
                c.arrival_tick <= c.flushed_tick && c.flushed_tick <= c.completed_tick,
                "tick stamps must be ordered: {c:?}"
            );
            assert!(c.latency_ticks() >= c.batching_delay_ticks());
        }
        let stats = svc.stats();
        let exact_mean =
            done.iter().map(|c| c.latency_ticks()).sum::<u64>() as f64 / done.len() as f64;
        assert!((stats.mean_query_latency_ticks - exact_mean).abs() < 1e-9);
        let exact_max = done.iter().map(|c| c.latency_ticks()).max().unwrap();
        assert_eq!(stats.max_query_latency_ticks, exact_max);
        assert!(stats.p99_query_latency_ticks >= stats.p50_query_latency_ticks);
    }

    #[test]
    fn latency_reservoir_stays_bounded() {
        let (mut svc, p) = service(2, ServiceConfig::new(2).latency_reservoir(32));
        let nv = p.graph().vertex_count();
        let qs = QuerySet::random(nv, 500, 6);
        svc.submit(TenantId(1), qs.queries());
        let done = svc.drain();
        assert_eq!(done.len(), 500);
        let stats = svc.stats();
        // Percentiles still come out despite only 32 retained samples, and
        // the exact aggregates cover all 500 deliveries.
        assert_eq!(stats.completed, 500);
        assert!(stats.p99_query_latency_ticks >= stats.p50_query_latency_ticks);
        assert!(stats.mean_query_latency_ticks >= 0.0);
    }

    #[test]
    fn duplicate_local_ids_on_different_shards_stay_separate() {
        let (mut svc, p) = service(2, ServiceConfig::new(2));
        let nv = p.graph().vertex_count() as u32;
        // Two queries sharing one tenant-local id, landing on different
        // shards: batch accounting must not cross-credit them.
        let a = (0..nv).find(|&v| svc.shard_of(v) == 0).unwrap();
        let b = (0..nv).find(|&v| svc.shard_of(v) == 1).unwrap();
        let queries = [WalkQuery { id: 5, start: a }, WalkQuery { id: 5, start: b }];
        assert_eq!(svc.submit(TenantId(1), &queries), 2);
        let done = svc.drain();
        assert_eq!(done.len(), 2);
        let mut starts: Vec<u32> = done.iter().map(|c| c.path.vertices[0]).collect();
        starts.sort_unstable();
        let mut want = vec![a, b];
        want.sort_unstable();
        assert_eq!(starts, want);
        assert!(done.iter().all(|c| c.path.query == 5));
        assert_eq!(svc.stats().batches_flushed, 2);
    }

    /// Test sink: collects walks, optionally refusing while its window
    /// buffer is full (flush moves the window into `taken`).
    struct WindowSink {
        window: Vec<CompletedWalk>,
        taken: Vec<CompletedWalk>,
        capacity: usize,
        refused: u64,
        flushes: u64,
    }

    impl WindowSink {
        fn new(capacity: usize) -> Self {
            Self {
                window: Vec::new(),
                taken: Vec::new(),
                capacity,
                refused: 0,
                flushes: 0,
            }
        }

        fn all(&self) -> Vec<&CompletedWalk> {
            self.taken.iter().chain(self.window.iter()).collect()
        }
    }

    impl WalkSink for WindowSink {
        fn accept(&mut self, walk: &CompletedWalk) -> SinkAck {
            if self.window.len() >= self.capacity {
                self.refused += 1;
                return SinkAck::Backpressured;
            }
            self.window.push(walk.clone());
            SinkAck::Accepted
        }

        fn flush(&mut self) {
            self.flushes += 1;
            self.taken.append(&mut self.window);
        }

        fn report(&self) -> SinkReport {
            SinkReport {
                accepted: (self.taken.len() + self.window.len()) as u64,
                refused: self.refused,
                flushes: self.flushes,
                emitted: self.taken.len() as u64,
                buffered: self.window.len(),
                peak_buffered: self.capacity.min(self.taken.len() + self.window.len()),
            }
        }
    }

    #[test]
    fn tick_into_delivers_the_same_multiset_as_tick() {
        let run_legacy = || {
            let (mut svc, _) = service(2, ServiceConfig::new(2).max_delay_ticks(1));
            let qs = QuerySet::random(100, 200, 5);
            svc.submit(TenantId(3), qs.queries());
            let mut out = Vec::new();
            for _ in 0..6 {
                out.extend(svc.tick());
            }
            out.extend(svc.drain());
            out
        };
        let (mut svc, _) = service(2, ServiceConfig::new(2).max_delay_ticks(1));
        let qs = QuerySet::random(100, 200, 5);
        svc.submit(TenantId(3), qs.queries());
        let mut sink = WindowSink::new(usize::MAX);
        let mut delivered = 0;
        for _ in 0..6 {
            delivered += svc.tick_into(&mut sink);
        }
        delivered += svc.drain_into(&mut sink);
        assert_eq!(delivered, 200);
        let mut legacy = run_legacy();
        let mut sunk: Vec<CompletedWalk> = sink.all().into_iter().cloned().collect();
        legacy.sort_by_key(|c| c.path.query);
        sunk.sort_by_key(|c| c.path.query);
        assert_eq!(legacy, sunk, "sink delivery must match the Vec path");
        let stats = svc.stats();
        assert_eq!(stats.sink_accepted, 200);
        assert_eq!(stats.sink_spilled, 0);
        assert_eq!(stats.sink_spill_depth, 0);
    }

    #[test]
    fn backpressured_sink_spills_within_bound_and_loses_nothing() {
        let (mut svc, _) = service(
            2,
            ServiceConfig::new(2)
                .max_delay_ticks(1)
                .sink_spill_capacity(8),
        );
        let qs = QuerySet::random(100, 300, 9);
        svc.submit(TenantId(1), qs.queries());
        // A sink that takes only 4 walks between flushes: most deliveries
        // bounce at least once.
        let mut sink = WindowSink::new(4);
        let mut delivered = 0;
        loop {
            delivered += svc.tick_into(&mut sink);
            let depth = svc.stats().sink_spill_depth;
            assert!(depth <= 8, "spill must stay bounded, saw {depth}");
            if svc.queue_depth() == 0 {
                break;
            }
        }
        delivered += svc.drain_into(&mut sink);
        assert_eq!(delivered, 300);
        assert_eq!(sink.all().len(), 300, "conservation through backpressure");
        let stats = svc.stats();
        assert_eq!(stats.sink_accepted, 300);
        assert!(stats.sink_backpressured > 0, "tiny sink must push back");
        assert!(stats.sink_spilled > 0);
        assert!(stats.sink_forced_flushes > 0);
        assert_eq!(stats.sink_spill_depth, 0, "drain_into runs the spill dry");
        assert!(svc.stats().to_string().contains("sink delivery"));
    }

    #[test]
    fn attached_sink_makes_tick_and_drain_stream() {
        // Walks of a tick that ran before the subscription stay with the
        // caller under both executors; every later walk streams into it.
        let run = |mode: DriverMode| {
            let (mut svc, _) = service(2, ServiceConfig::new(2).driver_mode(mode));
            let qs = QuerySet::random(100, 150, 8);
            svc.submit(TenantId(2), qs.queries());
            let mut returned = svc.tick();
            svc.attach_sink(Box::new(WindowSink::new(usize::MAX)));
            returned.extend(svc.tick());
            assert!(svc.drain().is_empty(), "subscription swallows deliveries");
            assert_eq!(svc.queue_depth(), 0);
            let report = svc.sink_report().expect("sink attached");
            assert_eq!(report.accepted as usize + returned.len(), 150, "{mode:?}");
            let sink = svc.detach_sink().expect("sink attached");
            assert_eq!(sink.report().accepted, report.accepted);
            assert!(svc.sink_report().is_none());
            // Detached: tick/drain return Vecs again.
            svc.submit(TenantId(2), qs.queries());
            let mut again = svc.tick();
            again.extend(svc.drain());
            assert_eq!(again.len(), 150, "{mode:?}");
            let mut ids: Vec<u64> = returned.iter().map(|c| c.path.query).collect();
            ids.sort_unstable();
            (ids, report.accepted)
        };
        let inline = run(DriverMode::Deterministic);
        assert!(!inline.0.is_empty() && inline.1 > 0, "walks on both routes");
        assert_eq!(run(DriverMode::Threaded), inline, "same routes");
    }

    #[test]
    fn forced_flush_that_unblocks_the_sink_delivers_directly() {
        // Spill capacity below the sink's window: a forced flush empties
        // both, so the walk that triggered it goes straight into the sink
        // instead of waiting a tick in the spill.
        let (mut svc, _) = service(
            1,
            ServiceConfig::new(1)
                .max_delay_ticks(1)
                .sink_spill_capacity(1),
        );
        let qs = QuerySet::random(100, 60, 12);
        svc.submit(TenantId(3), qs.queries());
        let mut sink = WindowSink::new(8);
        while svc.queue_depth() > 0 {
            svc.tick_into(&mut sink);
        }
        svc.drain_into(&mut sink);
        assert_eq!(sink.all().len(), 60, "conservation");
        let stats = svc.stats();
        assert_eq!(stats.sink_accepted, 60);
        assert!(
            stats.sink_forced_flushes > 0,
            "the 1-deep spill forces flushes"
        );
        assert!(
            stats.sink_spilled < 60,
            "unblocking flushes must deliver directly, not re-spill everything"
        );
    }

    #[test]
    fn switching_back_to_vec_delivery_returns_spilled_walks() {
        let (mut svc, _) = service(
            2,
            ServiceConfig::new(2)
                .max_delay_ticks(1)
                .sink_spill_capacity(64),
        );
        let qs = QuerySet::random(100, 120, 11);
        svc.submit(TenantId(6), qs.queries());
        // A sink that accepts nothing between flushes forces everything
        // into the spill buffer.
        let mut stubborn = WindowSink::new(1);
        while svc.queue_depth() > 0 {
            svc.tick_into(&mut stubborn);
        }
        let spilled = svc.spill_depth();
        assert!(spilled > 0, "setup: some walks must be parked");
        // Back to Vec delivery: the spilled walks come home instead of
        // being stranded (conservation across consumption-mode switches).
        let rest = svc.drain();
        assert_eq!(rest.len() + stubborn.all().len(), 120);
        assert_eq!(svc.spill_depth(), 0);
        assert!(rest.len() >= spilled, "spilled walks lead the returned Vec");
    }

    #[test]
    #[should_panic(expected = "detach the subscribed sink")]
    fn tick_into_refuses_while_a_sink_is_attached() {
        let (mut svc, _) = service(1, ServiceConfig::new(1));
        svc.attach_sink(Box::new(WindowSink::new(4)));
        let mut other = WindowSink::new(4);
        let _ = svc.tick_into(&mut other);
    }

    #[test]
    fn append_and_retire_conserve_walks_and_steps() {
        let (p, spec) = shared();
        let prepared = p.clone();
        let sp = spec.clone();
        let mut svc = Driver::new(ServiceConfig::new(2).max_batch(16), move |shard| {
            ReferenceBackend::new(prepared.clone(), sp.clone(), 0xBEEF ^ shard as u64)
        });
        let nv = p.graph().vertex_count();
        let qs = QuerySet::random(nv, 300, 13);
        let mut done = Vec::new();
        assert_eq!(svc.submit(TenantId(1), &qs.queries()[..150]), 150);
        done.extend(svc.tick());
        // Grow: the appended shard immediately joins the hash partition.
        let shard = svc.append_shard(ReferenceBackend::new(p.clone(), spec.clone(), 0xBEEF ^ 2));
        assert_eq!(shard, 2);
        assert_eq!(svc.shard_count(), 3);
        assert_eq!(svc.submit(TenantId(1), &qs.queries()[150..]), 150);
        assert!(
            svc.shard_snapshots()[2].submitted > 0,
            "hash placement must spread onto the appended shard"
        );
        // Shrink while the tail shard still holds work: it drains in
        // place, so nothing is lost.
        done.extend(svc.retire_shard());
        assert_eq!(svc.shard_count(), 2);
        assert!(svc.shard_snapshots().iter().all(|s| s.shard < 2));
        for v in 0..nv as u32 {
            assert!(svc.shard_of(v) < 2, "hash partition follows the live fleet");
        }
        done.extend(svc.drain());
        assert_eq!(done.len(), 300, "conservation across scale events");
        let mut seen = std::collections::HashSet::new();
        assert!(done.iter().all(|c| seen.insert(c.path.query)));
        // The retired backend's steps stay in the rollup.
        let stats = svc.stats();
        assert_eq!(stats.completed, 300);
        assert_eq!(
            stats.steps,
            done.iter().map(|c| c.path.steps()).sum::<u64>(),
            "retired shards keep contributing their telemetry"
        );
        assert_eq!(stats.shards, 2);
    }

    #[test]
    #[should_panic(expected = "cannot retire the last shard")]
    fn the_last_shard_cannot_retire() {
        let (p, spec) = shared();
        let mut svc = Driver::new(ServiceConfig::new(1), move |_| {
            ReferenceBackend::new(p.clone(), spec.clone(), 7)
        });
        let _ = svc.retire_shard();
    }

    #[test]
    fn mixed_start_vertices_route_stably() {
        let (svc, _) = service(4, ServiceConfig::new(4));
        for v in 0..100u32 {
            assert_eq!(
                svc.shard_of(v),
                svc.shard_of(v),
                "routing is a pure function"
            );
            assert!(svc.shard_of(v) < 4);
        }
    }
}
