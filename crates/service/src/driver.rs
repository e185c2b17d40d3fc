//! The serving coordinator: one [`Driver`] over two executors.
//!
//! ```text
//!             submit / tick / drain / stats   (caller thread)
//!                             │
//!                          Driver   namespacing, logical clock, admission,
//!                             │     delivery (spill + the one sink), stats
//!                             │     merge, obs, append/retire, finish
//!                 ┌───────────┴────────────┐
//!              Inline                   Threads
//!      runners stepped on the     one worker thread per runner,
//!      caller's thread, in        bounded command queues, credit
//!      shard order                ledger, ticks pipelined one deep
//! ```
//!
//! Everything a fleet does once lives here. The private executor only
//! decides who hosts the per-shard runners, and [`DriverMode`] (the
//! [`ServiceConfig::driver`] field) picks it. A runner's walks are a pure
//! function of its own command stream, and the coordinator sends every
//! runner the same stream under both executors, so a fixed seed and
//! schedule yield the same walks, tick stamps included. What differs is
//! *when* they are handed out: an inline `tick()` returns the walks of
//! the tick it ran, a threaded `tick()` *k* returns those of tick *k−1*
//! (the workers run tick *k* while the caller prepares the next one).
//!
//! # Delivery
//!
//! The coordinator owns the one spill buffer and the one sink under both
//! executors; workers never see a sink. Every batch of walks is offered
//! stamped with the tick it completed in: one batch per tick, shards
//! concatenated in shard order, and one batch per shard when a drain runs
//! the fleet dry. A sink therefore sees the same sequence of
//! `(walks, tick)` under both executors. Under threads, every operation
//! that changes where walks go — [`drain`](Driver::drain),
//! [`retire_shard`](Driver::retire_shard),
//! [`attach_sink`](Driver::attach_sink) and
//! [`detach_sink`](Driver::detach_sink) — is a barrier that first
//! collects every shard's pending tick and hands it to the route that was
//! active when the tick ran.

use crate::runner::ShardRunner;
use crate::sink::SpillDelivery;
use crate::stats::{rollup_telemetry, StatsCollector};
use crate::threaded::Threads;
use crate::{
    CompletedWalk, DriverMode, ServiceConfig, ServiceStats, ShardSnapshot, SinkReport, TenantId,
    WalkSink,
};
use grw_algo::{BackendTelemetry, WalkBackend, WalkQuery};
use grw_obs::{Obs, GLOBAL_SHARD, SEQ_BASE_SPILL};
use grw_rng::SplitMix64;
use std::time::Instant;

/// Completed walks, stamped with the tick they completed in.
pub(crate) type Batch = (u64, Vec<CompletedWalk>);

/// Who hosts the shard runners.
enum Executor<B: WalkBackend> {
    /// Runners stepped on the caller's thread, in shard order.
    Inline(Vec<ShardRunner<B>>),
    /// One worker thread per runner.
    Threads(Threads),
}

/// The sharded, multi-tenant serving front-end over N walk backends. See
/// the [module docs](self) and the crate docs; the lifecycle is
/// [`submit`](Self::submit) → [`tick`](Self::tick)* →
/// [`drain`](Self::drain) / [`finish`](Self::finish), with
/// [`stats`](Self::stats) available at any point.
pub struct Driver<B: WalkBackend> {
    cfg: ServiceConfig,
    exec: Executor<B>,
    tick: u64,
    started: Instant,
    /// The coordinator's own counters (sink delivery); each runner keeps
    /// its admission, batch and completion counters, merged in
    /// [`stats`](Self::stats).
    collector: StatsCollector,
    /// Completed walks a backpressured sink could not take yet, oldest
    /// first; bounded by [`ServiceConfig::sink_spill_capacity`].
    spill: SpillDelivery,
    /// The subscribed sink, when delivery is in streaming mode.
    attached: Option<Box<dyn WalkSink + Send>>,
    /// Walks of a threaded tick that ran before a sink was attached: they
    /// belong to the caller and lead the next `Vec` handed out.
    held: Vec<CompletedWalk>,
    /// Final collectors and telemetry of retired shards, so fleet-lifetime
    /// statistics survive scale-down.
    retired: Vec<(StatsCollector, BackendTelemetry)>,
    /// Observability hub (disabled until [`attach_obs`](Self::attach_obs)).
    obs: Obs,
}

impl<B: WalkBackend + Send + 'static> Driver<B> {
    /// Builds the fleet on the executor [`ServiceConfig::driver`]
    /// selects; the `shard`-th backend comes from `make_backend(shard)`,
    /// called on this thread (under threads the finished backend moves to
    /// its worker, which is why `B: Send`).
    pub fn new(cfg: ServiceConfig, mut make_backend: impl FnMut(usize) -> B) -> Self {
        let exec = match cfg.driver {
            DriverMode::Deterministic => Executor::Inline(Vec::with_capacity(cfg.shards)),
            DriverMode::Threaded => Executor::Threads(Threads::default()),
        };
        let mut driver = Self {
            cfg,
            exec,
            tick: 0,
            started: Instant::now(),
            collector: StatsCollector::new(cfg.latency_reservoir),
            spill: SpillDelivery::new(cfg.sink_spill_capacity),
            attached: None,
            held: Vec::new(),
            retired: Vec::new(),
            obs: Obs::disabled(),
        };
        for shard in 0..cfg.shards {
            driver.append_shard(make_backend(shard));
        }
        driver
    }

    /// Grows the live fleet by one shard and returns its index (always
    /// the new highest). The shard starts empty at the current tick and
    /// joins the vertex-hash partition from the very next submission —
    /// appends land at a micro-batch boundary by construction, because
    /// the fleet only changes between calls.
    ///
    /// Determinism: a query's walk is a pure function of its shard's
    /// seed and the query, so a fleet grown at tick T produces the same
    /// walks as a fleet born at size N+1. Build the backend with the fleet
    /// seed (see [`shard_backend`](crate::shard_backend)) and the walks
    /// do not depend on scale events at all.
    pub fn append_shard(&mut self, backend: B) -> usize {
        let shard = self.shard_count();
        let mut runner = ShardRunner::new(&self.cfg, backend);
        if self.obs.is_enabled() {
            runner.set_obs(self.obs.shard_obs(shard as u32));
        }
        match &mut self.exec {
            Executor::Inline(runners) => runners.push(runner),
            Executor::Threads(t) => t.spawn(runner),
        }
        shard
    }
}

impl<B: WalkBackend> Driver<B> {
    /// Which executor runs the shards.
    pub fn mode(&self) -> DriverMode {
        self.cfg.driver
    }

    /// Attaches an observability hub: every shard runner gets a
    /// per-shard recorder (queries admitted/delivered, micro-batch
    /// boundaries, alias-cache epochs) and the spill gets one under
    /// [`GLOBAL_SHARD`]. Recording is buffered per source and merged into
    /// the hub, in shard order, at export barriers ([`drain`](Self::drain),
    /// [`retire_shard`](Self::retire_shard), [`flush_obs`](Self::flush_obs)).
    /// Attach before submitting traffic so the trace covers the whole
    /// run; attaching never changes walk content or tick stamps.
    pub fn attach_obs(&mut self, obs: Obs) {
        match &mut self.exec {
            Executor::Inline(runners) => {
                for (i, r) in runners.iter_mut().enumerate() {
                    r.set_obs(obs.shard_obs(i as u32));
                }
            }
            Executor::Threads(t) => t.set_obs(&obs),
        }
        self.spill
            .set_obs(obs.shard_obs(GLOBAL_SHARD).seq_base(SEQ_BASE_SPILL));
        self.obs = obs;
    }

    /// Builds a live hub sized by [`ServiceConfig::journal_capacity`],
    /// attaches it, and returns a handle.
    pub fn attach_fresh_obs(&mut self) -> Obs {
        let obs = Obs::with_capacity(self.cfg.journal_capacity);
        self.attach_obs(obs.clone());
        obs
    }

    /// The configured journal capacity
    /// ([`ServiceConfig::journal_capacity`]).
    pub fn journal_capacity(&self) -> usize {
        self.cfg.journal_capacity
    }

    /// The export barrier: every shard journals its alias-cache epoch and
    /// hands over its buffered events (a worker round-trip under
    /// threads), and the spill's events follow.
    pub fn flush_obs(&mut self) {
        match &mut self.exec {
            Executor::Inline(runners) => {
                for r in runners {
                    r.flush_obs();
                }
            }
            Executor::Threads(t) => {
                t.barrier(false, &self.obs);
            }
        }
        self.spill.obs.flush();
    }

    /// Shrinks the live fleet by one shard — the highest-index one —
    /// draining it in place first so walk conservation holds, then
    /// removing it from the vertex-hash partition. Retirement is LIFO so
    /// surviving shard indices never shift under routers or policies.
    /// Returns the walks this barrier hands out (none with a sink
    /// attached: they go there): the retiring shard's, and under threads
    /// first every shard's pending tick. The retired shard's statistics
    /// and telemetry stay folded into [`stats`](Self::stats).
    ///
    /// # Panics
    ///
    /// Panics if the fleet has only one shard, or if the retiring backend
    /// stalls while draining.
    pub fn retire_shard(&mut self) -> Vec<CompletedWalk> {
        assert!(self.shard_count() > 1, "cannot retire the last shard");
        let mut batches: Vec<Batch> = self.collect_pending().into_iter().collect();
        let (walks, retired) = match &mut self.exec {
            Executor::Inline(runners) => {
                let mut r = runners.pop().expect("fleet is non-empty");
                let walks = r.drain_all();
                r.flush_obs();
                let telemetry = r.backend.telemetry();
                (walks, (r.collector, telemetry))
            }
            Executor::Threads(t) => t.retire(&self.obs),
        };
        batches.push((self.tick, walks));
        self.retired.push(retired);
        self.route(batches)
    }

    /// The shard a start vertex routes to (stable vertex-hash partition
    /// over the live fleet).
    pub fn shard_of(&self, start: u32) -> usize {
        (SplitMix64::mix(u64::from(start)) % self.shard_count() as u64) as usize
    }

    /// Offers queries on behalf of `tenant`, each to its vertex-hash home;
    /// accepts a prefix and returns its length — see
    /// [`submit_placed`](Self::submit_placed).
    ///
    /// Query ids are tenant-local and must fit
    /// [`MAX_LOCAL_ID`](crate::MAX_LOCAL_ID); the completed paths come
    /// back keyed by the same local ids.
    pub fn submit(&mut self, tenant: TenantId, queries: &[WalkQuery]) -> usize {
        let homes: Vec<usize> = queries.iter().map(|q| self.shard_of(q.start)).collect();
        self.submit_placed(tenant, queries, &homes)
    }

    /// [`submit`](Self::submit) with every query placed on `shard` by the
    /// caller. The coordinator never migrates queries, so a query
    /// accepted here executes and completes on `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn submit_routed(
        &mut self,
        tenant: TenantId,
        queries: &[WalkQuery],
        shard: usize,
    ) -> usize {
        assert!(shard < self.shard_count(), "shard {shard} out of range");
        self.submit_placed(tenant, queries, &vec![shard; queries.len()])
    }

    /// The one admission entry both `submit` forms reduce to, and the
    /// hook a placement tier (`grw_route`) drives with a whole call at
    /// once: offers `queries[i]` to shard `homes[i]`, in order, and stops
    /// at the first refusal (prefix semantics — a full shard buffer is
    /// the service-level backpressure point). Inline, every query is one
    /// `accept` read straight from the slice; under threads the call is
    /// one command per shard it touches (see the private `threaded`
    /// module), with identical acceptance counts.
    ///
    /// # Panics
    ///
    /// Panics if `homes` and `queries` differ in length or a home is out
    /// of range.
    pub fn submit_placed(
        &mut self,
        tenant: TenantId,
        queries: &[WalkQuery],
        homes: &[usize],
    ) -> usize {
        assert_eq!(queries.len(), homes.len(), "one home shard per query");
        let shards = self.shard_count();
        assert!(homes.iter().all(|&s| s < shards), "home shard out of range");
        let now = self.tick;
        match &mut self.exec {
            Executor::Inline(runners) => queries
                .iter()
                .zip(homes)
                .take_while(|&(q, &shard)| runners[shard].accept(tenant.namespace_query(q), now))
                .count(),
            Executor::Threads(t) => t.submit(tenant, queries, homes, now, self.cfg.buffer_capacity),
        }
    }

    /// Advances the logical clock one tick on every shard — flushing the
    /// micro-batches that are due and polling every backend — and hands
    /// out one tick's walks: this tick's inline, the previous tick's under
    /// threads (the last one follows at the next barrier). With a sink
    /// [attached](Self::attach_sink) they stream into it and the returned
    /// `Vec` is empty.
    ///
    /// # Panics
    ///
    /// Under threads, panics naming the shard if a worker has died.
    pub fn tick(&mut self) -> Vec<CompletedWalk> {
        let done = self.advance();
        self.route(done)
    }

    /// [`tick`](Self::tick), delivering into `sink` instead of returning
    /// a `Vec`: the walks this tick hands out are offered to the sink (or
    /// parked in the bounded spill buffer if it pushes back). Returns how
    /// many walks were handed out.
    ///
    /// The spill buffer belongs to the *delivery stream*, not to any one
    /// sink value: walks spilled by this call are re-offered to whatever
    /// sink the next delivery call passes, so consecutive `tick_into` /
    /// [`drain_into`](Self::drain_into) calls form one logical route. To
    /// hand the stream to a *different* consumer, run the spill dry first
    /// (a `drain_into` with the old sink, or keep ticking it until
    /// [`spill_depth`](Self::spill_depth) is zero).
    ///
    /// # Panics
    ///
    /// Panics if a sink is [attached](Self::attach_sink) (one route per
    /// walk), or if the sink refuses delivery after a flush while the
    /// spill buffer is full (a sink-contract violation).
    pub fn tick_into<S: WalkSink + ?Sized>(&mut self, sink: &mut S) -> usize {
        assert!(
            self.attached.is_none(),
            "detach the subscribed sink before delivering into another"
        );
        let done = self.advance();
        self.deliver_into(sink, done)
    }

    /// Runs every shard dry and returns every walk not yet handed out; a
    /// full barrier and an export barrier for the obs journal. Afterwards
    /// [`queue_depth`](Self::queue_depth) is zero. With a sink
    /// [attached](Self::attach_sink) the walks stream into it (the spill
    /// runs dry and the sink is flushed) and the returned `Vec` is empty.
    ///
    /// # Panics
    ///
    /// Panics if a backend refuses its remaining work without making any
    /// progress (a backend bug), or under threads if a worker has died.
    pub fn drain(&mut self) -> Vec<CompletedWalk> {
        let batches = self.drain_batches();
        let out = self.route(batches);
        if let Some(mut sink) = self.attached.take() {
            self.settle(&mut sink, None);
            self.attached = Some(sink);
        }
        self.spill.obs.flush();
        out
    }

    /// [`drain`](Self::drain), delivering into `sink`: each shard's
    /// remaining walks reach the sink as that shard runs dry, then the
    /// spill buffer is emptied (forcing sink flushes where needed) and
    /// the sink is flushed so downstream consumers see the tail. Returns
    /// the number of walks drained.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`tick_into`](Self::tick_into),
    /// or if the sink keeps refusing spilled walks across flushes.
    pub fn drain_into<S: WalkSink + ?Sized>(&mut self, sink: &mut S) -> usize {
        assert!(
            self.attached.is_none(),
            "detach the subscribed sink before delivering into another"
        );
        let batches = self.drain_batches();
        let delivered = self.settle(sink, batches);
        self.spill.obs.flush();
        delivered
    }

    /// Subscribes `sink` to the delivery stream: from now on
    /// [`tick`](Self::tick) and [`drain`](Self::drain) route every
    /// completed walk into it and return empty `Vec`s. Returns the
    /// previously attached sink, if any, [detached](Self::detach_sink)
    /// first, so replacing one subscription with another never leaks the
    /// old subscription's walks into the new sink. (Walks spilled by
    /// earlier *explicit* `tick_into` calls have no owning sink value and
    /// go to the new subscription.) Under threads, the walks of a tick
    /// that ran before the first subscription still belong to the
    /// caller: the next `tick`/`drain` returns them, exactly as the inline
    /// `tick` that ran it did.
    pub fn attach_sink(
        &mut self,
        sink: Box<dyn WalkSink + Send>,
    ) -> Option<Box<dyn WalkSink + Send>> {
        let previous = self.detach_sink();
        self.attached = Some(sink);
        previous
    }

    /// Ends the subscription and returns the sink, after delivering into
    /// it every walk of a tick that ran while it was attached and running
    /// any spilled walks into it (conservation: they belong to its route),
    /// then flushing it.
    pub fn detach_sink(&mut self) -> Option<Box<dyn WalkSink + Send>> {
        let pending = self.collect_pending();
        let Some(mut sink) = self.attached.take() else {
            self.held
                .extend(pending.into_iter().flat_map(|(_, walks)| walks));
            return None;
        };
        self.settle(&mut sink, pending);
        Some(sink)
    }

    /// The attached sink's own counters, when one is subscribed.
    pub fn sink_report(&self) -> Option<SinkReport> {
        self.attached.as_ref().map(|s| s.report())
    }

    /// Completed walks currently parked in the spill buffer, O(1) (the
    /// same number as [`ServiceStats::sink_spill_depth`]).
    pub fn spill_depth(&self) -> usize {
        self.spill.depth()
    }

    /// Queries parked in buffers plus queries in flight inside backends.
    pub fn queue_depth(&self) -> usize {
        self.shard_snapshots()
            .iter()
            .map(ShardSnapshot::backlog)
            .sum()
    }

    /// Point-in-time service statistics: the coordinator's counters
    /// merged with every runner's collector in shard order (a worker
    /// round-trip under threads). Counters and sums are exact; reservoir
    /// percentiles are exact while the merged samples fit the reservoir.
    pub fn stats(&self) -> ServiceStats {
        match &self.exec {
            Executor::Inline(runners) => self.build_stats(
                runners
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (&r.collector, r.snapshot(i))),
            ),
            Executor::Threads(t) => {
                let reports = t.reports();
                self.build_stats(reports.iter().map(|r| (&r.collector, r.snapshot.clone())))
            }
        }
    }

    /// Live per-shard signals for load-aware placement, cheap enough to
    /// take before every routing decision (inline: counters and the
    /// backend telemetry call; under threads: one worker round-trip).
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        match &self.exec {
            Executor::Inline(runners) => runners
                .iter()
                .enumerate()
                .map(|(i, r)| r.snapshot(i))
                .collect(),
            Executor::Threads(t) => t.reports().into_iter().map(|r| r.snapshot).collect(),
        }
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Number of backend shards.
    pub fn shard_count(&self) -> usize {
        match &self.exec {
            Executor::Inline(runners) => runners.len(),
            Executor::Threads(t) => t.len(),
        }
    }

    /// Clean shutdown: drains every shard (delivering into the attached
    /// sink, if any), stops the worker threads, and returns the remaining
    /// walks with the final statistics. Zero accepted walks are lost.
    ///
    /// # Panics
    ///
    /// Under threads, panics naming the shard if a worker has died.
    pub fn finish(mut self) -> (Vec<CompletedWalk>, ServiceStats) {
        let walks = self.drain();
        let finals = match &mut self.exec {
            Executor::Inline(_) => return (walks, self.stats()),
            Executor::Threads(t) => t.join(),
        };
        let stats = self.build_stats(finals.iter().map(|r| (&r.collector, r.snapshot.clone())));
        (walks, stats)
    }

    /// Advances the clock one tick on every shard and returns the batch
    /// the call hands out (none under threads when no tick was pending).
    fn advance(&mut self) -> Option<Batch> {
        self.tick += 1;
        let now = self.tick;
        match &mut self.exec {
            Executor::Inline(runners) => {
                let mut out = Vec::new();
                for r in runners {
                    out.extend(r.run_tick(now));
                }
                Some((now, out))
            }
            Executor::Threads(t) => t.tick(now),
        }
    }

    /// Every shard's pending tick under threads (inline ticks hand their
    /// walks out as they run, so nothing is ever pending there).
    fn collect_pending(&mut self) -> Option<Batch> {
        match &mut self.exec {
            Executor::Inline(_) => None,
            Executor::Threads(t) => t.collect(),
        }
    }

    /// The drain barrier both executors share: the pending tick, then
    /// each runner's `drain_all` in shard order, one batch per shard
    /// stamped with the current tick; every runner exports its events.
    fn drain_batches(&mut self) -> Vec<Batch> {
        let mut batches: Vec<Batch> = self.collect_pending().into_iter().collect();
        let drained = match &mut self.exec {
            Executor::Inline(runners) => runners
                .iter_mut()
                .map(|r| {
                    let walks = r.drain_all();
                    r.flush_obs();
                    walks
                })
                .collect(),
            Executor::Threads(t) => t.barrier(true, &self.obs),
        };
        batches.extend(drained.into_iter().map(|walks| (self.tick, walks)));
        batches
    }

    /// Hands `batches` to the active route: into the attached sink, or
    /// back to the caller after any walks held or spilled for it.
    fn route(&mut self, batches: impl IntoIterator<Item = Batch>) -> Vec<CompletedWalk> {
        let mut out = std::mem::take(&mut self.held);
        if let Some(mut sink) = self.attached.take() {
            self.deliver_into(&mut sink, batches);
            self.attached = Some(sink);
            return out;
        }
        // Walks spilled by an earlier explicit `tick_into` were never
        // consumed by any sink; a caller back on `Vec` delivery gets them
        // here, oldest first, instead of having them stranded.
        out.extend(self.spill.take_all());
        for (_, walks) in batches {
            // The common case — one batch, nothing held or spilled —
            // hands the batch's own allocation back.
            if out.is_empty() {
                out = walks;
            } else {
                out.extend(walks);
            }
        }
        out
    }

    /// Offers each batch to `sink` stamped with the tick it completed in
    /// — the one delivery path of attached and lent sinks alike. Returns
    /// the number of walks that entered the sink route.
    fn deliver_into<S: WalkSink + ?Sized>(
        &mut self,
        sink: &mut S,
        batches: impl IntoIterator<Item = Batch>,
    ) -> usize {
        batches
            .into_iter()
            .map(|(at, walks)| self.spill.deliver(walks, sink, at, &mut self.collector))
            .sum()
    }

    /// [`deliver_into`](Self::deliver_into), then runs the spill dry into
    /// `sink` and flushes it so downstream consumers see the tail.
    fn settle<S: WalkSink + ?Sized>(
        &mut self,
        sink: &mut S,
        batches: impl IntoIterator<Item = Batch>,
    ) -> usize {
        let delivered = self.deliver_into(sink, batches);
        self.spill.run_dry(sink, self.tick, &mut self.collector);
        sink.flush();
        delivered
    }

    /// Merges the coordinator's counters with the live shards' collectors
    /// and snapshots (in shard order) and the retired shards' state.
    fn build_stats<'a>(
        &self,
        live: impl Iterator<Item = (&'a StatsCollector, ShardSnapshot)>,
    ) -> ServiceStats {
        let mut collector = self.collector.clone();
        let mut snaps = Vec::new();
        for (c, snap) in live {
            collector.merge(c);
            snaps.push(snap);
        }
        for (c, _) in &self.retired {
            collector.merge(c);
        }
        let rollup = rollup_telemetry(
            snaps
                .iter()
                .map(|s| s.telemetry)
                .chain(self.retired.iter().map(|&(_, t)| t)),
        );
        let depths: Vec<usize> = snaps.iter().map(ShardSnapshot::backlog).collect();
        ServiceStats::build(
            &collector,
            snaps.len(),
            depths.iter().sum(),
            rollup.steps,
            self.started.elapsed().as_secs_f64(),
            rollup.simulated,
            rollup.pipeline,
            snaps.iter().map(|s| s.submitted).collect(),
            depths,
            self.spill.depth(),
            rollup.sampling,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_algo::{PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};
    use grw_graph::generators::{Dataset, ScaleFactor};
    use std::sync::Arc;

    fn driver(mode: DriverMode) -> Driver<ReferenceBackend<Arc<PreparedGraph>>> {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(8);
        let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
        Driver::new(ServiceConfig::new(2).driver_mode(mode), move |shard| {
            ReferenceBackend::new(p.clone(), spec.clone(), 0xD1CE ^ shard as u64)
        })
    }

    #[test]
    fn config_selects_the_regime() {
        for (mode, want_inline) in [
            (DriverMode::Deterministic, true),
            (DriverMode::Threaded, false),
        ] {
            let mut d = driver(mode);
            assert_eq!(d.mode(), mode);
            assert_eq!(matches!(d.exec, Executor::Inline(_)), want_inline);
            assert_eq!(d.shard_count(), 2);

            let qs = QuerySet::random(200, 120, 21);
            assert_eq!(d.submit(TenantId(3), qs.queries()), 120);
            let mut walks = d.tick();
            walks.extend(d.drain());
            assert_eq!(d.queue_depth(), 0);
            let (rest, stats) = d.finish();
            walks.extend(rest);
            assert_eq!(walks.len(), 120);
            assert_eq!(stats.completed, 120);
        }
    }

    #[test]
    fn scale_events_keep_the_multiset_identical_across_regimes() {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(8);
        let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
        let keys = |mode| {
            let make = |shard: usize| {
                ReferenceBackend::new(p.clone(), spec.clone(), 0xD1CE ^ shard as u64)
            };
            let cfg = ServiceConfig::new(2)
                .max_batch(8)
                .max_delay_ticks(1)
                .driver_mode(mode);
            let mut d = Driver::new(cfg, make);
            let qs = QuerySet::random(200, 300, 77);
            let mut walks = Vec::new();
            for (i, chunk) in qs.queries().chunks(50).enumerate() {
                assert_eq!(d.submit(TenantId(2), chunk), 50);
                walks.extend(d.tick());
                // Same scale schedule in both regimes: grow to 3 shards
                // after the second chunk, shrink back after the fourth.
                match i {
                    1 => assert_eq!(d.append_shard(make(2)), 2),
                    3 => walks.extend(d.retire_shard()),
                    _ => {}
                }
            }
            let (rest, stats) = d.finish();
            walks.extend(rest);
            assert_eq!(walks.len(), 300, "conservation across scale events");
            assert_eq!(stats.completed, 300);
            let mut keys: Vec<_> = walks
                .iter()
                .map(|c| {
                    (
                        c.path.query,
                        c.arrival_tick,
                        c.flushed_tick,
                        c.completed_tick,
                        c.path.vertices.clone(),
                    )
                })
                .collect();
            keys.sort();
            keys
        };
        assert_eq!(
            keys(DriverMode::Deterministic),
            keys(DriverMode::Threaded),
            "same walks, tick stamps included, across a scale schedule"
        );
    }

    #[test]
    fn both_regimes_complete_the_same_walks() {
        let run = |mode| {
            let mut d = driver(mode);
            let qs = QuerySet::random(200, 150, 22);
            d.submit(TenantId(1), qs.queries());
            let (mut walks, _) = d.finish();
            walks.sort_by_key(|c| (c.path.query, c.path.vertices.clone()));
            walks
                .into_iter()
                .map(|c| (c.path.query, c.path.vertices))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(DriverMode::Deterministic), run(DriverMode::Threaded));
    }
}
