//! The per-shard execution unit behind both executors.
//!
//! [`ShardRunner`] owns everything one shard needs to serve traffic: its
//! backend, its micro-batch coalescer, the per-query bookkeeping (arrival
//! ticks, batch membership, latency EWMA), its [`StatsCollector`] and its
//! observability recorder. The step logic — micro-batcher flush → backend
//! submit/poll → delivery accounting — lives here once, and the
//! [`Driver`](crate::Driver) hosts the runners under either executor:
//!
//! * **inline**, stepping every runner on the caller's thread, one shard
//!   after another;
//! * **threads** (the private `threaded` module), moving each runner onto
//!   its own OS thread and feeding it the same command stream through a
//!   bounded queue.
//!
//! Because a runner's evolution depends only on its *own* command
//! sequence (accepts and tick advances, in order), a shard produces
//! bit-identical walks — including tick stamps — no matter which executor
//! hosts it. That is the load-bearing property behind the cross-executor
//! multiset parity the `tests/threaded.rs` suite pins down.
//!
//! Every runner owns its collector under both executors, so the hot path
//! takes no locks and passes no collector around; the coordinator merges
//! the collectors, in shard order, when it builds
//! [`ServiceStats`](crate::ServiceStats).

use crate::batch::MicroBatcher;
use crate::stats::StatsCollector;
use crate::{
    CompletedWalk, FlushReason, ServiceConfig, ShardSnapshot, TenantId, LATENCY_EWMA_ALPHA,
};
use grw_algo::{WalkBackend, WalkPath, WalkQuery};
use grw_obs::{Event, ShardObs};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// A micro-batch in flight, for latency accounting.
#[derive(Debug, Clone, Copy)]
struct BatchInFlight {
    remaining: usize,
    flushed_at: Instant,
    flushed_tick: u64,
}

/// One shard's complete serving state: backend, coalescing buffer,
/// per-query accounting and statistics. See the [module docs](self).
pub(crate) struct ShardRunner<B: WalkBackend> {
    pub(crate) backend: B,
    batcher: MicroBatcher,
    /// The shard's logical clock — synchronized with the coordinator's
    /// clock by every [`accept`](Self::accept) / [`run_tick`](Self::run_tick)
    /// call, so tick stamps are executor-independent.
    tick: u64,
    /// Internal query id -> batches awaiting it, in flush order. The
    /// backend completes batches FIFO; the deque resolves a tenant
    /// reusing one local id within the shard.
    waiting: HashMap<u64, VecDeque<u64>>,
    /// Internal query id -> arrival ticks, ordered exactly like
    /// `waiting` so repeats resolve consistently.
    arrivals: HashMap<u64, VecDeque<u64>>,
    batches: HashMap<u64, BatchInFlight>,
    next_batch_id: u64,
    /// This shard's statistics: admissions, batches, completions and
    /// latency reservoirs, in total and per tenant.
    pub(crate) collector: StatsCollector,
    /// EWMA of per-query end-to-end latency delivered by this shard, in
    /// ticks; `None` until the shard has delivered anything.
    ewma_latency_ticks: Option<f64>,
    /// Observability recorder for this shard — disabled (all no-ops)
    /// until a hub is attached via [`set_obs`](Self::set_obs).
    obs: ShardObs,
}

impl<B: WalkBackend> ShardRunner<B> {
    pub(crate) fn new(cfg: &ServiceConfig, backend: B) -> Self {
        Self {
            backend,
            batcher: MicroBatcher::new(cfg.max_batch, cfg.max_delay_ticks, cfg.buffer_capacity),
            tick: 0,
            waiting: HashMap::new(),
            arrivals: HashMap::new(),
            batches: HashMap::new(),
            next_batch_id: 0,
            collector: StatsCollector::new(cfg.latency_reservoir),
            ewma_latency_ticks: None,
            obs: ShardObs::disabled(),
        }
    }

    /// Installs this shard's observability recorder.
    pub(crate) fn set_obs(&mut self, obs: ShardObs) {
        self.obs = obs;
    }

    /// The export barrier: journals the shard's cumulative alias-cache
    /// telemetry (deduplicated inside the recorder — unchanged or
    /// all-zero counters journal nothing) and hands over every buffered
    /// event, for the coordinator to merge into the hub in shard order.
    pub(crate) fn export_events(&mut self) -> Vec<Event> {
        if self.obs.is_enabled() {
            let s = self.backend.telemetry().sampling;
            self.obs
                .alias_cache_epoch(self.tick, s.cache_hits, s.alias_builds, s.cache_evictions);
        }
        self.obs.take_events()
    }

    /// Live signals of this shard for placement and stats.
    pub(crate) fn snapshot(&self, shard: usize) -> ShardSnapshot {
        let t = self.backend.telemetry();
        ShardSnapshot {
            shard,
            class: self.backend.backend_class(),
            cost_hint: self.backend.cost_hint(),
            queued: self.queued(),
            in_flight: self.backend.in_flight(),
            awaiting_injection: t.occupancy_split.map(|(a, _)| a),
            executing: t.occupancy_split.map(|(_, e)| e),
            submitted: self.collector.submitted,
            completed: self.collector.completed,
            ewma_latency_ticks: self.ewma_latency_ticks,
            bubble_ratio: t.pipeline.map(|m| m.bubble_ratio()),
            telemetry: t,
        }
    }

    /// Offers one already-namespaced query at tick `now`. On a full
    /// buffer the runner tries to make room once by flushing a full
    /// batch; `false` means the shard is saturated and the caller must
    /// stop accepting (prefix semantics).
    pub(crate) fn accept(&mut self, internal: WalkQuery, now: u64) -> bool {
        self.tick = now;
        if !self.batcher.push(internal, now) {
            self.flush(FlushReason::Size);
            if !self.batcher.push(internal, now) {
                return false;
            }
        }
        let (tenant, local) = TenantId::unpack(internal.id);
        self.collector.record_submitted(tenant);
        self.obs.query_admitted(now, tenant.0, local);
        self.arrivals.entry(internal.id).or_default().push_back(now);
        if self.batcher.due(now) == Some(FlushReason::Size) {
            self.flush(FlushReason::Size);
        }
        true
    }

    /// [`accept`](Self::accept) over a slice: takes the longest prefix
    /// the shard can hold and returns its length.
    pub(crate) fn accept_batch(&mut self, queries: &[WalkQuery], now: u64) -> usize {
        let mut taken = 0;
        for &q in queries {
            if !self.accept(q, now) {
                break;
            }
            taken += 1;
        }
        taken
    }

    /// Advances the shard to tick `now`: flushes every micro-batch that
    /// is due (size or deadline), polls the backend once, and returns
    /// the walks that completed, fully accounted.
    pub(crate) fn run_tick(&mut self, now: u64) -> Vec<CompletedWalk> {
        self.tick = now;
        while let Some(reason) = self.batcher.due(now) {
            if !self.flush(reason) {
                break;
            }
        }
        let paths = self.backend.poll();
        paths.into_iter().map(|p| self.deliver(p)).collect()
    }

    /// Runs the shard dry — the one drain algorithm of both executors:
    /// alternates pushing the coalescing buffer into the backend (as far
    /// as it accepts) with running the backend dry, until nothing is
    /// parked or in flight. Does not advance the clock.
    ///
    /// # Panics
    ///
    /// Panics if the backend refuses its remaining work without making
    /// any progress (a backend bug, not a reachable service state).
    pub(crate) fn drain_all(&mut self) -> Vec<CompletedWalk> {
        let mut out = Vec::new();
        loop {
            while !self.batcher.is_empty() && self.flush(FlushReason::Drain) {}
            let paths = self.backend.drain();
            let progressed = !paths.is_empty();
            out.extend(paths.into_iter().map(|p| self.deliver(p)));
            if self.queue_depth() == 0 {
                return out;
            }
            assert!(
                progressed,
                "shard stalled: backend holds work but completes nothing"
            );
        }
    }

    /// Queries parked in the coalescing buffer.
    pub(crate) fn queued(&self) -> usize {
        self.batcher.len()
    }

    /// Queries parked plus queries in flight inside the backend.
    fn queue_depth(&self) -> usize {
        self.batcher.len() + self.backend.in_flight()
    }

    /// Takes one micro-batch out of the buffer and submits it to the
    /// backend. Returns `false` when the backend accepted nothing
    /// (pushback) — the batch goes back to the buffer.
    fn flush(&mut self, reason: FlushReason) -> bool {
        let batch = self.batcher.take_batch();
        if batch.is_empty() {
            return false;
        }
        let taken = self.backend.submit(&batch);
        if taken < batch.len() {
            self.batcher.unshift(&batch[taken..]);
        }
        if taken == 0 {
            return false;
        }
        let id = self.next_batch_id;
        self.next_batch_id += 1;
        self.batches.insert(
            id,
            BatchInFlight {
                remaining: taken,
                flushed_at: Instant::now(),
                flushed_tick: self.tick,
            },
        );
        for q in &batch[..taken] {
            self.waiting.entry(q.id).or_default().push_back(id);
        }
        let c = &mut self.collector;
        c.batches_flushed += 1;
        match reason {
            FlushReason::Size => c.flushed_by_size += 1,
            FlushReason::Deadline => c.flushed_by_deadline += 1,
            FlushReason::Drain => c.flushed_by_drain += 1,
        }
        let reason_tag = match reason {
            FlushReason::Size => "size",
            FlushReason::Deadline => "deadline",
            FlushReason::Drain => "drain",
        };
        self.obs.batch_flushed(self.tick, id, taken, reason_tag);
        true
    }

    /// Un-namespaces a completed path and settles its batch and
    /// per-query latency accounting.
    fn deliver(&mut self, mut path: WalkPath) -> CompletedWalk {
        let internal = path.query;
        let (tenant, local) = TenantId::unpack(internal);
        path.query = local;
        let c = &mut self.collector;
        c.completed += 1;
        let batch_id = self
            .waiting
            .get_mut(&internal)
            .and_then(|q| q.pop_front())
            .expect("completed path must belong to a flushed batch");
        if self.waiting.get(&internal).is_some_and(|q| q.is_empty()) {
            self.waiting.remove(&internal);
        }
        let arrival_tick = self
            .arrivals
            .get_mut(&internal)
            .and_then(|q| q.pop_front())
            .expect("completed path must have an arrival record");
        if self.arrivals.get(&internal).is_some_and(|q| q.is_empty()) {
            self.arrivals.remove(&internal);
        }
        let (flushed_tick, done) = {
            let b = self
                .batches
                .get_mut(&batch_id)
                .expect("batch record exists until its last path returns");
            b.remaining -= 1;
            (b.flushed_tick, (b.remaining == 0).then_some(*b))
        };
        if let Some(b) = done {
            self.batches.remove(&batch_id);
            c.record_batch_done(b.flushed_at.elapsed(), self.tick - b.flushed_tick);
        }
        let latency = self.tick - arrival_tick;
        c.record_query_done(tenant, latency, path.steps());
        self.obs.query_delivered(
            self.tick,
            tenant.0,
            local,
            arrival_tick,
            flushed_tick,
            path.steps() as u32,
        );
        self.ewma_latency_ticks = Some(match self.ewma_latency_ticks {
            Some(prev) => prev + LATENCY_EWMA_ALPHA * (latency as f64 - prev),
            None => latency as f64,
        });
        CompletedWalk {
            tenant,
            path,
            arrival_tick,
            flushed_tick,
            completed_tick: self.tick,
        }
    }
}
