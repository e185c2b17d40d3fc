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
//! # In-flight bookkeeping
//!
//! A flushed query is one record in a ring kept in flush order: its
//! internal id, its arrival tick (which the micro-batcher parked beside
//! it) and its batch ordinal. The batches in flight sit in a second ring,
//! indexed by ordinal. A completed path removes the *oldest* record with
//! its id, scanning from the head — per-id FIFO, so a tenant that reuses a
//! local id within the shard resolves its repeats in flush order. Backends
//! that complete in submission order, as the CPU kernels do, always match
//! the head. A batch leaves once its last walk has returned and every
//! older batch has left. No lookup hashes and no query allocates: the
//! rings grow to the shard's in-flight window and are reused from then
//! on.
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
use std::collections::VecDeque;
use std::time::Instant;

/// A flushed query whose walk has not yet been delivered.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// The internal (namespaced) query id.
    id: u64,
    arrival_tick: u64,
    /// Ordinal of the micro-batch the query was flushed in.
    batch: u64,
}

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
    /// Flushed queries whose walks are out, in flush order. See the
    /// [module docs](self).
    records: VecDeque<Record>,
    /// Micro-batches in flight, indexed by ordinal from `first_batch`;
    /// the head still has walks out.
    batches: VecDeque<BatchInFlight>,
    /// Ordinal of `batches[0]`.
    first_batch: u64,
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
            records: VecDeque::new(),
            batches: VecDeque::new(),
            first_batch: 0,
            collector: StatsCollector::new(cfg.latency_reservoir),
            ewma_latency_ticks: None,
            obs: ShardObs::disabled(),
        }
    }

    /// Installs this shard's observability recorder.
    pub(crate) fn set_obs(&mut self, obs: ShardObs) {
        self.obs = obs;
    }

    /// The export barrier under threads: journals the shard's cumulative
    /// alias-cache telemetry (deduplicated inside the recorder — unchanged
    /// or all-zero counters journal nothing) and hands over every buffered
    /// event, for the coordinator to merge into the hub in shard order.
    pub(crate) fn export_events(&mut self) -> Vec<Event> {
        self.record_alias_epoch();
        self.obs.take_events()
    }

    /// The export barrier inline: [`export_events`](Self::export_events),
    /// merging the events into the hub straight from the buffer.
    pub(crate) fn flush_obs(&mut self) {
        self.record_alias_epoch();
        self.obs.flush();
    }

    fn record_alias_epoch(&mut self) {
        if self.obs.is_enabled() {
            let s = self.backend.telemetry().sampling;
            self.obs
                .alias_cache_epoch(self.tick, s.cache_hits, s.alias_builds, s.cache_evictions);
        }
    }

    /// Live signals of this shard for placement and stats.
    pub(crate) fn snapshot(&self, shard: usize) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            class: self.backend.backend_class(),
            cost_hint: self.backend.cost_hint(),
            queued: self.queued(),
            in_flight: self.backend.in_flight(),
            submitted: self.collector.submitted,
            completed: self.collector.completed,
            ewma_latency_ticks: self.ewma_latency_ticks,
            telemetry: self.backend.telemetry(),
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
        let taken = self.backend.submit(batch);
        self.batcher.unshift(taken);
        if taken == 0 {
            return false;
        }
        let id = self.first_batch + self.batches.len() as u64;
        self.batches.push_back(BatchInFlight {
            remaining: taken,
            flushed_at: Instant::now(),
            flushed_tick: self.tick,
        });
        self.records
            .extend(self.batcher.taken().map(|(q, arrival_tick)| Record {
                id: q.id,
                arrival_tick,
                batch: id,
            }));
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
        let i = self
            .records
            .iter()
            .position(|r| r.id == internal)
            .expect("completed path must belong to a flushed batch");
        let Record {
            arrival_tick,
            batch,
            ..
        } = self.records.remove(i).expect("a found record");
        let b = &mut self.batches[(batch - self.first_batch) as usize];
        b.remaining -= 1;
        let flushed_tick = b.flushed_tick;
        if b.remaining == 0 {
            c.record_batch_done(b.flushed_at.elapsed(), self.tick - flushed_tick);
            while self.batches.front().is_some_and(|b| b.remaining == 0) {
                self.batches.pop_front();
                self.first_batch += 1;
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use grw_rng::{RandomSource, SplitMix64};
    use std::collections::BTreeMap;

    const MAX_BATCH: usize = 8;

    /// A backend that completes work out of order: each poll shuffles
    /// what it holds with a seeded permutation and completes a seeded
    /// prefix of it. It also refuses the tail of about one batch in four
    /// (all of it, sometimes, while it holds other work), and logs the
    /// ids of every batch it accepted part of.
    struct ShuffleBackend {
        held: Vec<WalkQuery>,
        rng: SplitMix64,
        accepted: Vec<Vec<u64>>,
        refused: usize,
    }

    impl ShuffleBackend {
        fn shuffle(&mut self) {
            for i in (1..self.held.len()).rev() {
                let j = self.rng.next_below(i as u64 + 1) as usize;
                self.held.swap(i, j);
            }
        }

        fn complete(&mut self, n: usize) -> Vec<WalkPath> {
            self.held
                .drain(..n)
                .map(|q| WalkPath::new(q.id, vec![q.start, q.start + 1]))
                .collect()
        }
    }

    impl WalkBackend for ShuffleBackend {
        fn submit(&mut self, queries: &[WalkQuery]) -> usize {
            let taken = if self.rng.next_below(4) == 0 {
                // Never refuse everything while idle: a drain must progress.
                let floor = u64::from(self.held.is_empty());
                self.rng.next_below(queries.len() as u64).max(floor) as usize
            } else {
                queries.len()
            };
            self.refused += queries.len() - taken;
            self.held.extend_from_slice(&queries[..taken]);
            if taken > 0 {
                self.accepted
                    .push(queries[..taken].iter().map(|q| q.id).collect());
            }
            taken
        }

        fn poll(&mut self) -> Vec<WalkPath> {
            self.shuffle();
            let n = self.rng.next_below(self.held.len() as u64 + 1) as usize;
            self.complete(n)
        }

        fn drain(&mut self) -> Vec<WalkPath> {
            self.shuffle();
            self.complete(self.held.len())
        }

        fn capacity_hint(&self) -> usize {
            usize::MAX
        }

        fn in_flight(&self) -> usize {
            self.held.len()
        }
    }

    /// Which runner call flushed a batch, which fixes its reason.
    #[derive(Clone, Copy)]
    enum Call {
        Accept,
        Tick,
        Drain,
    }

    /// What a walk's attribution must be, kept without the runner's
    /// rings: per internal id, a FIFO of accept ticks and a FIFO of the
    /// batches that flushed it.
    #[derive(Default)]
    struct Model {
        parked: usize,
        arrivals: BTreeMap<u64, VecDeque<u64>>,
        flushes: BTreeMap<u64, VecDeque<usize>>,
        /// Per batch: flush tick and walks still out.
        batches: Vec<(u64, usize)>,
        /// Batches flushed by size, deadline and drain.
        reasons: [u64; 3],
        /// Tick latency of every completed batch, in completion order.
        batch_latencies: Vec<u64>,
        /// Per tenant: submitted, completed, latency sum.
        tenants: BTreeMap<TenantId, (u64, u64, u64)>,
    }

    impl Model {
        fn accepted(&mut self, id: u64, now: u64) {
            self.parked += 1;
            self.arrivals.entry(id).or_default().push_back(now);
            self.tenants.entry(TenantId::unpack(id).0).or_default().0 += 1;
        }

        /// Registers the batches the backend accepted since the last call.
        fn flushed(&mut self, backend: &mut ShuffleBackend, call: Call, now: u64) {
            for ids in backend.accepted.drain(..) {
                let reason = match call {
                    Call::Accept => 0,
                    Call::Tick if self.parked >= MAX_BATCH => 0,
                    Call::Tick => 1,
                    Call::Drain => 2,
                };
                self.reasons[reason] += 1;
                self.parked -= ids.len();
                for &id in &ids {
                    self.flushes
                        .entry(id)
                        .or_default()
                        .push_back(self.batches.len());
                }
                self.batches.push((now, ids.len()));
            }
        }

        fn completed(&mut self, walks: &[CompletedWalk], now: u64) {
            for w in walks {
                let id = w.tenant.namespace(w.path.query);
                let arrival = self.arrivals.get_mut(&id).unwrap().pop_front().unwrap();
                let batch = self.flushes.get_mut(&id).unwrap().pop_front().unwrap();
                let (flushed, remaining) = &mut self.batches[batch];
                *remaining -= 1;
                if *remaining == 0 {
                    self.batch_latencies.push(now - *flushed);
                }
                assert_eq!(
                    (w.arrival_tick, w.flushed_tick, w.completed_tick),
                    (arrival, *flushed, now),
                    "walk of {id:#x} attributed to the wrong record"
                );
                let t = self.tenants.get_mut(&w.tenant).unwrap();
                t.1 += 1;
                t.2 += now - arrival;
            }
        }
    }

    #[test]
    fn completions_match_a_per_id_fifo_model() {
        for seed in 1..=8 {
            let cfg = ServiceConfig::new(1)
                .max_batch(MAX_BATCH)
                .max_delay_ticks(2)
                .buffer_capacity(32)
                .latency_reservoir(1 << 16);
            let backend = ShuffleBackend {
                held: Vec::new(),
                rng: SplitMix64::new(seed),
                accepted: Vec::new(),
                refused: 0,
            };
            let mut runner = ShardRunner::new(&cfg, backend);
            let mut model = Model::default();
            let mut rng = SplitMix64::new(seed ^ 0xA11CE);
            let mut offer = |runner: &mut ShardRunner<ShuffleBackend>, model: &mut Model, now| {
                // Bursts above and below the batch size, and idle ticks.
                for _ in 0..rng.next_below(3) * rng.next_below(8) {
                    // Three tenants each reusing four local ids.
                    let tenant = TenantId(rng.next_below(3) as u16);
                    let q = WalkQuery {
                        id: tenant.namespace(rng.next_below(4)),
                        start: rng.next_below(100) as u32,
                    };
                    if runner.accept(q, now) {
                        model.accepted(q.id, now);
                    }
                    model.flushed(&mut runner.backend, Call::Accept, now);
                }
            };
            let mut now = 0;
            for _ in 0..300 {
                now += 1;
                offer(&mut runner, &mut model, now);
                let walks = runner.run_tick(now);
                model.flushed(&mut runner.backend, Call::Tick, now);
                model.completed(&walks, now);
            }
            while runner.queued() == 0 {
                offer(&mut runner, &mut model, now);
            }
            let walks = runner.drain_all();
            model.flushed(&mut runner.backend, Call::Drain, now);
            model.completed(&walks, now);

            assert!(runner.backend.refused > 0, "pushback was exercised");
            assert!(model.reasons.iter().all(|&n| n > 0), "{:?}", model.reasons);
            assert!(runner.records.is_empty() && runner.batches.is_empty());
            let c = &runner.collector;
            assert_eq!(c.batches_flushed, model.batches.len() as u64);
            assert_eq!(
                [c.flushed_by_size, c.flushed_by_deadline, c.flushed_by_drain],
                model.reasons
            );
            assert_eq!(c.batch_latencies_ticks.sample(), &model.batch_latencies[..]);
            assert_eq!(c.batch_latencies_ticks.seen(), model.batches.len() as u64);
            let tenants: BTreeMap<TenantId, (u64, u64, u64)> = c
                .tenants
                .iter()
                .map(|(&t, tc)| (t, (tc.submitted, tc.completed, tc.latency_sum)))
                .collect();
            assert_eq!(tenants, model.tenants);
        }
    }
}
