//! The threads executor: one OS thread per shard runner.
//!
//! ```text
//!      Driver (caller thread): namespacing, clock, delivery, stats merge
//!                       │
//!                    Threads ─────────────────┐ stats()/snapshots:
//!                │ per-shard credit ledger    │ Report round-trip
//!        ┌───────┼────────┐                   │
//!  bounded    bounded   bounded              │
//!  SyncQueue  SyncQueue SyncQueue   one Submit per shard per submit,
//!        │       │        │         one Tick per shard per tick
//!   worker 0  worker 1  worker 2    (a ShardRunner with its own
//!        │       │        │          StatsCollector, per thread)
//!        └───────┴────────┘
//!   one Reply per shard per tick — its walks + parked count —
//!   collected by the next tick() or barrier (one tick deep)
//! ```
//!
//! Each worker owns its [`ShardRunner`] outright — backend, micro-batch
//! buffer, per-query bookkeeping, stats collector and obs recorder all
//! live on the worker thread, so the hot path takes no locks and shares
//! no state. Workers never see a sink: every tick's walks travel back in
//! the tick's reply and the [`Driver`](crate::Driver) delivers them. The
//! coordinator talks to workers only through bounded command queues
//! ([`SyncQueue`]; a slow shard backpressures the submitter instead of
//! queueing unboundedly) and hears back only through one-shot [`Reply`]
//! slots, which workers fill without ever blocking — what makes the
//! command pushes deadlock-free.
//!
//! # Submission: one command per shard
//!
//! A submit call is bucketed by home shard and costs one queue push per
//! shard it touches. Whether a worker will take its whole bucket is
//! decided on the coordinator by a credit ledger: the shard's parked
//! count at its last acknowledged tick, plus the queries admitted since
//! that tick was sent, plus the bucket, must fit
//! [`ServiceConfig::buffer_capacity`](crate::ServiceConfig::buffer_capacity).
//! Admissions are the only way a parked count grows (ticks and size
//! flushes only shrink it), so when every bucket fits, every `accept`
//! succeeds exactly as it would inline and the buckets go out with no
//! reply. Otherwise — near saturation — the call takes the exact path:
//! contiguous same-shard runs, each a synchronous round-trip, the first
//! partial run ending the call. The input picks the path; acceptance
//! counts and prefix semantics equal the inline executor's on both.
//!
//! # Ticks: pipelined one deep
//!
//! [`Threads::tick`] first collects each worker's reply to the previous
//! tick — the walks that tick completed, and the parked count that
//! refreshes the ledger — then sends this tick. The coordinator therefore
//! prepares tick *t+1*'s submits while the workers execute tick *t*, but
//! never runs more than one tick ahead: threaded `tick()` *k* hands out
//! exactly the walks inline `tick()` *k−1* does, and the coordinator's
//! barriers ([`Threads::collect`]) absorb the last tick.
//!
//! # Determinism contract
//!
//! A shard's walks are a function of its own command stream: the
//! coordinator sends each worker exactly the per-shard subsequence of
//! accepts (with their arrival ticks) and tick advances that the inline
//! executor applies, in the same order. Per-shard state therefore evolves
//! identically under both executors, micro-batch compositions included,
//! and the multiset of completed walks — per tenant, paths and tick
//! stamps included — is equal, tick by tick one call later
//! (`tests/threaded.rs` pins the multiset property down).
//!
//! # Failure and shutdown
//!
//! Every reply wait checks that the worker's thread is still running, so
//! a panicked worker makes the coordinator panic — naming the shard —
//! within a fraction of a second instead of hanging it. A worker that
//! exits for any reason also closes its own command queue, so pushes to
//! it fail just as fast.
//!
//! [`Threads::join`] closes the command queues after the coordinator's
//! final drain; workers return their final report through `join`.
//! Dropping the executor without it closes the queues and joins (clean
//! exit, but undelivered completions are discarded).

use crate::driver::Batch;
use crate::mpsc::{Reply, SyncQueue};
use crate::runner::ShardRunner;
use crate::stats::StatsCollector;
use crate::{CompletedWalk, ShardSnapshot, TenantId};
use grw_algo::{BackendTelemetry, WalkBackend, WalkQuery};
use grw_obs::{Event, Obs, ShardObs};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Commands one shard's submission queue can hold before the coordinator
/// blocks pushing — the cross-thread backpressure bound. Commands are
/// batch-granular (a shard's bucket of one submit, or a tick), so this is
/// plenty of runway without letting a slow shard hide unbounded queued
/// work.
const COMMAND_QUEUE_DEPTH: usize = 256;

/// One instruction to a shard worker. The per-shard command stream is
/// the worker's whole world — see the module docs.
enum Command {
    /// Accept a prefix of `queries` (already tenant-namespaced) at tick
    /// `now`. With a `reply`, report how many were taken (the exact
    /// path); without one, the credit ledger has proven they all fit.
    Submit {
        queries: Vec<WalkQuery>,
        now: u64,
        reply: Option<Arc<Reply<usize>>>,
    },
    /// Advance the shard to tick `now` — flush due micro-batches, poll
    /// the backend — and reply with what the tick completed.
    Tick {
        now: u64,
        reply: Arc<Reply<TickDone>>,
    },
    /// The export barrier: run the shard completely dry first when
    /// `drain` is set, then reply with the walks that completed doing so
    /// and every buffered observability event.
    Barrier {
        drain: bool,
        reply: Arc<Reply<(Vec<CompletedWalk>, Vec<Event>)>>,
    },
    /// Reply with a point-in-time report (stats and snapshot round-trip).
    Report { reply: Arc<Reply<WorkerReport>> },
    /// Install an observability recorder on the runner.
    AttachObs(Box<ShardObs>),
}

/// A worker's answer to one tick.
struct TickDone {
    /// The walks the tick completed.
    walks: Vec<CompletedWalk>,
    /// Queries left parked in the shard's buffer after the tick.
    parked: usize,
}

/// A worker's point-in-time (or final) state, for the coordinator's
/// stats merge and snapshots.
pub(crate) struct WorkerReport {
    pub(crate) snapshot: ShardSnapshot,
    pub(crate) collector: StatsCollector,
}

/// The worker loop: applies commands in FIFO order until the queue
/// closes, then runs the shard dry and returns its final report.
fn serve<B: WalkBackend>(
    mut runner: ShardRunner<B>,
    shard: usize,
    commands: &SyncQueue<Command>,
) -> WorkerReport {
    let report = |r: &ShardRunner<B>| WorkerReport {
        snapshot: r.snapshot(shard),
        collector: r.collector.clone(),
    };
    while let Some(cmd) = commands.pop() {
        match cmd {
            Command::Submit {
                queries,
                now,
                reply,
            } => {
                let taken = runner.accept_batch(&queries, now);
                match reply {
                    Some(reply) => reply.send(taken),
                    None => assert_eq!(
                        taken,
                        queries.len(),
                        "the credit ledger admitted a submit the shard refused"
                    ),
                }
            }
            Command::Tick { now, reply } => {
                let walks = runner.run_tick(now);
                reply.send(TickDone {
                    walks,
                    parked: runner.queued(),
                });
            }
            Command::Barrier { drain, reply } => {
                let walks = if drain {
                    runner.drain_all()
                } else {
                    Vec::new()
                };
                reply.send((walks, runner.export_events()));
            }
            Command::Report { reply } => reply.send(report(&runner)),
            Command::AttachObs(obs) => runner.set_obs(*obs),
        }
    }
    // The coordinator drains before closing the queue, so this finds work
    // only when it was dropped unfinished; those walks are discarded.
    runner.drain_all();
    report(&runner)
}

/// Closes a worker's command queue when the worker thread exits, however
/// it exits: after a panic, the coordinator's next push fails at once
/// instead of blocking on a queue nobody pops.
struct CloseOnExit(Arc<SyncQueue<Command>>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The coordinator's handle on one worker: its command queue and thread,
/// the tick reply still in flight, and the credit ledger that admits
/// submits without a round-trip (see the module docs).
struct Shard {
    commands: Arc<SyncQueue<Command>>,
    handle: JoinHandle<WorkerReport>,
    /// Reply to the last tick sent, collected by the next `tick()` or
    /// barrier.
    pending_tick: Option<Arc<Reply<TickDone>>>,
    /// Queries parked in the shard's buffer at its last acknowledged
    /// tick.
    parked: usize,
    /// Queries admitted since the last acknowledged tick was sent.
    admitted_since_acked: usize,
    /// Queries admitted since the pending tick was sent.
    admitted_since_sent: usize,
}

impl Shard {
    /// Whether `n` more queries provably fit a buffer of `capacity`: the
    /// parked count can only have grown by the admissions since the last
    /// acknowledged tick was sent.
    fn fits(&self, n: usize, capacity: usize) -> bool {
        self.parked + self.admitted_since_acked + n <= capacity
    }

    fn admit(&mut self, n: usize) {
        self.admitted_since_acked += n;
        self.admitted_since_sent += n;
    }

    /// Books a collected tick reply: its parked count now includes every
    /// admission sent before the tick.
    fn acknowledge(&mut self, parked: usize) {
        self.parked = parked;
        self.admitted_since_acked = self.admitted_since_sent;
    }

    /// Books a drain barrier: the shard holds nothing and owes no tick.
    fn drained(&mut self) {
        self.parked = 0;
        self.admitted_since_acked = 0;
        self.admitted_since_sent = 0;
    }
}

/// The threads executor: the coordinator's handles on its workers.
#[derive(Default)]
pub(crate) struct Threads {
    shards: Vec<Shard>,
    /// The tick whose replies are still out, if any.
    pending: Option<u64>,
}

impl Threads {
    /// Number of workers (= shards).
    pub(crate) fn len(&self) -> usize {
        self.shards.len()
    }

    /// Spawns one worker thread owning `runner` as the next shard.
    pub(crate) fn spawn<B: WalkBackend + Send + 'static>(&mut self, runner: ShardRunner<B>) {
        let shard = self.shards.len();
        let commands = Arc::new(SyncQueue::bounded(COMMAND_QUEUE_DEPTH));
        let queue = CloseOnExit(commands.clone());
        let handle = std::thread::Builder::new()
            .name(format!("grw-shard-{shard}"))
            .spawn(move || serve(runner, shard, &queue.0))
            .expect("spawn shard worker");
        self.shards.push(Shard {
            commands,
            handle,
            pending_tick: None,
            parked: 0,
            admitted_since_acked: 0,
            admitted_since_sent: 0,
        });
    }

    /// Ships every worker its recorder from `obs`.
    pub(crate) fn set_obs(&self, obs: &Obs) {
        for shard in 0..self.shards.len() {
            let recorder = Box::new(obs.shard_obs(shard as u32));
            self.send(shard, Command::AttachObs(recorder));
        }
    }

    /// Pushes `cmd` onto `shard`'s queue.
    ///
    /// # Panics
    ///
    /// Panics, naming the shard, if its worker has exited.
    fn send(&self, shard: usize, cmd: Command) {
        if self.shards[shard].commands.push(cmd).is_err() {
            panic!("shard {shard} worker died: its command queue is closed");
        }
    }

    /// Sends the command `make` builds around a fresh reply slot and
    /// returns the slot.
    fn request<T>(
        &self,
        shard: usize,
        make: impl FnOnce(Arc<Reply<T>>) -> Command,
    ) -> Arc<Reply<T>> {
        let reply = Arc::new(Reply::new());
        self.send(shard, make(reply.clone()));
        reply
    }

    /// Blocks until `shard`'s worker fills `reply`.
    ///
    /// # Panics
    ///
    /// Panics, naming the shard, if the worker dies first.
    fn wait<T>(&self, shard: usize, reply: &Reply<T>) -> T {
        let handle = &self.shards[shard].handle;
        reply
            .recv_while(|| !handle.is_finished())
            .unwrap_or_else(|| panic!("shard {shard} worker died before replying"))
    }

    /// Collects `shard`'s reply to its pending tick, if any, refreshing
    /// its credit ledger; returns the tick's walks.
    fn collect_tick(&mut self, shard: usize) -> Vec<CompletedWalk> {
        let Some(reply) = self.shards[shard].pending_tick.take() else {
            return Vec::new();
        };
        let done = self.wait(shard, &reply);
        self.shards[shard].acknowledge(done.parked);
        done.walks
    }

    /// Offers already-placed queries on behalf of `tenant`, query `i` to
    /// shard `homes[i]`; accepts a prefix and returns its length. The
    /// call costs one command per shard it touches, with no round-trip
    /// whenever the credit ledger proves every shard's bucket fits
    /// `capacity`; near saturation it falls back to one synchronous
    /// round-trip per contiguous same-shard run, the first
    /// partially-accepted run ending the call (see the module docs).
    pub(crate) fn submit(
        &mut self,
        tenant: TenantId,
        queries: &[WalkQuery],
        homes: &[usize],
        now: u64,
        capacity: usize,
    ) -> usize {
        let mut buckets: Vec<Vec<WalkQuery>> = vec![Vec::new(); self.shards.len()];
        for (q, &home) in queries.iter().zip(homes) {
            buckets[home].push(tenant.namespace_query(q));
        }
        let fits = buckets
            .iter()
            .zip(&self.shards)
            .all(|(b, s)| b.is_empty() || s.fits(b.len(), capacity));
        if !fits {
            return self.submit_runs(tenant, queries, homes, now);
        }
        for (shard, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            self.shards[shard].admit(bucket.len());
            self.send(
                shard,
                Command::Submit {
                    queries: bucket,
                    now,
                    reply: None,
                },
            );
        }
        queries.len()
    }

    /// The exact submit path near saturation: each contiguous same-shard
    /// run round-trips synchronously, and the first partially-accepted
    /// run stops the call.
    fn submit_runs(
        &mut self,
        tenant: TenantId,
        queries: &[WalkQuery],
        homes: &[usize],
        now: u64,
    ) -> usize {
        let mut accepted = 0;
        for run in homes.chunk_by(|a, b| a == b) {
            let shard = run[0];
            // Every earlier run was taken whole, so `accepted` is this
            // run's offset.
            let chunk: Vec<WalkQuery> = queries[accepted..accepted + run.len()]
                .iter()
                .map(|q| tenant.namespace_query(q))
                .collect();
            let reply = self.request(shard, |reply| Command::Submit {
                queries: chunk,
                now,
                reply: Some(reply),
            });
            let taken = self.wait(shard, &reply);
            self.shards[shard].admit(taken);
            accepted += taken;
            if taken < run.len() {
                break;
            }
        }
        accepted
    }

    /// Sends tick `now` to every shard and returns the previous tick's
    /// batch, if one was pending: for each shard in turn it collects the
    /// reply to the last tick, then sends this one, so the workers execute
    /// tick *t* while the caller prepares tick *t+1*.
    ///
    /// # Panics
    ///
    /// Panics, naming the shard, if a worker has died.
    pub(crate) fn tick(&mut self, now: u64) -> Option<Batch> {
        let mut out = Vec::new();
        for shard in 0..self.shards.len() {
            out.extend(self.collect_tick(shard));
            let reply = self.request(shard, |reply| Command::Tick { now, reply });
            let s = &mut self.shards[shard];
            s.pending_tick = Some(reply);
            s.admitted_since_sent = 0;
        }
        self.pending.replace(now).map(|tick| (tick, out))
    }

    /// The barrier over the pending tick: every shard's reply to it, in
    /// shard order, as one batch stamped with that tick.
    pub(crate) fn collect(&mut self) -> Option<Batch> {
        let tick = self.pending.take()?;
        let mut walks = Vec::new();
        for shard in 0..self.shards.len() {
            walks.extend(self.collect_tick(shard));
        }
        Some((tick, walks))
    }

    /// The export barrier on every worker, merging their events into
    /// `obs` in shard order; with `drain`, every shard runs dry first and
    /// its walks come back, one `Vec` per shard in shard order. Drain
    /// only after [`collect`](Self::collect), so no tick is pending.
    pub(crate) fn barrier(&mut self, drain: bool, obs: &Obs) -> Vec<Vec<CompletedWalk>> {
        debug_assert!(
            !drain || self.pending.is_none(),
            "collect the pending tick before a drain barrier"
        );
        let replies: Vec<_> = (0..self.shards.len())
            .map(|shard| self.request(shard, |reply| Command::Barrier { drain, reply }))
            .collect();
        let mut out = Vec::with_capacity(replies.len());
        for (shard, reply) in replies.iter().enumerate() {
            let (walks, events) = self.wait(shard, reply);
            obs.absorb(events);
            if drain {
                self.shards[shard].drained();
            }
            out.push(walks);
        }
        out
    }

    /// Runs the tail shard dry (merging its events into `obs`), stops its
    /// worker, and returns its walks with its final collector and
    /// telemetry. Call after [`collect`](Self::collect).
    ///
    /// # Panics
    ///
    /// Panics if the retiring worker died.
    pub(crate) fn retire(
        &mut self,
        obs: &Obs,
    ) -> (Vec<CompletedWalk>, (StatsCollector, BackendTelemetry)) {
        let shard = self.shards.len() - 1;
        let reply = self.request(shard, |reply| Command::Barrier { drain: true, reply });
        let (walks, events) = self.wait(shard, &reply);
        obs.absorb(events);
        let retiring = self.shards.pop().expect("fleet is non-empty");
        retiring.commands.close();
        let last = join(shard, retiring.handle);
        (walks, (last.collector, last.snapshot.telemetry))
    }

    /// Point-in-time reports of every worker, in shard order.
    pub(crate) fn reports(&self) -> Vec<WorkerReport> {
        let replies: Vec<_> = (0..self.shards.len())
            .map(|shard| self.request(shard, |reply| Command::Report { reply }))
            .collect();
        replies
            .iter()
            .enumerate()
            .map(|(shard, r)| self.wait(shard, r))
            .collect()
    }

    /// Shutdown after the coordinator's final drain: closes every command
    /// queue and joins every worker, returning their final reports in
    /// shard order — no extra round-trip.
    pub(crate) fn join(&mut self) -> Vec<WorkerReport> {
        for s in &self.shards {
            s.commands.close();
        }
        self.shards
            .drain(..)
            .enumerate()
            .map(|(shard, s)| join(shard, s.handle))
            .collect()
    }
}

/// Joins a worker whose queue is closed.
///
/// # Panics
///
/// Panics, naming the shard, if the worker panicked.
fn join(shard: usize, handle: JoinHandle<WorkerReport>) -> WorkerReport {
    handle
        .join()
        .unwrap_or_else(|_| panic!("shard {shard} worker died"))
}

impl Drop for Threads {
    fn drop(&mut self) {
        for s in &self.shards {
            s.commands.close();
        }
        for s in self.shards.drain(..) {
            // Workers drain on close; a panic on the worker thread
            // surfaces at finish()/join in tests, never from Drop.
            let _ = s.handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Driver, DriverMode, ServiceConfig};
    use grw_algo::{PreparedGraph, QuerySet, ReferenceBackend, WalkPath, WalkSpec};
    use grw_graph::generators::{Dataset, ScaleFactor};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::{Duration, Instant};

    fn shared() -> (Arc<PreparedGraph>, WalkSpec) {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(8);
        (Arc::new(PreparedGraph::new(g, &spec).unwrap()), spec)
    }

    type Key = (TenantId, u64, u64, u64, u64, Vec<u32>);

    fn keys(walks: &[CompletedWalk]) -> Vec<Key> {
        let mut keys: Vec<Key> = walks
            .iter()
            .map(|c| {
                (
                    c.tenant,
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
    }

    #[test]
    fn threaded_walks_match_deterministic_multiset() {
        let (p, spec) = shared();
        let cfg = ServiceConfig::new(3).max_batch(16).max_delay_ticks(2);
        let qs = QuerySet::random(p.graph().vertex_count(), 240, 11);

        let mk = |p: Arc<PreparedGraph>, spec: WalkSpec| {
            move |shard: usize| {
                ReferenceBackend::new(p.clone(), spec.clone(), 0xABBA ^ shard as u64)
            }
        };
        let mut det = Driver::new(cfg, mk(p.clone(), spec.clone()));
        let mut thr = Driver::new(
            cfg.driver_mode(DriverMode::Threaded),
            mk(p.clone(), spec.clone()),
        );

        let mut det_ticks = Vec::new();
        let mut thr_ticks = Vec::new();
        for chunk in qs.queries().chunks(40) {
            assert_eq!(
                det.submit(TenantId(4), chunk),
                thr.submit(TenantId(4), chunk),
                "acceptance parity"
            );
            det_ticks.push(det.tick());
            thr_ticks.push(thr.tick());
        }
        assert!(
            det_ticks[..det_ticks.len() - 1]
                .iter()
                .any(|t| !t.is_empty()),
            "setup: walks must complete before the last tick"
        );
        // Ticks are pipelined exactly one deep: threaded tick k hands out
        // what inline tick k-1 completed — never less, never more.
        assert!(thr_ticks[0].is_empty(), "the first tick has none to return");
        for k in 1..thr_ticks.len() {
            assert_eq!(keys(&thr_ticks[k]), keys(&det_ticks[k - 1]), "tick {k}");
        }
        // The drain barrier absorbs the last tick.
        let mut det_tail = det_ticks.pop().expect("ticks ran");
        det_tail.extend(det.drain());
        assert_eq!(keys(&thr.drain()), keys(&det_tail), "drain");
        let (rest, stats) = thr.finish();
        assert!(rest.is_empty(), "the drain left nothing behind");
        assert_eq!(stats.completed, 240);
        assert_eq!(stats.completed, det.stats().completed);
        assert_eq!(stats.steps, det.stats().steps);
    }

    #[test]
    fn finish_under_load_loses_nothing() {
        let (p, spec) = shared();
        let cfg = ServiceConfig::new(4)
            .max_batch(8)
            .driver_mode(DriverMode::Threaded);
        let mut thr = Driver::new(cfg, move |shard| {
            ReferenceBackend::new(p.clone(), spec.clone(), shard as u64)
        });
        let qs = QuerySet::random(500, 300, 3);
        let accepted = thr.submit(TenantId(1), qs.queries());
        // No ticks at all: everything is still parked when we shut down.
        let (walks, stats) = thr.finish();
        assert_eq!(walks.len(), accepted, "shutdown conserves accepted walks");
        assert_eq!(stats.completed as usize, accepted);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn drop_without_finish_joins_cleanly() {
        let (p, spec) = shared();
        let cfg = ServiceConfig::new(2).driver_mode(DriverMode::Threaded);
        let mut thr = Driver::new(cfg, move |shard| {
            ReferenceBackend::new(p.clone(), spec.clone(), shard as u64)
        });
        let qs = QuerySet::random(100, 50, 9);
        thr.submit(TenantId(0), qs.queries());
        thr.tick();
        drop(thr); // must not hang or panic
    }

    /// A backend that takes everything and panics on its first poll or
    /// drain — an injected worker fault.
    struct PanicOnPoll(usize);

    impl WalkBackend for PanicOnPoll {
        fn submit(&mut self, queries: &[WalkQuery]) -> usize {
            self.0 += queries.len();
            queries.len()
        }
        fn poll(&mut self) -> Vec<WalkPath> {
            panic!("injected backend fault")
        }
        fn drain(&mut self) -> Vec<WalkPath> {
            panic!("injected backend fault")
        }
        fn capacity_hint(&self) -> usize {
            usize::MAX
        }
        fn in_flight(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn a_dead_worker_panics_the_coordinator_fast_naming_its_shard() {
        for finish in [false, true] {
            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let cfg = ServiceConfig::new(2).driver_mode(DriverMode::Threaded);
                let mut thr = Driver::new(cfg, |_| PanicOnPoll(0));
                thr.submit(TenantId(0), &[WalkQuery { id: 1, start: 3 }]);
                // Both workers poll, and die, executing tick 1.
                thr.tick();
                if finish {
                    let _ = thr.finish();
                } else {
                    let _ = thr.tick();
                }
            }));
            let err = outcome.expect_err("a dead worker must fail the coordinator");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                msg.contains("shard 0 worker died"),
                "finish={finish}: {msg}"
            );
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "finish={finish}: took {:?} to notice",
                started.elapsed()
            );
        }
    }
}
