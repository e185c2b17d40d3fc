//! The multi-threaded serving runtime: one OS thread per shard.
//!
//! ```text
//!            submit/tick/drain (caller thread)
//!                       │
//!               ThreadedDriver ──────────────┐ stats()/snapshots:
//!                │ namespacing, clock,       │ Report round-trip,
//!                │ per-shard credit ledger   │ collectors merged
//!        ┌───────┼────────┐                  │ by ownership
//!  bounded    bounded   bounded              │
//!  SyncQueue  SyncQueue SyncQueue   one Submit per shard per submit,
//!        │       │        │         one Tick per shard per tick
//!   worker 0  worker 1  worker 2    (ShardRunner + own StatsCollector
//!        │       │        │          + own sink/spill, per thread)
//!        └───────┴────────┘
//!   one Reply per shard per tick — its walks + parked count —
//!   collected by the next tick() or barrier (one tick deep)
//! ```
//!
//! Each worker owns its [`ShardRunner`] outright — backend, micro-batch
//! buffer, per-query bookkeeping, stats collector, and (optionally) a
//! [`WalkSink`] with its spill buffer all live on the worker thread, so
//! the hot path takes no locks and shares no state. The driver talks to
//! workers only through bounded command queues (a slow shard
//! backpressures the submitter instead of queueing unboundedly) and
//! hears back only through one-shot [`Reply`] slots, which workers fill
//! without ever blocking — what makes the command pushes deadlock-free.
//!
//! # Submission: one command per shard
//!
//! A submit call is bucketed by home shard and costs one queue push per
//! shard it touches. Whether a worker will take its whole bucket is
//! decided on the coordinator by a credit ledger: the shard's parked
//! count at its last acknowledged tick, plus the queries admitted since
//! that tick was sent, plus the bucket, must fit
//! [`ServiceConfig::buffer_capacity`]. Admissions are the only way a
//! parked count grows (ticks and size flushes only shrink it), so when
//! every bucket fits, every `accept` succeeds exactly as it would inline
//! and the buckets go out with no reply. Otherwise — near saturation —
//! the call takes the exact path: contiguous same-shard runs, each a
//! synchronous round-trip, the first partial run ending the call. The
//! input picks the path; acceptance counts and prefix semantics equal the
//! deterministic driver's on both.
//!
//! # Ticks: pipelined one deep
//!
//! [`tick`](ThreadedDriver::tick) first collects each worker's reply to
//! the previous tick — the walks that tick completed, and the parked
//! count that refreshes the ledger — then sends this tick. The
//! coordinator therefore prepares tick *t+1*'s submits while the workers
//! execute tick *t*, but never runs more than one tick ahead: threaded
//! `tick()` *k* returns exactly the walks deterministic `tick()` *k−1*
//! returns, and [`drain`](ThreadedDriver::drain) /
//! [`finish`](ThreadedDriver::finish) absorb the last tick.
//!
//! # Determinism contract
//!
//! A shard's walks are a function of its own command stream: the driver
//! sends each worker exactly the per-shard subsequence of accepts (with
//! their arrival ticks) and tick advances that the deterministic
//! [`WalkService`](crate::WalkService) would have applied inline, in the
//! same order. Per-shard state therefore evolves identically under both
//! drivers, micro-batch compositions included, and the multiset of
//! completed walks — per tenant, paths and tick stamps included — is
//! equal, tick by tick one call later. Only the order of walks within one
//! call's result may differ, along with wall-clock timings and reservoir
//! sampling order (`tests/threaded.rs` pins the multiset property down).
//!
//! # Failure and shutdown
//!
//! Every reply wait checks that the worker's thread is still running, so
//! a panicked worker makes the coordinator panic — naming the shard —
//! within a fraction of a second instead of hanging it. A worker that
//! exits for any reason also closes its own command queue, so pushes to
//! it fail just as fast.
//!
//! [`finish`](ThreadedDriver::finish) drains every shard (barrier), then
//! closes the command queues; workers run their shard dry, flush their
//! sink, and return their final report through `join` — zero accepted
//! walks are ever lost. Dropping the driver without `finish` closes the
//! queues and joins (clean exit, but undelivered completions are
//! discarded).

use crate::mpsc::{Reply, SyncQueue};
use crate::runner::ShardRunner;
use crate::sink::SpillDelivery;
use crate::stats::{rollup_telemetry, StatsCollector};
use crate::{
    shard_of, CompletedWalk, ServiceConfig, ServiceStats, ShardSnapshot, SinkReport, TenantId,
    WalkSink,
};
use grw_algo::{BackendClass, BackendTelemetry, WalkBackend, WalkQuery};
use grw_obs::{Event, Obs, ShardObs, SEQ_BASE_SPILL};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Commands one shard's submission queue can hold before the driver
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
    /// Run the shard completely dry and reply with the walks that
    /// completed doing so (the drain barrier).
    Drain {
        reply: Arc<Reply<Vec<CompletedWalk>>>,
    },
    /// Reply with a point-in-time report (stats round-trip).
    Report { reply: Arc<Reply<WorkerReport>> },
    /// Route this shard's completions into `sink` from now on (the sink
    /// lives on the worker thread, spill/conservation invariants
    /// included).
    AttachSink { sink: Box<dyn WalkSink + Send> },
    /// Install observability recorders on the worker (runner + spill
    /// stream). Events buffer on the worker thread and ship back inside
    /// [`WorkerReport`]s — per-worker buffers merged at the coordinator.
    AttachObs {
        runner_obs: Box<ShardObs>,
        spill_obs: Box<ShardObs>,
    },
}

/// A worker's answer to one tick.
struct TickDone {
    /// The walks the tick completed (empty with a sink attached: they
    /// went there).
    walks: Vec<CompletedWalk>,
    /// Queries left parked in the shard's buffer after the tick.
    parked: usize,
}

/// A worker's point-in-time (or final) state, shipped to the driver for
/// stats merging and snapshots.
struct WorkerReport {
    collector: StatsCollector,
    telemetry: BackendTelemetry,
    class: BackendClass,
    cost_hint: f64,
    queued: usize,
    in_flight: usize,
    submitted: u64,
    completed: u64,
    ewma_latency_ticks: Option<f64>,
    spill_depth: usize,
    sink: Option<SinkReport>,
    /// Buffered observability events since the last report, shipped to
    /// the coordinator for merging into the hub journal.
    events: Vec<Event>,
}

/// The per-thread half: a [`ShardRunner`] plus everything delivery-side
/// the deterministic service keeps globally (collector, sink, spill).
struct Worker<B: WalkBackend> {
    runner: ShardRunner<B>,
    collector: StatsCollector,
    spill: SpillDelivery,
    sink: Option<Box<dyn WalkSink + Send>>,
}

impl<B: WalkBackend> Worker<B> {
    /// Sends completed walks into the worker-owned sink when one is
    /// attached (spill semantics identical to the deterministic service)
    /// and returns nothing; otherwise hands them back for the reply.
    fn deliver(&mut self, walks: Vec<CompletedWalk>) -> Vec<CompletedWalk> {
        let Some(sink) = self.sink.as_mut() else {
            return walks;
        };
        let now = self.runner.now();
        self.spill.deliver(walks, sink, now, &mut self.collector);
        Vec::new()
    }

    fn report(&mut self) -> WorkerReport {
        // A report is an export barrier: journal the alias-cache epoch
        // and drain the local event buffers into the report.
        self.runner.record_alias_epoch();
        let mut events = self.runner.obs.take_events();
        events.append(&mut self.spill.obs.take_events());
        WorkerReport {
            collector: self.collector.clone(),
            telemetry: self.runner.backend.telemetry(),
            class: self.runner.backend.backend_class(),
            cost_hint: self.runner.backend.cost_hint(),
            queued: self.runner.queued(),
            in_flight: self.runner.backend.in_flight(),
            submitted: self.runner.submitted,
            completed: self.runner.completed,
            ewma_latency_ticks: self.runner.ewma_latency_ticks,
            spill_depth: self.spill.depth(),
            sink: self.sink.as_ref().map(|s| s.report()),
            events,
        }
    }

    /// Runs the shard to quiescence and settles the sink — the shared
    /// tail of an explicit drain and of shutdown. Returns the walks not
    /// taken by a sink.
    fn drain(&mut self) -> Vec<CompletedWalk> {
        let walks = self.runner.drain_all(&mut self.collector);
        let walks = self.deliver(walks);
        if let Some(mut sink) = self.sink.take() {
            let now = self.runner.now();
            self.spill.run_dry(&mut sink, now, &mut self.collector);
            sink.flush();
            self.sink = Some(sink);
        }
        walks
    }

    /// The worker loop: applies commands in FIFO order until the queue
    /// closes, then drains and returns the final report.
    fn run(mut self, commands: &SyncQueue<Command>) -> WorkerReport {
        while let Some(cmd) = commands.pop() {
            match cmd {
                Command::Submit {
                    queries,
                    now,
                    reply,
                } => {
                    let taken = self.runner.accept_batch(&queries, now, &mut self.collector);
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
                    let walks = self.runner.run_tick(now, &mut self.collector);
                    let walks = self.deliver(walks);
                    reply.send(TickDone {
                        walks,
                        parked: self.runner.queued(),
                    });
                }
                Command::Drain { reply } => {
                    let walks = self.drain();
                    reply.send(walks);
                }
                Command::Report { reply } => {
                    let report = self.report();
                    reply.send(report);
                }
                Command::AttachSink { sink } => self.sink = Some(sink),
                Command::AttachObs {
                    runner_obs,
                    spill_obs,
                } => {
                    self.runner.set_obs(*runner_obs);
                    self.spill.set_obs(*spill_obs);
                }
            }
        }
        // `finish` and `retire_shard` drain before closing the queue, so
        // this finds work only when the driver was dropped without
        // `finish`; those walks are discarded with it.
        self.drain();
        self.report()
    }
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

/// The thread-per-shard driver. Construct with [`new`](Self::new) (or
/// the fleet helpers [`mixed_fleet_driver`](crate::mixed_fleet_driver) /
/// [`accelerator_driver`](crate::accelerator_driver)); the API mirrors
/// [`WalkService`](crate::WalkService) where semantics allow, with two
/// deliberate differences: a `tick` returns the walks of the *previous*
/// tick (ticks are pipelined one deep), and sinks attach per shard on the
/// worker threads ([`attach_sinks`](Self::attach_sinks)) instead of as
/// one global subscription.
pub struct ThreadedDriver {
    cfg: ServiceConfig,
    tick: u64,
    started: Instant,
    /// Submission-side counters (accepted queries per tenant); workers
    /// keep the delivery-side counters and everything merges in
    /// [`stats`](Self::stats).
    collector: StatsCollector,
    shards: Vec<Shard>,
    /// Final reports of workers retired by
    /// [`retire_shard`](Self::retire_shard), kept so merged statistics
    /// (completions, steps, latency samples) survive scale-down events.
    retired: Vec<WorkerReport>,
    /// Observability hub (disabled until [`attach_obs`](Self::attach_obs)):
    /// worker event buffers merge into it at every report round-trip.
    obs: Obs,
}

impl ThreadedDriver {
    /// Builds the fleet and spawns one worker thread per shard; the
    /// `shard`-th backend comes from `make_backend(shard)` (called on
    /// the current thread — the finished backend moves to its worker,
    /// which is why `B: Send`).
    pub fn new<B: WalkBackend + Send + 'static>(
        cfg: ServiceConfig,
        mut make_backend: impl FnMut(usize) -> B,
    ) -> Self {
        let mut driver = Self {
            cfg,
            tick: 0,
            started: Instant::now(),
            collector: StatsCollector::new(cfg.latency_reservoir),
            shards: Vec::with_capacity(cfg.shards),
            retired: Vec::new(),
            obs: Obs::disabled(),
        };
        for shard in 0..cfg.shards {
            driver.spawn_worker(make_backend(shard));
        }
        driver
    }

    /// Spawns one worker thread owning `backend` as the next shard and
    /// returns its index — the shared tail of construction and
    /// [`append_shard`](Self::append_shard).
    fn spawn_worker<B: WalkBackend + Send + 'static>(&mut self, backend: B) -> usize {
        let shard = self.shards.len();
        let commands = Arc::new(SyncQueue::bounded(COMMAND_QUEUE_DEPTH));
        let worker = Worker {
            runner: ShardRunner::new(&self.cfg, backend),
            collector: StatsCollector::new(self.cfg.latency_reservoir),
            spill: SpillDelivery::new(self.cfg.sink_spill_capacity),
            sink: None,
        };
        let queue = CloseOnExit(commands.clone());
        let handle = std::thread::Builder::new()
            .name(format!("grw-shard-{shard}"))
            .spawn(move || worker.run(&queue.0))
            .expect("spawn shard worker");
        self.shards.push(Shard {
            commands,
            handle,
            pending_tick: None,
            parked: 0,
            admitted_since_acked: 0,
            admitted_since_sent: 0,
        });
        self.cfg.shards = self.shards.len();
        if self.obs.is_enabled() {
            self.send_attach_obs(shard);
        }
        shard
    }

    /// Ships a pair of per-shard recorders (runner + spill stream) to
    /// one worker.
    fn send_attach_obs(&self, shard: usize) {
        self.send(
            shard,
            Command::AttachObs {
                runner_obs: Box::new(self.obs.shard_obs(shard as u32)),
                spill_obs: Box::new(self.obs.shard_obs(shard as u32).seq_base(SEQ_BASE_SPILL)),
            },
        );
    }

    /// Attaches an observability hub: every worker gets per-shard
    /// recorders, records into thread-local buffers, and ships them back
    /// inside worker reports, where the coordinator merges them into
    /// the hub journal. Attach before submitting traffic so the trace
    /// covers the whole run; attaching never changes walk content or
    /// tick stamps.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
        if self.obs.is_enabled() {
            for shard in 0..self.shards.len() {
                self.send_attach_obs(shard);
            }
        }
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

    /// Forces an export barrier: a report round-trip to every worker,
    /// merging their buffered events into the hub journal.
    pub fn flush_obs(&mut self) {
        if self.obs.is_enabled() {
            let _ = self.reports();
        }
    }

    /// Grows the live fleet by one shard: spawns a worker thread owning
    /// `backend` and returns its index (always the new highest). The
    /// shard joins the vertex-hash partition from the very next
    /// submission; since submits and ticks are commands the driver
    /// serializes, the append lands at a micro-batch boundary exactly
    /// like [`WalkService::append_shard`](crate::WalkService::append_shard),
    /// and the walk multiset stays identical across the two regimes for
    /// the same submission/tick/scale schedule.
    pub fn append_shard<B: WalkBackend + Send + 'static>(&mut self, backend: B) -> usize {
        self.spawn_worker(backend)
    }

    /// Shrinks the live fleet by one shard — the highest-index one —
    /// with walk conservation: the shard's last tick is collected, a
    /// drain barrier runs the worker dry, then its command queue closes
    /// and the thread joins. Returns exactly the retiring shard's walks
    /// not yet handed out: its last tick's and the drain's (none when a
    /// sink is attached). Retirement is LIFO so surviving shard indices
    /// never shift.
    ///
    /// The worker's final report (stats counters, latency samples, sink
    /// report) stays folded into [`stats`](Self::stats).
    ///
    /// # Panics
    ///
    /// Panics if the fleet has only one shard, or if the retiring worker
    /// died.
    pub fn retire_shard(&mut self) -> Vec<CompletedWalk> {
        assert!(self.shards.len() > 1, "cannot retire the last shard");
        let shard = self.shards.len() - 1;
        let mut walks = self.collect_tick(shard);
        let reply = self.request(shard, |reply| Command::Drain { reply });
        walks.extend(self.wait(shard, &reply));
        let retiring = self.shards.pop().expect("fleet is non-empty");
        retiring.commands.close();
        let mut report = retiring
            .handle
            .join()
            .unwrap_or_else(|_| panic!("shard {shard} worker died"));
        self.obs.absorb(std::mem::take(&mut report.events));
        self.retired.push(report);
        self.cfg.shards = self.shards.len();
        walks
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

    /// The shard a start vertex routes to — the same pure hash partition
    /// as [`WalkService::shard_of`](crate::WalkService::shard_of).
    pub fn shard_of(&self, start: u32) -> usize {
        shard_of(start, self.cfg.shards)
    }

    /// Offers queries on behalf of `tenant`, each to its vertex-hash
    /// home; accepts a prefix and returns its length — see
    /// [`submit_placed`](Self::submit_placed).
    pub fn submit(&mut self, tenant: TenantId, queries: &[WalkQuery]) -> usize {
        let homes: Vec<usize> = queries.iter().map(|q| self.shard_of(q.start)).collect();
        self.submit_placed(tenant, queries, &homes)
    }

    /// [`submit`](Self::submit) with every query placed on `shard` by the
    /// caller (the routing hook `grw_route` drives).
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
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        self.submit_placed(tenant, queries, &vec![shard; queries.len()])
    }

    /// Offers queries on behalf of `tenant`, query `i` to shard
    /// `homes[i]`; accepts a prefix and returns its length, with
    /// backpressure semantics identical to the deterministic driver. The
    /// call costs one command per shard it touches, with no round-trip
    /// whenever the credit ledger proves every shard's bucket fits; near
    /// saturation it falls back to one synchronous round-trip per
    /// contiguous same-shard run, the first partially-accepted run
    /// ending the call (see the module docs).
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
        let shards = self.shards.len();
        assert!(homes.iter().all(|&s| s < shards), "home shard out of range");
        let mut buckets: Vec<Vec<WalkQuery>> = vec![Vec::new(); shards];
        for (q, &home) in queries.iter().zip(homes) {
            buckets[home].push(tenant.namespace_query(q));
        }
        let capacity = self.cfg.buffer_capacity;
        let fits = buckets
            .iter()
            .zip(&self.shards)
            .all(|(b, s)| b.is_empty() || s.fits(b.len(), capacity));
        if !fits {
            return self.submit_runs(tenant, queries, homes);
        }
        let now = self.tick;
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
        for _ in queries {
            self.collector.record_submitted(tenant);
        }
        queries.len()
    }

    /// The exact submit path near saturation: each contiguous same-shard
    /// run round-trips synchronously, and the first partially-accepted
    /// run stops the call.
    fn submit_runs(&mut self, tenant: TenantId, queries: &[WalkQuery], homes: &[usize]) -> usize {
        let now = self.tick;
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
        for _ in 0..accepted {
            self.collector.record_submitted(tenant);
        }
        accepted
    }

    /// Advances the logical clock one tick on every shard and returns
    /// the walks the *previous* tick completed: for each shard in turn it
    /// collects the reply to the last tick, then sends this one, so the
    /// workers execute tick *t* while the caller prepares tick *t+1*.
    /// Threaded `tick()` *k* thus returns exactly what deterministic
    /// `tick()` *k−1* returns; [`drain`](Self::drain) and
    /// [`finish`](Self::finish) collect the last tick.
    ///
    /// # Panics
    ///
    /// Panics, naming the shard, if a worker has died.
    pub fn tick(&mut self) -> Vec<CompletedWalk> {
        self.tick += 1;
        let now = self.tick;
        let mut out = Vec::new();
        for shard in 0..self.shards.len() {
            out.extend(self.collect_tick(shard));
            let reply = self.request(shard, |reply| Command::Tick { now, reply });
            let s = &mut self.shards[shard];
            s.pending_tick = Some(reply);
            s.admitted_since_sent = 0;
        }
        out
    }

    /// Runs every shard dry (a full barrier: all workers report
    /// quiescence before this returns) and returns everything completed
    /// and not yet handed out — the last tick's walks included. Shards
    /// with an attached sink deliver there instead, spill run dry and
    /// sink flushed, exactly like the deterministic drain.
    ///
    /// # Panics
    ///
    /// Panics, naming the shard, if a worker has died.
    pub fn drain(&mut self) -> Vec<CompletedWalk> {
        let mut out = Vec::new();
        let mut replies = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            out.extend(self.collect_tick(shard));
            replies.push(self.request(shard, |reply| Command::Drain { reply }));
        }
        for (shard, reply) in replies.iter().enumerate() {
            out.extend(self.wait(shard, reply));
            self.shards[shard].drained();
        }
        out
    }

    /// Routes each shard's completions into its own sink from now on;
    /// the sinks move onto the worker threads (hence `Send`) and all
    /// spill/conservation invariants apply per shard. Attach before
    /// submitting traffic to keep every walk on the sink route; walks
    /// already completed stay with the caller.
    pub fn attach_sinks(&mut self, mut make_sink: impl FnMut(usize) -> Box<dyn WalkSink + Send>) {
        for shard in 0..self.shards.len() {
            let sink = make_sink(shard);
            self.send(shard, Command::AttachSink { sink });
        }
    }

    /// Each shard sink's own counters (`None` for shards without one) —
    /// a stats round-trip to every worker.
    pub fn sink_reports(&self) -> Vec<Option<SinkReport>> {
        self.reports().into_iter().map(|r| r.sink).collect()
    }

    fn reports(&self) -> Vec<WorkerReport> {
        let replies: Vec<Arc<Reply<WorkerReport>>> = (0..self.shards.len())
            .map(|shard| self.request(shard, |reply| Command::Report { reply }))
            .collect();
        let mut reports: Vec<WorkerReport> = replies
            .iter()
            .enumerate()
            .map(|(shard, r)| self.wait(shard, r))
            .collect();
        // Merge per-worker event buffers at the coordinator: every
        // report round-trip is an export barrier for the hub journal.
        for r in &mut reports {
            self.obs.absorb(std::mem::take(&mut r.events));
        }
        reports
    }

    /// Commands still queued for `shard`'s worker (zero for a shard that
    /// has left the fleet).
    fn pending_commands(&self, shard: usize) -> usize {
        self.shards.get(shard).map_or(0, |s| s.commands.len())
    }

    fn build_stats(&self, reports: &[WorkerReport]) -> ServiceStats {
        let mut collector = self.collector.clone();
        for r in reports.iter().chain(&self.retired) {
            collector.merge(&r.collector);
        }
        let rollup = rollup_telemetry(reports.iter().chain(&self.retired).map(|r| r.telemetry));
        let per_shard_queue_depth: Vec<usize> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| r.queued + r.in_flight + self.pending_commands(i))
            .collect();
        ServiceStats::build(
            &collector,
            self.cfg.shards,
            per_shard_queue_depth.iter().sum(),
            rollup.steps,
            self.started.elapsed().as_secs_f64(),
            rollup.simulated,
            rollup.pipeline,
            reports.iter().map(|r| r.submitted).collect(),
            per_shard_queue_depth,
            reports.iter().map(|r| r.spill_depth).sum(),
            rollup.sampling,
        )
    }

    /// Point-in-time service statistics: a report round-trip to every
    /// worker, merged with the driver's submission-side counters.
    /// Deterministic counters (submitted/completed/steps/flushes) match
    /// the deterministic driver at quiescence; wall-clock figures and
    /// reservoir percentiles reflect this run's actual schedule.
    pub fn stats(&self) -> ServiceStats {
        self.build_stats(&self.reports())
    }

    /// Queries parked in buffers or submission queues plus queries in
    /// flight inside backends, fleet-wide.
    pub fn queue_depth(&self) -> usize {
        self.reports()
            .iter()
            .enumerate()
            .map(|(i, r)| r.queued + r.in_flight + self.pending_commands(i))
            .sum()
    }

    /// Live per-shard signals, shaped exactly like
    /// [`WalkService::shard_snapshots`](crate::WalkService::shard_snapshots) —
    /// `pending_commands` carries the cross-thread backlog.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.reports()
            .into_iter()
            .enumerate()
            .map(|(i, r)| ShardSnapshot {
                shard: i,
                class: r.class,
                cost_hint: r.cost_hint,
                queued: r.queued,
                in_flight: r.in_flight,
                pending_commands: self.pending_commands(i),
                awaiting_injection: r.telemetry.occupancy_split.map(|(a, _)| a),
                executing: r.telemetry.occupancy_split.map(|(_, e)| e),
                submitted: r.submitted,
                completed: r.completed,
                ewma_latency_ticks: r.ewma_latency_ticks,
                bubble_ratio: r.telemetry.pipeline.map(|m| m.bubble_ratio()),
                sampling: r.telemetry.sampling,
            })
            .collect()
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Number of backend shards (= worker threads).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Clean shutdown: drains every shard, closes the command queues,
    /// joins every worker, and returns all remaining completed walks
    /// together with the final merged statistics. Zero accepted walks
    /// are lost — conservation holds through shutdown under load.
    ///
    /// # Panics
    ///
    /// Panics, naming the shard, if a worker has died.
    pub fn finish(mut self) -> (Vec<CompletedWalk>, ServiceStats) {
        let walks = self.drain();
        for s in &self.shards {
            s.commands.close();
        }
        let mut finals: Vec<WorkerReport> = self
            .shards
            .drain(..)
            .enumerate()
            .map(|(shard, s)| {
                s.handle
                    .join()
                    .unwrap_or_else(|_| panic!("shard {shard} worker died"))
            })
            .collect();
        for r in &mut finals {
            self.obs.absorb(std::mem::take(&mut r.events));
        }
        let stats = self.build_stats(&finals);
        (walks, stats)
    }
}

impl Drop for ThreadedDriver {
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
    use crate::WalkService;
    use grw_algo::{PreparedGraph, QuerySet, ReferenceBackend, WalkPath, WalkSpec};
    use grw_graph::generators::{Dataset, ScaleFactor};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

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
        let mut det = WalkService::new(cfg, mk(p.clone(), spec.clone()));
        let mut thr = ThreadedDriver::new(cfg, mk(p.clone(), spec.clone()));

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
        let cfg = ServiceConfig::new(4).max_batch(8);
        let mut thr = ThreadedDriver::new(cfg, move |shard| {
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
        let mut thr = ThreadedDriver::new(ServiceConfig::new(2), move |shard| {
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
                let mut thr = ThreadedDriver::new(ServiceConfig::new(2), |_| PanicOnPoll(0));
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
