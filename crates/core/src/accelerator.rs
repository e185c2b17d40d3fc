//! The RidgeWalker accelerator: N asynchronous pipelines over paired
//! memory channels, driven cycle by cycle.
//!
//! Dataflow per hop (Fig. 4a):
//!
//! ```text
//! loader ─▶ scheduler(balancer, 2·logN) ─▶ ra_router ─▶ RA fifo ─▶ RA read
//!    ▲                                                               │
//!    │ recirculation (unfinished queries, priority)                  ▼
//!    └──────────── CA read ◀─ SP sampling ◀─ cl_router ◀─ RP entry ──┘
//! ```
//!
//! Each hop is one stateless [`Task`]; the Row-Access read goes to the
//! channel owning `RP[v_curr]`, the RP entry names the Column-Access
//! channel holding the neighbor list, and the completed hop recirculates
//! into the scheduler. The static bulk-synchronous mode (ablation) binds
//! queries to pipelines by id and separates execution into batch barriers.

#[cfg(test)]
use crate::config::MemoryMode;
use crate::config::{AcceleratorConfig, ScheduleMode};
use crate::engine::AsyncAccessEngine;
use crate::report::{RunReport, TerminationBreakdown};
use crate::router::TaskRouter;
use crate::task::Task;
use grw_algo::{PreparedGraph, SampleMethod, SamplerRuntime, WalkPath, WalkQuery, WalkSpec};
use grw_graph::{ChannelLayout, RpEntryKind, VertexId};
use grw_rng::WalkKey;
use grw_sim::stats::UtilizationMeter;
use grw_sim::{Cycle, Fifo, MemoryChannelSpec};
use std::collections::VecDeque;

/// Cycles between two snapshots of the progress watchdog.
const WATCH_PERIOD: Cycle = 1 << 16;

/// Cycles with queries resident and no progress after which the machine
/// is stuck.
const STALL_LIMIT: Cycle = 1 << 20;

/// Per-sampling-job bookkeeping inside a Sampling module.
#[derive(Debug, Clone, Copy)]
struct SpJob {
    task: Task,
    /// Sampled next vertex; `None` means the walk terminates at sampling
    /// (MetaPath with no matching neighbor).
    next: Option<VertexId>,
    /// Random sampling reads still to issue.
    random_left: u32,
    /// Sequential scan transactions still to issue.
    seq_left: u32,
    /// Issued reads whose data has not returned yet.
    pending: u32,
}

/// Metadata flowing through a Column-Access channel engine.
#[derive(Debug, Clone, Copy)]
enum CaMeta {
    /// A sampling read for job `job` owned by pipeline `owner` (scans are
    /// striped across channels, so completions can land anywhere).
    Sp { owner: u32, job: u32 },
    /// The final column read of a hop: the task and its sampled successor.
    Final(Task, VertexId),
}

/// One asynchronous pipeline: Row Access + Sampling + Column Access over a
/// private (RA, CA) channel pair.
#[derive(Debug, Clone)]
struct Pipeline {
    ra_fifo: Fifo<Task>,
    ra_engine: AsyncAccessEngine<Task>,
    /// RA completions waiting to enter the column router.
    ra_out: VecDeque<Task>,
    sp_fifo: Fifo<Task>,
    jobs: Vec<SpJob>,
    free_jobs: Vec<u32>,
    /// Jobs with reads left to issue (front gets one issue per cycle).
    sp_issue: VecDeque<u32>,
    /// Sampled hops awaiting the final column read.
    ca_ready: VecDeque<(Task, Option<VertexId>)>,
    ca_engine: AsyncAccessEngine<CaMeta>,
}

impl Pipeline {
    fn new(fifo_depth: usize, ra_spec: MemoryChannelSpec, ca_spec: MemoryChannelSpec) -> Self {
        Self {
            ra_fifo: Fifo::new(fifo_depth),
            ra_engine: AsyncAccessEngine::new(ra_spec, ra_spec.max_outstanding),
            ra_out: VecDeque::new(),
            sp_fifo: Fifo::new(8),
            jobs: Vec::new(),
            free_jobs: Vec::new(),
            sp_issue: VecDeque::new(),
            ca_ready: VecDeque::new(),
            ca_engine: AsyncAccessEngine::new(ca_spec, ca_spec.max_outstanding),
        }
    }

    fn alloc_job(&mut self, job: SpJob) -> u32 {
        if let Some(id) = self.free_jobs.pop() {
            self.jobs[id as usize] = job;
            id
        } else {
            self.jobs.push(job);
            (self.jobs.len() - 1) as u32
        }
    }
}

/// Tasks queued at each per-pipeline stage, summed over the pipelines.
///
/// A stage whose count is zero has nothing to do on any pipeline, so
/// [`Machine::step_cycle`] skips its loop. Debug builds recount every
/// queue at each clock edge ([`Machine::debug_check_loads`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StageLoads {
    /// Entries of every `ra_fifo`, staged ones included.
    ra_fifo: usize,
    /// Entries of every `ra_out`.
    ra_out: usize,
    /// Entries of every `sp_fifo`, staged ones included.
    sp_fifo: usize,
    /// Entries of every `sp_issue`.
    sp_issue: usize,
    /// Entries of every `ca_ready`.
    ca_ready: usize,
}

/// How a task fares at an admission point (injection or recirculation).
enum Admit {
    Go(Task),
    Complete(Termination),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Termination {
    MaxLength,
    DeadEnd,
    Teleport,
    NoTypedNeighbor,
}

/// The accelerator model.
///
/// See the crate docs for an end-to-end example; [`Accelerator::run`] is
/// the entire public surface.
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: AcceleratorConfig,
}

impl Accelerator {
    /// Creates an accelerator from its configuration.
    pub fn new(config: AcceleratorConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Executes `queries` over the prepared graph and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if a query's start vertex is out of range, or if the machine
    /// makes no progress for 2²⁰ cycles while queries are resident (a
    /// stuck model or configuration).
    pub fn run(
        &self,
        prepared: &PreparedGraph,
        spec: &WalkSpec,
        queries: &[WalkQuery],
    ) -> RunReport {
        let mut m = Machine::new(self.config, prepared, spec);
        for q in queries {
            m.enqueue(q);
        }
        m.run_to_quiescence(prepared);
        // Completion order back to submission order.
        let mut done = m.take_completed();
        done.sort_by_key(|&(index, _)| index);
        m.report(done.into_iter().map(|(_, p)| p).collect())
    }
}

/// One query's residency in the machine: its external id, its walk key,
/// its global submission index and the path built so far (taken when the
/// walk completes).
#[derive(Debug, Clone)]
struct Slot {
    id: u64,
    /// The walk's randomness, keyed by `(seed, id)` alone: a hop draws
    /// the same numbers whichever slot, pipeline or cycle runs it, and the
    /// same numbers the CPU kernel draws for it.
    key: WalkKey,
    /// Queries enqueued before this one over the machine's lifetime. It
    /// binds the query to its pipeline in static mode and orders
    /// [`Accelerator::run`]'s output.
    index: u64,
    vertices: Vec<VertexId>,
}

/// The long-lived cycle-level machine behind both execution modes.
///
/// Unlike the one-shot simulation it replaced, the machine owns its
/// configuration and pipeline state and keeps running across calls:
/// [`enqueue`](Machine::enqueue) parks a query for the loader,
/// [`advance`](Machine::advance) steps a bounded number of cycles, and
/// completed walks stream out of [`take_completed`](Machine::take_completed)
/// in completion order. `Accelerator::run` is the degenerate use:
/// enqueue everything, run to quiescence. A finished query's slot goes on
/// a free list for the next submission, so the slot table holds at most
/// the peak number of resident queries however long the machine runs.
///
/// The prepared graph is passed into every advancing call rather than
/// stored, so a backend can own the graph (`Arc`/borrow) and the machine
/// simultaneously; callers must pass the same graph the machine was built
/// from.
#[derive(Debug, Clone)]
pub(crate) struct Machine {
    cfg: AcceleratorConfig,
    spec: WalkSpec,
    layout: ChannelLayout,
    vertex_count: usize,
    n: usize,
    dynamic: bool,
    rp_kind: RpEntryKind,
    final_read_bytes: u64,
    sched_latency: Cycle,
    seed: u64,
    /// FastRW-style cache membership per vertex, when modelled.
    rp_cached: Option<Vec<bool>>,
    /// Extra final-read credit for streamed pre-generated randoms.
    rng_tax_cost: f64,

    pipes: Vec<Pipeline>,
    loads: StageLoads,
    /// Pipeline-cycle classification, summed over the pipelines.
    util: UtilizationMeter,
    ra_router: TaskRouter<Task>,
    cl_router: TaskRouter<Task>,
    /// Balancer-latency delay line in front of the RA router.
    sched_pipe: VecDeque<(Cycle, Task)>,
    recirc: VecDeque<Task>,
    pending_inject: VecDeque<Task>,

    /// Resident queries by slot id (a task's `query` field). A slot is
    /// freed when its walk finishes.
    slots: Vec<Slot>,
    /// Slot ids free for the next submission.
    free_slots: Vec<u32>,
    /// Queries enqueued so far: the next submission index.
    submitted: u64,
    /// Slot ids enqueued but not yet injected by the loader.
    pending: VecDeque<u32>,
    /// Completed walks in completion order, tagged with their submission
    /// index.
    out: VecDeque<(u64, WalkPath)>,
    cycle: Cycle,
    inflight: usize,
    completed: u64,
    batch_remaining: usize,
    steps: u64,
    terms: TerminationBreakdown,
    /// Sampler state of the modelled on-chip sampling unit: the
    /// second-order edge-alias cache (when the prepared graph's strategy
    /// table uses one) and cumulative kernel counters.
    sampler_rt: SamplerRuntime,
    /// The watchdog's last [`progress`](Machine::progress) snapshot and
    /// the cycle at which it last changed.
    watch: ([u64; 4], Cycle),
}

impl Machine {
    pub(crate) fn new(cfg: AcceleratorConfig, prepared: &PreparedGraph, spec: &WalkSpec) -> Self {
        let graph = prepared.graph();
        let n = cfg.effective_pipelines() as usize;
        let platform = cfg.platform.spec();
        let mut ra_chan = platform.channel_spec();
        ra_chan.max_outstanding = cfg.effective_ra_outstanding();
        let mut ca_chan = platform.channel_spec();
        ca_chan.max_outstanding = cfg.effective_ca_outstanding();
        let depth = cfg.effective_fifo_depth();
        // FastRW-style cache: the top-K vertices by in-degree (the best
        // static proxy for visit frequency) have their RP entries on chip.
        let rp_cached = cfg.rp_cache_entries.map(|k| {
            let nv = graph.vertex_count();
            let mut in_deg = vec![0u32; nv];
            for &w in graph.column_list() {
                in_deg[w as usize] += 1;
            }
            let mut order: Vec<u32> = (0..nv as u32).collect();
            order.sort_unstable_by_key(|&v| std::cmp::Reverse(in_deg[v as usize]));
            let mut cached = vec![false; nv];
            for &v in order.iter().take(k) {
                cached[v as usize] = true;
            }
            cached
        });
        let rp_kind = spec.rp_entry_kind();
        // DeepWalk folds the alias entry and the neighbor id into one
        // 16-byte column read (URW-level transaction count, §VIII-C).
        let final_read_bytes = if matches!(spec, WalkSpec::DeepWalk { .. }) {
            16
        } else {
            8
        };
        let log_n = (usize::BITS - (n.max(2) - 1).leading_zeros()) as Cycle;
        Self {
            layout: ChannelLayout::new(graph, n as u32, n as u32),
            vertex_count: graph.vertex_count(),
            n,
            dynamic: cfg.schedule == ScheduleMode::ZeroBubble,
            rp_kind,
            final_read_bytes,
            sched_latency: 2 * log_n,
            seed: cfg.seed,
            rp_cached,
            // Sequential streamed randoms: one row activation per 8 words.
            rng_tax_cost: f64::from(cfg.rng_seq_reads_per_step) * 0.125,
            pipes: (0..n)
                .map(|_| Pipeline::new(depth, ra_chan, ca_chan))
                .collect(),
            loads: StageLoads::default(),
            util: UtilizationMeter::new(),
            ra_router: TaskRouter::new(n),
            cl_router: TaskRouter::new(n),
            sched_pipe: VecDeque::new(),
            recirc: VecDeque::new(),
            pending_inject: VecDeque::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            submitted: 0,
            pending: VecDeque::new(),
            out: VecDeque::new(),
            cycle: 0,
            inflight: 0,
            completed: 0,
            batch_remaining: 0,
            steps: 0,
            terms: TerminationBreakdown::default(),
            sampler_rt: prepared.runtime(),
            watch: ([0; 4], 0),
            cfg,
            spec: spec.clone(),
        }
    }

    /// Parks a query for the loader; it joins the running machine at the
    /// next issue slot with capacity.
    ///
    /// # Panics
    ///
    /// Panics if the query's start vertex is out of range.
    pub(crate) fn enqueue(&mut self, q: &WalkQuery) {
        assert!(
            (q.start as usize) < self.vertex_count,
            "query {} starts at out-of-range vertex {}",
            q.id,
            q.start
        );
        let entry = Slot {
            id: q.id,
            key: WalkKey::new(self.seed, q.id),
            index: self.submitted,
            vertices: vec![q.start],
        };
        self.submitted += 1;
        let slot = if let Some(slot) = self.free_slots.pop() {
            self.slots[slot as usize] = entry;
            slot
        } else {
            self.slots.push(entry);
            u32::try_from(self.slots.len() - 1).expect("slot ids exhausted")
        };
        self.pending.push_back(slot);
    }

    /// Slots the slot table holds, free ones included: the peak number
    /// of queries resident at once.
    #[cfg(test)]
    pub(crate) fn slot_table_len(&self) -> usize {
        self.slots.len()
    }

    /// The walk key of `task`'s query.
    fn key(&self, task: &Task) -> WalkKey {
        self.slots[task.query as usize].key
    }

    /// Whether the machine holds no work at all: nothing pending, nothing
    /// in flight. Completed-but-uncollected paths do not count.
    pub(crate) fn quiescent(&self) -> bool {
        self.pending.is_empty() && self.inflight == 0
    }

    /// Queries inside the machine (pending injection or in flight).
    pub(crate) fn resident(&self) -> usize {
        self.pending.len() + self.inflight
    }

    /// Occupancy split: `(awaiting injection, in flight)`. The first term
    /// is the machine-internal queue a load generator observes growing
    /// under overload; the second is bounded by the issue-slot capacity.
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        (self.pending.len(), self.inflight)
    }

    /// Cycles simulated so far. The clock only runs while work exists —
    /// an idle machine between submissions consumes no simulated time.
    pub(crate) fn cycles(&self) -> Cycle {
        self.cycle
    }

    /// Hops executed so far.
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    pub(crate) fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// The pipeline occupancy meter, summed over the pipelines.
    pub(crate) fn pipeline_meter(&self) -> UtilizationMeter {
        self.util
    }

    /// Advances the machine by at most `quantum` cycles, stopping early at
    /// quiescence. Returns the cycles actually simulated. This is the one
    /// stepping path: [`run_to_quiescence`](Machine::run_to_quiescence) is
    /// an unbounded quantum.
    ///
    /// # Panics
    ///
    /// Panics if the machine makes no progress for 2²⁰ cycles while
    /// queries are resident (see [`watchdog`](Machine::watchdog)).
    pub(crate) fn advance(&mut self, prepared: &PreparedGraph, quantum: Cycle) -> Cycle {
        let mut advanced = 0;
        while advanced < quantum && !self.quiescent() {
            self.step_cycle(prepared);
            if self.cycle.is_multiple_of(WATCH_PERIOD) {
                self.watchdog();
            }
            advanced += 1;
        }
        advanced
    }

    /// Runs until quiescent.
    ///
    /// # Panics
    ///
    /// As [`advance`](Machine::advance).
    pub(crate) fn run_to_quiescence(&mut self, prepared: &PreparedGraph) {
        self.advance(prepared, Cycle::MAX);
    }

    /// Counters at least one of which moves whenever the machine makes
    /// progress: hops completed, queries finished, memory transactions
    /// issued, and transactions outstanding (which falls when one
    /// completes).
    fn progress(&self) -> [u64; 4] {
        let mut issued = 0;
        let mut outstanding = 0;
        for p in &self.pipes {
            issued += p.ra_engine.issued() + p.ca_engine.issued();
            outstanding += (p.ra_engine.in_flight() + p.ca_engine.in_flight()) as u64;
        }
        [self.steps, self.completed, issued, outstanding]
    }

    /// Compares a [`progress`](Machine::progress) snapshot with the last
    /// one, every [`WATCH_PERIOD`] cycles. The machine only steps while
    /// queries are resident, so a snapshot unchanged for [`STALL_LIMIT`]
    /// cycles means a resident query can never finish.
    fn watchdog(&mut self) {
        let now = self.progress();
        if now != self.watch.0 {
            self.watch = (now, self.cycle);
            return;
        }
        assert!(
            self.cycle - self.watch.1 < STALL_LIMIT,
            "machine made no progress for {} cycles at cycle {}: stage loads {:?}, \
             {} pending, {} in flight",
            self.cycle - self.watch.1,
            self.cycle,
            self.loads,
            self.pending.len(),
            self.inflight
        );
    }

    /// Takes every completed walk, in completion order, tagged with its
    /// submission index.
    pub(crate) fn take_completed(&mut self) -> Vec<(u64, WalkPath)> {
        self.out.drain(..).collect()
    }

    /// Admission: the max-length check and the PPR teleport coin, both
    /// memory-free, applied before a task (re-)enters the scheduler. The
    /// machine charges no cycles for the coin's draw.
    fn admit(&self, prepared: &PreparedGraph, task: Task) -> Admit {
        if task.step >= self.spec.max_len() {
            return Admit::Complete(Termination::MaxLength);
        }
        if prepared.teleport_terminates(&self.spec, self.key(&task), task.step) {
            return Admit::Complete(Termination::Teleport);
        }
        Admit::Go(task)
    }

    fn finish(&mut self, slot: u32, reason: Termination) {
        self.completed += 1;
        self.inflight -= 1;
        if self.batch_remaining > 0 {
            self.batch_remaining -= 1;
        }
        match reason {
            Termination::MaxLength => self.terms.max_length += 1,
            Termination::DeadEnd => self.terms.dead_end += 1,
            Termination::Teleport => self.terms.teleport += 1,
            Termination::NoTypedNeighbor => self.terms.no_typed_neighbor += 1,
        }
        let s = &mut self.slots[slot as usize];
        let vertices = std::mem::take(&mut s.vertices);
        self.out.push_back((s.index, WalkPath::new(s.id, vertices)));
        self.free_slots.push(slot);
    }

    /// Routing ports: data-aware in dynamic mode, id-bound in static
    /// mode. Static binding uses the submission index, so a query's
    /// pipeline does not depend on which slot it occupies.
    fn static_port(&self, task: &Task) -> usize {
        (self.slots[task.query as usize].index % self.n as u64) as usize
    }

    fn ra_port(&self, task: &Task) -> usize {
        if self.dynamic {
            self.layout.rp_channel(task.v_curr) as usize
        } else {
            self.static_port(task)
        }
    }

    fn cl_port(&self, task: &Task) -> usize {
        if self.dynamic {
            self.layout.cl_channel(task.v_curr) as usize
        } else {
            self.static_port(task)
        }
    }

    /// The sampling decision and its memory cost for one task. The cost
    /// is keyed on the *kernel that actually ran* ([`SampleMethod`]) —
    /// under the adaptive strategy layer the same spec mixes kernels per
    /// degree bucket, and each has a distinct memory signature. The
    /// draws themselves cost no cycles: the model charges memory traffic
    /// only.
    fn sampling_job(&mut self, prepared: &PreparedGraph, task: Task) -> SpJob {
        let key = self.key(&task);
        let decision = prepared.sample_neighbor_with(
            &mut self.sampler_rt,
            &self.spec,
            task.v_curr,
            task.prev(),
            task.step,
            key,
        );
        match decision {
            None => SpJob {
                task,
                next: None,
                // A fruitless MetaPath scan still reads the whole list.
                seq_left: match self.spec {
                    WalkSpec::MetaPath { .. } => div8(prepared.graph().degree(task.v_curr)),
                    _ => 0,
                },
                random_left: 0,
                pending: 0,
            },
            Some((next, outcome)) => {
                let (random_left, seq_left) = match outcome.method {
                    // Direct index pick, or an alias entry folded into the
                    // final read (DeepWalk's 16-byte column transaction).
                    SampleMethod::Uniform | SampleMethod::Alias => (0, 0),
                    // On-the-fly alias row: a sequential weight scan, no
                    // random reads.
                    SampleMethod::InverseTransform => (0, div8(outcome.scanned)),
                    // Rejected candidates are real random reads; the
                    // accepted candidate is the final read. Membership
                    // tests against N(prev) are on-chip: the previous hop
                    // already fetched that list (the LightRW/KnightKing
                    // trick), so probes cost no memory transactions.
                    SampleMethod::Rejection => (
                        outcome.uniform_trials.saturating_sub(1),
                        div8(outcome.scanned),
                    ),
                    SampleMethod::Reservoir | SampleMethod::TypedReservoir => {
                        (0, div8(outcome.scanned))
                    }
                    // One random read for the per-edge alias entry; a miss
                    // additionally streams both neighbor lists to rebuild
                    // the row (`scanned` is 0 on a cache hit).
                    SampleMethod::SecondOrderAlias => (1, div8(outcome.scanned)),
                };
                SpJob {
                    task,
                    next: Some(next),
                    random_left,
                    seq_left,
                    pending: 0,
                }
            }
        }
    }

    /// Whether the system is *backlogged* in the Theorem VI.1 sense: the
    /// loader still holds queries, or at least one ready task per pipeline
    /// waits on the scheduler side. A pipeline idling outside backlog
    /// (start-up fill, final drain) is not a bubble — the paper's
    /// zero-bubble guarantee is conditioned on backlog (§VI-B).
    fn work_exists(&self) -> bool {
        !self.pending.is_empty() || self.recirc.len() + self.pending_inject.len() >= self.n
    }

    /// A report over everything this machine has executed so far, with
    /// `paths` attached (callers that stream paths out pass an empty Vec).
    pub(crate) fn report(&self, paths: Vec<WalkPath>) -> RunReport {
        let platform = self.cfg.platform.spec();
        let clock = platform.clock_mhz;
        let util = self.pipeline_meter();
        let mut txns = 0u64;
        let mut bytes = 0u64;
        for p in &self.pipes {
            txns += p.ra_engine.issued() + p.ca_engine.issued();
            bytes += p.ra_engine.bytes_moved() + p.ca_engine.bytes_moved();
        }
        let msteps = if self.cycle == 0 {
            0.0
        } else {
            self.steps as f64 / self.cycle as f64 * clock
        };
        // §III-B: effective bandwidth is the *footprint of traversed
        // edges* over time — one RP entry plus one column entry per step,
        // regardless of whether a cache supplied the data. (URW: 16 B/step,
        // matching Table III's 88% at 2098 MStep/s.)
        let footprint = f64::from(self.rp_kind.bytes()) + 8.0;
        let eff_bw = msteps * footprint / 1000.0;
        let peak_bw = platform.peak_random_bandwidth_gbs();
        RunReport {
            paths,
            cycles: self.cycle,
            steps: self.steps,
            clock_mhz: clock,
            msteps_per_sec: msteps,
            bubble_ratio: util.bubble_ratio(),
            pipeline_utilization: util.utilization(),
            pipeline_cycles: util,
            random_txns: txns,
            bytes_moved: bytes,
            effective_bandwidth_gbs: eff_bw,
            peak_bandwidth_gbs: peak_bw,
            bandwidth_utilization: (eff_bw / peak_bw).clamp(0.0, 1.0),
            terminations: self.terms,
            sampling: self.sampler_rt.counters(),
        }
    }

    /// Cumulative sampling-kernel counters of the machine's sampler
    /// runtime.
    pub(crate) fn sampling_counters(&self) -> grw_sim::stats::SamplingCounters {
        self.sampler_rt.counters()
    }

    /// One clock cycle: the 14 stages of the pipeline in a fixed order.
    /// A per-pipeline stage with nothing to take on any pipeline (its
    /// [`StageLoads`] count or released completions are zero, or no
    /// routed task has arrived) is skipped; skipping it changes no state.
    fn step_cycle(&mut self, prepared: &PreparedGraph) {
        let cycle = self.cycle;
        // 1. Memory channels advance. Every completion a channel releases
        // is popped in stage 2 or 3 of the same cycle.
        let mut ca_done = 0;
        let mut ra_done = 0;
        for p in &mut self.pipes {
            p.ra_engine.begin_cycle(cycle);
            p.ca_engine.begin_cycle(cycle);
            ra_done += p.ra_engine.pending_completions();
            ca_done += p.ca_engine.pending_completions();
        }

        // 2. Column-Access completions: finish hops, recirculate tasks.
        if ca_done > 0 {
            for pi in 0..self.n {
                while let Some(meta) = self.pipes[pi].ca_engine.pop_completed() {
                    match meta {
                        CaMeta::Sp { owner, job } => {
                            let p = &mut self.pipes[owner as usize];
                            let j = &mut p.jobs[job as usize];
                            j.pending -= 1;
                            if j.pending == 0 && j.random_left == 0 && j.seq_left == 0 {
                                let done = *j;
                                p.ca_ready.push_back((done.task, done.next));
                                p.free_jobs.push(job);
                                self.loads.ca_ready += 1;
                            }
                        }
                        CaMeta::Final(task, next) => {
                            self.steps += 1;
                            self.slots[task.query as usize].vertices.push(next);
                            match self.admit(prepared, task.advance(next)) {
                                Admit::Go(t) => self.recirc.push_back(t),
                                Admit::Complete(r) => self.finish(task.query, r),
                            }
                        }
                    }
                }
            }
        }

        // 3. Row-Access completions: dead-end check, hand to column router.
        if ra_done > 0 {
            for pi in 0..self.n {
                while let Some(task) = self.pipes[pi].ra_engine.pop_completed() {
                    if prepared.graph().degree(task.v_curr) == 0 {
                        self.finish(task.query, Termination::DeadEnd);
                    } else {
                        self.pipes[pi].ra_out.push_back(task);
                        self.loads.ra_out += 1;
                    }
                }
            }
        }

        // 4. Column Access issue: one final read per pipeline per cycle.
        if self.loads.ca_ready > 0 {
            for pi in 0..self.n {
                let p = &mut self.pipes[pi];
                let Some(&(task, next)) = p.ca_ready.front() else {
                    continue;
                };
                match next {
                    None => {
                        // Terminated during sampling (no typed neighbor).
                        p.ca_ready.pop_front();
                        self.loads.ca_ready -= 1;
                        self.finish(task.query, Termination::NoTypedNeighbor);
                    }
                    Some(next) => {
                        // The final read also pays the pre-generated-RNG
                        // stream tax when a FastRW-style design is modelled.
                        let cost = 1.0 + self.rng_tax_cost;
                        if p.ca_engine.can_issue(cost)
                            && p.ca_engine
                                .try_issue(CaMeta::Final(task, next), cost, cycle)
                        {
                            p.ca_engine.add_bytes(self.final_read_bytes - 8);
                            p.ca_ready.pop_front();
                            self.loads.ca_ready -= 1;
                        }
                    }
                }
            }
        }

        // 5. Sampling issue: one sampling read per pipeline per cycle.
        // Neighbor lists are shuffled/striped over the Column-Access
        // channels (Fig. 4b), so in dynamic mode the k-th scan burst of a
        // job targets channel (pi + k) mod N — long hub-list scans spread
        // over the whole memory system instead of hammering one channel.
        if self.loads.sp_issue > 0 {
            for pi in 0..self.n {
                let Some(&job) = self.pipes[pi].sp_issue.front() else {
                    continue;
                };
                let j = self.pipes[pi].jobs[job as usize];
                let meta = CaMeta::Sp {
                    owner: pi as u32,
                    job,
                };
                let (target, is_seq) = if j.random_left > 0 {
                    (pi, false)
                } else {
                    debug_assert!(j.seq_left > 0);
                    let t = if self.dynamic {
                        (pi + j.seq_left as usize) % self.n
                    } else {
                        pi
                    };
                    (t, true)
                };
                if self.pipes[target].ca_engine.try_issue(meta, 1.0, cycle) {
                    if is_seq {
                        // One activation streams 8 words of the list.
                        self.pipes[target].ca_engine.add_bytes(56);
                        self.pipes[pi].jobs[job as usize].seq_left -= 1;
                    } else {
                        self.pipes[pi].jobs[job as usize].random_left -= 1;
                    }
                    let j = &mut self.pipes[pi].jobs[job as usize];
                    j.pending += 1;
                    if j.random_left == 0 && j.seq_left == 0 {
                        self.pipes[pi].sp_issue.pop_front();
                        self.loads.sp_issue -= 1;
                    }
                }
            }
        }

        // 6. Sampling intake: decide one task per pipeline per cycle.
        if self.loads.sp_fifo > 0 {
            for pi in 0..self.n {
                let Some(task) = self.pipes[pi].sp_fifo.pop() else {
                    continue;
                };
                self.loads.sp_fifo -= 1;
                let job = self.sampling_job(prepared, task);
                let p = &mut self.pipes[pi];
                if job.random_left == 0 && job.seq_left == 0 {
                    p.ca_ready.push_back((job.task, job.next));
                    self.loads.ca_ready += 1;
                } else {
                    let id = p.alloc_job(job);
                    p.sp_issue.push_back(id);
                    self.loads.sp_issue += 1;
                }
            }
        }

        // 7. Column router delivery into sampling FIFOs.
        if self.cl_router.any_ready(cycle) {
            for pi in 0..self.n {
                if self.pipes[pi].sp_fifo.can_push() {
                    if let Some(task) = self.cl_router.pop_ready(pi, cycle) {
                        self.pipes[pi].sp_fifo.push(task);
                        self.loads.sp_fifo += 1;
                    }
                }
            }
        }

        // 8. RA output into the column router.
        if self.loads.ra_out > 0 {
            for pi in 0..self.n {
                if let Some(task) = self.pipes[pi].ra_out.front().copied() {
                    let port = self.cl_port(&task);
                    if self.cl_router.push(task, port, cycle) {
                        self.pipes[pi].ra_out.pop_front();
                        self.loads.ra_out -= 1;
                    }
                }
            }
        }

        // 9. Row Access issue: one RP read per pipeline per cycle. An
        // on-chip cache hit (FastRW model) bypasses the memory entirely.
        // A pipeline with a task at its FIFO head is busy (issuing, or
        // memory-stalled: occupied, not starved); one without is a bubble
        // while work exists and drained otherwise.
        let work = self.work_exists();
        let mut busy = 0u64;
        if self.loads.ra_fifo > 0 {
            let rp_extra_bytes = u64::from(self.rp_kind.bytes()) - 8;
            for pi in 0..self.n {
                let Some(&front) = self.pipes[pi].ra_fifo.front() else {
                    continue;
                };
                busy += 1;
                let hit = self
                    .rp_cached
                    .as_ref()
                    .is_some_and(|c| c[front.v_curr as usize]);
                if hit {
                    let task = self.pipes[pi].ra_fifo.pop().expect("checked");
                    self.loads.ra_fifo -= 1;
                    if prepared.graph().degree(task.v_curr) == 0 {
                        self.finish(task.query, Termination::DeadEnd);
                    } else {
                        self.pipes[pi].ra_out.push_back(task);
                        self.loads.ra_out += 1;
                    }
                } else if self.pipes[pi].ra_engine.can_issue(1.0) {
                    let task = self.pipes[pi].ra_fifo.pop().expect("checked");
                    self.loads.ra_fifo -= 1;
                    let ok = self.pipes[pi].ra_engine.try_issue(task, 1.0, cycle);
                    debug_assert!(ok);
                    self.pipes[pi].ra_engine.add_bytes(rp_extra_bytes);
                }
            }
        }
        let idle = self.n as u64 - busy;
        self.util.merge(&if work {
            UtilizationMeter::from_counts(busy, idle, 0)
        } else {
            UtilizationMeter::from_counts(busy, 0, idle)
        });

        // 10. RA router delivery into pipeline FIFOs.
        if self.ra_router.any_ready(cycle) {
            for pi in 0..self.n {
                if self.pipes[pi].ra_fifo.can_push() {
                    if let Some(task) = self.ra_router.pop_ready(pi, cycle) {
                        self.pipes[pi].ra_fifo.push(task);
                        self.loads.ra_fifo += 1;
                    }
                }
            }
        }

        // 11. Scheduler: delay line → RA router (data-aware routing).
        // Tasks are stateless, so one blocked port must not head-of-line
        // block the rest: refused tasks rotate to the back of the line
        // (in hardware each lane has its own path through the fabric).
        for _ in 0..self.n {
            match self.sched_pipe.front() {
                Some(&(ready, _)) if ready <= cycle => {
                    let (_, task) = self.sched_pipe.pop_front().expect("checked");
                    let port = self.ra_port(&task);
                    if !self.ra_router.push(task, port, cycle) {
                        self.sched_pipe.push_back((ready, task));
                    }
                }
                _ => break,
            }
        }

        // 12. Merge stage: recirculated tasks first (module ➋ priority),
        // then fresh queries, up to N per cycle through the balancer.
        for _ in 0..self.n {
            let task = if let Some(t) = self.recirc.pop_front() {
                t
            } else if let Some(t) = self.pending_inject.pop_front() {
                t
            } else {
                break;
            };
            self.sched_pipe
                .push_back((cycle + self.sched_latency, task));
        }

        // 13. Query loader.
        self.load_queries(prepared);

        // 14. Clock edge.
        for p in &mut self.pipes {
            p.ra_fifo.commit();
            p.sp_fifo.commit();
        }
        self.debug_check_loads();
        self.cycle += 1;
    }

    /// Debug builds: every [`StageLoads`] count equals its recount.
    fn debug_check_loads(&self) {
        if cfg!(debug_assertions) {
            let mut recount = StageLoads::default();
            for p in &self.pipes {
                recount.ra_fifo += p.ra_fifo.len();
                recount.ra_out += p.ra_out.len();
                recount.sp_fifo += p.sp_fifo.len();
                recount.sp_issue += p.sp_issue.len();
                recount.ca_ready += p.ca_ready.len();
            }
            assert_eq!(
                self.loads, recount,
                "stage counts drifted at cycle {}",
                self.cycle
            );
        }
    }

    fn load_queries(&mut self, prepared: &PreparedGraph) {
        match self.cfg.schedule {
            ScheduleMode::ZeroBubble => {
                let cap = self.cfg.effective_max_inflight();
                while !self.pending.is_empty()
                    && self.inflight < cap
                    && self.pending_inject.len() < self.n
                {
                    self.inject_next(prepared);
                }
            }
            ScheduleMode::StaticBatched => {
                // A new batch loads only when the previous fully drained.
                if self.batch_remaining == 0 && self.inflight == 0 {
                    let b = self.cfg.effective_batch_size();
                    let count = b.min(self.pending.len());
                    self.batch_remaining = count;
                    for _ in 0..count {
                        self.inject_next(prepared);
                    }
                }
            }
        }
    }

    fn inject_next(&mut self, prepared: &PreparedGraph) {
        let slot = self.pending.pop_front().expect("loader checked pending");
        self.inflight += 1;
        let start = self.slots[slot as usize].vertices[0];
        let task = Task::initial(slot, start);
        match self.admit(prepared, task) {
            Admit::Go(t) => self.pending_inject.push_back(t),
            Admit::Complete(r) => self.finish(task.query, r),
        }
    }
}

fn div8(words: u32) -> u32 {
    words.div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_algo::{run_streamed, Node2VecMethod, QuerySet, ReferenceBackend};
    use grw_graph::generators::{Dataset, RmatConfig, ScaleFactor};
    use grw_graph::CsrGraph;
    use grw_sim::FpgaPlatform;

    fn small_config() -> AcceleratorConfig {
        AcceleratorConfig::new()
            .platform(FpgaPlatform::AlveoU55c)
            .pipelines(4)
    }

    fn ring(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        CsrGraph::from_edges(n, &edges, true)
    }

    #[test]
    fn completes_every_query_with_full_paths() {
        let spec = WalkSpec::urw(10);
        let p = PreparedGraph::new(ring(16), &spec).unwrap();
        let qs = QuerySet::random(16, 40, 3);
        let report = Accelerator::new(small_config()).run(&p, &spec, qs.queries());
        assert_eq!(report.paths.len(), 40);
        for w in &report.paths {
            assert_eq!(w.steps(), 10, "dead-end-free ring walks run to length");
        }
        assert_eq!(report.steps, 400);
        assert_eq!(report.terminations.max_length, 40);
    }

    #[test]
    fn paths_use_only_real_edges_on_every_spec() {
        let g = Dataset::AsSkitter.generate_typed(ScaleFactor::Tiny, 3);
        let specs = [
            WalkSpec::urw(12),
            WalkSpec::ppr(12),
            WalkSpec::deepwalk(12),
            WalkSpec::node2vec(12, Node2VecMethod::Rejection),
            WalkSpec::node2vec(12, Node2VecMethod::Reservoir),
            WalkSpec::metapath(12),
        ];
        for spec in specs {
            let p = PreparedGraph::new(g.clone(), &spec).unwrap();
            let qs = QuerySet::random(g.vertex_count(), 48, 1);
            let report = Accelerator::new(small_config()).run(&p, &spec, qs.queries());
            assert_eq!(report.paths.len(), 48, "{spec}");
            for w in &report.paths {
                assert!(w.steps() <= 12, "{spec}: length bound");
                for pair in w.vertices.windows(2) {
                    assert!(
                        p.graph().has_edge(pair[0], pair[1]),
                        "{spec}: bogus edge {} -> {}",
                        pair[0],
                        pair[1]
                    );
                }
            }
        }
    }

    #[test]
    fn run_is_deterministic() {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(20);
        let p = PreparedGraph::new(g.clone(), &spec).unwrap();
        let qs = QuerySet::random(g.vertex_count(), 64, 9);
        let a = Accelerator::new(small_config()).run(&p, &spec, qs.queries());
        let b = Accelerator::new(small_config()).run(&p, &spec, qs.queries());
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn dead_ends_terminate_early() {
        // A chain into a dead end.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], true);
        let spec = WalkSpec::urw(50);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::repeated(0, 8);
        let report = Accelerator::new(small_config()).run(&p, &spec, qs.queries());
        for w in &report.paths {
            assert_eq!(w.vertices, vec![0, 1, 2, 3]);
        }
        assert_eq!(report.terminations.dead_end, 8);
    }

    #[test]
    fn ppr_mean_length_tracks_alpha() {
        let spec = WalkSpec::Ppr {
            alpha: 0.2,
            max_len: 10_000,
        };
        let p = PreparedGraph::new(ring(64), &spec).unwrap();
        let qs = QuerySet::random(64, 3000, 4);
        let report = Accelerator::new(small_config()).run(&p, &spec, qs.queries());
        let mean =
            report.paths.iter().map(|w| w.steps() as f64).sum::<f64>() / report.paths.len() as f64;
        assert!((mean - 4.0).abs() < 0.3, "mean PPR length {mean}");
    }

    #[test]
    fn distribution_matches_reference_engine() {
        // Chi-square the accelerator's next-hop choices out of a hub vertex
        // against the reference backend's.
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 0),
                (2, 0),
                (3, 0),
                (4, 0),
                (5, 0),
            ],
            true,
        );
        let spec = WalkSpec::urw(8);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::repeated(0, 1500);
        let report = Accelerator::new(small_config()).run(&p, &spec, qs.queries());
        let counts_acc = grw_algo::distribution::next_hop_counts(&report.paths, 0);
        let bins =
            grw_algo::distribution::counts_for_neighbors(&counts_acc, p.graph().neighbors(0));
        let probs = vec![0.2; 5];
        assert!(
            grw_algo::distribution::fits(&bins, &probs),
            "accelerator hub distribution skewed: {bins:?}"
        );
        // Sanity: the reference backend passes the same test.
        let ref_paths = run_streamed(
            &mut ReferenceBackend::new(&p, spec.clone(), 9),
            qs.queries(),
        );
        let counts_ref = grw_algo::distribution::next_hop_counts(&ref_paths, 0);
        let bins_ref =
            grw_algo::distribution::counts_for_neighbors(&counts_ref, p.graph().neighbors(0));
        assert!(grw_algo::distribution::fits(&bins_ref, &probs));
    }

    #[test]
    fn async_beats_blocking() {
        let g = RmatConfig::graph500(11, 8).seed(5).generate();
        let spec = WalkSpec::urw(40);
        let p = PreparedGraph::new(g.clone(), &spec).unwrap();
        let qs = QuerySet::random(g.vertex_count(), 1200, 2);
        let full = Accelerator::new(small_config()).run(&p, &spec, qs.queries());
        let blocking = Accelerator::new(small_config().memory(MemoryMode::Blocking)).run(
            &p,
            &spec,
            qs.queries(),
        );
        let speedup = full.speedup_over(&blocking);
        assert!(
            speedup > 3.0,
            "async engine should dominate blocking access, got {speedup:.2}x"
        );
    }

    #[test]
    fn zero_bubble_beats_static_on_irregular_graphs() {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny); // many dead ends
        let spec = WalkSpec::urw(40);
        let p = PreparedGraph::new(g.clone(), &spec).unwrap();
        let qs = QuerySet::random(g.vertex_count(), 600, 2);
        let dynamic = Accelerator::new(small_config()).run(&p, &spec, qs.queries());
        let static_ = Accelerator::new(small_config().schedule(ScheduleMode::StaticBatched)).run(
            &p,
            &spec,
            qs.queries(),
        );
        let speedup = dynamic.speedup_over(&static_);
        assert!(
            speedup > 1.1,
            "scheduler should win under early termination, got {speedup:.2}x"
        );
        assert!(
            dynamic.bubble_ratio < static_.bubble_ratio,
            "dynamic {:.3} vs static {:.3}",
            dynamic.bubble_ratio,
            static_.bubble_ratio
        );
    }

    /// The binding that leaves a scheduler no placement to make: in
    /// dynamic mode a task reaches the pipeline whose channels hold the
    /// data it reads next (row pointer at Row Access, neighbor list at
    /// Sampling); in static mode every task of a query stays on the
    /// query's pipeline.
    #[test]
    fn tasks_reach_the_pipelines_that_own_their_data() {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(24);
        let p = PreparedGraph::new(g.clone(), &spec).unwrap();
        let qs = QuerySet::random(g.vertex_count(), 600, 2);
        for (n, schedule) in [
            (4, ScheduleMode::ZeroBubble),
            (16, ScheduleMode::ZeroBubble),
            (4, ScheduleMode::StaticBatched),
        ] {
            let cfg = small_config().pipelines(n).schedule(schedule);
            let mut m = Machine::new(cfg, &p, &spec);
            for q in qs.queries() {
                m.enqueue(q);
            }
            let (mut ra_heads, mut sp_heads) = (0, 0);
            while !m.quiescent() {
                m.advance(&p, 1);
                let owner = |t: &Task, channel: fn(&ChannelLayout, VertexId) -> u8| {
                    if m.dynamic {
                        channel(&m.layout, t.v_curr) as usize
                    } else {
                        m.static_port(t)
                    }
                };
                for (pi, pipe) in m.pipes.iter().enumerate() {
                    if let Some(t) = pipe.ra_fifo.front() {
                        let at = owner(t, ChannelLayout::rp_channel);
                        assert_eq!(at, pi, "{schedule:?} N={n}: RA head {t:?}");
                        ra_heads += 1;
                    }
                    if let Some(t) = pipe.sp_fifo.front() {
                        let at = owner(t, ChannelLayout::cl_channel);
                        assert_eq!(at, pi, "{schedule:?} N={n}: SP head {t:?}");
                        sp_heads += 1;
                    }
                }
            }
            assert!(
                ra_heads > 1_000 && sp_heads > 1_000,
                "{schedule:?} N={n}: only {ra_heads} RA and {sp_heads} SP heads checked"
            );
        }
    }

    #[test]
    fn near_peak_bandwidth_on_backlogged_urw() {
        let g = RmatConfig::balanced(12, 16).seed(1).generate();
        let spec = WalkSpec::urw(80);
        let p = PreparedGraph::new(g.clone(), &spec).unwrap();
        let qs = QuerySet::random(g.vertex_count(), 4000, 3);
        let report = Accelerator::new(small_config()).run(&p, &spec, qs.queries());
        // Each pipeline's channels admit ~0.469 txn/cycle; a perfectly
        // pipelined run sustains close to that in steps/cycle/pipeline.
        let steps_per_cycle = report.steps as f64 / report.cycles as f64 / 4.0;
        assert!(
            steps_per_cycle > 0.38,
            "steps/cycle/pipeline {steps_per_cycle:.3}, want near 0.469"
        );
        assert!(
            report.bubble_ratio < 0.05,
            "bubbles {:.3}",
            report.bubble_ratio
        );
    }

    /// A machine mid-run with tasks dropped from the scheduler's delay
    /// line: their queries stay resident but can never finish.
    fn stuck_machine() -> (Machine, PreparedGraph) {
        let spec = WalkSpec::urw(24);
        let p = PreparedGraph::new(ring(64), &spec).unwrap();
        let mut m = Machine::new(small_config(), &p, &spec);
        for q in QuerySet::random(64, 32, 5).queries() {
            m.enqueue(q);
        }
        m.advance(&p, 300);
        while m.sched_pipe.is_empty() {
            m.advance(&p, 1);
        }
        m.sched_pipe.clear();
        (m, p)
    }

    #[test]
    #[should_panic(expected = "made no progress")]
    fn watchdog_stops_a_stuck_drain() {
        let (mut m, p) = stuck_machine();
        m.run_to_quiescence(&p);
    }

    #[test]
    #[should_panic(expected = "made no progress")]
    fn watchdog_stops_stuck_polls() {
        let (mut m, p) = stuck_machine();
        loop {
            m.advance(&p, 64);
        }
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn bad_query_panics() {
        let spec = WalkSpec::urw(4);
        let p = PreparedGraph::new(ring(4), &spec).unwrap();
        let queries = [grw_algo::WalkQuery { id: 0, start: 99 }];
        let _ = Accelerator::new(small_config()).run(&p, &spec, &queries);
    }
}
