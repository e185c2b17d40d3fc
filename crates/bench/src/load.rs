//! Open-loop load generation: latency-vs-load curves per workload.
//!
//! The paper's zero-bubble claim only matters under *sustained* load, so
//! this harness measures the serving tier the way a capacity planner
//! would: an open-loop arrival process (Poisson, bursty on/off, or
//! deterministic — [`grw_queueing::ArrivalProcess`]) emits query
//! timestamps, queries join the [`Driver`] at their arrival ticks
//! (never pre-batched), and every query's end-to-end latency
//! (arrival → delivery) is recorded exactly. Sweeping the offered load ρ
//! across a grid yields the latency-vs-load curve; a closed-loop
//! calibration run pins the saturation throughput μ̂ that anchors the
//! grid (λ = ρ·μ̂) and the `M/M/n` / `M/M/1[N]` closed-form predictions
//! the low-load operating points are validated against.
//!
//! Workloads follow the ThunderRW/LightRW evaluation matrix — URW, PPR,
//! DeepWalk, Node2Vec — and every sweep runs against both accelerator
//! shard modes. The incremental mode is the system under test for the
//! latency claims: its tick maps to a fixed cycle quantum, so tick-based
//! latency is simulated time. Batch-mode shards run each poll until the
//! machine is empty (unbounded work per tick), so their tick latency
//! stays flat while their *cycles per query* exposes the per-batch
//! fill/drain cost.

use crate::json::{self, higher, lower, Obj};
use grw_algo::{Node2VecMethod, PreparedGraph, QuerySet, WalkQuery, WalkSpec};
use grw_graph::generators::{Dataset, ScaleFactor};
use grw_graph::CsrGraph;
use grw_obs::{PhaseSummary, SpanSet};
use grw_queueing::{ArrivalProcess, BulkQueueModel, MmnQueue};
use grw_service::{
    accelerator_driver, percentile, AccelShardMode, CompletedWalk, Driver, ServiceConfig, SinkAck,
    SinkReport, TenantId, WalkSink,
};
use grw_sink::CountingSink;
use ridgewalker::{Accelerator, AcceleratorConfig};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

/// A serving workload: which walk algorithm the query stream runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadWorkload {
    /// Uniform random walk (unweighted, first order).
    Urw,
    /// Personalized PageRank (geometric length, α = 0.15).
    Ppr,
    /// DeepWalk (weighted, alias sampling).
    DeepWalk,
    /// Node2Vec (second order, rejection sampling on the unweighted
    /// stand-in).
    Node2Vec,
}

impl LoadWorkload {
    /// Every workload in the evaluation matrix.
    pub fn all() -> [LoadWorkload; 4] {
        [
            LoadWorkload::Urw,
            LoadWorkload::Ppr,
            LoadWorkload::DeepWalk,
            LoadWorkload::Node2Vec,
        ]
    }

    /// Figure-style name.
    pub fn name(&self) -> &'static str {
        match self {
            LoadWorkload::Urw => "URW",
            LoadWorkload::Ppr => "PPR",
            LoadWorkload::DeepWalk => "DeepWalk",
            LoadWorkload::Node2Vec => "Node2Vec",
        }
    }

    /// Lowercase file-name slug (`BENCH_load_<slug>.json`).
    pub fn slug(&self) -> &'static str {
        match self {
            LoadWorkload::Urw => "urw",
            LoadWorkload::Ppr => "ppr",
            LoadWorkload::DeepWalk => "deepwalk",
            LoadWorkload::Node2Vec => "node2vec",
        }
    }

    /// Parses a slug or figure name (case-insensitive).
    pub fn parse(text: &str) -> Option<LoadWorkload> {
        LoadWorkload::all()
            .into_iter()
            .find(|w| w.slug().eq_ignore_ascii_case(text) || w.name().eq_ignore_ascii_case(text))
    }

    /// The walk specification at the given maximum length.
    pub fn spec(&self, max_len: u32) -> WalkSpec {
        match self {
            LoadWorkload::Urw => WalkSpec::urw(max_len),
            LoadWorkload::Ppr => WalkSpec::ppr(max_len),
            LoadWorkload::DeepWalk => WalkSpec::deepwalk(max_len),
            LoadWorkload::Node2Vec => WalkSpec::node2vec(max_len, Node2VecMethod::Rejection),
        }
    }

    /// The stand-in graph at `scale`, weighted when the spec needs it.
    pub fn graph(&self, scale: ScaleFactor) -> CsrGraph {
        let spec = self.spec(2);
        if spec.requires_weights() {
            Dataset::WebGoogle.generate_weighted(scale)
        } else {
            Dataset::WebGoogle.generate(scale)
        }
    }
}

/// The traffic shape of the open-loop arrival stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalShape {
    /// Memoryless Poisson arrivals — the `M/M/…` model assumption.
    Poisson,
    /// Two-state on/off bursts (MMPP-2) at 8× the mean rate while ON.
    Bursty,
    /// Constant-rate arrivals (zero variance).
    Deterministic,
}

impl ArrivalShape {
    /// Lowercase name as recorded in the bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalShape::Poisson => "poisson",
            ArrivalShape::Bursty => "bursty",
            ArrivalShape::Deterministic => "deterministic",
        }
    }

    /// Parses a shape name (case-insensitive).
    pub fn parse(text: &str) -> Option<ArrivalShape> {
        [
            ArrivalShape::Poisson,
            ArrivalShape::Bursty,
            ArrivalShape::Deterministic,
        ]
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(text))
    }

    /// Instantiates the process at `rate` arrivals per tick.
    pub fn process(&self, rate: f64, seed: u64) -> ArrivalProcess {
        match self {
            ArrivalShape::Poisson => ArrivalProcess::poisson(rate, seed),
            ArrivalShape::Bursty => ArrivalProcess::bursty(rate, 8.0, seed),
            ArrivalShape::Deterministic => ArrivalProcess::deterministic(rate),
        }
    }
}

/// How completed walks leave the service during a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadDelivery {
    /// `tick()` returns `Vec`s and latency is stamped at completion —
    /// the delivery-blind measurement (PR 3 behaviour, the baselines'
    /// mode).
    Collect,
    /// Deliveries stream through [`Driver::tick_into`] into a
    /// [`CountingSink`] gated to accept at most `window` walks between
    /// flushes (`usize::MAX` = never push back). Latency is stamped when
    /// the *sink accepts* the walk, so time spent parked in the spill
    /// buffer behind a backpressuring consumer shows up as a latency
    /// term — the delivery-side cost high-ρ sweeps were blind to.
    Sink {
        /// Walks the sink takes between flushes before refusing.
        window: usize,
    },
}

impl LoadDelivery {
    /// Lowercase mode name as recorded in the bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            LoadDelivery::Collect => "collect",
            LoadDelivery::Sink { .. } => "sink",
        }
    }
}

/// Configuration of one latency-vs-load sweep.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Dataset stand-in scale.
    pub scale: ScaleFactor,
    /// Maximum walk length.
    pub walk_len: u32,
    /// Backend shards.
    pub shards: usize,
    /// Pipelines per shard.
    pub pipelines: u32,
    /// Micro-batch size bound.
    pub max_batch: usize,
    /// In-flight query cap per shard's machine. This bounds the
    /// machine's concurrency — the finite "server pool" that makes
    /// queueing-theoretic behaviour observable. (The platform default of
    /// 256×pipelines is effectively infinite at bench scales: every
    /// arrival is admitted immediately and latency stays flat in load.)
    pub max_inflight: usize,
    /// Cycle quantum an incremental shard simulates per service tick —
    /// the tick↔simulated-time exchange rate. Smaller quanta refine the
    /// latency resolution (a solo query should span many ticks for the
    /// queueing-model comparison to be meaningful).
    pub poll_quantum: u64,
    /// Queries in the calibration (closed-loop saturation) run.
    pub calibration_queries: usize,
    /// Concurrency window the saturation calibration holds: the service
    /// is kept exactly this many queries deep (closed loop), so μ̂ is the
    /// sustained rate at a realistic serving depth rather than a number
    /// polluted by ramp-up/ramp-down tails.
    pub calibration_window: usize,
    /// Queries per grid point.
    pub queries_per_point: usize,
    /// Offered loads ρ = λ/μ̂ to sweep, ascending.
    pub load_grid: Vec<f64>,
    /// Traffic shape of the arrival stream.
    pub arrival: ArrivalShape,
    /// How completed walks are consumed (and where latency stops being
    /// counted): collected `Vec`s, or streamed through a sink.
    pub delivery: LoadDelivery,
    /// Base seed for queries and arrivals.
    pub seed: u64,
}

impl LoadConfig {
    /// CI-sized smoke sweep (a few seconds per workload).
    pub fn smoke() -> Self {
        Self {
            scale: ScaleFactor::Tiny,
            walk_len: 16,
            shards: 2,
            pipelines: 4,
            max_batch: 64,
            max_inflight: 64,
            poll_quantum: 8,
            calibration_queries: 4_096,
            calibration_window: 1_024,
            queries_per_point: 768,
            load_grid: vec![0.15, 0.45, 0.9, 1.4],
            arrival: ArrivalShape::Poisson,
            delivery: LoadDelivery::Collect,
            seed: 0x10AD,
        }
    }

    /// Figure-scale sweep: the paper's walk length over a denser grid.
    pub fn full() -> Self {
        Self {
            scale: ScaleFactor::Small,
            walk_len: 80,
            shards: 2,
            pipelines: 4,
            max_batch: 256,
            max_inflight: 256,
            poll_quantum: 32,
            calibration_queries: 16_384,
            calibration_window: 4_096,
            queries_per_point: 8_192,
            load_grid: vec![0.1, 0.3, 0.5, 0.7, 0.9, 1.4],
            arrival: ArrivalShape::Poisson,
            delivery: LoadDelivery::Collect,
            seed: 0x0010_AD80,
        }
    }

    /// Minimal sweep for integration tests.
    pub fn test_tiny() -> Self {
        Self {
            scale: ScaleFactor::Tiny,
            walk_len: 12,
            shards: 2,
            pipelines: 4,
            max_batch: 32,
            max_inflight: 32,
            poll_quantum: 8,
            calibration_queries: 1_024,
            calibration_window: 256,
            queries_per_point: 384,
            load_grid: vec![0.2, 0.6, 1.4],
            arrival: ArrivalShape::Poisson,
            delivery: LoadDelivery::Collect,
            seed: 0x7E57,
        }
    }
}

/// One operating point of the latency-vs-load curve.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Offered load ρ = λ/μ̂.
    pub rho: f64,
    /// Arrival rate λ in queries per tick.
    pub lambda_per_tick: f64,
    /// Queries offered (and completed — the run finishes the stream).
    pub completed: usize,
    /// Service ticks from first arrival to last delivery.
    pub ticks: u64,
    /// Exact mean end-to-end latency, in ticks.
    pub mean_latency_ticks: f64,
    /// Median end-to-end latency, in ticks.
    pub p50_latency_ticks: u64,
    /// 95th-percentile end-to-end latency.
    pub p95_latency_ticks: u64,
    /// 99th-percentile end-to-end latency.
    pub p99_latency_ticks: u64,
    /// Worst-case end-to-end latency.
    pub max_latency_ticks: u64,
    /// Mean ticks a query spent coalescing before its flush.
    pub mean_batching_delay_ticks: f64,
    /// Mean service queue depth sampled every tick.
    pub mean_queue_depth: f64,
    /// Delivered queries per tick over the whole point.
    pub achieved_throughput: f64,
    /// Slowest shard's simulated cycles for this point.
    pub simulated_cycles: u64,
    /// Simulated cycles per delivered query (the batch mode's per-batch
    /// fill/drain cost shows up here).
    pub cycles_per_query: f64,
    /// Machine-level pipeline bubble ratio, when reported.
    pub bubble_ratio: Option<f64>,
    /// Closed-form `M/M/n` mean sojourn prediction (ticks), for stable
    /// points: n capacity-matched servers of rate μ̂/n.
    pub predicted_mmn_latency_ticks: Option<f64>,
    /// Closed-form `M/M/1[N]` bulk-service prediction (ticks) via
    /// Little's law on the stationary mean, for stable points.
    pub predicted_bulk_latency_ticks: Option<f64>,
    /// Walks that waited in the delivery spill buffer (sink mode only;
    /// 0 in collect mode).
    pub sink_spilled: u64,
    /// Sink flushes the service forced to keep delivery moving (sink
    /// mode only).
    pub sink_forced_flushes: u64,
}

/// The full sweep for one workload: calibration plus both mode curves.
#[derive(Debug, Clone)]
pub struct WorkloadLoadReport {
    /// Workload name (`URW`, …).
    pub workload: String,
    /// File-name slug.
    pub slug: String,
    /// Arrival-process shape.
    pub arrival: String,
    /// The sweep configuration.
    pub config: LoadConfig,
    /// Saturation throughput μ̂ in queries/tick (incremental mode,
    /// closed-loop backlogged calibration).
    pub saturation_qpt: f64,
    /// Mean end-to-end latency of a solo query (ticks), incremental mode.
    pub solo_latency_ticks: f64,
    /// Effective parallelism estimate n ≈ μ̂ · T_solo used for the
    /// `M/M/n` comparison.
    pub servers_estimate: usize,
    /// The curve for incremental-mode shards (the system under test).
    pub incremental: Vec<LoadPoint>,
    /// The curve for batch-mode shards on the identical arrival streams.
    pub batch: Vec<LoadPoint>,
    /// Exact phase attribution of the highest-load incremental point,
    /// reconstructed from its event journal — the operating point where
    /// latency decomposition matters most (under overload, batch-wait is
    /// where queueing shows up). Logical ticks, deterministic.
    pub high_load_phases: PhaseSummary,
}

impl WorkloadLoadReport {
    /// `BENCH_load_<slug>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_load_{}.json", self.slug)
    }

    /// Whether the incremental curve's mean latency is monotone
    /// non-decreasing in offered load, allowing `slack` relative dip
    /// (e.g. `0.02`) for tick-discretisation noise.
    pub fn incremental_monotone(&self, slack: f64) -> bool {
        self.incremental
            .windows(2)
            .all(|w| w[1].mean_latency_ticks >= w[0].mean_latency_ticks * (1.0 - slack))
    }

    /// Relative error of the lowest-load incremental point against the
    /// closed-form `M/M/n` prediction; `None` when the point is
    /// unstable (no prediction).
    pub fn low_load_model_error(&self) -> Option<f64> {
        let p = self.incremental.first()?;
        let predicted = p.predicted_mmn_latency_ticks?;
        Some((p.mean_latency_ticks - predicted).abs() / predicted)
    }

    /// Renders the report as a `BENCH_load_<workload>.json` record:
    /// calibration, a flat `summary`, the phase attribution of the
    /// highest-load point, and both curves. Saturation throughput is
    /// gated tight, loaded-regime latency loose.
    pub fn to_json(&self) -> String {
        let point = |p: &LoadPoint| {
            Obj::new()
                .num("rho", p.rho, 3)
                .num("lambda_per_tick", p.lambda_per_tick, 6)
                .int("completed", p.completed as u64)
                .int("ticks", p.ticks)
                .num("mean_latency_ticks", p.mean_latency_ticks, 3)
                .int("p50_latency_ticks", p.p50_latency_ticks)
                .int("p95_latency_ticks", p.p95_latency_ticks)
                .int("p99_latency_ticks", p.p99_latency_ticks)
                .int("max_latency_ticks", p.max_latency_ticks)
                .num("mean_batching_delay_ticks", p.mean_batching_delay_ticks, 3)
                .num("mean_queue_depth", p.mean_queue_depth, 3)
                .num("achieved_throughput", p.achieved_throughput, 6)
                .int("simulated_cycles", p.simulated_cycles)
                .num("cycles_per_query", p.cycles_per_query, 2)
                .opt("bubble_ratio", p.bubble_ratio, 6)
                .opt(
                    "predicted_mmn_latency_ticks",
                    p.predicted_mmn_latency_ticks,
                    3,
                )
                .opt(
                    "predicted_bulk_latency_ticks",
                    p.predicted_bulk_latency_ticks,
                    3,
                )
                .int("sink_spilled", p.sink_spilled)
                .int("sink_forced_flushes", p.sink_forced_flushes)
        };
        let c = &self.config;
        let low = self.incremental.first();
        let high = self.incremental.last();
        Obj::new()
            .str("bench", "load")
            .str("workload", &self.workload)
            .str("arrival", &self.arrival)
            .str("delivery", c.delivery.name())
            .obj(
                "config",
                Obj::new()
                    .str("scale", &format!("{:?}", c.scale))
                    .int("walk_len", c.walk_len.into())
                    .int("shards", c.shards as u64)
                    .int("pipelines", c.pipelines.into())
                    .int("max_batch", c.max_batch as u64)
                    .int("poll_quantum", c.poll_quantum)
                    .int("queries_per_point", c.queries_per_point as u64),
            )
            .int("parallelism", json::parallelism() as u64)
            .obj(
                "calibration",
                Obj::new()
                    .num("saturation_qpt", self.saturation_qpt, 6)
                    .gated(
                        "solo_latency_ticks",
                        self.solo_latency_ticks,
                        3,
                        lower(0.20, 2.0),
                    )
                    .int("servers_estimate", self.servers_estimate as u64),
            )
            .obj(
                "summary",
                Obj::new()
                    .gated("saturation_qpt", self.saturation_qpt, 6, higher(0.15))
                    .gated(
                        "low_load_mean_latency_ticks",
                        low.map(|p| p.mean_latency_ticks),
                        3,
                        lower(0.25, 2.0),
                    )
                    .opt(
                        "low_load_predicted_latency_ticks",
                        low.and_then(|p| p.predicted_mmn_latency_ticks),
                        3,
                    )
                    .gated(
                        "low_load_model_error",
                        self.low_load_model_error(),
                        4,
                        lower(0.30, 0.05),
                    )
                    .gated(
                        "high_load_mean_latency_ticks",
                        high.map(|p| p.mean_latency_ticks),
                        3,
                        lower(0.35, 2.0),
                    ),
            )
            // Phase attribution of the highest-load incremental point, so
            // an `obsdiff` of two records can say *where* a latency
            // regression on this curve lives.
            .phases(&self.high_load_phases, [0.35, 0.50, 0.35, 0.50], 64.0)
            .arr("incremental", self.incremental.iter().map(point))
            .arr("batch", self.batch.iter().map(point))
            .record()
    }
}

type DynService = Driver<grw_service::DynWalkBackend>;

/// Builds one fresh service in the given mode.
fn make_service(
    cfg: &LoadConfig,
    accel: &Accelerator,
    prepared: &Arc<PreparedGraph>,
    spec: &WalkSpec,
    mode: AccelShardMode,
) -> DynService {
    let buffer = cfg
        .max_batch
        .max(cfg.queries_per_point.max(cfg.calibration_queries));
    let svc_cfg = ServiceConfig::new(cfg.shards)
        .max_batch(cfg.max_batch)
        .max_delay_ticks(1)
        .buffer_capacity(buffer)
        // Sized so the instrumented grid point's journal never drops an
        // event (phase attribution stays exact, not a lower bound).
        .journal_capacity((cfg.queries_per_point * 6).max(grw_obs::DEFAULT_JOURNAL_CAPACITY));
    accelerator_driver(svc_cfg, accel, prepared.clone(), spec, mode)
}

/// Closed-loop saturation calibration: the service is held `window`
/// queries deep (completions are immediately replaced from the pool)
/// until the pool runs out. Returns μ̂ in queries/tick — the sustained
/// service rate at that depth, free of ramp-up/ramp-down bias.
///
/// Public because the routing bench calibrates per-*class* rates the
/// same way (one single-shard service per backend class) to anchor the
/// adaptive policy's cost model.
pub fn calibrate_saturation(
    service: &mut Driver<grw_service::DynWalkBackend>,
    queries: &[WalkQuery],
    window: usize,
) -> f64 {
    let total = queries.len();
    let mut submitted = 0;
    let mut completed = 0;
    let tick_cap = 500_000u64 + total as u64 * 1_000;
    while completed < total {
        let target = (completed + window).min(total);
        while submitted < target {
            let taken = service.submit(TenantId(1), &queries[submitted..target]);
            if taken == 0 {
                break;
            }
            submitted += taken;
        }
        completed += service.tick().len();
        assert!(
            service.now() < tick_cap,
            "saturation calibration did not converge"
        );
    }
    total as f64 / service.now().max(1) as f64
}

/// Solo-latency calibration: queries served one at a time on an otherwise
/// idle service. Returns the mean end-to-end latency in ticks.
fn calibrate_solo(service: &mut DynService, queries: &[WalkQuery]) -> f64 {
    let mut total_ticks = 0u64;
    for q in queries {
        let start = service.now();
        assert_eq!(service.submit(TenantId(1), std::slice::from_ref(q)), 1);
        let mut guard = 0u32;
        loop {
            if !service.tick().is_empty() {
                break;
            }
            guard += 1;
            assert!(guard < 10_000_000, "solo query never completed");
        }
        total_ticks += service.now() - start;
    }
    total_ticks as f64 / queries.len().max(1) as f64
}

/// Everything measured while one arrival stream plays through a service.
struct PointRun {
    latencies: Vec<u64>,
    batching_delays: Vec<u64>,
    ticks: u64,
    depth_sum: u128,
    simulated_cycles: u64,
    bubble_ratio: Option<f64>,
    sink_spilled: u64,
    sink_forced_flushes: u64,
}

/// The sink a [`LoadDelivery::Sink`] sweep delivers into: a gated
/// [`CountingSink`] (at most `window` accepts between flushes) that
/// stamps each walk's end-to-end latency *at acceptance* — so ticks a
/// walk spent parked in the service's spill buffer behind the gate count
/// as latency, which is the whole point of the mode.
struct LatencyProbeSink {
    inner: CountingSink,
    window: usize,
    accepted_since_flush: usize,
    /// Tick the driver is delivering at (shared with the drive loop).
    now: Rc<Cell<u64>>,
    latencies: Rc<RefCell<Vec<u64>>>,
    batching_delays: Rc<RefCell<Vec<u64>>>,
    arrival_ticks: Rc<Vec<u64>>,
}

impl WalkSink for LatencyProbeSink {
    fn accept(&mut self, walk: &CompletedWalk) -> SinkAck {
        if self.accepted_since_flush >= self.window {
            return SinkAck::Backpressured;
        }
        let id = walk.path.query as usize;
        let now = self.now.get();
        self.latencies.borrow_mut()[id] = now - self.arrival_ticks[id];
        self.batching_delays.borrow_mut()[id] = walk.batching_delay_ticks();
        self.accepted_since_flush += 1;
        self.inner.accept(walk)
    }

    fn flush(&mut self) {
        self.accepted_since_flush = 0;
        self.inner.flush();
    }

    fn report(&self) -> SinkReport {
        self.inner.report()
    }
}

/// Plays `queries` (ids `0..n`) into the service at their `arrival_ticks`
/// timestamps — open loop, tick by tick — and keeps ticking until every
/// query is delivered. Latency is measured from the *intended* arrival
/// tick, so admission backpressure counts against the system; in
/// [`LoadDelivery::Sink`] mode it is measured *to sink acceptance*, so
/// delivery backpressure counts too.
fn drive_open_loop(
    service: &mut DynService,
    queries: &[WalkQuery],
    arrival_ticks: &[u64],
    max_ticks: u64,
    delivery: LoadDelivery,
) -> PointRun {
    assert_eq!(queries.len(), arrival_ticks.len());
    let total = queries.len();
    let latencies = Rc::new(RefCell::new(vec![0u64; total]));
    let batching_delays = Rc::new(RefCell::new(vec![0u64; total]));
    let mut sink = match delivery {
        LoadDelivery::Collect => None,
        LoadDelivery::Sink { window } => {
            // A zero window would refuse every accept even right after a
            // flush — the run could never deliver anything, and the
            // eventual panic would blame the sink contract instead of
            // the configuration.
            assert!(window > 0, "sink delivery window must be positive");
            // The arrival-tick copy and the shared clock cell exist only
            // on this path; the collect path keeps plain locals.
            Some(LatencyProbeSink {
                inner: CountingSink::new(),
                window,
                accepted_since_flush: 0,
                now: Rc::new(Cell::new(0u64)),
                latencies: latencies.clone(),
                batching_delays: batching_delays.clone(),
                arrival_ticks: Rc::new(arrival_ticks.to_vec()),
            })
        }
    };
    let mut due = 0;
    let mut submitted = 0;
    let mut completed = 0;
    let mut depth_sum: u128 = 0;
    let mut ticks = 0u64;
    while completed < total {
        let now = service.now();
        while due < total && arrival_ticks[due] <= now {
            due += 1;
        }
        while submitted < due {
            let taken = service.submit(TenantId(1), &queries[submitted..due]);
            if taken == 0 {
                break;
            }
            submitted += taken;
        }
        match &mut sink {
            None => {
                let out = service.tick();
                let done_tick = service.now();
                let mut lat = latencies.borrow_mut();
                let mut bat = batching_delays.borrow_mut();
                for c in &out {
                    let id = c.path.query as usize;
                    lat[id] = done_tick - arrival_ticks[id];
                    bat[id] = c.batching_delay_ticks();
                }
                completed += out.len();
            }
            Some(probe) => {
                // `tick_into` advances the clock first, so acceptance
                // happens at `now + 1`.
                probe.now.set(service.now() + 1);
                completed += service.tick_into(probe);
            }
        }
        depth_sum += service.queue_depth() as u128;
        ticks += 1;
        assert!(
            ticks <= max_ticks,
            "open-loop run stalled: {completed}/{total} after {ticks} ticks"
        );
    }
    if let Some(probe) = &mut sink {
        // Everything has *completed*, but the gate may still be holding
        // walks in the spill buffer: run it dry so every latency is
        // stamped (drain does not advance the clock).
        probe.now.set(service.now());
        let leftover = service.drain_into(probe);
        debug_assert_eq!(leftover, 0, "the loop above finished the stream");
        assert_eq!(probe.inner.walks() as usize, total, "sink conservation");
    }
    drop(sink);
    let stats = service.stats();
    PointRun {
        latencies: Rc::try_unwrap(latencies)
            .expect("sink dropped")
            .into_inner(),
        batching_delays: Rc::try_unwrap(batching_delays)
            .expect("sink dropped")
            .into_inner(),
        ticks,
        depth_sum,
        simulated_cycles: stats.simulated_cycles.unwrap_or(0),
        bubble_ratio: stats.pipeline_bubble_ratio,
        sink_spilled: stats.sink_spilled,
        sink_forced_flushes: stats.sink_forced_flushes,
    }
}

/// Runs the full latency-vs-load sweep for one workload: calibration,
/// then every grid point against both shard modes on identical arrival
/// streams.
pub fn run_latency_load(workload: LoadWorkload, cfg: &LoadConfig) -> WorkloadLoadReport {
    assert!(
        cfg.load_grid.windows(2).all(|w| w[1] > w[0]),
        "load grid must be strictly ascending"
    );
    let spec = workload.spec(cfg.walk_len);
    let graph = workload.graph(cfg.scale);
    let prepared = Arc::new(PreparedGraph::new(graph, &spec).expect("stand-in satisfies the spec"));
    let nv = prepared.graph().vertex_count();
    let accel = Accelerator::new(
        AcceleratorConfig::new()
            .pipelines(cfg.pipelines)
            .max_inflight(cfg.max_inflight)
            .poll_quantum(cfg.poll_quantum),
    );

    // Calibration runs on the incremental mode — the mode whose tick maps
    // to a fixed cycle quantum, making queries/tick a simulated rate.
    let cal = QuerySet::random(nv, cfg.calibration_queries, cfg.seed ^ 0xCA11);
    let mut svc = make_service(cfg, &accel, &prepared, &spec, AccelShardMode::Incremental);
    let saturation_qpt = calibrate_saturation(&mut svc, cal.queries(), cfg.calibration_window);
    // Enough solo samples that the walk-length mix (dead ends, teleports)
    // matches the load pool's — a small sample biases T_solo and with it
    // the M/M/n comparison.
    let solo = QuerySet::random(nv, 64, cfg.seed ^ 0x5010);
    let mut svc = make_service(cfg, &accel, &prepared, &spec, AccelShardMode::Incremental);
    let solo_latency_ticks = calibrate_solo(&mut svc, solo.queries());
    let servers_estimate = ((saturation_qpt * solo_latency_ticks).round() as usize).max(1);

    // Common random numbers across grid points: one query pool and one
    // normalized (rate-1) arrival sequence, time-scaled by 1/λ per point.
    // Every point then serves the identical service-time mix in the
    // identical relative arrival pattern, so latency differences along
    // the curve are load effects, not sampling noise.
    let queries = QuerySet::random(nv, cfg.queries_per_point, cfg.seed ^ 0xA0);
    let mut base = cfg.arrival.process(1.0, cfg.seed ^ 0xF0);
    let base_times = base.take(cfg.queries_per_point);

    let mut incremental = Vec::new();
    let mut batch = Vec::new();
    let mut high_load_phases = PhaseSummary::default();
    let last_rho = cfg.load_grid.last().copied().unwrap_or(0.0);
    for &rho in &cfg.load_grid {
        let lambda = rho * saturation_qpt;
        let arrival_ticks: Vec<u64> = base_times
            .iter()
            .map(|t| (t / lambda).floor() as u64)
            .collect();
        let last_arrival = arrival_ticks.last().copied().unwrap_or(0);
        // Generous stall bound: the whole stream served at 2% of the
        // calibrated rate would still fit.
        let max_ticks =
            last_arrival + ((cfg.queries_per_point as f64 / saturation_qpt) * 50.0) as u64 + 10_000;

        // Capacity-matched closed forms: n servers of rate μ̂/n (so the
        // aggregate rate is exactly μ̂) for M/M/n, and one bulk server
        // dispatching up to n at rate μ̂/n for M/M/1[N].
        let n = servers_estimate;
        let mu_server = saturation_qpt / n as f64;
        let (predicted_mmn, predicted_bulk) = if rho < 1.0 {
            let mmn = MmnQueue::new(lambda, mu_server, n);
            // The bulk model's stationary law comes from power iteration
            // over a truncated chain — only affordable for moderate n.
            let bulk = (n <= 512).then(|| {
                let truncation = n * 8 + 64;
                BulkQueueModel::new(lambda, mu_server, n).mean_in_system(truncation) / lambda
            });
            (Some(mmn.mean_in_system() / lambda), bulk)
        } else {
            (None, None)
        };

        for mode in [AccelShardMode::Incremental, AccelShardMode::Batch] {
            let mut svc = make_service(cfg, &accel, &prepared, &spec, mode);
            // Only the highest-load incremental point is instrumented —
            // the curve's headline operating point; the other points stay
            // uninstrumented controls.
            let instrument = mode == AccelShardMode::Incremental && rho == last_rho;
            let obs = instrument.then(|| svc.attach_fresh_obs());
            let run = drive_open_loop(
                &mut svc,
                queries.queries(),
                &arrival_ticks,
                max_ticks,
                cfg.delivery,
            );
            if let Some(obs) = obs {
                svc.flush_obs();
                high_load_phases = SpanSet::from_trace(&obs.trace_jsonl()).summary();
            }
            let completed = run.latencies.len();
            let mean = run.latencies.iter().sum::<u64>() as f64 / completed.max(1) as f64;
            let point = LoadPoint {
                rho,
                lambda_per_tick: lambda,
                completed,
                ticks: run.ticks,
                mean_latency_ticks: mean,
                p50_latency_ticks: percentile(&run.latencies, 50.0),
                p95_latency_ticks: percentile(&run.latencies, 95.0),
                p99_latency_ticks: percentile(&run.latencies, 99.0),
                max_latency_ticks: run.latencies.iter().copied().max().unwrap_or(0),
                mean_batching_delay_ticks: run.batching_delays.iter().sum::<u64>() as f64
                    / completed.max(1) as f64,
                mean_queue_depth: run.depth_sum as f64 / run.ticks.max(1) as f64,
                achieved_throughput: completed as f64 / run.ticks.max(1) as f64,
                simulated_cycles: run.simulated_cycles,
                cycles_per_query: run.simulated_cycles as f64 / completed.max(1) as f64,
                bubble_ratio: run.bubble_ratio,
                predicted_mmn_latency_ticks: predicted_mmn,
                predicted_bulk_latency_ticks: predicted_bulk,
                sink_spilled: run.sink_spilled,
                sink_forced_flushes: run.sink_forced_flushes,
            };
            match mode {
                AccelShardMode::Incremental => incremental.push(point),
                AccelShardMode::Batch => batch.push(point),
            }
        }
    }

    WorkloadLoadReport {
        workload: workload.name().to_string(),
        slug: workload.slug().to_string(),
        arrival: cfg.arrival.name().to_string(),
        config: cfg.clone(),
        saturation_qpt,
        solo_latency_ticks,
        servers_estimate,
        incremental,
        batch,
        high_load_phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_parsing_round_trips() {
        for w in LoadWorkload::all() {
            assert_eq!(LoadWorkload::parse(w.slug()), Some(w));
            assert_eq!(LoadWorkload::parse(w.name()), Some(w));
        }
        assert_eq!(LoadWorkload::parse("nope"), None);
        assert_eq!(ArrivalShape::parse("BURSTY"), Some(ArrivalShape::Bursty));
        assert_eq!(ArrivalShape::parse("x"), None);
    }

    #[test]
    fn weighted_workloads_get_weighted_graphs() {
        assert!(LoadWorkload::DeepWalk
            .graph(ScaleFactor::Tiny)
            .is_weighted());
        assert!(!LoadWorkload::Urw.graph(ScaleFactor::Tiny).is_weighted());
    }
}
