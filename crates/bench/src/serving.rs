//! Figure-scale serving benchmark: batch vs incremental accelerator
//! shards under a sustained open-loop query stream.
//!
//! The paper's evaluation measures a machine that is never allowed to
//! drain; a serving tier reproduces that regime with an *open-loop*
//! arrival process — a fixed number of queries arrives per service tick
//! whether or not earlier ones finished. This module drives the identical
//! stream through a [`Driver`] twice, once per
//! [`AccelShardMode`], and reports MStep/s (wall and simulated) plus the
//! pipeline bubble ratio for each. The incremental mode should hold a
//! strictly lower bubble ratio: batch-mode shards re-pay pipeline fill at
//! every micro-batch boundary, incremental shards keep one machine
//! backlogged throughout.

use crate::json::{self, higher, lower, Obj};
use grw_algo::{PreparedGraph, QuerySet, WalkSpec};
use grw_graph::generators::{Dataset, ScaleFactor};
use grw_service::{accelerator_driver, AccelShardMode, Driver, ServiceConfig, TenantId};
use ridgewalker::{Accelerator, AcceleratorConfig};
use std::sync::Arc;

/// Workload shape for the serving comparison.
#[derive(Debug, Clone, Copy)]
pub struct ServingWorkload {
    /// Dataset stand-in scale.
    pub scale: ScaleFactor,
    /// Total queries in the stream.
    pub queries: usize,
    /// Maximum walk length (the paper's evaluation uses 80).
    pub walk_len: u32,
    /// Queries arriving per service tick (the open-loop rate).
    pub arrivals_per_tick: usize,
    /// Backend shards.
    pub shards: usize,
    /// Pipelines per shard.
    pub pipelines: u32,
    /// Micro-batch size bound.
    pub max_batch: usize,
    /// Cycle quantum an incremental shard simulates per service tick.
    /// Sustained load means arrivals outpace this: the machine must still
    /// be backlogged when the next wave lands.
    pub poll_quantum: u64,
    /// Query-generation seed.
    pub seed: u64,
}

impl ServingWorkload {
    /// CI-sized smoke workload (a couple of seconds end to end).
    pub fn smoke() -> Self {
        Self {
            scale: ScaleFactor::Tiny,
            queries: 4_096,
            walk_len: 16,
            arrivals_per_tick: 256,
            shards: 2,
            pipelines: 4,
            max_batch: 128,
            poll_quantum: 256,
            seed: 0x5E_12,
        }
    }

    /// Figure-scale workload: the paper's walk length over a larger
    /// stream.
    pub fn figure() -> Self {
        Self {
            scale: ScaleFactor::Small,
            queries: 32_768,
            walk_len: 80,
            arrivals_per_tick: 1_024,
            shards: 2,
            pipelines: 4,
            max_batch: 512,
            poll_quantum: 4_096,
            seed: 0x5E_80,
        }
    }
}

/// One execution mode's measurements.
#[derive(Debug, Clone, Copy)]
pub struct ModeReport {
    /// Walks completed (must equal the stream length).
    pub completed: u64,
    /// Hops executed.
    pub steps: u64,
    /// Hops per wall second, in millions (this process, host-dependent).
    pub msteps_wall: f64,
    /// Hops per *simulated* second, in millions (shards in parallel).
    pub msteps_simulated: f64,
    /// Slowest shard's simulated cycles.
    pub simulated_cycles: u64,
    /// Serving-level bubble ratio: pipeline-cycles not doing useful work
    /// during the *loaded window* (up to the last arrival, before the
    /// final drain) over all pipeline-cycles in that window. While the
    /// stream is still arriving the service always holds backlog, so any
    /// idle pipeline-cycle — including the fill/drain a batch-mode poll
    /// pays, which the machine's own report files under "drained, no
    /// work" because the queries waiting for the next poll sit outside
    /// the machine — is a bubble from the system's point of view.
    pub bubble_ratio: f64,
    /// Machine-level bubble ratio over the whole run (the paper's
    /// backlog-conditioned definition, merged across shards by raw
    /// counts). Blind to backlog parked outside the machine.
    pub machine_bubble_ratio: f64,
    /// Pipeline utilization over the whole run, merged across shards by
    /// raw counts.
    pub utilization: f64,
    /// p99 micro-batch completion latency in service ticks.
    pub p99_batch_latency_ticks: u64,
}

/// The two modes, measured on the identical query stream.
#[derive(Debug, Clone, Copy)]
pub struct ServingComparison {
    /// The workload both modes served.
    pub workload: ServingWorkload,
    /// Micro-batch shards (fill/drain per batch).
    pub batch: ModeReport,
    /// Incremental shards (queries join the running machine).
    pub incremental: ModeReport,
}

impl ServingComparison {
    /// Ratio of batch-mode bubbles to incremental-mode bubbles (>1 means
    /// the incremental machine wastes fewer pipeline-cycles).
    pub fn bubble_improvement(&self) -> f64 {
        if self.incremental.bubble_ratio > 0.0 {
            self.batch.bubble_ratio / self.incremental.bubble_ratio
        } else {
            f64::INFINITY
        }
    }

    /// Renders the comparison as a `BENCH_serving.json` record.
    /// Throughput and cycle counts are gated tight, bubble ratios and the
    /// latency tail loose.
    pub fn to_json(&self) -> String {
        let w = &self.workload;
        let mode = |m: &ModeReport| {
            Obj::new()
                .int("completed", m.completed)
                .int("steps", m.steps)
                .num("msteps_wall", m.msteps_wall, 3)
                .gated("msteps_simulated", m.msteps_simulated, 3, higher(0.15))
                .gated(
                    "simulated_cycles",
                    m.simulated_cycles as f64,
                    0,
                    lower(0.15, 0.0),
                )
                .gated("bubble_ratio", m.bubble_ratio, 6, lower(0.30, 0.05))
                .num("machine_bubble_ratio", m.machine_bubble_ratio, 6)
                .num("pipeline_utilization", m.utilization, 6)
        };
        Obj::new()
            .str("bench", "serving")
            .obj(
                "workload",
                Obj::new()
                    .int("queries", w.queries as u64)
                    .int("walk_len", w.walk_len.into())
                    .int("arrivals_per_tick", w.arrivals_per_tick as u64)
                    .int("shards", w.shards as u64)
                    .int("pipelines", w.pipelines.into())
                    .int("max_batch", w.max_batch as u64)
                    .int("poll_quantum", w.poll_quantum),
            )
            .int("parallelism", json::parallelism() as u64)
            .obj(
                "batch",
                mode(&self.batch).int(
                    "p99_batch_latency_ticks",
                    self.batch.p99_batch_latency_ticks,
                ),
            )
            .obj(
                "incremental",
                mode(&self.incremental).gated(
                    "p99_batch_latency_ticks",
                    self.incremental.p99_batch_latency_ticks as f64,
                    0,
                    lower(0.35, 2.0),
                ),
            )
            // A zero-bubble incremental run has an infinite ratio: null.
            .num("bubble_improvement", self.bubble_improvement(), 3)
            .record()
    }
}

/// Drives the workload's query stream through one service in open loop —
/// `arrivals_per_tick` queries per tick — and snapshots the pipeline
/// meter at the end of the loaded window, before draining the tail.
/// Returns `(completed, loaded-window meter)`.
fn drive(
    service: &mut Driver<grw_service::DynWalkBackend>,
    queries: &[grw_algo::WalkQuery],
    arrivals_per_tick: usize,
) -> (u64, grw_sim::stats::UtilizationMeter) {
    let mut completed = 0u64;
    for wave in queries.chunks(arrivals_per_tick) {
        let mut part = wave;
        while !part.is_empty() {
            let taken = service.submit(TenantId(1), part);
            part = &part[taken..];
            if taken == 0 {
                completed += service.tick().len() as u64;
            }
        }
        completed += service.tick().len() as u64;
    }
    let loaded = service
        .stats()
        .pipeline_cycles
        .expect("accelerator shards report pipeline cycles");
    completed += service.drain().len() as u64;
    (completed, loaded)
}

/// Runs the comparison: the same graph, spec and query stream through
/// batch-mode and incremental-mode accelerator shards.
pub fn run_serving_comparison(w: ServingWorkload) -> ServingComparison {
    let graph = Dataset::WebGoogle.generate(w.scale);
    let spec = WalkSpec::urw(w.walk_len);
    let prepared = Arc::new(PreparedGraph::new(graph, &spec).expect("unweighted graph"));
    let queries = QuerySet::random(prepared.graph().vertex_count(), w.queries, w.seed);
    let accel = Accelerator::new(
        AcceleratorConfig::new()
            .pipelines(w.pipelines)
            .poll_quantum(w.poll_quantum),
    );

    let measure = |mode: AccelShardMode| -> ModeReport {
        let cfg = ServiceConfig::new(w.shards)
            .max_batch(w.max_batch)
            .max_delay_ticks(1)
            .buffer_capacity(w.max_batch.max(w.arrivals_per_tick) * 4);
        let mut service = accelerator_driver(cfg, &accel, prepared.clone(), &spec, mode);
        let (completed, loaded) = drive(&mut service, queries.queries(), w.arrivals_per_tick);
        let stats = service.stats();
        assert_eq!(completed, w.queries as u64, "stream must be fully served");
        let idle = loaded.bubbles() + loaded.drained();
        ModeReport {
            completed,
            steps: stats.steps,
            msteps_wall: stats.msteps_per_sec_wall,
            msteps_simulated: stats.msteps_per_sec_simulated.unwrap_or(0.0),
            simulated_cycles: stats.simulated_cycles.unwrap_or(0),
            bubble_ratio: if loaded.total() == 0 {
                0.0
            } else {
                idle as f64 / loaded.total() as f64
            },
            machine_bubble_ratio: stats.pipeline_bubble_ratio.unwrap_or(0.0),
            utilization: stats.pipeline_utilization.unwrap_or(0.0),
            p99_batch_latency_ticks: stats.p99_batch_latency_ticks,
        }
    };

    ServingComparison {
        workload: w,
        batch: measure(AccelShardMode::Batch),
        incremental: measure(AccelShardMode::Incremental),
    }
}

// The end-to-end smoke assertion (incremental beats batch on bubbles and
// throughput, JSON well-formed) lives in `tests/streaming.rs` — one full
// comparison run per CI pass, shared with the acceptance criterion, rather
// than a duplicate simulation here.
