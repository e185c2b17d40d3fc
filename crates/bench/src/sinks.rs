//! Sink-delivery bench: bounded resident memory vs drain-to-`Vec`.
//!
//! The acceptance question for the result-streaming subsystem is a memory
//! one: under sustained load, how many completed paths are resident at
//! once? The legacy consumption pattern — `collected.extend(svc.tick())`
//! — grows linearly with walks completed, because every path the run
//! ever produced stays in the caller's `Vec`. Streaming the identical
//! open-loop stream through [`Driver::tick_into`] and a bounded
//! [`CorpusSink`] keeps the resident count at O(spill capacity + sink
//! buffer): each path is windowed into skip-gram pairs on delivery and
//! dropped, and the pair window itself flushes downstream at capacity.
//!
//! Both paths serve the *same* arrival schedule on the same incremental
//! accelerator shards, so everything in the `summary` block — walks
//! delivered, pairs emitted, peak residency, total ticks — is
//! deterministic and CI-gateable; only wall-clock throughput varies by
//! host.
//!
//! [`Driver::tick_into`]: grw_service::Driver::tick_into

use crate::json::{self, higher, lower, Obj};
use grw_algo::{PreparedGraph, QuerySet, WalkQuery, WalkSpec};
use grw_graph::generators::{Dataset, ScaleFactor};
use grw_obs::{PhaseSummary, SpanSet};
use grw_service::{accelerator_driver, AccelShardMode, Driver, ServiceConfig, TenantId};
use grw_sink::{CorpusSink, SkipGramPair, WalkSink};
use ridgewalker::{Accelerator, AcceleratorConfig};
use std::sync::Arc;
use std::time::Instant;

/// Workload + sink shape of one bounded-memory comparison.
#[derive(Debug, Clone, Copy)]
pub struct SinkBenchConfig {
    /// Dataset stand-in scale.
    pub scale: ScaleFactor,
    /// Maximum walk length.
    pub walk_len: u32,
    /// Total queries in the stream.
    pub queries: usize,
    /// Queries arriving per service tick (open loop).
    pub arrivals_per_tick: usize,
    /// Backend shards.
    pub shards: usize,
    /// Pipelines per shard.
    pub pipelines: u32,
    /// Micro-batch size bound.
    pub max_batch: usize,
    /// Cycle quantum an incremental shard simulates per tick.
    pub poll_quantum: u64,
    /// Skip-gram window of the corpus sink.
    pub corpus_window: usize,
    /// Pair-buffer capacity of the corpus sink.
    pub corpus_capacity: usize,
    /// Service-side spill capacity (resident completed walks held for a
    /// backpressured sink).
    pub spill_capacity: usize,
    /// Query-generation seed.
    pub seed: u64,
}

impl SinkBenchConfig {
    /// CI-sized smoke comparison (a couple of seconds end to end).
    pub fn smoke() -> Self {
        Self {
            scale: ScaleFactor::Tiny,
            walk_len: 16,
            queries: 6_144,
            arrivals_per_tick: 192,
            shards: 2,
            pipelines: 4,
            max_batch: 128,
            poll_quantum: 256,
            corpus_window: 5,
            corpus_capacity: 4_096,
            spill_capacity: 256,
            seed: 0x51_4B,
        }
    }

    /// Figure-scale comparison over a longer stream.
    pub fn full() -> Self {
        Self {
            scale: ScaleFactor::Small,
            walk_len: 40,
            queries: 32_768,
            arrivals_per_tick: 512,
            shards: 2,
            pipelines: 4,
            max_batch: 256,
            poll_quantum: 1_024,
            corpus_window: 10,
            corpus_capacity: 65_536,
            spill_capacity: 1_024,
            seed: 0x51_4C,
        }
    }

    /// Minimal comparison for integration tests.
    pub fn test_tiny() -> Self {
        Self {
            scale: ScaleFactor::Tiny,
            walk_len: 10,
            queries: 1_024,
            arrivals_per_tick: 64,
            shards: 2,
            pipelines: 4,
            max_batch: 64,
            poll_quantum: 128,
            corpus_window: 3,
            corpus_capacity: 512,
            spill_capacity: 64,
            seed: 0x51_7E,
        }
    }
}

/// What one delivery mode held and produced over the stream.
#[derive(Debug, Clone, Copy)]
pub struct DeliveryFootprint {
    /// Walks delivered (must equal the stream length).
    pub completed: u64,
    /// Service ticks from first arrival to fully drained.
    pub ticks: u64,
    /// Largest number of completed paths resident after any tick —
    /// collected `Vec` length (legacy) or spill depth (sink mode).
    pub peak_resident_paths: usize,
    /// Completed paths resident once the stream fully drained.
    pub final_resident_paths: usize,
    /// Wall-clock seconds for the whole stream (host-dependent; not
    /// gated).
    pub wall_seconds: f64,
}

impl DeliveryFootprint {
    /// Walks per wall second (host-dependent; not gated).
    pub fn walks_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.completed as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// The two delivery modes on the identical stream, plus sink-side output.
#[derive(Debug, Clone, Copy)]
pub struct SinkBenchReport {
    /// The workload both modes served.
    pub config: SinkBenchConfig,
    /// Legacy consumption: `collected.extend(tick())` — linear residency.
    pub legacy: DeliveryFootprint,
    /// Streaming consumption: `tick_into(CorpusSink)` — bounded residency.
    pub sink: DeliveryFootprint,
    /// Corpus tokens (walk vertices) accepted by the sink.
    pub corpus_tokens: u64,
    /// Skip-gram pairs emitted downstream.
    pub pairs_emitted: u64,
    /// Largest pair count ever buffered inside the corpus sink.
    pub peak_buffered_pairs: usize,
    /// Corpus-sink flushes.
    pub corpus_flushes: u64,
    /// Delivery-side counters from `ServiceStats`.
    pub sink_accepted: u64,
    /// Accept attempts refused with backpressure.
    pub sink_backpressured: u64,
    /// Walks that waited in the bounded spill buffer.
    pub sink_spilled: u64,
    /// Sink flushes the service forced to keep delivery moving.
    pub sink_forced_flushes: u64,
    /// Exact phase attribution of the streamed arm, reconstructed from
    /// its event journal: batch-wait / backend-service / sink-wait sums
    /// that telescope to the end-to-end total. This is the arm where
    /// `sink-wait` is a live phase — spilled walks wait for the
    /// backpressured sink, and the journal prices that wait per walk.
    pub phases: PhaseSummary,
}

impl SinkBenchReport {
    /// Peak-residency improvement of sink delivery over drain-to-`Vec`.
    pub fn residency_ratio(&self) -> f64 {
        self.legacy.peak_resident_paths as f64 / self.sink.peak_resident_paths.max(1) as f64
    }

    /// Renders the report as a `BENCH_sinks.json` record with a flat
    /// `summary` of deterministic metrics. Exact conservation counts are
    /// gated tight, residency and ticks loose.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let footprint = |f: &DeliveryFootprint| {
            Obj::new()
                .int("completed", f.completed)
                .int("ticks", f.ticks)
                .int("peak_resident_paths", f.peak_resident_paths as u64)
                .int("final_resident_paths", f.final_resident_paths as u64)
                .num("wall_seconds", f.wall_seconds, 6)
                .num("walks_per_sec", f.walks_per_sec(), 1)
        };
        Obj::new()
            .str("bench", "sinks")
            .obj(
                "config",
                Obj::new()
                    .str("scale", &format!("{:?}", c.scale))
                    .int("walk_len", c.walk_len.into())
                    .int("queries", c.queries as u64)
                    .int("arrivals_per_tick", c.arrivals_per_tick as u64)
                    .int("shards", c.shards as u64)
                    .int("pipelines", c.pipelines.into())
                    .int("max_batch", c.max_batch as u64)
                    .int("poll_quantum", c.poll_quantum)
                    .int("corpus_window", c.corpus_window as u64)
                    .int("corpus_capacity", c.corpus_capacity as u64)
                    .int("spill_capacity", c.spill_capacity as u64),
            )
            .int("parallelism", json::parallelism() as u64)
            .obj("legacy", footprint(&self.legacy))
            .obj("sink", footprint(&self.sink))
            .obj(
                "corpus",
                Obj::new()
                    .int("tokens", self.corpus_tokens)
                    .int("pairs_emitted", self.pairs_emitted)
                    .int("peak_buffered_pairs", self.peak_buffered_pairs as u64)
                    .int("flushes", self.corpus_flushes),
            )
            .obj(
                "delivery",
                Obj::new()
                    .int("accepted", self.sink_accepted)
                    .int("backpressured", self.sink_backpressured)
                    .int("spilled", self.sink_spilled)
                    .int("forced_flushes", self.sink_forced_flushes),
            )
            .obj(
                "summary",
                Obj::new()
                    .gated(
                        "walks_delivered",
                        self.sink.completed as f64,
                        0,
                        higher(0.05),
                    )
                    .gated("pairs_emitted", self.pairs_emitted as f64, 0, higher(0.10))
                    .int(
                        "legacy_peak_resident",
                        self.legacy.peak_resident_paths as u64,
                    )
                    .gated(
                        "sink_peak_resident",
                        self.sink.peak_resident_paths as f64,
                        0,
                        lower(0.30, 16.0),
                    )
                    .num("residency_ratio", self.residency_ratio(), 2)
                    .gated("ticks", self.sink.ticks as f64, 0, lower(0.25, 8.0)),
            )
            .phases(&self.phases, [0.30, 0.40, 0.30, 0.50], 64.0)
            .record()
    }
}

type DynService = Driver<grw_service::DynWalkBackend>;

fn make_service(
    cfg: &SinkBenchConfig,
    accel: &Accelerator,
    prepared: &Arc<PreparedGraph>,
    spec: &WalkSpec,
) -> DynService {
    let svc_cfg = ServiceConfig::new(cfg.shards)
        .max_batch(cfg.max_batch)
        .max_delay_ticks(1)
        .buffer_capacity(cfg.max_batch.max(cfg.arrivals_per_tick) * 4)
        .sink_spill_capacity(cfg.spill_capacity)
        // Three span events per query (admitted, delivered, sink-accept)
        // plus batch events: size the journal so the instrumented arm's
        // phase attribution is exact, never an overflow lower bound.
        .journal_capacity((cfg.queries * 6).max(grw_obs::DEFAULT_JOURNAL_CAPACITY));
    accelerator_driver(
        svc_cfg,
        accel,
        prepared.clone(),
        spec,
        AccelShardMode::Incremental,
    )
}

/// Feeds one open-loop wave, retrying refused prefixes after ticks.
/// `on_tick` observes the service after every tick and returns the
/// walks it saw completing plus the resident count to track.
fn drive<F: FnMut(&mut DynService) -> (usize, usize)>(
    service: &mut DynService,
    queries: &[WalkQuery],
    arrivals_per_tick: usize,
    mut on_tick: F,
) -> DeliveryFootprint {
    let started = Instant::now();
    let mut completed = 0usize;
    let mut peak_resident = 0usize;
    let mut last_resident = 0usize;
    let mut tick = |svc: &mut DynService, completed: &mut usize| {
        let (done, resident) = on_tick(svc);
        *completed += done;
        peak_resident = peak_resident.max(resident);
        last_resident = resident;
    };
    for wave in queries.chunks(arrivals_per_tick) {
        let mut part = wave;
        while !part.is_empty() {
            let taken = service.submit(TenantId(1), part);
            part = &part[taken..];
            if taken == 0 {
                tick(service, &mut completed);
            }
        }
        tick(service, &mut completed);
    }
    while completed < queries.len() {
        tick(service, &mut completed);
    }
    DeliveryFootprint {
        completed: completed as u64,
        ticks: service.now(),
        peak_resident_paths: peak_resident,
        final_resident_paths: last_resident,
        wall_seconds: started.elapsed().as_secs_f64(),
    }
}

/// Runs the comparison: the identical open-loop stream consumed the
/// legacy way (accumulate every `CompletedWalk`) and the streaming way
/// (skip-gram corpus sink with bounded buffers).
pub fn run_sink_bench(cfg: &SinkBenchConfig) -> SinkBenchReport {
    let graph = Dataset::LiveJournal.generate_weighted(cfg.scale);
    let spec = WalkSpec::deepwalk(cfg.walk_len);
    let prepared = Arc::new(PreparedGraph::new(graph, &spec).expect("weighted graph"));
    let queries = QuerySet::random(prepared.graph().vertex_count(), cfg.queries, cfg.seed);
    let accel = Accelerator::new(
        AcceleratorConfig::new()
            .pipelines(cfg.pipelines)
            .poll_quantum(cfg.poll_quantum),
    );

    // Legacy: every completed walk accumulates in the caller's Vec; the
    // resident count is the Vec length — linear in walks completed.
    let mut service = make_service(cfg, &accel, &prepared, &spec);
    let mut collected: Vec<grw_service::CompletedWalk> = Vec::new();
    let legacy = drive(
        &mut service,
        queries.queries(),
        cfg.arrivals_per_tick,
        |svc| {
            let out = svc.tick();
            let done = out.len();
            collected.extend(out);
            (done, collected.len())
        },
    );
    drop(collected);

    // Streaming: the same stream delivered into a bounded corpus sink;
    // resident completed paths = the service's spill depth.
    let mut service = make_service(cfg, &accel, &prepared, &spec);
    // Only the streamed arm is instrumented: it is the one with a live
    // sink-wait phase, and the legacy arm stays an uninstrumented control.
    let obs = service.attach_fresh_obs();
    let mut pairs_emitted_downstream = 0u64;
    let mut corpus = CorpusSink::new(
        cfg.corpus_window,
        cfg.corpus_capacity,
        |w: &[SkipGramPair]| {
            // Downstream consumer stand-in: a trainer feed would read the
            // window here; the bench only counts it.
            pairs_emitted_downstream += w.len() as u64;
        },
    );
    let mut sink_footprint = {
        let corpus_ref = &mut corpus;
        drive(
            &mut service,
            queries.queries(),
            cfg.arrivals_per_tick,
            move |svc| {
                let done = svc.tick_into(corpus_ref);
                (done, svc.spill_depth())
            },
        )
    };
    // Run the spill dry and emit the final partial window downstream.
    let leftover = service.drain_into(&mut corpus);
    debug_assert_eq!(leftover, 0, "the drive loop already finished the stream");
    service.flush_obs();
    let phases = SpanSet::from_trace(&obs.trace_jsonl()).summary();
    let stats = service.stats();
    sink_footprint.final_resident_paths = stats.sink_spill_depth;
    let corpus_report = corpus.report();
    let (tokens, peak_buffered) = (corpus.tokens(), corpus_report.peak_buffered);
    let flushes = corpus_report.flushes;
    drop(corpus);

    SinkBenchReport {
        config: *cfg,
        legacy,
        sink: sink_footprint,
        corpus_tokens: tokens,
        pairs_emitted: pairs_emitted_downstream,
        peak_buffered_pairs: peak_buffered,
        corpus_flushes: flushes,
        sink_accepted: stats.sink_accepted,
        sink_backpressured: stats.sink_backpressured,
        sink_spilled: stats.sink_spilled,
        sink_forced_flushes: stats.sink_forced_flushes,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{gates, Json};

    #[test]
    fn sink_residency_is_bounded_where_legacy_grows_linearly() {
        let cfg = SinkBenchConfig::test_tiny();
        let report = run_sink_bench(&cfg);
        assert_eq!(report.legacy.completed, cfg.queries as u64);
        assert_eq!(report.sink.completed, cfg.queries as u64, "conservation");
        assert_eq!(
            report.legacy.peak_resident_paths, cfg.queries,
            "drain-to-Vec keeps every path resident"
        );
        assert!(
            report.sink.peak_resident_paths <= cfg.spill_capacity,
            "sink residency {} must stay within the spill bound {}",
            report.sink.peak_resident_paths,
            cfg.spill_capacity
        );
        assert_eq!(report.sink.final_resident_paths, 0);
        assert!(report.residency_ratio() >= 4.0, "the headline must hold");
        assert!(report.pairs_emitted > 0);
        assert!(report.peak_buffered_pairs <= cfg.corpus_capacity);
        assert_eq!(report.sink_accepted, cfg.queries as u64);
    }

    #[test]
    fn bench_json_is_parseable_and_carries_the_summary() {
        let report = run_sink_bench(&SinkBenchConfig::test_tiny());
        let json = Json::parse(&report.to_json()).expect("well-formed JSON");
        assert_eq!(
            json.get("summary.walks_delivered").and_then(Json::as_f64),
            Some(report.sink.completed as f64)
        );
        assert_eq!(
            json.get("summary.sink_peak_resident")
                .and_then(Json::as_f64),
            Some(report.sink.peak_resident_paths as f64)
        );
        assert_eq!(
            json.get("summary.pairs_emitted").and_then(Json::as_f64),
            Some(report.pairs_emitted as f64)
        );
        assert!(json.get("legacy.peak_resident_paths").is_some());
        let baseline = Json::parse(include_str!(
            "../../../benchmarks/baselines/BENCH_sinks.json"
        ))
        .unwrap();
        assert_eq!(
            gates(&json),
            gates(&baseline),
            "the record declares exactly its committed baseline's gates"
        );
    }

    #[test]
    fn the_comparison_is_deterministic() {
        let cfg = SinkBenchConfig::test_tiny();
        let a = run_sink_bench(&cfg);
        let b = run_sink_bench(&cfg);
        assert_eq!(a.sink.ticks, b.sink.ticks);
        assert_eq!(a.sink.peak_resident_paths, b.sink.peak_resident_paths);
        assert_eq!(a.pairs_emitted, b.pairs_emitted);
        assert_eq!(a.corpus_tokens, b.corpus_tokens);
        assert_eq!(a.sink_spilled, b.sink_spilled);
        assert_eq!(a.phases, b.phases, "phase attribution is deterministic");
    }

    #[test]
    fn phases_cover_every_streamed_walk_and_sum_exactly() {
        let cfg = SinkBenchConfig::test_tiny();
        let report = run_sink_bench(&cfg);
        let p = &report.phases;
        assert_eq!(p.count, cfg.queries as u64, "every delivered walk spans");
        assert_eq!(
            p.phase_sums.iter().sum::<u64>(),
            p.total_sum,
            "phases telescope exactly"
        );
        // The record embeds the same summary it computed.
        let json = Json::parse(&report.to_json()).expect("well-formed JSON");
        assert_eq!(
            json.get("phases.count").and_then(Json::as_f64),
            Some(p.count as f64)
        );
        assert_eq!(
            json.get("phases.sink_wait_sum").and_then(Json::as_f64),
            Some(p.phase_sums[2] as f64)
        );
    }

    #[test]
    fn obsdiff_names_sink_wait_when_the_sink_window_shrinks() {
        use grw_obs::TraceDiff;
        // Injected regression: same stream, but the corpus sink's pair
        // buffer shrinks until it refuses after every couple of walks —
        // the sink backpressures, delivered walks queue in the spill, and
        // the extra latency belongs to the sink-wait phase while the
        // batch-wait and backend phases stay byte-identical. The diff
        // must say so, not just that latency moved.
        let baseline = run_sink_bench(&SinkBenchConfig::test_tiny());
        let regressed_cfg = SinkBenchConfig {
            corpus_capacity: 96,
            ..SinkBenchConfig::test_tiny()
        };
        let regressed = run_sink_bench(&regressed_cfg);
        assert!(
            regressed.sink_backpressured > baseline.sink_backpressured,
            "the injected config must actually induce backpressure \
             ({} vs {})",
            regressed.sink_backpressured,
            baseline.sink_backpressured
        );
        let diff = TraceDiff::from_summaries(baseline.phases, regressed.phases);
        assert_eq!(
            diff.top_regressed_phase(),
            Some("sink-wait"),
            "phase deltas: {:?}, verdict: {}",
            diff.phase_mean_deltas(),
            diff.verdict()
        );
        assert!(diff.verdict().contains("sink-wait"), "{}", diff.verdict());
    }
}
