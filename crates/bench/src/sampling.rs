//! Sampling bench: legacy vs runtime-adaptive sampler kernels.
//!
//! The adaptive strategy layer ([`grw_algo::StrategyTable`]) claims two
//! things at once: walk paths are *bit-identical* to the legacy kernels
//! wherever identity is promised, and the hot step path gets *faster* on
//! degree-skewed graphs — most of all for Node2Vec, where the sharded
//! second-order alias cache replaces per-step rejection trials with one
//! cached alias draw. This bench measures both claims on the same run:
//!
//! * every workload executes the identical query stream through a legacy
//!   ([`SamplerConfig::legacy`]) and an adaptive ([`SamplerConfig::auto`])
//!   `PreparedGraph`, asserting the identity claim before any timing —
//!   bitwise-equal paths where the table keeps the legacy kernels, and
//!   cache-on/cache-off path equality where it swaps in the second-order
//!   alias kernel;
//! * wall-clock MStep/s is then measured per arm in the steady serving
//!   state: one persistent backend per arm replays the stream
//!   [`repeats`](SamplingBenchConfig::repeats)` + 1` times and the best
//!   pass is reported, so the adaptive arm's cache warms on the first
//!   pass exactly as a long-lived `Driver` shard's does — across
//!   two RMAT degree-skew settings —
//!   `balanced` (`a=b=c=d=0.25`) and the heavy-tailed `graph500`
//!   initiator the paper's Fig. 10 uses.
//!
//! Everything except the wall-clock seconds is deterministic: step
//! counts, rejection trials, alias builds, cache hits/evictions all come
//! from seeded draws, so `BENCH_sampling.json`'s summary block gates the
//! *counters* tightly and the within-run speedup ratio loosely (both
//! arms share a runner, so hardware largely cancels out).

use crate::json::{self, higher, lower, Obj};
use grw_algo::{
    run_streamed, Node2VecMethod, PreparedGraph, QuerySet, ReferenceBackend, SamplerConfig,
    SamplingCounters, WalkBackend, WalkPath, WalkSpec,
};
use grw_graph::generators::RmatConfig;
use grw_graph::{weights, CsrGraph, VertexId};
use std::time::Instant;

/// One benched workload.
///
/// URW, PPR and DeepWalk are the `grw_bench` standards. Node2Vec appears
/// twice, matching its two Table I rows:
///
/// * `Node2Vec` — unweighted, rejection method, at the *hostile* grid
///   corner `p = 0.25, q = 4` (envelope `max(1/p, 1, 1/q) / (1/q) = 16`
///   expected trials per step). The auto table keeps rejection anyway —
///   a trial stays inside the adjacency the walk already streams
///   through — so this row is the negative control: the adaptive layer
///   must decline the cache and tie legacy bit for bit even where
///   rejection looks worst on paper.
/// * `Node2VecW` — weighted, reservoir method, at the paper's evaluation
///   setting `p = 2, q = 0.5`. The legacy kernel pays an O(deg)
///   reservoir scan per step (a draw and a division per candidate); this
///   is the headline row the second-order alias cache accelerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingWorkload {
    /// Unbiased random walk.
    Urw,
    /// Personalised PageRank (restarting walk).
    Ppr,
    /// Weighted first-order walk over the alias tables.
    DeepWalk,
    /// Second-order biased walk, rejection method, hostile `p`/`q`.
    Node2Vec,
    /// Weighted second-order walk, reservoir method, paper `p`/`q`.
    Node2VecW,
}

impl SamplingWorkload {
    /// All five workloads in bench order.
    pub fn all() -> [SamplingWorkload; 5] {
        [
            SamplingWorkload::Urw,
            SamplingWorkload::Ppr,
            SamplingWorkload::DeepWalk,
            SamplingWorkload::Node2Vec,
            SamplingWorkload::Node2VecW,
        ]
    }

    /// Display name as recorded in the bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            SamplingWorkload::Urw => "URW",
            SamplingWorkload::Ppr => "PPR",
            SamplingWorkload::DeepWalk => "DeepWalk",
            SamplingWorkload::Node2Vec => "Node2Vec",
            SamplingWorkload::Node2VecW => "Node2VecW",
        }
    }

    /// The walk spec at the given maximum length.
    pub fn spec(&self, max_len: u32) -> WalkSpec {
        match self {
            SamplingWorkload::Urw => WalkSpec::urw(max_len),
            SamplingWorkload::Ppr => WalkSpec::ppr(max_len),
            SamplingWorkload::DeepWalk => WalkSpec::deepwalk(max_len),
            SamplingWorkload::Node2Vec => {
                WalkSpec::node2vec_pq(max_len, 0.25, 4.0, Node2VecMethod::Rejection)
            }
            SamplingWorkload::Node2VecW => WalkSpec::node2vec(max_len, Node2VecMethod::Reservoir),
        }
    }
}

/// One degree-skew setting of the RMAT generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkewSetting {
    /// Balanced initiator `a=b=c=d=0.25`: near-uniform degrees, the case
    /// where the adaptive layer must not *lose*.
    Balanced,
    /// Graph500 initiator `a=0.57, b=c=0.19, d=0.05`: heavy-tailed hub
    /// degrees, the case the second-order cache is built for.
    Graph500,
}

impl SkewSetting {
    /// Both settings, balanced first.
    pub fn all() -> [SkewSetting; 2] {
        [SkewSetting::Balanced, SkewSetting::Graph500]
    }

    /// Lowercase name as recorded in the bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            SkewSetting::Balanced => "balanced",
            SkewSetting::Graph500 => "graph500",
        }
    }

    /// Generates the setting's RMAT graph.
    pub fn generate(&self, scale: u32, edge_factor: u32, seed: u64) -> CsrGraph {
        match self {
            SkewSetting::Balanced => RmatConfig::balanced(scale, edge_factor),
            SkewSetting::Graph500 => RmatConfig::graph500(scale, edge_factor),
        }
        .seed(seed)
        .generate()
    }
}

/// Configuration of one sampling comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingBenchConfig {
    /// log2 of the RMAT vertex count.
    pub scale: u32,
    /// RMAT edges generated per vertex.
    pub edge_factor: u32,
    /// Maximum walk length.
    pub walk_len: u32,
    /// Queries per (skew, workload) cell.
    pub queries: usize,
    /// Start vertices come from the `hot_seeds` highest-degree vertices
    /// (the serving request mix: popular entities get the traffic);
    /// 0 draws starts uniformly over all vertices instead.
    pub hot_seeds: usize,
    /// Timed steady-state passes per arm (on top of one warm-up pass);
    /// the best is reported.
    pub repeats: usize,
    /// Second-order alias cache budget handed to the adaptive arm.
    pub cache_budget: usize,
    /// Smallest degree the adaptive arm routes to the cached per-edge
    /// second-order kernel; rows below it cannot amortise their O(deg)
    /// build and stay on rejection in both arms.
    pub second_order_min_degree: u32,
    /// Skew settings to sweep.
    pub skews: Vec<SkewSetting>,
    /// Workloads to sweep.
    pub workloads: Vec<SamplingWorkload>,
    /// Base seed for graphs and queries.
    pub seed: u64,
}

impl SamplingBenchConfig {
    /// CI-sized smoke comparison across the full (skew × workload) grid.
    pub fn smoke() -> Self {
        Self {
            scale: 10,
            edge_factor: 16,
            walk_len: 24,
            queries: 1_024,
            hot_seeds: 128,
            repeats: 2,
            cache_budget: 8 << 20,
            second_order_min_degree: 64,
            skews: SkewSetting::all().to_vec(),
            workloads: SamplingWorkload::all().to_vec(),
            seed: 0x5A3F_11E0,
        }
    }

    /// Minimal comparison for integration tests: one skewed weighted
    /// Node2Vec cell, small and hot enough that cache hits dominate
    /// builds.
    pub fn test_tiny() -> Self {
        Self {
            scale: 8,
            edge_factor: 8,
            walk_len: 16,
            queries: 512,
            hot_seeds: 64,
            repeats: 1,
            // An SC8 graph has few deg >= 64 vertices; a lower floor
            // keeps the cache exercised at test scale.
            second_order_min_degree: 16,
            skews: vec![SkewSetting::Graph500],
            workloads: vec![SamplingWorkload::Node2VecW],
            ..Self::smoke()
        }
    }

    /// Figure-scale comparison: the paper's 80-hop queries over an SC12
    /// RMAT graph, with a serving-sized stream. The cache's preconditions
    /// hold here: the stream re-traverses hot (prev, cur) edges dozens of
    /// times per pass, so a hub row's O(deg) build amortises against the
    /// O(deg) reservoir scans it replaces — every replaced step repays a
    /// whole build — and the budget is sized to hold the hot hub rows
    /// (row ≈ 8 bytes × degree) without eviction thrash.
    pub fn full() -> Self {
        Self {
            scale: 12,
            edge_factor: 16,
            walk_len: 80,
            queries: 16_384,
            hot_seeds: 512,
            repeats: 3,
            cache_budget: 64 << 20,
            ..Self::smoke()
        }
    }

    /// The adaptive arm's sampler configuration.
    pub fn adaptive_sampler(&self) -> SamplerConfig {
        SamplerConfig::auto()
            .cache_budget_bytes(self.cache_budget)
            .second_order_min_degree(self.second_order_min_degree)
    }
}

/// What one arm (legacy or adaptive) measured on a cell's query stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerArm {
    /// Arm name (`legacy`, `adaptive`).
    pub mode: String,
    /// The prepared graph's sampler cost factor (1.0 for legacy).
    pub cost_factor: f64,
    /// Hops executed (arms may differ slightly on Node2Vec, where the
    /// kernel swap re-rolls which walks hit dead ends).
    pub steps: u64,
    /// Best steady-state wall time across the timed passes, seconds.
    pub wall_secs: f64,
    /// Millions of walk steps per wall-clock second.
    pub msteps_wall: f64,
    /// Deterministic sampler counters from the verification run.
    pub sampling: SamplingCounters,
}

/// One (skew, workload) cell: both arms plus the speedup ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingCell {
    /// Skew setting name (`balanced`, `graph500`).
    pub skew: String,
    /// Workload name (`URW`, …).
    pub workload: String,
    /// Vertices in the generated graph.
    pub vertices: usize,
    /// Directed edges in the generated graph.
    pub edges: usize,
    /// Maximum out-degree — the skew headline.
    pub max_degree: u32,
    /// The legacy arm.
    pub legacy: SamplerArm,
    /// The adaptive arm.
    pub adaptive: SamplerArm,
    /// `adaptive.msteps_wall / legacy.msteps_wall`.
    pub speedup: f64,
}

/// The full sampling comparison across the (skew × workload) grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingBenchReport {
    /// The configuration that produced the report.
    pub config: SamplingBenchConfig,
    /// One cell per (skew, workload) pair, skews outermost.
    pub cells: Vec<SamplingCell>,
}

impl SamplingBenchReport {
    /// The cell for `(skew, workload)`, if it ran.
    pub fn cell(&self, skew: SkewSetting, workload: &str) -> Option<&SamplingCell> {
        self.cells
            .iter()
            .find(|c| c.skew == skew.name() && c.workload == workload)
    }

    /// The headline cell: weighted Node2Vec on the skewed graph — the
    /// workload whose legacy kernel scans O(deg) per step and which the
    /// second-order alias cache therefore accelerates the most.
    pub fn node2vec_skewed(&self) -> Option<&SamplingCell> {
        self.cell(SkewSetting::Graph500, "Node2VecW")
    }

    /// Smallest speedup across the grid (the "must not lose" floor).
    pub fn min_speedup(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total adaptive-arm hops executed across the grid — deterministic.
    pub fn total_steps(&self) -> u64 {
        self.cells.iter().map(|c| c.adaptive.steps).sum()
    }

    /// Everything deterministic about the report: the seeded counters
    /// and step counts, with all wall-clock fields dropped. Two runs of
    /// the same config must agree on this exactly.
    pub fn fingerprint(&self) -> Vec<(String, u64, SamplingCounters, SamplingCounters)> {
        self.cells
            .iter()
            .map(|c| {
                (
                    format!("{}/{}", c.skew, c.workload),
                    c.adaptive.steps,
                    c.legacy.sampling,
                    c.adaptive.sampling,
                )
            })
            .collect()
    }

    /// Renders `BENCH_sampling.json`: per-cell blocks plus a flat
    /// `summary`, which carries the gated metrics. The sampler counters
    /// are seed-deterministic and gated tight. The two speedups are
    /// wall-clock ratios of the two arms in the same run, so machine
    /// speed cancels; they are gated loosely because the runner is
    /// shared.
    pub fn to_json(&self) -> String {
        let arm = |a: &SamplerArm| {
            let s = &a.sampling;
            Obj::new()
                .str("mode", &a.mode)
                .num("cost_factor", a.cost_factor, 4)
                .int("steps", a.steps)
                .num("wall_secs", a.wall_secs, 6)
                .num("msteps_wall", a.msteps_wall, 3)
                .int("samples", s.samples)
                .int("rejection_trials", s.rejection_trials)
                .int("alias_builds", s.alias_builds)
                .int("cache_hits", s.cache_hits)
                .int("cache_evictions", s.cache_evictions)
                .int("scanned_words", s.scanned_words)
                .num("cache_hit_ratio", s.cache_hit_ratio(), 4)
        };
        let cell = |c: &SamplingCell| {
            Obj::new()
                .str("skew", &c.skew)
                .str("workload", &c.workload)
                .int("vertices", c.vertices as u64)
                .int("edges", c.edges as u64)
                .int("max_degree", c.max_degree.into())
                .num("speedup", c.speedup, 3)
                .obj("legacy", arm(&c.legacy))
                .obj("adaptive", arm(&c.adaptive))
        };
        let c = &self.config;
        let n2v = self.node2vec_skewed();
        let n2v_speedup = n2v.map_or(0.0, |c| c.speedup);
        let n2v_counters = n2v.map(|c| c.adaptive.sampling).unwrap_or_default();
        let n2v_legacy_scanned = n2v.map_or(0, |c| c.legacy.sampling.scanned_words);
        Obj::new()
            .str("bench", "sampling")
            .obj(
                "config",
                Obj::new()
                    .int("scale", c.scale.into())
                    .int("edge_factor", c.edge_factor.into())
                    .int("walk_len", c.walk_len.into())
                    .int("queries", c.queries as u64)
                    .int("hot_seeds", c.hot_seeds as u64)
                    .int("repeats", c.repeats as u64)
                    .int("cache_budget", c.cache_budget as u64)
                    .int("second_order_min_degree", c.second_order_min_degree.into()),
            )
            .int("parallelism", json::parallelism() as u64)
            .obj(
                "summary",
                Obj::new()
                    .int("cells", self.cells.len() as u64)
                    .gated("node2vec_speedup_skewed", n2v_speedup, 3, higher(0.50))
                    .gated("min_speedup", self.min_speedup(), 3, higher(0.50))
                    .gated(
                        "cache_hit_ratio",
                        n2v_counters.cache_hit_ratio(),
                        4,
                        higher(0.10),
                    )
                    .gated(
                        "cache_hits",
                        n2v_counters.cache_hits as f64,
                        0,
                        higher(0.05),
                    )
                    .gated(
                        "alias_builds",
                        n2v_counters.alias_builds as f64,
                        0,
                        lower(0.05, 0.0),
                    )
                    .gated(
                        "legacy_scanned_words",
                        n2v_legacy_scanned as f64,
                        0,
                        lower(0.05, 0.0),
                    )
                    .gated("total_steps", self.total_steps() as f64, 0, higher(0.0)),
            )
            .arr("cells", self.cells.iter().map(cell))
            .record()
    }
}

/// Runs the full query stream through one cold backend, returning the
/// paths and the backend's deterministic sampler counters.
fn run_arm(
    prepared: &PreparedGraph,
    wl: SamplingWorkload,
    cfg: &SamplingBenchConfig,
    queries: &QuerySet,
) -> (Vec<WalkPath>, SamplingCounters, u64) {
    let spec = wl.spec(cfg.walk_len);
    let mut backend = ReferenceBackend::new(prepared, spec, cfg.seed ^ 0xE2)
        .queue_capacity(queries.len().max(1))
        .poll_chunk(queries.len().max(1));
    let paths = run_streamed(&mut backend, queries.queries());
    let telemetry = backend.telemetry();
    (paths, telemetry.sampling, telemetry.steps)
}

/// Best steady-state wall time per arm, measured like a serving shard.
///
/// Each arm gets one *persistent* backend — the regime `Driver`
/// shards actually run in, where a shard lives for the whole serving
/// session and its second-order cache stays warm across query batches.
/// The query stream is replayed `repeats + 1` times through that backend
/// and each pass is timed; the first (cold) pass pays every alias-row
/// build, later passes are the steady state, and best-of reports the
/// latter. The cold-pass cost is not hidden: the report's deterministic
/// `alias_builds` / `scanned_words` counters carry it.
///
/// Passes alternate legacy/adaptive so clock drift, frequency scaling
/// and noisy neighbors hit both arms alike — on shared machines the
/// within-run ratio is far more stable than two back-to-back timing
/// blocks.
fn time_arms(
    legacy: &PreparedGraph,
    adaptive: &PreparedGraph,
    wl: SamplingWorkload,
    cfg: &SamplingBenchConfig,
    queries: &QuerySet,
) -> (f64, f64) {
    let spec = wl.spec(cfg.walk_len);
    let mut backends = [legacy, adaptive].map(|prepared| {
        ReferenceBackend::new(prepared, spec.clone(), cfg.seed ^ 0xE2)
            .queue_capacity(queries.len().max(1))
            .poll_chunk(queries.len().max(1))
    });
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..cfg.repeats.max(1) + 1 {
        for (backend, best) in backends.iter_mut().zip([&mut best.0, &mut best.1]) {
            let start = Instant::now();
            let paths = run_streamed(backend, queries.queries());
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(paths.len(), queries.len(), "stream conservation");
            *best = best.min(secs);
        }
    }
    best
}

/// Runs one (skew, workload) cell: identity check first, timing second.
fn run_cell(cfg: &SamplingBenchConfig, skew: SkewSetting, wl: SamplingWorkload) -> SamplingCell {
    let spec = wl.spec(cfg.walk_len);
    let seed = cfg.seed ^ (skew as u64) << 8 ^ (wl as u64) << 4;
    let mut graph = skew.generate(cfg.scale, cfg.edge_factor, seed);
    if spec.requires_weights() {
        graph = graph.with_weights(weights::thunder_rw(seed ^ 0x57E1));
    }
    let vertices = graph.vertex_count();
    let edges = graph.edge_count();
    let max_degree = (0..vertices as VertexId)
        .map(|v| graph.degree(v))
        .max()
        .unwrap_or(0);
    let queries = if cfg.hot_seeds > 0 {
        // Serving request mix: the highest-degree (most popular) vertices
        // receive all the traffic. Stable sort keeps ties deterministic.
        let mut by_degree: Vec<VertexId> = (0..vertices as VertexId).collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
        by_degree.truncate(cfg.hot_seeds.min(vertices));
        QuerySet::hot_set(&by_degree, cfg.queries, seed ^ 0xA0)
    } else {
        QuerySet::random(vertices, cfg.queries, seed ^ 0xA0)
    };
    let legacy = PreparedGraph::with_sampler(graph.clone(), &spec, SamplerConfig::legacy())
        .expect("generated graph satisfies the spec");
    let adaptive = PreparedGraph::with_sampler(graph, &spec, cfg.adaptive_sampler())
        .expect("generated graph satisfies the spec");

    // The identity claim, checked on every cell before any timing. Where
    // the adaptive table keeps the legacy kernels (URW, PPR, DeepWalk —
    // the on-the-fly alias fill shares the prebuilt table's draw
    // mapping), paths must match the legacy arm bit for bit. Where it
    // swaps in the second-order alias kernel (Node2Vec), paths are
    // distribution-identical by construction (chi-square tested in
    // `grw_algo`) but not bitwise; there the bitwise claim is that the
    // *cache* never matters, so a cache-disabled adaptive arm must
    // reproduce the cached arm exactly.
    let (paths_legacy, counters_legacy, steps_legacy) = run_arm(&legacy, wl, cfg, &queries);
    let (paths_adaptive, counters_adaptive, steps_adaptive) = run_arm(&adaptive, wl, cfg, &queries);
    if adaptive.strategies().uses_second_order() {
        let uncached = PreparedGraph::with_sampler(
            legacy.graph().clone(),
            &spec,
            cfg.adaptive_sampler().cache_budget_bytes(0),
        )
        .expect("generated graph satisfies the spec");
        let (paths_uncached, _, _) = run_arm(&uncached, wl, cfg, &queries);
        assert_eq!(
            paths_adaptive,
            paths_uncached,
            "the alias cache changed a {} path on the {} graph",
            wl.name(),
            skew.name()
        );
    } else {
        assert_eq!(
            paths_legacy,
            paths_adaptive,
            "adaptive sampling changed a {} path on the {} graph",
            wl.name(),
            skew.name()
        );
        assert_eq!(steps_legacy, steps_adaptive, "equal paths, equal steps");
    }

    let (wall_legacy, wall_adaptive) = time_arms(&legacy, &adaptive, wl, cfg, &queries);
    let msteps = |steps: u64, secs: f64| steps as f64 / secs.max(1e-12) / 1e6;
    let legacy_arm = SamplerArm {
        mode: "legacy".to_string(),
        cost_factor: legacy.sampler_cost_factor(),
        steps: steps_legacy,
        wall_secs: wall_legacy,
        msteps_wall: msteps(steps_legacy, wall_legacy),
        sampling: counters_legacy,
    };
    let adaptive_arm = SamplerArm {
        mode: "adaptive".to_string(),
        cost_factor: adaptive.sampler_cost_factor(),
        steps: steps_adaptive,
        wall_secs: wall_adaptive,
        msteps_wall: msteps(steps_adaptive, wall_adaptive),
        sampling: counters_adaptive,
    };
    SamplingCell {
        skew: skew.name().to_string(),
        workload: wl.name().to_string(),
        vertices,
        edges,
        max_degree,
        speedup: legacy_arm.wall_secs / adaptive_arm.wall_secs.max(1e-12),
        legacy: legacy_arm,
        adaptive: adaptive_arm,
    }
}

/// Runs the comparison across the configured (skew × workload) grid.
pub fn run_sampling_bench(cfg: &SamplingBenchConfig) -> SamplingBenchReport {
    let mut cells = Vec::with_capacity(cfg.skews.len() * cfg.workloads.len());
    for &skew in &cfg.skews {
        for &wl in &cfg.workloads {
            cells.push(run_cell(cfg, skew, wl));
        }
    }
    SamplingBenchReport {
        config: cfg.clone(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{gates, Json};

    #[test]
    fn skewed_node2vec_exercises_the_second_order_cache() {
        let report = run_sampling_bench(&SamplingBenchConfig::test_tiny());
        assert_eq!(report.cells.len(), 1);
        let cell = report.node2vec_skewed().expect("the tiny grid's one cell");
        // The identity assert inside run_cell already proved the cache
        // never steers a path; here we check it actually worked.
        assert!(cell.legacy.steps > 0 && cell.adaptive.steps > 0);
        assert!(
            cell.adaptive.sampling.cache_hits > cell.adaptive.sampling.alias_builds,
            "hot edges must be served from the cache: {} hits vs {} builds",
            cell.adaptive.sampling.cache_hits,
            cell.adaptive.sampling.alias_builds
        );
        assert_eq!(
            cell.legacy.sampling.alias_builds, 0,
            "the legacy reservoir never builds alias rows"
        );
        assert!(
            cell.legacy.sampling.scanned_words > 0,
            "the reservoir must scan neighbor lists on the skewed graph"
        );
        assert!(
            cell.adaptive.sampling.scanned_words < cell.legacy.sampling.scanned_words,
            "high-degree steps switch from O(deg) scans to alias draws: {} vs legacy {}",
            cell.adaptive.sampling.scanned_words,
            cell.legacy.sampling.scanned_words
        );
        assert!((cell.legacy.cost_factor - 1.0).abs() < 1e-12);
        assert!(cell.speedup.is_finite() && cell.speedup > 0.0);
    }

    #[test]
    fn the_deterministic_fingerprint_is_stable() {
        let cfg = SamplingBenchConfig::test_tiny();
        let a = run_sampling_bench(&cfg);
        let b = run_sampling_bench(&cfg);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.total_steps(), b.total_steps());
    }

    #[test]
    fn bench_json_carries_summary_and_gate_blocks() {
        let report = run_sampling_bench(&SamplingBenchConfig::test_tiny());
        let json = Json::parse(&report.to_json()).expect("well-formed JSON");
        assert_eq!(
            json.get("summary.total_steps").and_then(Json::as_f64),
            Some(report.total_steps() as f64)
        );
        let n2v = report.node2vec_skewed().unwrap();
        assert_eq!(
            json.get("summary.cache_hits").and_then(Json::as_f64),
            Some(n2v.adaptive.sampling.cache_hits as f64)
        );
        assert_eq!(
            json.get("summary.legacy_scanned_words")
                .and_then(Json::as_f64),
            Some(n2v.legacy.sampling.scanned_words as f64)
        );
        let baseline = Json::parse(include_str!(
            "../../../benchmarks/baselines/BENCH_sampling.json"
        ))
        .unwrap();
        assert_eq!(
            gates(&json),
            gates(&baseline),
            "the record declares exactly its committed baseline's gates"
        );
        assert!(json.get("cells").and_then(Json::as_arr).is_some());
    }
}
