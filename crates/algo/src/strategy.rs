//! Runtime sampler-strategy selection: which kernel runs each walk step.
//!
//! ThunderRW's core observation is that no single sampling method wins
//! everywhere — inverse transform beats alias tables on short neighbor
//! lists, alias wins on long static distributions, rejection wins when
//! the bias envelope is tight — and FlexiWalker's is that the choice must
//! be made at *runtime*, per vertex, not per algorithm. This module is
//! that decision layer:
//!
//! * [`SamplerStrategy`] — the selectable kernels.
//! * [`SamplerConfig`] / [`SamplerMode`] — how a [`crate::PreparedGraph`]
//!   chooses: `Legacy` reproduces the fixed per-spec kernel of Table I
//!   bit-for-bit (the default), `Auto` picks per degree bucket, `Forced`
//!   pins one kernel everywhere (tests, microbenches).
//! * [`StrategyTable`] — the per-degree-bucket decision, made **once** at
//!   graph preparation; the hot step path consults it with two ALU ops
//!   (a leading-zeros bucket index and an array read), no branches on
//!   spec.
//! * [`SamplerRuntime`] — the mutable per-executor sampling state: the
//!   bounded second-order [`EdgeAliasCache`], the cumulative
//!   [`SamplingCounters`] and the vertex marks the reservoir and per-edge
//!   alias kernels test `N(prev)` membership against. Each engine worker
//!   owns one exclusively, so serving shards never contend on sampler
//!   state.
//!
//! Path-identity contract: under `Legacy` every workload's walk paths,
//! sampling costs and RNG consumption are bitwise-identical to the
//! pre-strategy-layer code. Under `Auto` every spec keeps its legacy
//! kernel in every bucket, and so stays bitwise-identical too, except
//! *weighted* Node2Vec: its high-degree buckets switch to the per-edge
//! alias kernel, which samples the same *distribution* as the reservoir
//! scan through a different mapping. Cache state never affects any path.

use crate::sampler::EdgeAliasCache;
use crate::spec::{Node2VecMethod, WalkSpec};
use grw_graph::{CsrGraph, VertexId};
pub use grw_sim::stats::SamplingCounters;

/// Number of log2 degree buckets: bucket 0 is degree 0, bucket `b`
/// covers degrees `[2^(b-1), 2^b - 1]`, up to bucket 32.
pub const DEGREE_BUCKETS: usize = 33;

/// The log2 degree bucket of `degree`.
pub fn degree_bucket(degree: u32) -> usize {
    (32 - degree.leading_zeros()) as usize
}

/// Smallest degree in bucket `b`.
fn bucket_min(b: usize) -> u32 {
    if b == 0 {
        0
    } else {
        1u32 << (b - 1).min(31)
    }
}

/// Expected rejection trials per Node2Vec step at `(p, q)`: the bias
/// envelope `max(1/p, 1, 1/q)` over the common-case bias `1/q` (on a
/// sparse graph most candidates are neither the return vertex nor a
/// shared neighbor). The paper's evaluation setting `p=2, q=0.5` gives
/// 1.0 — rejection accepts almost every first draw — while exploratory
/// settings like `p=0.25, q=1` give 4+ and rejection burns most of its
/// draws. Feeds the sampler cost model
/// ([`StrategyTable::expected_unit_cost`]) and telemetry; it does *not*
/// flip the kernel, because a rejection trial only touches the adjacency
/// the walk is already streaming through, and measured end-to-end even a
/// 16-trial envelope beats paying a cache-line miss per cached-row draw.
pub fn rejection_trials_estimate(p: f64, q: f64) -> f64 {
    let envelope = (1.0 / p).max(1.0).max(1.0 / q);
    (envelope * q).max(1.0)
}

/// A selectable sampling kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplerStrategy {
    /// Table-free direct computation: uniform draw for unweighted
    /// first-order specs, on-the-fly alias row for weighted ones.
    InverseTransform,
    /// Prebuilt per-vertex alias table (DeepWalk's Table I kernel).
    Alias,
    /// KnightKing-style second-order rejection.
    Rejection,
    /// Single-pass weighted reservoir (LightRW's weighted kernel).
    Reservoir,
    /// Type-filtered reservoir (MetaPath).
    TypedReservoir,
    /// Per-edge second-order alias tables with the bounded cache.
    SecondOrderAlias,
}

impl SamplerStrategy {
    /// Lowercase name as recorded in bench JSON and reports.
    pub fn name(&self) -> &'static str {
        match self {
            SamplerStrategy::InverseTransform => "inverse_transform",
            SamplerStrategy::Alias => "alias",
            SamplerStrategy::Rejection => "rejection",
            SamplerStrategy::Reservoir => "reservoir",
            SamplerStrategy::TypedReservoir => "typed_reservoir",
            SamplerStrategy::SecondOrderAlias => "second_order_alias",
        }
    }

    /// The fixed Table I kernel of a spec — what the pre-adaptive code
    /// always ran, and what `Legacy` mode pins in every bucket.
    pub fn legacy_for(spec: &WalkSpec) -> Self {
        match spec {
            WalkSpec::Urw { .. } | WalkSpec::Ppr { .. } => SamplerStrategy::InverseTransform,
            WalkSpec::DeepWalk { .. } => SamplerStrategy::Alias,
            WalkSpec::Node2Vec { method, .. } => match method {
                Node2VecMethod::Rejection => SamplerStrategy::Rejection,
                Node2VecMethod::Reservoir => SamplerStrategy::Reservoir,
            },
            WalkSpec::MetaPath { .. } => SamplerStrategy::TypedReservoir,
        }
    }

    /// Whether this kernel is valid for the given spec.
    pub fn supports(&self, spec: &WalkSpec) -> bool {
        match spec {
            WalkSpec::Urw { .. } | WalkSpec::Ppr { .. } => {
                matches!(self, SamplerStrategy::InverseTransform)
            }
            WalkSpec::DeepWalk { .. } => matches!(
                self,
                SamplerStrategy::InverseTransform | SamplerStrategy::Alias
            ),
            WalkSpec::Node2Vec { method, .. } => {
                *self == SamplerStrategy::legacy_for(spec)
                    || matches!(self, SamplerStrategy::SecondOrderAlias)
                    || (matches!(method, Node2VecMethod::Reservoir)
                        && matches!(self, SamplerStrategy::Reservoir))
            }
            WalkSpec::MetaPath { .. } => matches!(self, SamplerStrategy::TypedReservoir),
        }
    }
}

/// How the strategy table is filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SamplerMode {
    /// One kernel per spec, exactly the pre-adaptive behaviour.
    #[default]
    Legacy,
    /// Per degree bucket: cached per-edge alias for high-degree weighted
    /// second-order steps, the legacy kernel everywhere else.
    Auto,
    /// One kernel everywhere (must support the spec).
    Forced(SamplerStrategy),
}

/// Configuration of the runtime-adaptive sampling layer.
///
/// # Example
///
/// ```
/// use grw_algo::{SamplerConfig, SamplerMode};
///
/// let cfg = SamplerConfig::auto().cache_budget_bytes(1 << 20);
/// assert_eq!(cfg.mode(), SamplerMode::Auto);
/// assert_eq!(cfg.cache_budget(), 1 << 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    mode: SamplerMode,
    /// Byte budget of the second-order edge cache; 0 disables caching.
    cache_budget: usize,
    /// Hash partitions of the edge cache.
    cache_segments: usize,
    /// Smallest degree `Auto` routes to the cached per-edge alias kernel
    /// (rounded up to a bucket boundary).
    second_order_min_degree: u32,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self::legacy()
    }
}

impl SamplerConfig {
    /// The pre-adaptive per-spec kernels (the default everywhere).
    pub fn legacy() -> Self {
        Self {
            mode: SamplerMode::Legacy,
            cache_budget: 8 << 20,
            cache_segments: 8,
            second_order_min_degree: 64,
        }
    }

    /// Per-degree-bucket runtime selection.
    pub fn auto() -> Self {
        Self {
            mode: SamplerMode::Auto,
            ..Self::legacy()
        }
    }

    /// Pins one kernel in every bucket.
    pub fn forced(strategy: SamplerStrategy) -> Self {
        Self {
            mode: SamplerMode::Forced(strategy),
            ..Self::legacy()
        }
    }

    /// Sets the second-order edge-cache byte budget (0 disables).
    pub fn cache_budget_bytes(mut self, bytes: usize) -> Self {
        self.cache_budget = bytes;
        self
    }

    /// Sets the edge-cache segment count.
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0`.
    pub fn segments(mut self, segments: usize) -> Self {
        assert!(segments > 0, "need at least one cache segment");
        self.cache_segments = segments;
        self
    }

    /// Sets the smallest degree `Auto` routes to the cached per-edge
    /// alias kernel (rounded up to a bucket boundary).
    ///
    /// A per-edge row costs `O(deg)` to build, so it only pays off when
    /// the row is reused many times; walk traffic concentrates on hubs
    /// in proportion to degree, so high-degree rows amortize and
    /// mid-degree rows thrash. Below the floor `Auto` keeps the legacy
    /// second-order kernel — bit-identical to `Legacy` on those steps.
    pub fn second_order_min_degree(mut self, degree: u32) -> Self {
        self.second_order_min_degree = degree;
        self
    }

    /// The selection mode.
    pub fn mode(&self) -> SamplerMode {
        self.mode
    }

    /// The edge-cache byte budget.
    pub fn cache_budget(&self) -> usize {
        self.cache_budget
    }

    /// The edge-cache segment count.
    pub fn cache_segments(&self) -> usize {
        self.cache_segments
    }

    /// The `Auto` floor for the cached per-edge alias kernel.
    pub fn second_order_floor(&self) -> u32 {
        self.second_order_min_degree
    }
}

/// The per-degree-bucket kernel decision, made once at preparation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyTable {
    buckets: [SamplerStrategy; DEGREE_BUCKETS],
}

impl StrategyTable {
    /// Builds the table for a spec under a config.
    ///
    /// # Errors
    ///
    /// Returns a message when a forced strategy does not support the
    /// spec.
    pub fn build(spec: &WalkSpec, config: &SamplerConfig) -> Result<Self, String> {
        let legacy = SamplerStrategy::legacy_for(spec);
        let buckets = match config.mode {
            SamplerMode::Legacy => [legacy; DEGREE_BUCKETS],
            SamplerMode::Forced(s) => {
                if !s.supports(spec) {
                    return Err(format!(
                        "strategy {} does not support {}",
                        s.name(),
                        spec.name()
                    ));
                }
                [s; DEGREE_BUCKETS]
            }
            // Every spec but weighted Node2Vec keeps its legacy kernel in
            // every bucket. URW/PPR's uniform draw needs no table. DeepWalk
            // keeps the prebuilt alias table: a per-step row build at low
            // degree draws the same index and measured slower on every
            // graph. Unweighted rejection keeps its kernel: a trial is a
            // candidate read plus a membership probe in the adjacency the
            // walk is already streaming through, which measures cheaper
            // than a cache-miss row draw even at a 16-trial envelope.
            //
            // The weighted kernel's per-step O(deg) reservoir scan (a draw
            // and a division per candidate) is what the per-edge alias row
            // amortizes away — but a row build is itself O(deg), so only
            // buckets whose whole degree range clears the reuse floor
            // engage the cache. Everything below stays on the legacy
            // kernel, bit-identical to Legacy.
            SamplerMode::Auto => {
                let mut buckets = [legacy; DEGREE_BUCKETS];
                if let WalkSpec::Node2Vec {
                    method: Node2VecMethod::Reservoir,
                    ..
                } = spec
                {
                    for (b, slot) in buckets.iter_mut().enumerate() {
                        if bucket_min(b) >= config.second_order_min_degree.max(1) {
                            *slot = SamplerStrategy::SecondOrderAlias;
                        }
                    }
                }
                buckets
            }
        };
        Ok(Self { buckets })
    }

    /// The kernel for a vertex of the given degree — the branch-free hot
    /// path lookup.
    #[inline]
    pub fn for_degree(&self, degree: u32) -> SamplerStrategy {
        self.buckets[degree_bucket(degree)]
    }

    /// The kernel per bucket (diagnostics / reports).
    pub fn buckets(&self) -> &[SamplerStrategy; DEGREE_BUCKETS] {
        &self.buckets
    }

    /// Whether any bucket reads the shared per-vertex alias tables.
    pub fn needs_alias_tables(&self) -> bool {
        self.buckets.contains(&SamplerStrategy::Alias)
    }

    /// Whether any bucket uses the per-edge second-order kernel (and
    /// therefore profits from an [`EdgeAliasCache`]).
    pub fn uses_second_order(&self) -> bool {
        self.buckets.contains(&SamplerStrategy::SecondOrderAlias)
    }

    /// Degree-weighted expected sampling cost per step, in abstract
    /// "memory touch" units — the model behind
    /// [`crate::PreparedGraph::sampler_cost_factor`]. Deliberately coarse:
    /// it only needs to *rank* strategy tables, and to equal the legacy
    /// table's cost exactly when the tables are equal.
    pub fn expected_unit_cost(&self, graph: &CsrGraph, spec: &WalkSpec) -> f64 {
        let trials = match spec {
            WalkSpec::Node2Vec { p, q, .. } => rejection_trials_estimate(*p, *q).min(8.0),
            _ => 1.0,
        };
        let mut weighted = 0.0f64;
        let mut total = 0.0f64;
        for v in 0..graph.vertex_count() as u32 {
            let deg = graph.degree(v);
            if deg == 0 {
                continue;
            }
            let d = f64::from(deg);
            let cost = match self.for_degree(deg) {
                SamplerStrategy::InverseTransform => match spec {
                    // On-the-fly alias row: sequential weight scan.
                    WalkSpec::DeepWalk { .. } => 1.0 + d / 8.0,
                    _ => 1.0,
                },
                // Slot draw plus one random alias-entry read.
                SamplerStrategy::Alias => 2.0,
                // Each expected trial costs a candidate read plus a
                // membership probe.
                SamplerStrategy::Rejection => 2.0 * trials,
                SamplerStrategy::Reservoir | SamplerStrategy::TypedReservoir => 1.0 + d / 8.0,
                // Hit-dominated steady state: hash probe + two row reads.
                SamplerStrategy::SecondOrderAlias => 2.5,
            };
            // Steps land on vertices roughly in proportion to degree.
            weighted += d * cost;
            total += d;
        }
        if total == 0.0 {
            1.0
        } else {
            weighted / total
        }
    }
}

/// Mutable per-executor sampling state: the second-order edge cache,
/// cumulative kernel counters, and the vertex marks the reservoir and
/// per-edge alias kernels test `N(prev)` membership against.
///
/// Engines own one runtime per worker (`&mut`, no locks): every
/// [`crate::ReferenceBackend`] worker and every accelerator machine. A
/// disabled runtime is always correct — just uncached — but it sizes its
/// marks on first use, so keep one across steps rather than making one
/// per step.
///
/// The marks are epoch-stamped: marking `N(v)` bumps a `u32` epoch and
/// stamps each neighbor with it, so a membership test is one load and
/// nothing is ever unmarked; the array is cleared only when the epoch
/// wraps. They cost 4 bytes per vertex per executor, allocated the first
/// time a reservoir scan or an alias-row build runs with a previous
/// vertex (8 KiB on the 2,048-vertex Tiny WebGoogle stand-in, 1 MiB on
/// the 262,144-vertex LiveJournal stand-in); workloads that run neither
/// never allocate them, and their runtimes carry one null pointer for
/// the marks rather than the array and its epoch.
#[derive(Debug, Clone, Default)]
pub struct SamplerRuntime {
    cache: Option<EdgeAliasCache>,
    counters: SamplingCounters,
    /// Made by the first [`SamplerRuntime::mark_neighbors`].
    marks: Option<Box<VertexMarks>>,
}

/// Epoch-stamped per-vertex marks: `stamps[x] == epoch` iff `x` is in
/// the most recently marked neighbor list. 0 means never marked.
#[derive(Debug, Clone, Default)]
struct VertexMarks {
    stamps: Vec<u32>,
    epoch: u32,
}

/// The neighbor list marked by [`SamplerRuntime::mark_neighbors`], valid
/// until the runtime is next borrowed mutably.
pub(crate) struct NeighborSet<'a> {
    marks: &'a [u32],
    epoch: u32,
}

impl NeighborSet<'_> {
    /// Whether `x` is in the marked list: one load.
    #[inline]
    pub(crate) fn contains(&self, x: VertexId) -> bool {
        self.marks[x as usize] == self.epoch
    }
}

impl SamplerRuntime {
    /// A runtime with no cache and zeroed counters — correct for every
    /// strategy table, with second-order rows rebuilt per step.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A runtime wrapping an optional edge cache (see
    /// [`crate::PreparedGraph::runtime`]).
    pub fn with_cache(cache: Option<EdgeAliasCache>) -> Self {
        Self {
            cache,
            ..Self::default()
        }
    }

    /// The edge cache, when enabled.
    pub fn cache(&self) -> Option<&EdgeAliasCache> {
        self.cache.as_ref()
    }

    pub(crate) fn cache_mut(&mut self) -> Option<&mut EdgeAliasCache> {
        self.cache.as_mut()
    }

    /// Marks `N(v)` — one store per neighbor — and returns it as a set
    /// with one-load membership. Sizes the marks to `graph` on first use.
    pub(crate) fn mark_neighbors(&mut self, graph: &CsrGraph, v: VertexId) -> NeighborSet<'_> {
        let marks = self.marks.get_or_insert_with(Box::default);
        if marks.stamps.len() < graph.vertex_count() {
            marks.stamps.resize(graph.vertex_count(), 0);
        }
        marks.epoch = marks.epoch.wrapping_add(1);
        if marks.epoch == 0 {
            // A reissued epoch would match stamps left from its first
            // use, and 0 matches every never-marked vertex: start over.
            marks.stamps.fill(0);
            marks.epoch = 1;
        }
        for &x in graph.neighbors(v) {
            marks.stamps[x as usize] = marks.epoch;
        }
        NeighborSet {
            marks: &marks.stamps,
            epoch: marks.epoch,
        }
    }

    /// Moves the mark epoch, so a test can cross its wrap.
    #[cfg(test)]
    pub(crate) fn set_mark_epoch(&mut self, epoch: u32) {
        self.marks.get_or_insert_with(Box::default).epoch = epoch;
    }

    /// Accumulates one sample's cost into the counters.
    pub(crate) fn record(&mut self, outcome: &crate::sampler::SampleOutcome) {
        self.counters.samples += 1;
        self.counters.rejection_trials += u64::from(outcome.uniform_trials.saturating_sub(1));
        self.counters.alias_builds += u64::from(outcome.alias_builds);
        self.counters.cache_hits += u64::from(outcome.cache_hits);
        self.counters.scanned_words += u64::from(outcome.scanned);
    }

    /// The cumulative counters, with the cache's eviction count folded
    /// in.
    pub fn counters(&self) -> SamplingCounters {
        let mut c = self.counters;
        if let Some(cache) = &self.cache {
            c.cache_evictions = cache.evictions();
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_buckets_are_log2() {
        assert_eq!(degree_bucket(0), 0);
        assert_eq!(degree_bucket(1), 1);
        assert_eq!(degree_bucket(2), 2);
        assert_eq!(degree_bucket(3), 2);
        assert_eq!(degree_bucket(4), 3);
        assert_eq!(degree_bucket(u32::MAX), 32);
        assert_eq!(bucket_min(0), 0);
        assert_eq!(bucket_min(3), 4);
    }

    #[test]
    fn legacy_table_pins_the_table_i_kernel() {
        for spec in [
            WalkSpec::urw(8),
            WalkSpec::ppr(8),
            WalkSpec::deepwalk(8),
            WalkSpec::node2vec(8, Node2VecMethod::Rejection),
            WalkSpec::node2vec(8, Node2VecMethod::Reservoir),
            WalkSpec::metapath(8),
        ] {
            let t = StrategyTable::build(&spec, &SamplerConfig::legacy()).unwrap();
            let legacy = SamplerStrategy::legacy_for(&spec);
            assert!(t.buckets().iter().all(|&s| s == legacy), "{}", spec.name());
        }
    }

    #[test]
    fn auto_keeps_deepwalk_on_the_alias_table() {
        let spec = WalkSpec::deepwalk(8);
        let auto = StrategyTable::build(&spec, &SamplerConfig::auto()).unwrap();
        let legacy = StrategyTable::build(&spec, &SamplerConfig::legacy()).unwrap();
        assert_eq!(auto, legacy);
        assert!(auto.buckets().iter().all(|&s| s == SamplerStrategy::Alias));
        assert!(auto.needs_alias_tables());
    }

    #[test]
    fn second_order_floor_bounds_the_cached_kernel() {
        let weighted = WalkSpec::node2vec(8, Node2VecMethod::Reservoir);
        // Default floor (64): only hub buckets engage the cached kernel.
        let t = StrategyTable::build(&weighted, &SamplerConfig::auto()).unwrap();
        assert_eq!(t.for_degree(63), SamplerStrategy::Reservoir);
        assert_eq!(t.for_degree(64), SamplerStrategy::SecondOrderAlias);
        assert!(t.uses_second_order());
        assert!(!t.needs_alias_tables());
        // Lowering the floor widens the cached range (tiny test graphs).
        let wide = SamplerConfig::auto().second_order_min_degree(16);
        let t = StrategyTable::build(&weighted, &wide).unwrap();
        assert_eq!(t.for_degree(16), SamplerStrategy::SecondOrderAlias);
        assert_eq!(t.for_degree(15), SamplerStrategy::Reservoir);
        // The floor rounds up to a bucket boundary.
        let odd = SamplerConfig::auto().second_order_min_degree(40);
        let t = StrategyTable::build(&weighted, &odd).unwrap();
        assert_eq!(t.for_degree(63), SamplerStrategy::Reservoir);
        assert_eq!(t.for_degree(64), SamplerStrategy::SecondOrderAlias);
    }

    #[test]
    fn auto_never_replaces_the_rejection_kernel() {
        // The trials estimate still ranks (p, q) hostility for the cost
        // model: the paper's p=2, q=0.5 accepts the first draw, the grid
        // corners burn 4-16.
        assert!((rejection_trials_estimate(2.0, 0.5) - 1.0).abs() < 1e-12);
        assert!((rejection_trials_estimate(0.25, 1.0) - 4.0).abs() < 1e-12);
        assert!((rejection_trials_estimate(0.25, 4.0) - 16.0).abs() < 1e-12);
        // But even hostile envelopes keep the kernel: a trial stays in
        // the adjacency the walk already touches, a cached row does not.
        for (p, q) in [(2.0, 0.5), (0.25, 4.0)] {
            let spec = WalkSpec::node2vec_pq(8, p, q, Node2VecMethod::Rejection);
            let t = StrategyTable::build(&spec, &SamplerConfig::auto()).unwrap();
            assert!(t.buckets().iter().all(|&s| s == SamplerStrategy::Rejection));
            assert!(!t.uses_second_order());
        }
        // The weighted reservoir scan is O(deg) per step regardless of
        // (p, q): high buckets always profit from a cached row.
        let reservoir = WalkSpec::node2vec(8, Node2VecMethod::Reservoir);
        let t = StrategyTable::build(&reservoir, &SamplerConfig::auto()).unwrap();
        assert_eq!(t.for_degree(100), SamplerStrategy::SecondOrderAlias);
        assert_eq!(t.for_degree(3), SamplerStrategy::Reservoir);
    }

    #[test]
    fn forced_strategies_are_validated() {
        let spec = WalkSpec::urw(8);
        assert!(
            StrategyTable::build(&spec, &SamplerConfig::forced(SamplerStrategy::Alias)).is_err()
        );
        let t = StrategyTable::build(
            &WalkSpec::node2vec(8, Node2VecMethod::Rejection),
            &SamplerConfig::forced(SamplerStrategy::SecondOrderAlias),
        )
        .unwrap();
        assert!(t.uses_second_order());
    }

    #[test]
    fn runtime_records_outcomes_and_cache_evictions() {
        let mut rt = SamplerRuntime::with_cache(Some(EdgeAliasCache::new(1 << 12, 1)));
        rt.record(&crate::sampler::SampleOutcome {
            local_index: 0,
            uniform_trials: 3,
            alias_reads: 0,
            scanned: 7,
            membership_probes: 2,
            method: crate::sampler::SampleMethod::Rejection,
            cache_hits: 0,
            alias_builds: 0,
        });
        let c = rt.counters();
        assert_eq!(c.samples, 1);
        assert_eq!(c.rejection_trials, 2);
        assert_eq!(c.scanned_words, 7);
        assert_eq!(c.cache_evictions, 0);
        assert!(SamplerRuntime::disabled().cache().is_none());
    }

    #[test]
    fn a_runtime_carries_one_pointer_for_marks_until_it_marks() {
        // Counters, the cache's boxed slice, and the marks' box.
        let word = std::mem::size_of::<usize>();
        assert_eq!(
            std::mem::size_of::<SamplerRuntime>(),
            std::mem::size_of::<SamplingCounters>() + 3 * word
        );
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], true);
        let mut rt = SamplerRuntime::disabled();
        assert!(rt.marks.is_none());
        rt.mark_neighbors(&g, 0);
        assert_eq!(rt.marks.as_ref().map(|m| m.stamps.len()), Some(3));
    }

    #[test]
    fn neighbor_marks_stay_exact_across_the_epoch_wrap() {
        // 0 -> {1, 7}: vertex 7 is marked only through N(0), so its stamp
        // is epoch 1 until the wrap reissues that epoch. Vertex 6 has no
        // in-edges: its stamp stays 0, which no epoch may equal.
        let edges: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|v| [(v, (v + 1) % 6), (v, (v + 2) % 6)])
            .chain([(0, 7)])
            .collect();
        let g = CsrGraph::from_edges(8, &edges, true);
        let mut rt = SamplerRuntime::disabled();
        let check = |rt: &mut SamplerRuntime, v: u32| {
            let set = rt.mark_neighbors(&g, v);
            for x in 0..8 {
                assert_eq!(set.contains(x), g.has_edge(v, x), "N({v}) ∋ {x}");
            }
        };
        for v in 0..8 {
            check(&mut rt, v);
        }
        rt.set_mark_epoch(u32::MAX - 3);
        for round in 0..32 {
            check(&mut rt, 1 + round % 5);
        }
    }

    #[test]
    fn cost_model_prefers_cached_second_order_on_hubs() {
        // A star: one huge hub plus leaves.
        let edges: Vec<(u32, u32)> = (1..1000u32).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(1000, &edges, true);
        let spec = WalkSpec::node2vec(8, Node2VecMethod::Reservoir);
        let legacy = StrategyTable::build(&spec, &SamplerConfig::legacy()).unwrap();
        let auto = StrategyTable::build(&spec, &SamplerConfig::auto()).unwrap();
        let lc = legacy.expected_unit_cost(&g, &spec);
        let ac = auto.expected_unit_cost(&g, &spec);
        assert!(ac < lc, "auto {ac} should beat legacy {lc} on a hub graph");
        // Identical tables cost identically (the factor-is-exactly-1.0
        // property the routing baselines rely on).
        let legacy2 = StrategyTable::build(&spec, &SamplerConfig::legacy()).unwrap();
        assert_eq!(lc, legacy2.expected_unit_cost(&g, &spec));
    }
}
