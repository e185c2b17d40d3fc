//! A graph prepared for a particular walk specification.

use crate::sampler::{self, EdgeAliasCache, SampleOutcome};
use crate::spec::{Node2VecMethod, WalkSpec};
use crate::strategy::{SamplerConfig, SamplerMode, SamplerRuntime, SamplerStrategy, StrategyTable};
use grw_graph::{AliasTables, CsrGraph, VertexId};
use grw_rng::{RandomSource, SplitMix64, WalkKey};
use std::error::Error;
use std::fmt;

/// Why a walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TerminationReason {
    /// The maximum hop count was reached.
    MaxLength,
    /// The current vertex has no outgoing edges (Fig. 1b, case II).
    DeadEnd,
    /// The PPR teleport coin ended the walk (Fig. 1b, case I).
    Teleport,
    /// No neighbor matches the MetaPath's required type.
    NoTypedNeighbor,
}

/// The decision for one walk step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepDecision {
    /// The walk terminates here.
    Terminate(TerminationReason),
    /// The walk advances to `next`.
    Advance {
        /// The sampled next vertex.
        next: VertexId,
        /// The sampling cost that produced it.
        outcome: SampleOutcome,
    },
}

/// Error preparing a graph for a walk spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrepareGraphError(String);

impl fmt::Display for PrepareGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot prepare graph: {}", self.0)
    }
}

impl Error for PrepareGraphError {}

/// A [`CsrGraph`] validated and augmented (alias tables) for a spec.
///
/// All engines — the software references here and the cycle-level hardware
/// models in other crates — advance walks exclusively through
/// [`PreparedGraph::next_step_with`] and its parts, each with its own
/// [`SamplerRuntime`]. Those functions take the walk's [`WalkKey`] and
/// draw hop `h` from [`WalkKey::hop`]: the PPR teleport coin is the hop's
/// first draw and sampling draws after it. A query therefore walks the
/// same path on every execution back-end, whatever the order in which
/// its hops and other queries' hops run.
///
/// # Example
///
/// ```
/// use grw_algo::{PreparedGraph, WalkSpec};
/// use grw_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], true);
/// let p = PreparedGraph::new(g, &WalkSpec::urw(4)).unwrap();
/// assert_eq!(p.graph().vertex_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct PreparedGraph {
    graph: CsrGraph,
    alias: Option<AliasTables>,
    sampler: SamplerConfig,
    strategies: StrategyTable,
    cost_factor: f64,
}

impl PreparedGraph {
    /// Validates requirements and builds auxiliary structures, with the
    /// default [`SamplerConfig::legacy`] kernels — bitwise-identical
    /// behaviour and cost accounting to the pre-adaptive code.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec needs weights or vertex types the
    /// graph does not carry.
    pub fn new(graph: CsrGraph, spec: &WalkSpec) -> Result<Self, PrepareGraphError> {
        Self::with_sampler(graph, spec, SamplerConfig::legacy())
    }

    /// Validates requirements and builds auxiliary structures under an
    /// explicit sampler configuration. The shared alias tables are built
    /// only when some degree bucket reads them.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec needs weights or vertex types the
    /// graph does not carry, or when a forced strategy does not support
    /// the spec.
    pub fn with_sampler(
        graph: CsrGraph,
        spec: &WalkSpec,
        config: SamplerConfig,
    ) -> Result<Self, PrepareGraphError> {
        if spec.requires_weights() && !graph.is_weighted() {
            return Err(PrepareGraphError(format!(
                "{} requires edge weights",
                spec.name()
            )));
        }
        if spec.requires_types() && !graph.is_typed() {
            return Err(PrepareGraphError(format!(
                "{} requires vertex types",
                spec.name()
            )));
        }
        let strategies = StrategyTable::build(spec, &config).map_err(PrepareGraphError)?;
        let alias = strategies
            .needs_alias_tables()
            .then(|| AliasTables::build(&graph));
        let cost_factor = match config.mode() {
            // Identical tables cost identically by definition; skip the
            // graph scan and keep the factor exactly 1.0.
            SamplerMode::Legacy => 1.0,
            _ => {
                let legacy = StrategyTable::build(spec, &SamplerConfig::legacy())
                    .expect("legacy table is valid for every spec");
                let base = legacy.expected_unit_cost(&graph, spec);
                if base == 0.0 {
                    1.0
                } else {
                    strategies.expected_unit_cost(&graph, spec) / base
                }
            }
        };
        Ok(Self {
            graph,
            alias,
            sampler: config,
            strategies,
            cost_factor,
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The alias tables, when some degree bucket reads them.
    pub fn alias(&self) -> Option<&AliasTables> {
        self.alias.as_ref()
    }

    /// The sampler configuration this graph was prepared under.
    pub fn sampler_config(&self) -> &SamplerConfig {
        &self.sampler
    }

    /// The per-degree-bucket strategy decision.
    pub fn strategies(&self) -> &StrategyTable {
        &self.strategies
    }

    /// Expected sampling cost per step relative to the legacy kernels
    /// (< 1.0 means the adaptive table is cheaper on this graph). Exactly
    /// 1.0 under [`SamplerConfig::legacy`]. Backends expose this through
    /// [`crate::WalkBackend::cost_hint`] so routing policies see sampler
    /// heterogeneity across a mixed fleet.
    pub fn sampler_cost_factor(&self) -> f64 {
        self.cost_factor
    }

    /// A fresh per-worker sampler runtime: an [`EdgeAliasCache`] when the
    /// strategy table has second-order buckets and the configured budget
    /// is non-zero, plus zeroed counters. Each engine worker should own
    /// one exclusively — they are deliberately not shared.
    pub fn runtime(&self) -> SamplerRuntime {
        let cache =
            (self.strategies.uses_second_order() && self.sampler.cache_budget() > 0).then(|| {
                EdgeAliasCache::new(self.sampler.cache_budget(), self.sampler.cache_segments())
            });
        SamplerRuntime::with_cache(cache)
    }

    /// PPR pre-hop termination of hop `hop` of the walk keyed `key`:
    /// `true` with probability α for PPR specs, never for the others. This
    /// consumes no memory access — hardware checks it before issuing the
    /// Row-Access read.
    pub fn teleport_terminates(&self, spec: &WalkSpec, key: WalkKey, hop: u32) -> bool {
        teleport_coin(spec, &mut key.hop(hop))
    }

    /// Samples the next neighbor of `cur` for hop number `hop` (0-based)
    /// of the walk keyed `key`, dispatching on the degree bucket's
    /// [`SamplerStrategy`] and threading the worker's sampler runtime
    /// (second-order edge cache, neighbor marks, counters). The sample
    /// draws from the hop's stream after its teleport coin, so an engine
    /// that tosses the coin ([`Self::teleport_terminates`]) at another
    /// stage walks exactly what [`Self::next_step_with`] walks.
    ///
    /// Returns `None` when the walk cannot continue (dead end / no typed
    /// neighbor). `prev` is required for second-order specs after hop 0.
    ///
    /// # Panics
    ///
    /// Panics if `spec`'s walk class does not match the spec the graph was
    /// prepared for (e.g. a second-order strategy with a first-order spec).
    pub fn sample_neighbor_with(
        &self,
        rt: &mut SamplerRuntime,
        spec: &WalkSpec,
        cur: VertexId,
        prev: Option<VertexId>,
        hop: u32,
        key: WalkKey,
    ) -> Option<(VertexId, SampleOutcome)> {
        let mut rng = key.hop(hop);
        // Step past the coin; its outcome was decided where it was tossed.
        teleport_coin(spec, &mut rng);
        self.sample_position_with(rt, spec, cur, prev, hop, &mut rng)
            .map(|(position, outcome)| (self.graph.column_list()[position], outcome))
    }

    /// [`Self::sample_neighbor_with`] short of reading the chosen
    /// neighbor: its *column position* (index into
    /// [`CsrGraph::column_list`]) and the sample's cost. Always inlined,
    /// like [`Self::step_position_with`], so that splitting the step
    /// costs neither the public API nor the walk kernel a call.
    #[inline(always)]
    fn sample_position_with(
        &self,
        rt: &mut SamplerRuntime,
        spec: &WalkSpec,
        cur: VertexId,
        prev: Option<VertexId>,
        hop: u32,
        rng: &mut SplitMix64,
    ) -> Option<(usize, SampleOutcome)> {
        let degree = self.graph.degree(cur);
        let outcome = match self.strategies.for_degree(degree) {
            SamplerStrategy::InverseTransform => match spec {
                WalkSpec::DeepWalk { .. } => sampler::alias_onthefly(&self.graph, cur, rng)?,
                _ => sampler::uniform_sample(degree, rng)?,
            },
            SamplerStrategy::Alias => sampler::alias_sample(
                &self.graph,
                self.alias
                    .as_ref()
                    .expect("alias tables built for the alias strategy"),
                cur,
                rng,
            )?,
            SamplerStrategy::Rejection => {
                let (p, q) = node2vec_params(spec);
                sampler::node2vec_rejection(&self.graph, cur, prev, p, q, rng)?
            }
            SamplerStrategy::Reservoir => {
                let (p, q) = node2vec_params(spec);
                sampler::node2vec_reservoir(&self.graph, cur, prev, p, q, rt, rng)?
            }
            SamplerStrategy::SecondOrderAlias => {
                let (p, q) = node2vec_params(spec);
                let weighted = matches!(
                    spec,
                    WalkSpec::Node2Vec {
                        method: Node2VecMethod::Reservoir,
                        ..
                    }
                );
                sampler::second_order_alias(&self.graph, cur, prev, p, q, weighted, rt, rng)?
            }
            SamplerStrategy::TypedReservoir => {
                let WalkSpec::MetaPath { pattern, .. } = spec else {
                    panic!("typed reservoir strategy requires a MetaPath spec")
                };
                let target = pattern[(hop as usize + 1) % pattern.len()];
                sampler::typed_reservoir(&self.graph, cur, target, rng)?
            }
        };
        rt.record(&outcome);
        // The position indexes the whole column array, so an index past
        // `cur`'s row would silently pick another vertex's neighbor.
        assert!(
            outcome.local_index < degree,
            "sampled local index within the row"
        );
        let position = self.graph.row_offset(cur) as usize + outcome.local_index as usize;
        Some((position, outcome))
    }

    /// The full per-step decision of Algorithm II.1 for hop `hop` of the
    /// walk keyed `key` — length check, PPR teleport coin, then sampling —
    /// threading the worker's sampler runtime.
    pub fn next_step_with(
        &self,
        rt: &mut SamplerRuntime,
        spec: &WalkSpec,
        cur: VertexId,
        prev: Option<VertexId>,
        hop: u32,
        key: WalkKey,
    ) -> StepDecision {
        match self.step_position_with(rt, spec, cur, prev, hop, key) {
            Ok((position, outcome)) => StepDecision::Advance {
                next: self.graph.column_list()[position],
                outcome,
            },
            Err(reason) => StepDecision::Terminate(reason),
        }
    }

    /// [`Self::next_step_with`] short of reading the chosen neighbor:
    /// either why the walk ends, or the neighbor's column position and
    /// the sample's cost. The cohort walk kernel prefetches that position
    /// and reads it a pass later.
    #[inline(always)]
    pub(crate) fn step_position_with(
        &self,
        rt: &mut SamplerRuntime,
        spec: &WalkSpec,
        cur: VertexId,
        prev: Option<VertexId>,
        hop: u32,
        key: WalkKey,
    ) -> Result<(usize, SampleOutcome), TerminationReason> {
        if hop >= spec.max_len() {
            return Err(TerminationReason::MaxLength);
        }
        let mut rng = key.hop(hop);
        if teleport_coin(spec, &mut rng) {
            return Err(TerminationReason::Teleport);
        }
        self.sample_position_with(rt, spec, cur, prev, hop, &mut rng)
            .ok_or_else(|| {
                if self.graph.degree(cur) == 0 {
                    TerminationReason::DeadEnd
                } else {
                    TerminationReason::NoTypedNeighbor
                }
            })
    }
}

/// The PPR teleport coin, the first draw of a PPR hop's stream: `true`
/// with probability α. Other specs toss no coin and draw nothing.
#[inline(always)]
fn teleport_coin(spec: &WalkSpec, rng: &mut SplitMix64) -> bool {
    match spec {
        WalkSpec::Ppr { alpha, .. } => rng.next_bool(*alpha),
        _ => false,
    }
}

/// Extracts the Node2Vec bias parameters a second-order strategy needs.
fn node2vec_params(spec: &WalkSpec) -> (f64, f64) {
    match spec {
        WalkSpec::Node2Vec { p, q, .. } => (*p, *q),
        other => panic!(
            "second-order strategy requires a Node2Vec spec, got {}",
            other.name()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_graph::weights;

    fn ring() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], true)
    }

    #[test]
    fn missing_weights_are_rejected() {
        let err = PreparedGraph::new(ring(), &WalkSpec::deepwalk(8)).unwrap_err();
        assert!(err.to_string().contains("weights"), "{err}");
    }

    #[test]
    fn missing_types_are_rejected() {
        let g = ring().with_weights(|_, _, _| 1.0);
        let err = PreparedGraph::new(g, &WalkSpec::metapath(8)).unwrap_err();
        assert!(err.to_string().contains("types"), "{err}");
    }

    #[test]
    fn alias_tables_are_built_only_when_needed() {
        let g = ring().with_weights(|_, _, _| 1.0);
        let dw = PreparedGraph::new(g.clone(), &WalkSpec::deepwalk(8)).unwrap();
        assert!(dw.alias().is_some());
        let urw = PreparedGraph::new(g, &WalkSpec::urw(8)).unwrap();
        assert!(urw.alias().is_none());
    }

    #[test]
    fn max_length_terminates() {
        let p = PreparedGraph::new(ring(), &WalkSpec::urw(2)).unwrap();
        let key = WalkKey::new(0, 0);
        let d = p.next_step_with(&mut p.runtime(), &WalkSpec::urw(2), 0, None, 2, key);
        assert_eq!(d, StepDecision::Terminate(TerminationReason::MaxLength));
    }

    #[test]
    fn dead_end_terminates() {
        let g = CsrGraph::from_edges(2, &[(0, 1)], true);
        let spec = WalkSpec::urw(8);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let d = p.next_step_with(&mut p.runtime(), &spec, 1, None, 0, WalkKey::new(0, 0));
        assert_eq!(d, StepDecision::Terminate(TerminationReason::DeadEnd));
    }

    #[test]
    fn teleport_rate_matches_alpha() {
        let spec = WalkSpec::Ppr {
            alpha: 0.25,
            max_len: 1000,
        };
        let p = PreparedGraph::new(ring(), &spec).unwrap();
        let n = 100_000;
        let teleports = (0..n)
            .filter(|&i| p.teleport_terminates(&spec, WalkKey::new(5, i / 10), (i % 10) as u32))
            .count();
        let f = teleports as f64 / n as f64;
        assert!((f - 0.25).abs() < 0.01, "teleport rate {f}");
    }

    /// An engine that tosses the coin at admission and samples at another
    /// stage (the cycle-level machine) takes exactly the full step's
    /// decision.
    #[test]
    fn coin_then_sample_is_the_full_step() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 0)], true);
        let spec = WalkSpec::Ppr {
            alpha: 0.3,
            max_len: 100,
        };
        let p = PreparedGraph::new(g, &spec).unwrap();
        let mut rt = p.runtime();
        let mut teleports = 0;
        for id in 0..500 {
            let key = WalkKey::new(3, id);
            let hop = (id % 7) as u32;
            let split = if p.teleport_terminates(&spec, key, hop) {
                teleports += 1;
                StepDecision::Terminate(TerminationReason::Teleport)
            } else {
                let (next, outcome) = p
                    .sample_neighbor_with(&mut rt, &spec, 0, None, hop, key)
                    .expect("vertex 0 has neighbors");
                StepDecision::Advance { next, outcome }
            };
            assert_eq!(split, p.next_step_with(&mut rt, &spec, 0, None, hop, key));
        }
        assert!((100..200).contains(&teleports), "{teleports} teleports");
    }

    #[test]
    fn ring_walk_advances_deterministically() {
        let spec = WalkSpec::urw(8);
        let p = PreparedGraph::new(ring(), &spec).unwrap();
        match p.next_step_with(&mut p.runtime(), &spec, 0, None, 0, WalkKey::new(1, 0)) {
            StepDecision::Advance { next, .. } => assert_eq!(next, 1),
            other => panic!("expected advance, got {other:?}"),
        }
    }

    #[test]
    fn metapath_pattern_selects_target_types() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 0)], false)
            .with_weights(|_, _, _| 1.0)
            .with_vertex_types(weights::round_robin_types(3));
        let spec = WalkSpec::MetaPath {
            pattern: vec![0, 1, 2],
            max_len: 8,
        };
        let p = PreparedGraph::new(g.clone(), &spec).unwrap();
        let mut rt = p.runtime();
        // From vertex 0 (type 0) at hop 0 the target type is pattern[1] = 1.
        for id in 0..50 {
            if let StepDecision::Advance { next, .. } =
                p.next_step_with(&mut rt, &spec, 0, None, 0, WalkKey::new(2, id))
            {
                assert_eq!(g.vertex_type(next), Some(1));
            }
        }
    }
}
