//! The reference engine: Algorithm II.1, with paths identical to executing
//! it literally, one query at a time.

use super::WalkEngine;
use crate::{PreparedGraph, WalkPath, WalkQuery, WalkSpec};
use grw_rng::{SplitMix64, Xoshiro256StarStar};

/// The ground truth every hardware model is validated against: each path is
/// exactly the one executing the queries one at a time, in order, would
/// give, and the paths come back in query order.
///
/// Each query draws from an independent RNG stream derived from
/// `(engine seed, query id)`, so results do not depend on execution order
/// and the engine is fully deterministic. Its backend interleaves a cohort
/// of walkers to hide memory latency (see [`super::ReferenceBackend`]).
///
/// # Example
///
/// ```
/// use grw_algo::{PreparedGraph, QuerySet, ReferenceEngine, WalkEngine, WalkSpec};
/// use grw_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)], true);
/// let spec = WalkSpec::urw(5);
/// let p = PreparedGraph::new(g, &spec).unwrap();
/// let qs = QuerySet::random(3, 4, 0);
/// let paths = ReferenceEngine::new(1).run(&p, &spec, qs.queries());
/// assert!(paths.iter().all(|w| w.steps() == 5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReferenceEngine {
    seed: u64,
}

impl ReferenceEngine {
    /// Creates an engine with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The per-query RNG used by both software engines.
    pub(crate) fn query_rng(seed: u64, query_id: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(SplitMix64::mix(seed ^ query_id.wrapping_mul(0x9E37)))
    }
}

impl ReferenceEngine {
    /// Opens a streaming backend bound to a prepared graph and spec.
    pub fn backend<P: std::borrow::Borrow<PreparedGraph>>(
        &self,
        prepared: P,
        spec: &WalkSpec,
    ) -> super::ReferenceBackend<P> {
        super::ReferenceBackend::new(prepared, spec.clone(), self.seed)
    }
}

impl WalkEngine for ReferenceEngine {
    /// Compatibility shim: streams the whole batch through
    /// [`ReferenceEngine::backend`].
    fn run(
        &mut self,
        prepared: &PreparedGraph,
        spec: &WalkSpec,
        queries: &[WalkQuery],
    ) -> Vec<WalkPath> {
        super::run_streamed(&mut self.backend(prepared, spec), queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Node2VecMethod, QuerySet};
    use grw_graph::generators::{Dataset, ScaleFactor};
    use grw_graph::CsrGraph;

    fn ring(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        CsrGraph::from_edges(n, &edges, true)
    }

    #[test]
    fn urw_walks_have_exact_length_on_dead_end_free_graphs() {
        let spec = WalkSpec::urw(7);
        let p = PreparedGraph::new(ring(5), &spec).unwrap();
        let qs = QuerySet::random(5, 20, 3);
        let paths = ReferenceEngine::new(0).run(&p, &spec, qs.queries());
        assert!(paths.iter().all(|w| w.steps() == 7));
    }

    #[test]
    fn paths_only_use_real_edges() {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(20);
        let qs = QuerySet::random(g.vertex_count(), 50, 7);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let paths = ReferenceEngine::new(1).run(&p, &spec, qs.queries());
        for w in &paths {
            for pair in w.vertices.windows(2) {
                assert!(
                    p.graph().has_edge(pair[0], pair[1]),
                    "bogus edge {} -> {}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn engine_is_deterministic() {
        let g = Dataset::CitPatents.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::ppr(30);
        let qs = QuerySet::random(g.vertex_count(), 30, 9);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let a = ReferenceEngine::new(5).run(&p, &spec, qs.queries());
        let b = ReferenceEngine::new(5).run(&p, &spec, qs.queries());
        assert_eq!(a, b);
        let c = ReferenceEngine::new(6).run(&p, &spec, qs.queries());
        assert_ne!(a, c);
    }

    #[test]
    fn ppr_lengths_are_geometric() {
        let spec = WalkSpec::Ppr {
            alpha: 0.2,
            max_len: 10_000,
        };
        let p = PreparedGraph::new(ring(8), &spec).unwrap();
        let qs = QuerySet::random(8, 4_000, 11);
        let paths = ReferenceEngine::new(2).run(&p, &spec, qs.queries());
        let mean: f64 = paths.iter().map(|w| w.steps() as f64).sum::<f64>() / paths.len() as f64;
        // E[steps] = (1-α)/α = 4 for termination *before* each hop.
        assert!((mean - 4.0).abs() < 0.25, "mean PPR length {mean}");
    }

    #[test]
    fn deadend_truncates_walks() {
        // 0 -> 1 -> 2 (dead end).
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], true);
        let spec = WalkSpec::urw(50);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::repeated(0, 5);
        let paths = ReferenceEngine::new(3).run(&p, &spec, qs.queries());
        for w in &paths {
            assert_eq!(w.vertices, vec![0, 1, 2]);
        }
    }

    #[test]
    fn every_spec_runs_end_to_end() {
        let g = Dataset::AsSkitter.generate_typed(ScaleFactor::Tiny, 3);
        let specs = [
            WalkSpec::urw(10),
            WalkSpec::ppr(10),
            WalkSpec::deepwalk(10),
            WalkSpec::node2vec(10, Node2VecMethod::Rejection),
            WalkSpec::node2vec(10, Node2VecMethod::Reservoir),
            WalkSpec::metapath(10),
        ];
        for spec in specs {
            let p = PreparedGraph::new(g.clone(), &spec).unwrap();
            let qs = QuerySet::random(g.vertex_count(), 20, 1);
            let paths = ReferenceEngine::new(0).run(&p, &spec, qs.queries());
            assert_eq!(paths.len(), 20, "{spec}");
            assert!(
                paths.iter().all(|w| w.steps() <= 10),
                "{spec}: length bound"
            );
        }
    }

    #[test]
    fn node2vec_paths_respect_second_order_validity() {
        let g = Dataset::LiveJournal.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::node2vec(15, Node2VecMethod::Rejection);
        let qs = QuerySet::random(g.vertex_count(), 25, 2);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let paths = ReferenceEngine::new(4).run(&p, &spec, qs.queries());
        for w in &paths {
            for pair in w.vertices.windows(2) {
                assert!(p.graph().has_edge(pair[0], pair[1]));
            }
        }
    }
}
