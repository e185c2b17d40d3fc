//! Exact personalized PageRank by power iteration.
//!
//! Validates the Monte-Carlo PPR walks end-to-end: the fraction of PPR
//! walks terminating at `v` converges to the personalized PageRank of `v`
//! (with restart probability α) on graphs where walks cannot be cut short
//! by dead ends. Dead-end mass is redirected to the source, matching the
//! classic random-walk-with-restart formulation.

use grw_graph::{CsrGraph, VertexId};

/// Computes the personalized PageRank vector for `source`.
///
/// Iterates `x ← α·e_source + (1-α)·Pᵀx` for `iterations` rounds, where
/// `P` is the uniform transition matrix and dead-end rows teleport to the
/// source. The result sums to 1.
///
/// # Panics
///
/// Panics if `source` is out of range or `alpha` is outside `(0, 1)`.
///
/// # Example
///
/// ```
/// use grw_algo::ppr_exact::personalized_pagerank;
/// use grw_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)], true);
/// let pr = personalized_pagerank(&g, 0, 0.15, 100);
/// assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// assert!(pr[0] > pr[2]);
/// ```
pub fn personalized_pagerank(
    graph: &CsrGraph,
    source: VertexId,
    alpha: f64,
    iterations: u32,
) -> Vec<f64> {
    let n = graph.vertex_count();
    assert!((source as usize) < n, "source out of range");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
    let mut x = vec![0.0f64; n];
    x[source as usize] = 1.0;
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        next.iter_mut().for_each(|v| *v = 0.0);
        let mut dangling = 0.0f64;
        for v in 0..n as VertexId {
            let mass = x[v as usize];
            if mass == 0.0 {
                continue;
            }
            let neighbors = graph.neighbors(v);
            if neighbors.is_empty() {
                dangling += mass;
            } else {
                let share = mass / neighbors.len() as f64;
                for &w in neighbors {
                    next[w as usize] += share;
                }
            }
        }
        // Damp the propagated mass; restart mass (teleport + dangling)
        // re-enters at the source.
        for mass in &mut next {
            *mass *= 1.0 - alpha;
        }
        next[source as usize] += alpha + (1.0 - alpha) * dangling;
        // Renormalise to guard accumulated FP drift.
        let total: f64 = next.iter().sum();
        for mass in &mut next {
            *mass /= total;
        }
        x.copy_from_slice(&next);
    }
    x
}

/// L1 distance between two distributions — the comparison metric used by
/// the PPR validation tests and example.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distributions must have equal support");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_streamed, PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};

    fn cycle_with_chord() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)], false)
    }

    #[test]
    fn distribution_sums_to_one() {
        let pr = personalized_pagerank(&cycle_with_chord(), 0, 0.15, 80);
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(pr.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn source_has_the_largest_mass() {
        let pr = personalized_pagerank(&cycle_with_chord(), 2, 0.3, 80);
        let argmax = pr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 2);
    }

    #[test]
    fn dangling_mass_returns_to_source() {
        // 0 -> 1 -> 2 (dead end): mass pools near the source chain.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], true);
        let pr = personalized_pagerank(&g, 0, 0.2, 200);
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(pr[0] > 0.2, "source keeps restart mass, got {}", pr[0]);
    }

    #[test]
    fn monte_carlo_walks_converge_to_exact_ppr() {
        let g = cycle_with_chord();
        let alpha = 0.2;
        let exact = personalized_pagerank(&g, 0, alpha, 200);

        let spec = WalkSpec::Ppr {
            alpha,
            max_len: 10_000,
        };
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::repeated(0, 30_000);
        let paths = run_streamed(&mut ReferenceBackend::new(&p, spec, 123), qs.queries());
        let mut counts = [0u64; 5];
        for w in &paths {
            counts[w.last() as usize] += 1;
        }
        let est: Vec<f64> = counts
            .iter()
            .map(|&c| c as f64 / paths.len() as f64)
            .collect();
        let d = l1_distance(&est, &exact);
        assert!(d < 0.03, "Monte-Carlo vs exact L1 distance {d}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        let _ = personalized_pagerank(&cycle_with_chord(), 0, 1.5, 10);
    }
}
