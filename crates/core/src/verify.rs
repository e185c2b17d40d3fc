//! Statistical equivalence checking between execution engines.
//!
//! The accelerator cannot (and must not need to) replay the reference
//! engine's exact paths — out-of-order execution with counter-based RNG
//! produces different, equally valid samples. What must hold is
//! *distributional* equivalence: for every vertex, both engines draw next
//! hops from the same transition law. This module implements that check
//! as a reusable verdict, used by the integration tests and available to
//! downstream users validating their own engines.

use grw_algo::{distribution, WalkPath};
use grw_graph::{CsrGraph, VertexId};

/// Outcome of comparing two engines' walks over one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceReport {
    /// Vertices whose transition distributions were compared.
    pub vertices_checked: usize,
    /// Vertices skipped for insufficient samples.
    pub vertices_skipped: usize,
    /// Vertices where the chi-square test rejected equivalence.
    pub mismatches: Vec<VertexId>,
}

impl EquivalenceReport {
    /// Whether the two engines are statistically indistinguishable at the
    /// tested vertices.
    pub fn is_equivalent(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Compares the empirical next-hop distributions of two path sets at every
/// vertex with at least `min_samples` outgoing observations in *both* sets.
///
/// The comparison is a two-sample chi-square on the neighbor bins: for
/// each checked vertex, the first set's empirical frequencies serve as the
/// expected distribution for the second set's counts. `min_samples` should
/// be large enough that expected bin counts are ≥ ~5.
///
/// # Panics
///
/// Panics if `min_samples == 0`.
pub fn compare_transition_distributions(
    graph: &CsrGraph,
    reference: &[WalkPath],
    candidate: &[WalkPath],
    min_samples: u64,
) -> EquivalenceReport {
    assert!(min_samples > 0, "need at least one sample");
    let mut checked = 0usize;
    let mut skipped = 0usize;
    let mut mismatches = Vec::new();
    for v in 0..graph.vertex_count() as VertexId {
        let neighbors = graph.neighbors(v);
        if neighbors.len() < 2 {
            continue;
        }
        let ref_counts = distribution::next_hop_counts(reference, v);
        let cand_counts = distribution::next_hop_counts(candidate, v);
        let ref_total: u64 = ref_counts.values().sum();
        let cand_total: u64 = cand_counts.values().sum();
        if ref_total < min_samples || cand_total < min_samples {
            skipped += 1;
            continue;
        }
        checked += 1;
        let ref_bins = distribution::counts_for_neighbors(&ref_counts, neighbors);
        let cand_bins = distribution::counts_for_neighbors(&cand_counts, neighbors);
        // Proper two-sample chi-square: both samples are noisy, so the
        // statistic is Σ (√(N2/N1)·O1 − √(N1/N2)·O2)² / (O1 + O2) over
        // bins observed in either sample, with df = bins − 1.
        let n1 = ref_total as f64;
        let n2 = cand_total as f64;
        let r = (n2 / n1).sqrt();
        let mut stat = 0.0;
        let mut bins = 0usize;
        for (&o1, &o2) in ref_bins.iter().zip(&cand_bins) {
            let total = o1 + o2;
            if total == 0 {
                continue;
            }
            bins += 1;
            let d = r * o1 as f64 - o2 as f64 / r;
            stat += d * d / total as f64;
        }
        if bins >= 2 && stat > distribution::chi_square_critical(bins - 1, 3.09) {
            mismatches.push(v);
        }
    }
    EquivalenceReport {
        vertices_checked: checked,
        vertices_skipped: skipped,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Accelerator, AcceleratorConfig};
    use grw_algo::{run_streamed, PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};
    use grw_graph::generators::RmatConfig;

    #[test]
    fn accelerator_is_equivalent_to_the_reference() {
        let g = RmatConfig::balanced(7, 8).seed(3).generate();
        let spec = WalkSpec::urw(30);
        let p = PreparedGraph::new(g.clone(), &spec).unwrap();
        let qs = QuerySet::random(g.vertex_count(), 3_000, 1);
        let reference = run_streamed(
            &mut ReferenceBackend::new(&p, spec.clone(), 4),
            qs.queries(),
        );
        let accel =
            Accelerator::new(AcceleratorConfig::new().pipelines(4)).run(&p, &spec, qs.queries());
        let report = compare_transition_distributions(&g, &reference, &accel.paths, 200);
        assert!(report.vertices_checked > 10, "{report:?}");
        // At the 99.9% level a few false rejections are expected; demand
        // that almost every vertex passes.
        assert!(
            report.mismatches.len() <= report.vertices_checked / 50 + 1,
            "too many mismatches: {report:?}"
        );
    }

    #[test]
    fn a_biased_engine_is_detected() {
        let g = RmatConfig::balanced(7, 8).seed(3).generate();
        let spec = WalkSpec::urw(30);
        let p = PreparedGraph::new(g.clone(), &spec).unwrap();
        let qs = QuerySet::random(g.vertex_count(), 2_000, 1);
        let reference = run_streamed(
            &mut ReferenceBackend::new(&p, spec.clone(), 4),
            qs.queries(),
        );
        // A deliberately wrong engine: always takes the first neighbor.
        let biased: Vec<WalkPath> = qs
            .queries()
            .iter()
            .map(|q| {
                let mut vs = vec![q.start];
                let mut cur = q.start;
                for _ in 0..30 {
                    let ns = g.neighbors(cur);
                    if ns.is_empty() {
                        break;
                    }
                    cur = ns[0];
                    vs.push(cur);
                }
                WalkPath::new(q.id, vs)
            })
            .collect();
        let report = compare_transition_distributions(&g, &reference, &biased, 100);
        assert!(
            report.mismatches.len() > report.vertices_checked / 2,
            "bias went undetected: {report:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_min_samples_panics() {
        let g = RmatConfig::balanced(4, 2).seed(0).generate();
        let _ = compare_transition_distributions(&g, &[], &[], 0);
    }
}
