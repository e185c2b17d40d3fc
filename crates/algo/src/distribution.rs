//! Chi-square helpers for statistical correctness tests.
//!
//! Every executor walks the same paths (each hop draws from one keyed
//! stream), so executors are compared path for path. What still needs
//! statistics is each sampler kernel: its empirical next-hop distribution
//! must match the spec's theoretical transition probabilities. These
//! helpers implement that goodness-of-fit machinery for the tests.

use crate::WalkPath;
use grw_graph::VertexId;
use std::collections::HashMap;

/// Pearson's chi-square statistic of `observed` counts against expected
/// probabilities.
///
/// Bins with expected probability 0 must have zero observations (else the
/// statistic is infinite, which is the correct verdict).
///
/// # Panics
///
/// Panics if lengths differ or `expected` does not sum to ~1.
pub fn chi_square(observed: &[u64], expected: &[f64]) -> f64 {
    assert_eq!(observed.len(), expected.len(), "bin count mismatch");
    let total: u64 = observed.iter().sum();
    let psum: f64 = expected.iter().sum();
    assert!(
        (psum - 1.0).abs() < 1e-6,
        "expected probabilities sum to {psum}"
    );
    let n = total as f64;
    let mut stat = 0.0;
    for (&o, &p) in observed.iter().zip(expected) {
        let e = n * p;
        if e == 0.0 {
            if o > 0 {
                return f64::INFINITY;
            }
            continue;
        }
        let d = o as f64 - e;
        stat += d * d / e;
    }
    stat
}

/// Approximate upper critical value of the chi-square distribution with
/// `df` degrees of freedom at significance `z` standard normal quantiles
/// (Wilson–Hilferty). `z = 3.09` ≈ the 99.9th percentile.
pub fn chi_square_critical(df: usize, z: f64) -> f64 {
    assert!(df > 0, "degrees of freedom must be positive");
    let k = df as f64;
    let t = 1.0 - 2.0 / (9.0 * k) + z * (2.0 / (9.0 * k)).sqrt();
    k * t * t * t
}

/// Convenience goodness-of-fit test at the 99.9% level: returns `true`
/// when `observed` is consistent with `expected`.
pub fn fits(observed: &[u64], expected: &[f64]) -> bool {
    let df = expected
        .iter()
        .filter(|&&p| p > 0.0)
        .count()
        .saturating_sub(1);
    if df == 0 {
        return true;
    }
    chi_square(observed, expected) < chi_square_critical(df, 3.09)
}

/// Counts, over a set of paths, which vertex followed `from` at each
/// occurrence — the empirical one-step transition distribution out of
/// `from`.
pub fn next_hop_counts(paths: &[WalkPath], from: VertexId) -> HashMap<VertexId, u64> {
    let mut counts = HashMap::new();
    for w in paths {
        for pair in w.vertices.windows(2) {
            if pair[0] == from {
                *counts.entry(pair[1]).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// Projects hop counts onto a vertex's neighbor list, yielding aligned
/// observation bins for [`chi_square`].
pub fn counts_for_neighbors(counts: &HashMap<VertexId, u64>, neighbors: &[VertexId]) -> Vec<u64> {
    neighbors
        .iter()
        .map(|v| counts.get(v).copied().unwrap_or(0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_rng::{RandomSource, SplitMix64};

    #[test]
    fn uniform_counts_fit_uniform_probs() {
        let mut rng = SplitMix64::new(1);
        let mut counts = vec![0u64; 10];
        for _ in 0..100_000 {
            counts[rng.next_below(10) as usize] += 1;
        }
        let probs = vec![0.1; 10];
        assert!(fits(&counts, &probs));
    }

    #[test]
    fn skewed_counts_fail_uniform_probs() {
        let counts = vec![5000u64, 100, 100, 100];
        let probs = vec![0.25; 4];
        assert!(!fits(&counts, &probs));
    }

    #[test]
    fn impossible_bin_with_observations_is_infinite() {
        let stat = chi_square(&[10, 5], &[1.0, 0.0]);
        assert!(stat.is_infinite());
    }

    #[test]
    fn critical_values_are_sane() {
        // χ²(df=9) 99.9th percentile ≈ 27.88.
        let c = chi_square_critical(9, 3.09);
        assert!((c - 27.9).abs() < 1.0, "critical {c}");
        assert!(chi_square_critical(1, 3.09) < chi_square_critical(100, 3.09));
    }

    #[test]
    fn next_hop_counting_works() {
        let paths = vec![
            WalkPath::new(0, vec![1, 2, 1, 3]),
            WalkPath::new(1, vec![1, 2]),
        ];
        let counts = next_hop_counts(&paths, 1);
        assert_eq!(counts.get(&2), Some(&2));
        assert_eq!(counts.get(&3), Some(&1));
        let bins = counts_for_neighbors(&counts, &[2, 3, 4]);
        assert_eq!(bins, vec![2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn mismatched_bins_panic() {
        let _ = chi_square(&[1, 2], &[1.0]);
    }
}
