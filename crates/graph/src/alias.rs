//! Per-vertex Walker alias tables for O(1) weighted neighbor sampling.
//!
//! DeepWalk on weighted graphs samples a neighbor proportionally to edge
//! weight at every hop. The alias method (Walker, 1974) turns that into two
//! uniform draws: pick a slot uniformly, then take either the slot's own
//! neighbor or its alias depending on a biased coin. RidgeWalker stores one
//! alias entry per edge next to the column list and widens the RP entry to
//! 256 bits to carry the table pointer (Table I of the paper).

use crate::{CsrGraph, VertexId};
use grw_rng::RandomSource;

/// Flattened alias tables for every vertex of a weighted graph.
///
/// Entry `i` corresponds to column position `i` of the CSR, so the same
/// `RP[v]` offset addresses both the neighbor and its alias entry — exactly
/// the memory layout the accelerator uses.
///
/// # Example
///
/// ```
/// use grw_graph::{AliasTables, CsrGraph};
/// use grw_rng::SplitMix64;
///
/// let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2)], true)
///     .with_weights(|_, dst, _| if dst == 1 { 3.0 } else { 1.0 });
/// let tables = AliasTables::build(&g);
/// let mut rng = SplitMix64::new(7);
/// let local = tables.sample(&g, 0, &mut rng).unwrap();
/// assert!(local < 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTables {
    /// Acceptance threshold of each slot, in [0, 1].
    prob: Vec<f32>,
    /// Alias (local neighbor index) taken when the coin exceeds `prob`.
    alt: Vec<u32>,
}

impl AliasTables {
    /// Builds alias tables for all vertices.
    ///
    /// Unweighted graphs get uniform tables (every `prob` is 1.0). Vertices
    /// whose weights sum to zero fall back to uniform over their neighbors.
    pub fn build(graph: &CsrGraph) -> Self {
        let e = graph.edge_count();
        let mut prob = vec![1.0f32; e];
        let mut alt = vec![0u32; e];
        for v in 0..graph.vertex_count() as VertexId {
            let deg = graph.degree(v) as usize;
            if deg == 0 {
                continue;
            }
            let base = graph.row_offset(v) as usize;
            match graph.neighbor_weights(v) {
                Some(ws) => {
                    Self::build_one(ws, &mut prob[base..base + deg], &mut alt[base..base + deg]);
                }
                None => {
                    for (i, a) in alt[base..base + deg].iter_mut().enumerate() {
                        *a = i as u32;
                    }
                }
            }
        }
        Self { prob, alt }
    }

    /// Walker's two-stack (Vose) construction over one weight list,
    /// writing the row into caller-provided buffers.
    ///
    /// This is the *only* alias-row constructor in the suite: the shared
    /// per-vertex tables, the sampler's on-the-fly rows and the
    /// second-order per-edge tables all call it, so for identical weights
    /// they produce bitwise-identical `(prob, alt)` rows — the property
    /// the adaptive sampler's path-identity guarantees rest on.
    ///
    /// Degenerate inputs (all weights non-positive) fall back to a uniform
    /// row.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length.
    pub fn fill_row(weights: &[f32], prob: &mut [f32], alt: &mut [u32]) {
        assert_eq!(weights.len(), prob.len(), "row buffers must match");
        assert_eq!(weights.len(), alt.len(), "row buffers must match");
        Self::build_one(weights, prob, alt);
    }

    /// Walker's two-stack construction over one neighbor list. Short rows
    /// (the sampler's on-the-fly fills) run entirely on stack scratch;
    /// longer rows borrow heap scratch. Both funnel through the same
    /// arithmetic, so the split can never change a row.
    fn build_one(weights: &[f32], prob: &mut [f32], alt: &mut [u32]) {
        const STACK_ROW: usize = 64;
        let n = weights.len();
        if n <= STACK_ROW {
            let mut scaled = [0.0f64; STACK_ROW];
            let mut small = [0usize; STACK_ROW];
            let mut large = [0usize; STACK_ROW];
            Self::build_one_into(
                weights,
                prob,
                alt,
                &mut scaled[..n],
                &mut small[..n],
                &mut large[..n],
            );
        } else {
            let mut scaled = vec![0.0f64; n];
            let mut small = vec![0usize; n];
            let mut large = vec![0usize; n];
            Self::build_one_into(weights, prob, alt, &mut scaled, &mut small, &mut large);
        }
    }

    /// The construction proper, over caller-provided scratch (`scaled`,
    /// plus the two Vose worklists as array-backed stacks).
    fn build_one_into(
        weights: &[f32],
        prob: &mut [f32],
        alt: &mut [u32],
        scaled: &mut [f64],
        small: &mut [usize],
        large: &mut [usize],
    ) {
        let n = weights.len();
        let total: f64 = weights.iter().map(|&w| f64::from(w.max(0.0))).sum();
        if total <= 0.0 {
            // Degenerate weights: uniform fallback.
            for (i, (p, a)) in prob.iter_mut().zip(alt.iter_mut()).enumerate() {
                *p = 1.0;
                *a = i as u32;
            }
            return;
        }
        let scale = n as f64 / total;
        let (mut n_small, mut n_large) = (0usize, 0usize);
        for (i, (&w, s)) in weights.iter().zip(scaled.iter_mut()).enumerate() {
            *s = f64::from(w.max(0.0)) * scale;
            if *s < 1.0 {
                small[n_small] = i;
                n_small += 1;
            } else {
                large[n_large] = i;
                n_large += 1;
            }
        }
        // Default each slot to itself so leftovers are well-formed.
        for (i, a) in alt.iter_mut().enumerate() {
            *a = i as u32;
        }
        while n_small > 0 && n_large > 0 {
            let s = small[n_small - 1];
            let l = large[n_large - 1];
            n_small -= 1;
            prob[s] = scaled[s] as f32;
            alt[s] = l as u32;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                n_large -= 1;
                small[n_small] = l;
                n_small += 1;
            }
        }
        for &i in small[..n_small].iter().chain(large[..n_large].iter()) {
            prob[i] = 1.0;
        }
    }

    /// Samples a local neighbor index of `v` in O(1): one slot draw plus one
    /// biased coin — the two memory touches the hardware pipeline makes.
    ///
    /// Returns `None` when `v` is a dead end.
    pub fn sample<G: RandomSource>(
        &self,
        graph: &CsrGraph,
        v: VertexId,
        rng: &mut G,
    ) -> Option<u32> {
        let deg = graph.degree(v);
        if deg == 0 {
            return None;
        }
        let base = graph.row_offset(v) as usize;
        let slot = rng.next_below(u64::from(deg)) as usize;
        let coin = rng.next_f64() as f32;
        Some(if coin < self.prob[base + slot] {
            slot as u32
        } else {
            self.alt[base + slot]
        })
    }

    /// Number of alias entries (equals the graph's edge count).
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table set is empty (edge-free graph).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// The exact sampling probability the table assigns to local index `i`
    /// of vertex `v`. Used by tests to check the table against the weights.
    pub fn probability_of(&self, graph: &CsrGraph, v: VertexId, i: u32) -> f64 {
        let deg = graph.degree(v) as usize;
        assert!((i as usize) < deg, "local index out of range");
        let base = graph.row_offset(v) as usize;
        let mut p = f64::from(self.prob[base + i as usize]) / deg as f64;
        for slot in 0..deg {
            if self.alt[base + slot] == i && slot != i as usize {
                p += (1.0 - f64::from(self.prob[base + slot])) / deg as f64;
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_rng::SplitMix64;

    fn weighted_star(weights: &[f32]) -> CsrGraph {
        let n = weights.len() as VertexId + 1;
        let edges: Vec<(VertexId, VertexId)> = (1..n).map(|v| (0, v)).collect();
        let ws = weights.to_vec();
        CsrGraph::from_edges(n as usize, &edges, true)
            .with_weights(move |_, dst, _| ws[(dst - 1) as usize])
    }

    #[test]
    fn table_probabilities_match_weights() {
        let g = weighted_star(&[1.0, 2.0, 3.0, 4.0]);
        let t = AliasTables::build(&g);
        let total = 10.0;
        for i in 0..4u32 {
            let expected = f64::from(i + 1) / total;
            let actual = t.probability_of(&g, 0, i);
            assert!(
                (actual - expected).abs() < 1e-6,
                "index {i}: expected {expected}, got {actual}"
            );
        }
    }

    #[test]
    fn empirical_distribution_matches_weights() {
        let g = weighted_star(&[1.0, 1.0, 8.0]);
        let t = AliasTables::build(&g);
        let mut rng = SplitMix64::new(11);
        let mut counts = [0usize; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[t.sample(&g, 0, &mut rng).unwrap() as usize] += 1;
        }
        let f2 = counts[2] as f64 / n as f64;
        assert!((f2 - 0.8).abs() < 0.01, "heavy neighbor frequency {f2}");
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - 0.1).abs() < 0.01, "light neighbor frequency {f0}");
    }

    #[test]
    fn dead_end_returns_none() {
        let g = CsrGraph::from_edges(2, &[(0, 1)], true).with_weights(|_, _, _| 1.0);
        let t = AliasTables::build(&g);
        let mut rng = SplitMix64::new(1);
        assert_eq!(t.sample(&g, 1, &mut rng), None);
    }

    #[test]
    fn unweighted_graph_gets_uniform_tables() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)], true);
        let t = AliasTables::build(&g);
        for i in 0..3u32 {
            let p = t.probability_of(&g, 0, i);
            assert!((p - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_weights_fall_back_to_uniform() {
        let g = weighted_star(&[0.0, 0.0]);
        let t = AliasTables::build(&g);
        for i in 0..2u32 {
            assert!((t.probability_of(&g, 0, i) - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn single_neighbor_always_selected() {
        let g = weighted_star(&[5.0]);
        let t = AliasTables::build(&g);
        let mut rng = SplitMix64::new(3);
        for _ in 0..50 {
            assert_eq!(t.sample(&g, 0, &mut rng), Some(0));
        }
    }

    #[test]
    fn len_matches_edge_count() {
        let g = weighted_star(&[1.0, 2.0, 3.0]);
        let t = AliasTables::build(&g);
        assert_eq!(t.len(), g.edge_count());
        assert!(!t.is_empty());
    }

    #[test]
    fn fill_row_matches_built_table_rows() {
        let g = weighted_star(&[1.0, 5.0, 2.0]);
        let t = AliasTables::build(&g);
        let mut prob = vec![0.0f32; 3];
        let mut alt = vec![0u32; 3];
        AliasTables::fill_row(g.neighbor_weights(0).unwrap(), &mut prob, &mut alt);
        let base = g.row_offset(0) as usize;
        assert_eq!(&t.prob[base..base + 3], prob.as_slice());
        assert_eq!(&t.alt[base..base + 3], alt.as_slice());
    }

    #[test]
    fn extreme_skew_is_handled() {
        let g = weighted_star(&[1e-6, 1e6]);
        let t = AliasTables::build(&g);
        let p1 = t.probability_of(&g, 0, 1);
        assert!(p1 > 0.999_99, "heavy neighbor probability {p1}");
        let mut rng = SplitMix64::new(4);
        let heavy = (0..10_000)
            .filter(|_| t.sample(&g, 0, &mut rng) == Some(1))
            .count();
        assert!(heavy > 9_990);
    }
}
