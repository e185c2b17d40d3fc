//! Weighted reservoir sampling (LightRW-style single-pass selection).
//!
//! Reservoir sampling scans a neighbor list once, keeping candidate `i`
//! with probability `w_i / W_i` where `W_i` is the running weight prefix:
//! one draw and one division per candidate. It is exact for arbitrary
//! weights, needs no precomputed tables, and is what LightRW (and
//! RidgeWalker's weighted Node2Vec/MetaPath, Table I) use on weighted
//! graphs. The cost is the scan itself: `deg` sequential words, which the
//! hardware models charge at the sequential (open-row) rate.
//!
//! Node2Vec's second-order bias needs `x ∈ N(prev)` for every candidate
//! `x`. The kernel marks `N(prev)` once in the executor's
//! [`SamplerRuntime`] and tests each candidate with one load against the
//! marks. The outcome reports `membership_probes` as one binary
//! search of `N(prev)` per candidate — the modelled cost of the LightRW
//! kernel, which the cost models read — whatever the host spent.

use super::{SampleMethod, SampleOutcome};
use crate::strategy::SamplerRuntime;
use grw_graph::{CsrGraph, VertexId};
use grw_rng::RandomSource;

/// Selects an index from `weights` in one pass; returns `None` when the
/// list is empty or all weights are non-positive.
///
/// # Example
///
/// ```
/// use grw_algo::sampler::weighted_reservoir;
/// use grw_rng::SplitMix64;
///
/// let mut rng = SplitMix64::new(3);
/// let o = weighted_reservoir(&[1.0, 2.0, 3.0], &mut rng).unwrap();
/// assert!(o.local_index < 3);
/// assert_eq!(o.scanned, 3);
/// ```
pub fn weighted_reservoir<G: RandomSource>(weights: &[f32], rng: &mut G) -> Option<SampleOutcome> {
    let mut total = 0.0f64;
    let mut chosen: Option<u32> = None;
    for (i, &w) in weights.iter().enumerate() {
        let w = f64::from(w);
        if w <= 0.0 {
            continue;
        }
        total += w;
        if rng.next_f64() < w / total {
            chosen = Some(i as u32);
        }
    }
    chosen.map(|local_index| SampleOutcome {
        local_index,
        uniform_trials: 1,
        alias_reads: 0,
        scanned: weights.len() as u32,
        membership_probes: 0,
        method: SampleMethod::Reservoir,
        cache_hits: 0,
        alias_builds: 0,
    })
}

/// Node2Vec on weighted graphs: one reservoir pass over `N(cur)` with each
/// weight multiplied by the second-order bias (`1/p` return, `1` shared
/// neighbor, `1/q` otherwise). `N(prev)` is marked once in `rt` and each
/// candidate's membership is one load; the outcome charges a binary
/// search per candidate, like the LightRW implementation.
///
/// Pass `prev = None` on the first hop for a plain weighted pick.
///
/// # Panics
///
/// Panics if `p` or `q` is not strictly positive, or if the graph carries
/// no weights.
pub fn node2vec_reservoir<G: RandomSource>(
    graph: &CsrGraph,
    cur: VertexId,
    prev: Option<VertexId>,
    p: f64,
    q: f64,
    rt: &mut SamplerRuntime,
    rng: &mut G,
) -> Option<SampleOutcome> {
    assert!(p > 0.0 && q > 0.0, "Node2Vec parameters must be positive");
    let weights = graph
        .neighbor_weights(cur)
        .expect("node2vec_reservoir requires a weighted graph");
    let Some(prev) = prev else {
        return weighted_reservoir(weights, rng);
    };
    let neighbors = graph.neighbors(cur);
    // The modelled cost of one binary search of N(prev).
    let deg = graph.degree(prev).max(1);
    let probe = (32 - (deg - 1).leading_zeros().min(31)).max(1);
    let shared = rt.mark_neighbors(graph, prev);
    let mut total = 0.0f64;
    let mut chosen: Option<u32> = None;
    let mut probes = 0u32;
    for (i, (&w, &x)) in weights.iter().zip(neighbors).enumerate() {
        let bias = if x == prev {
            1.0 / p
        } else {
            probes += probe;
            if shared.contains(x) {
                1.0
            } else {
                1.0 / q
            }
        };
        let w = f64::from(w) * bias;
        if w <= 0.0 {
            continue;
        }
        total += w;
        if rng.next_f64() < w / total {
            chosen = Some(i as u32);
        }
    }
    chosen.map(|local_index| SampleOutcome {
        local_index,
        uniform_trials: 1,
        alias_reads: 0,
        scanned: neighbors.len() as u32,
        membership_probes: probes,
        method: SampleMethod::Reservoir,
        cache_hits: 0,
        alias_builds: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_rng::SplitMix64;

    #[test]
    fn empty_list_yields_none() {
        let mut rng = SplitMix64::new(0);
        assert!(weighted_reservoir(&[], &mut rng).is_none());
    }

    #[test]
    fn all_zero_weights_yield_none() {
        let mut rng = SplitMix64::new(0);
        assert!(weighted_reservoir(&[0.0, 0.0], &mut rng).is_none());
    }

    #[test]
    fn distribution_is_weight_proportional() {
        let weights = [1.0f32, 3.0, 6.0];
        let mut rng = SplitMix64::new(17);
        let mut counts = [0u32; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[weighted_reservoir(&weights, &mut rng).unwrap().local_index as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let f = f64::from(c) / n as f64;
            let e = f64::from(weights[i]) / 10.0;
            assert!((f - e).abs() < 0.01, "index {i}: {f} vs {e}");
        }
    }

    #[test]
    fn negative_weights_are_skipped() {
        let mut rng = SplitMix64::new(2);
        for _ in 0..100 {
            let o = weighted_reservoir(&[-1.0, 2.0, -3.0], &mut rng).unwrap();
            assert_eq!(o.local_index, 1);
        }
    }

    #[test]
    fn scan_cost_is_the_degree() {
        let mut rng = SplitMix64::new(2);
        let o = weighted_reservoir(&[1.0; 17], &mut rng).unwrap();
        assert_eq!(o.scanned, 17);
    }

    fn weighted_fixture() -> CsrGraph {
        // cur = 0 → {1, 2, 3} all weight 1; prev = 1 → {2}.
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 0)], true)
            .with_weights(|_, _, _| 1.0)
    }

    #[test]
    fn node2vec_reservoir_matches_rejection_distribution() {
        let g = weighted_fixture();
        let mut rt = SamplerRuntime::disabled();
        let mut rng = SplitMix64::new(5);
        let mut counts = [0u32; 3];
        let n = 60_000;
        for _ in 0..n {
            let o = node2vec_reservoir(&g, 0, Some(1), 2.0, 0.5, &mut rt, &mut rng).unwrap();
            counts[o.local_index as usize] += 1;
        }
        // Same target distribution as the rejection test: 1/7, 2/7, 4/7.
        let expect = [1.0 / 7.0, 2.0 / 7.0, 4.0 / 7.0];
        for (i, (&c, &e)) in counts.iter().zip(&expect).enumerate() {
            let f = f64::from(c) / n as f64;
            assert!((f - e).abs() < 0.01, "index {i}: {f} vs {e}");
        }
    }

    #[test]
    fn first_hop_ignores_bias() {
        let g = weighted_fixture();
        let mut rng = SplitMix64::new(6);
        let mut rt = SamplerRuntime::disabled();
        let o = node2vec_reservoir(&g, 0, None, 2.0, 0.5, &mut rt, &mut rng).unwrap();
        assert_eq!(o.membership_probes, 0);
    }

    #[test]
    #[should_panic(expected = "weighted graph")]
    fn unweighted_graph_panics() {
        let g = CsrGraph::from_edges(2, &[(0, 1)], true);
        let mut rng = SplitMix64::new(0);
        let mut rt = SamplerRuntime::disabled();
        let _ = node2vec_reservoir(&g, 0, None, 2.0, 0.5, &mut rt, &mut rng);
    }
}
