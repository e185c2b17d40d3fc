//! Second-order (per-edge) alias sampling for Node2Vec.
//!
//! The biased Node2Vec transition out of `cur` given `prev` is a fixed
//! categorical distribution over `N(cur)` — it only *looks* dynamic
//! because it is keyed by the edge `(prev, cur)`. Building its alias row
//! once (O(deg(cur) + deg(prev)): `N(prev)` is marked in the executor's
//! [`SamplerRuntime`], then each candidate's membership is one load) and
//! caching it in an [`EdgeAliasCache`](super::EdgeAliasCache) turns every
//! repeat traversal of that edge into two array reads, where rejection
//! pays an expected `M / E[w]` candidate trials each with a binary-search
//! membership probe. A build reports `deg(cur) + deg(prev)` scanned
//! words: the hardware streams both lists whatever the host does.
//!
//! Distribution equivalence: the row weights are exactly the rejection
//! kernel's acceptance weights (`1/p` return, `1` shared neighbor, `1/q`
//! otherwise, times the edge weight when the spec is weighted), so this
//! kernel samples the *same distribution* as
//! [`super::node2vec_rejection`] / [`super::node2vec_reservoir`] — the
//! property tests check it by chi-square. The *paths* differ (different
//! draw→index mapping), which is why the adaptive layer only selects this
//! kernel when explicitly enabled, never silently under a legacy config.

use super::{SampleMethod, SampleOutcome};
use crate::sampler::AliasSlot;
use crate::strategy::SamplerRuntime;
use grw_graph::{AliasTables, CsrGraph, VertexId};
use grw_rng::RandomSource;

/// Builds the biased weight row for the transition `prev -> cur -> x`.
///
/// Membership of `x` in `N(prev)` is one load against `N(prev)`'s marks
/// in `rt` — O(deg(cur) + deg(prev)) total, not
/// O(deg(cur) · log deg(prev)).
/// Returns `None` when every biased weight is non-positive — the
/// reservoir kernel treats that row as a dead end, so the alias
/// realisation must too (never hand it to `fill_row`, whose degenerate
/// fallback is a *uniform* row).
fn biased_row(
    graph: &CsrGraph,
    cur: VertexId,
    prev: VertexId,
    p: f64,
    q: f64,
    use_weights: bool,
    rt: &mut SamplerRuntime,
) -> Option<Box<[AliasSlot]>> {
    let neighbors = graph.neighbors(cur);
    let weights = if use_weights {
        graph.neighbor_weights(cur)
    } else {
        None
    };
    let shared = rt.mark_neighbors(graph, prev);
    let mut row: Vec<f32> = Vec::with_capacity(neighbors.len());
    for (i, &x) in neighbors.iter().enumerate() {
        let bias = if x == prev {
            1.0 / p
        } else if shared.contains(x) {
            1.0
        } else {
            1.0 / q
        };
        let base = weights.map_or(1.0, |ws| f64::from(ws[i]));
        row.push((base * bias) as f32);
    }
    if !row.iter().any(|&w| w > 0.0) {
        return None;
    }
    let mut prob = vec![1.0f32; row.len()];
    let mut alt: Vec<u32> = (0..row.len() as u32).collect();
    AliasTables::fill_row(&row, &mut prob, &mut alt);
    Some(
        prob.iter()
            .zip(&alt)
            .map(|(&prob, &alt)| AliasSlot { prob, alt })
            .collect(),
    )
}

/// Samples the next Node2Vec neighbor of `cur` through a per-edge alias
/// table, served from / filled into `rt`'s edge cache when it has one. A
/// row not served from the cache is built against `rt`'s neighbor marks.
///
/// `use_weights` selects whether edge weights multiply the second-order
/// bias — `true` mirrors the reservoir (weighted) realisation, `false`
/// the rejection (unweighted) one. Pass `prev = None` on the first hop,
/// which has no second-order bias and degenerates to the legacy kernel's
/// first hop: a plain weighted pick when `use_weights` (like
/// [`super::node2vec_reservoir`]), a uniform draw otherwise (like
/// [`super::node2vec_rejection`]). Returns `None` for dead ends,
/// including rows whose biased weights are all non-positive.
///
/// The sample consumes exactly two draws (slot, coin) regardless of cache
/// state: a hit and a rebuild produce bitwise-identical rows, so whether
/// and how the cache evicts can never change a walk path.
///
/// # Panics
///
/// Panics if `p` or `q` is not strictly positive.
// The argument list is the sampling kernel ABI shared by every kernel in
// this module plus the runtime; bundling them would ripple through the
// per-bucket dispatch for no clarity gain.
#[allow(clippy::too_many_arguments)]
pub fn second_order_alias<G: RandomSource>(
    graph: &CsrGraph,
    cur: VertexId,
    prev: Option<VertexId>,
    p: f64,
    q: f64,
    use_weights: bool,
    rt: &mut SamplerRuntime,
    rng: &mut G,
) -> Option<SampleOutcome> {
    assert!(p > 0.0 && q > 0.0, "Node2Vec parameters must be positive");
    let degree = graph.degree(cur);
    if degree == 0 {
        return None;
    }
    let prev = match prev {
        Some(v) => v,
        None => {
            if use_weights {
                if let Some(ws) = graph.neighbor_weights(cur) {
                    return super::weighted_reservoir(ws, rng);
                }
            }
            return super::uniform_sample(degree, rng);
        }
    };
    let slot = rng.next_below(u64::from(degree)) as usize;
    let coin = rng.next_f64() as f32;
    let pick = |row: &[AliasSlot]| {
        let s = row[slot];
        if coin < s.prob {
            slot as u32
        } else {
            s.alt
        }
    };
    if let Some(c) = rt.cache_mut() {
        if let Some(row) = c.lookup(prev, cur) {
            return Some(SampleOutcome {
                local_index: pick(row),
                uniform_trials: 1,
                alias_reads: 1,
                scanned: 0,
                membership_probes: 0,
                method: SampleMethod::SecondOrderAlias,
                cache_hits: 1,
                alias_builds: 0,
            });
        }
    }
    let row = biased_row(graph, cur, prev, p, q, use_weights, rt)?;
    let local_index = pick(&row);
    if let Some(c) = rt.cache_mut() {
        c.insert(prev, cur, row);
    }
    Some(SampleOutcome {
        local_index,
        uniform_trials: 1,
        alias_reads: 1,
        scanned: degree + graph.degree(prev),
        membership_probes: 0,
        method: SampleMethod::SecondOrderAlias,
        cache_hits: 0,
        alias_builds: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{node2vec_reservoir, EdgeAliasCache};
    use grw_rng::SplitMix64;

    /// cur = 0 with neighbors {1 (the previous vertex), 2 (neighbor of 1),
    /// 3 (stranger)}; prev = 1 with neighbors {0, 2}.
    fn fixture() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 0)], true)
    }

    #[test]
    fn distribution_matches_rejection_biases() {
        let g = fixture();
        // p = 2, q = 0.5: w(return to 1) = 0.5, w(2 ∈ N(1)) = 1, w(3) = 2.
        // Normalised: 1/7, 2/7, 4/7 — the rejection kernel's target.
        let mut rng = SplitMix64::new(42);
        let mut rt = SamplerRuntime::disabled();
        let mut counts = [0u32; 3];
        let n = 60_000;
        for _ in 0..n {
            let o = second_order_alias(&g, 0, Some(1), 2.0, 0.5, false, &mut rt, &mut rng).unwrap();
            assert_eq!(o.alias_builds, 1, "uncached: every sample rebuilds");
            counts[o.local_index as usize] += 1;
        }
        let expect = [1.0 / 7.0, 2.0 / 7.0, 4.0 / 7.0];
        for (i, (&c, &e)) in counts.iter().zip(&expect).enumerate() {
            let f = f64::from(c) / n as f64;
            assert!((f - e).abs() < 0.01, "index {i}: {f} vs {e}");
        }
    }

    #[test]
    fn cache_state_never_changes_the_sampled_index() {
        let g = fixture();
        let mut cached = SamplerRuntime::with_cache(Some(EdgeAliasCache::new(1 << 16, 2)));
        let mut uncached = SamplerRuntime::disabled();
        let mut rng_a = SplitMix64::new(7);
        let mut rng_b = SplitMix64::new(7);
        let mut hits = 0;
        for _ in 0..2_000 {
            let a = second_order_alias(&g, 0, Some(1), 2.0, 0.5, false, &mut cached, &mut rng_a)
                .unwrap();
            let b = second_order_alias(&g, 0, Some(1), 2.0, 0.5, false, &mut uncached, &mut rng_b)
                .unwrap();
            assert_eq!(a.local_index, b.local_index);
            hits += u64::from(a.cache_hits);
        }
        assert_eq!(hits, 1_999, "all but the first sample hit the cache");
        assert_eq!(cached.cache().map(EdgeAliasCache::len), Some(1));
    }

    #[test]
    fn weighted_rows_fold_edge_weights_into_the_bias() {
        // Heavier weight on the stranger edge (0,3) shifts mass to it.
        let g = fixture().with_weights(|src, dst, _| if (src, dst) == (0, 3) { 3.0 } else { 1.0 });
        // Weights {1, 1, 3} × biases {0.5, 1, 2} → {0.5, 1, 6} → 1/15, 2/15, 12/15.
        let mut rng = SplitMix64::new(13);
        let mut rt = SamplerRuntime::disabled();
        let mut counts = [0u32; 3];
        let n = 60_000;
        for _ in 0..n {
            let o = second_order_alias(&g, 0, Some(1), 2.0, 0.5, true, &mut rt, &mut rng).unwrap();
            counts[o.local_index as usize] += 1;
        }
        let expect = [1.0 / 15.0, 2.0 / 15.0, 12.0 / 15.0];
        for (i, (&c, &e)) in counts.iter().zip(&expect).enumerate() {
            let f = f64::from(c) / n as f64;
            assert!((f - e).abs() < 0.01, "index {i}: {f} vs {e}");
        }
    }

    #[test]
    fn first_hop_is_uniform_and_dead_ends_are_none() {
        let g = fixture();
        let mut rng = SplitMix64::new(1);
        let mut rt = SamplerRuntime::disabled();
        let o = second_order_alias(&g, 0, None, 2.0, 0.5, false, &mut rt, &mut rng).unwrap();
        assert_eq!(o.method, SampleMethod::Uniform);
        assert!(second_order_alias(&g, 3, Some(0), 2.0, 0.5, false, &mut rt, &mut rng).is_none());
    }

    #[test]
    fn weighted_first_hop_is_weight_proportional() {
        // The legacy weighted kernel's prev=None hop samples proportionally
        // to edge weights; the alias realisation must match, not fall back
        // to uniform. Weights {1, 1, 3} → 1/5, 1/5, 3/5.
        let g = fixture().with_weights(|src, dst, _| if (src, dst) == (0, 3) { 3.0 } else { 1.0 });
        let mut rng = SplitMix64::new(29);
        let mut rt = SamplerRuntime::disabled();
        let mut counts = [0u32; 3];
        let n = 60_000;
        for _ in 0..n {
            let o = second_order_alias(&g, 0, None, 2.0, 0.5, true, &mut rt, &mut rng).unwrap();
            assert_eq!(o.method, SampleMethod::Reservoir);
            counts[o.local_index as usize] += 1;
        }
        let expect = [1.0 / 5.0, 1.0 / 5.0, 3.0 / 5.0];
        for (i, (&c, &e)) in counts.iter().zip(&expect).enumerate() {
            let f = f64::from(c) / n as f64;
            assert!((f - e).abs() < 0.01, "index {i}: {f} vs {e}");
        }
    }

    #[test]
    fn all_non_positive_weights_are_a_dead_end() {
        // The reservoir kernel terminates the walk when every weighted
        // transition is non-positive; the alias row must not silently
        // substitute fill_row's uniform fallback.
        let g = fixture().with_weights(|_, _, _| 0.0);
        let mut rng = SplitMix64::new(2);
        let mut rt = SamplerRuntime::disabled();
        assert!(node2vec_reservoir(&g, 0, Some(1), 2.0, 0.5, &mut rt, &mut rng).is_none());
        assert!(second_order_alias(&g, 0, Some(1), 2.0, 0.5, true, &mut rt, &mut rng).is_none());
        // And the first hop agrees too.
        assert!(second_order_alias(&g, 0, None, 2.0, 0.5, true, &mut rt, &mut rng).is_none());
    }

    #[test]
    fn build_cost_is_the_merge_scan() {
        let g = fixture();
        let mut rng = SplitMix64::new(3);
        let mut rt = SamplerRuntime::disabled();
        let o = second_order_alias(&g, 0, Some(1), 2.0, 0.5, false, &mut rt, &mut rng).unwrap();
        // deg(0) = 3, deg(1) = 2.
        assert_eq!(o.scanned, 5);
        assert_eq!(o.alias_reads, 1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_q_panics() {
        let g = fixture();
        let mut rng = SplitMix64::new(0);
        let mut rt = SamplerRuntime::disabled();
        let _ = second_order_alias(&g, 0, Some(1), 2.0, 0.0, false, &mut rt, &mut rng);
    }
}
