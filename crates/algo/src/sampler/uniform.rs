//! Uniform and alias sampling (URW, PPR, DeepWalk).

use super::{SampleMethod, SampleOutcome};
use grw_graph::{AliasTables, CsrGraph, VertexId};
use grw_rng::RandomSource;

/// Samples a neighbor index uniformly from a list of `degree` neighbors —
/// the sampling of URW and PPR (Table I).
///
/// Returns `None` for dead ends.
///
/// # Example
///
/// ```
/// use grw_algo::sampler::uniform_sample;
/// use grw_rng::SplitMix64;
///
/// let mut rng = SplitMix64::new(1);
/// let o = uniform_sample(5, &mut rng).unwrap();
/// assert!(o.local_index < 5);
/// ```
pub fn uniform_sample<G: RandomSource>(degree: u32, rng: &mut G) -> Option<SampleOutcome> {
    if degree == 0 {
        return None;
    }
    if degree == 1 {
        return Some(SampleOutcome::direct(0));
    }
    Some(SampleOutcome {
        local_index: rng.next_below(u64::from(degree)) as u32,
        uniform_trials: 1,
        alias_reads: 0,
        scanned: 0,
        membership_probes: 0,
        method: SampleMethod::Uniform,
        cache_hits: 0,
        alias_builds: 0,
    })
}

/// Samples a neighbor of `v` by its alias table — DeepWalk's O(1) weighted
/// sampling. Costs one uniform slot draw plus one alias-entry read (a
/// random access into the alias region).
///
/// Returns `None` for dead ends.
pub fn alias_sample<G: RandomSource>(
    graph: &CsrGraph,
    tables: &AliasTables,
    v: VertexId,
    rng: &mut G,
) -> Option<SampleOutcome> {
    let local = tables.sample(graph, v, rng)?;
    Some(SampleOutcome {
        local_index: local,
        uniform_trials: 1,
        alias_reads: 1,
        scanned: 0,
        membership_probes: 0,
        method: SampleMethod::Alias,
        cache_hits: 0,
        alias_builds: 0,
    })
}

/// Table-free weighted sampling of a neighbor of `v`: recomputes the
/// vertex's alias row on the fly from its weights and applies the exact
/// same slot/coin draw mapping as [`alias_sample`].
///
/// This is DeepWalk's table-free kernel, run when a sampler config forces
/// [`SamplerStrategy::InverseTransform`](crate::SamplerStrategy) (the
/// choice ThunderRW calls inverse transform): an O(deg) sequential weight
/// scan instead of a random read into a shared table. Because the row
/// construction is the same [`AliasTables::fill_row`] code, the chosen
/// index is bitwise-identical to the prebuilt table's for the same draws —
/// switching kernels never changes a walk path.
///
/// Unweighted graphs reduce to the uniform slot draw (the coin is still
/// consumed, exactly as [`AliasTables::sample`] consumes it).
///
/// Returns `None` for dead ends.
pub fn alias_onthefly<G: RandomSource>(
    graph: &CsrGraph,
    v: VertexId,
    rng: &mut G,
) -> Option<SampleOutcome> {
    let deg = graph.degree(v);
    if deg == 0 {
        return None;
    }
    let slot = rng.next_below(u64::from(deg)) as usize;
    let coin = rng.next_f64() as f32;
    let local = match graph.neighbor_weights(v) {
        None => slot as u32,
        Some(ws) => {
            // Short rows fit stack buffers, keeping the per-step fill
            // allocation-free; `fill_row` is the same constructor
            // the prebuilt table used, so the row is bitwise identical.
            const STACK_ROW: usize = 64;
            let d = deg as usize;
            if d == 1 {
                // A single-entry row is always {prob: 1.0, alt: 0}; the
                // slot and coin draws above were still consumed, exactly
                // as the table path consumes them.
                0
            } else {
                let mut prob_stack = [0.0f32; STACK_ROW];
                let mut alt_stack = [0u32; STACK_ROW];
                let mut heap: (Vec<f32>, Vec<u32>);
                let (prob, alt) = if d <= STACK_ROW {
                    (&mut prob_stack[..d], &mut alt_stack[..d])
                } else {
                    heap = (vec![0.0f32; d], vec![0u32; d]);
                    (&mut heap.0[..], &mut heap.1[..])
                };
                AliasTables::fill_row(ws, prob, alt);
                if coin < prob[slot] {
                    slot as u32
                } else {
                    alt[slot]
                }
            }
        }
    };
    Some(SampleOutcome {
        local_index: local,
        uniform_trials: 1,
        alias_reads: 0,
        scanned: deg,
        membership_probes: 0,
        method: SampleMethod::InverseTransform,
        cache_hits: 0,
        alias_builds: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_rng::SplitMix64;

    #[test]
    fn dead_end_yields_none() {
        let mut rng = SplitMix64::new(0);
        assert!(uniform_sample(0, &mut rng).is_none());
    }

    #[test]
    fn single_neighbor_is_free() {
        let mut rng = SplitMix64::new(0);
        let o = uniform_sample(1, &mut rng).unwrap();
        assert_eq!(o.local_index, 0);
    }

    #[test]
    fn uniform_sample_is_uniform() {
        let mut rng = SplitMix64::new(5);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[uniform_sample(8, &mut rng).unwrap().local_index as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn alias_sample_reports_one_alias_read() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2)], true).with_weights(|_, _, _| 1.0);
        let t = AliasTables::build(&g);
        let mut rng = SplitMix64::new(2);
        let o = alias_sample(&g, &t, 0, &mut rng).unwrap();
        assert_eq!(o.alias_reads, 1);
        assert!(o.local_index < 2);
        assert!(alias_sample(&g, &t, 1, &mut rng).is_none());
    }

    #[test]
    fn onthefly_matches_table_sampling_bitwise() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)], true)
            .with_weights(|_, dst, _| dst as f32);
        let t = AliasTables::build(&g);
        let mut rng_a = SplitMix64::new(21);
        let mut rng_b = SplitMix64::new(21);
        for _ in 0..5_000 {
            let a = alias_sample(&g, &t, 0, &mut rng_a).unwrap();
            let b = alias_onthefly(&g, 0, &mut rng_b).unwrap();
            assert_eq!(a.local_index, b.local_index);
        }
        // Unweighted graphs degrade to the uniform slot draw, still
        // consuming the same two draws per sample as the table path.
        let u = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)], true);
        let ut = AliasTables::build(&u);
        let mut rng_a = SplitMix64::new(9);
        let mut rng_b = SplitMix64::new(9);
        for _ in 0..1_000 {
            let a = alias_sample(&u, &ut, 0, &mut rng_a).unwrap();
            let b = alias_onthefly(&u, 0, &mut rng_b).unwrap();
            assert_eq!(a.local_index, b.local_index);
        }
        assert!(alias_onthefly(&u, 3, &mut rng_b).is_none());
    }

    #[test]
    fn alias_sample_respects_weights() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2)], true).with_weights(|_, dst, _| {
            if dst == 2 {
                9.0
            } else {
                1.0
            }
        });
        let t = AliasTables::build(&g);
        let mut rng = SplitMix64::new(8);
        let n = 50_000;
        let heavy = (0..n)
            .filter(|_| alias_sample(&g, &t, 0, &mut rng).unwrap().local_index == 1)
            .count();
        let f = heavy as f64 / n as f64;
        assert!((f - 0.9).abs() < 0.01, "heavy fraction {f}");
    }
}
