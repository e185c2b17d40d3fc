//! Neighbor sampling algorithms, with explicit memory-cost accounting.
//!
//! Every sampler returns a [`SampleOutcome`] describing not only *which*
//! local neighbor index was chosen but also *what it cost*: how many uniform
//! candidate trials, alias-entry reads, sequential scan words and
//! binary-search membership probes were needed. The cycle-level hardware
//! models charge these quantities against their memory channels, so the
//! functional layer and the performance layer can never drift apart.
//!
//! Each outcome additionally carries the [`SampleMethod`] that produced it.
//! With the runtime-adaptive strategy layer ([`crate::SamplerConfig`]) the
//! kernel is no longer a function of the walk spec alone — it varies per
//! vertex degree bucket — so the cost models key on the outcome's method
//! instead of the spec.

mod edge_cache;
mod metapath;
mod rejection;
mod reservoir;
mod second_order;
mod uniform;

pub use edge_cache::{AliasSlot, EdgeAliasCache};
pub use metapath::typed_reservoir;
pub use rejection::node2vec_rejection;
pub use reservoir::{node2vec_reservoir, weighted_reservoir};
pub use second_order::second_order_alias;
pub use uniform::{alias_onthefly, alias_sample, uniform_sample};

/// The sampling kernel that produced a [`SampleOutcome`].
///
/// This is what the cycle-level cost models dispatch on: the same walk
/// spec can mix kernels per degree bucket under the adaptive strategy
/// layer, and each kernel has a distinct memory signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleMethod {
    /// Direct uniform index draw (URW/PPR, and the first hop of an
    /// unweighted second-order walk).
    Uniform,
    /// Table-free weighted pick: the vertex's alias row is recomputed on
    /// the fly from its weights (a sequential scan) instead of read from
    /// the shared table. Same draw→index mapping as [`SampleMethod::Alias`].
    InverseTransform,
    /// Prebuilt per-vertex alias table read (DeepWalk, Table I).
    Alias,
    /// KnightKing-style second-order rejection trials.
    Rejection,
    /// Single-pass weighted reservoir scan.
    Reservoir,
    /// Reservoir scan restricted to a vertex type (MetaPath).
    TypedReservoir,
    /// Per-edge second-order alias table, built on demand and optionally
    /// served from the bounded [`EdgeAliasCache`].
    SecondOrderAlias,
}

impl SampleMethod {
    /// Lowercase name as recorded in bench JSON and reports.
    pub fn name(&self) -> &'static str {
        match self {
            SampleMethod::Uniform => "uniform",
            SampleMethod::InverseTransform => "inverse_transform",
            SampleMethod::Alias => "alias",
            SampleMethod::Rejection => "rejection",
            SampleMethod::Reservoir => "reservoir",
            SampleMethod::TypedReservoir => "typed_reservoir",
            SampleMethod::SecondOrderAlias => "second_order_alias",
        }
    }
}

/// The result of sampling one neighbor, with its memory cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleOutcome {
    /// Chosen local index into the current vertex's neighbor list.
    pub local_index: u32,
    /// Uniform candidate draws made (rejection trials; 1 for direct picks).
    pub uniform_trials: u32,
    /// Alias-table entry reads (DeepWalk: 1 per trial).
    pub alias_reads: u32,
    /// Sequential words scanned from the neighbor list (reservoir methods,
    /// on-the-fly alias rows, second-order table builds).
    pub scanned: u32,
    /// Random membership-probe reads (binary search in N(prev)).
    pub membership_probes: u32,
    /// Which kernel produced this sample.
    pub method: SampleMethod,
    /// 1 when a second-order alias table was served from the edge cache.
    pub cache_hits: u32,
    /// 1 when an alias row was (re)built at sample time.
    pub alias_builds: u32,
}

impl SampleOutcome {
    /// A cost-free direct pick of `local_index` (used for degree-1 cases).
    pub fn direct(local_index: u32) -> Self {
        Self {
            local_index,
            uniform_trials: 1,
            alias_reads: 0,
            scanned: 0,
            membership_probes: 0,
            method: SampleMethod::Uniform,
            cache_hits: 0,
            alias_builds: 0,
        }
    }

    /// Total *random* 64-bit transactions this sample costs on the column
    /// side, excluding the final neighbor fetch: alias reads and membership
    /// probes are row-buffer misses; scans are charged separately as
    /// sequential traffic.
    pub fn random_reads(&self) -> u32 {
        self.alias_reads + self.membership_probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::SamplerRuntime;
    use grw_graph::{CsrGraph, GraphBuilder, VertexId};
    use grw_rng::{RandomSource, SplitMix64};

    /// The weighted second-order kernels as they stood before the
    /// runtime's neighbor marks: a binary search of `N(prev)` per
    /// reservoir candidate and a sorted merge per alias row. The marked
    /// kernels must agree with them outcome for outcome and draw for draw.
    mod oracle {
        use super::super::{uniform_sample, weighted_reservoir, AliasSlot};
        use super::*;
        use grw_graph::AliasTables;

        pub fn node2vec_reservoir<G: RandomSource>(
            graph: &CsrGraph,
            cur: VertexId,
            prev: Option<VertexId>,
            p: f64,
            q: f64,
            rng: &mut G,
        ) -> Option<SampleOutcome> {
            let weights = graph.neighbor_weights(cur).unwrap();
            if weights.is_empty() {
                return None;
            }
            let neighbors = graph.neighbors(cur);
            let mut total = 0.0f64;
            let mut chosen: Option<u32> = None;
            let mut probes = 0u32;
            for (i, (&w, &x)) in weights.iter().zip(neighbors).enumerate() {
                let bias = match prev {
                    None => 1.0,
                    Some(pv) if x == pv => 1.0 / p,
                    Some(pv) => {
                        let deg = graph.degree(pv).max(1);
                        probes += (32 - (deg - 1).leading_zeros().min(31)).max(1);
                        if graph.has_edge(pv, x) {
                            1.0
                        } else {
                            1.0 / q
                        }
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

        fn biased_row(
            graph: &CsrGraph,
            cur: VertexId,
            prev: VertexId,
            p: f64,
            q: f64,
            use_weights: bool,
        ) -> Option<Box<[AliasSlot]>> {
            let neighbors = graph.neighbors(cur);
            let weights = if use_weights {
                graph.neighbor_weights(cur)
            } else {
                None
            };
            let prev_neighbors = graph.neighbors(prev);
            let mut j = 0usize;
            let mut row: Vec<f32> = Vec::with_capacity(neighbors.len());
            for (i, &x) in neighbors.iter().enumerate() {
                while j < prev_neighbors.len() && prev_neighbors[j] < x {
                    j += 1;
                }
                let bias = if x == prev {
                    1.0 / p
                } else if j < prev_neighbors.len() && prev_neighbors[j] == x {
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

        /// The uncached second-order alias kernel over the merge row.
        pub fn second_order_alias<G: RandomSource>(
            graph: &CsrGraph,
            cur: VertexId,
            prev: Option<VertexId>,
            p: f64,
            q: f64,
            use_weights: bool,
            rng: &mut G,
        ) -> Option<SampleOutcome> {
            let degree = graph.degree(cur);
            if degree == 0 {
                return None;
            }
            let Some(prev) = prev else {
                return match graph.neighbor_weights(cur) {
                    Some(ws) if use_weights => weighted_reservoir(ws, rng),
                    _ => uniform_sample(degree, rng),
                };
            };
            let slot = rng.next_below(u64::from(degree)) as usize;
            let coin = rng.next_f64() as f32;
            let row = biased_row(graph, cur, prev, p, q, use_weights)?;
            let s = row[slot];
            Some(SampleOutcome {
                local_index: if coin < s.prob { slot as u32 } else { s.alt },
                uniform_trials: 1,
                alias_reads: 1,
                scanned: degree + graph.degree(prev),
                membership_probes: 0,
                method: SampleMethod::SecondOrderAlias,
                cache_hits: 0,
                alias_builds: 1,
            })
        }
    }

    /// A seeded random directed graph with self-loops, vertices of out-
    /// degree 0 (dead ends, and previous vertices with an empty list),
    /// and zero and negative weights among the positive ones.
    fn random_weighted_graph(seed: u64) -> CsrGraph {
        let mut rng = SplitMix64::new(seed);
        let n = 6 + rng.next_below(27) as u32;
        let mut b = GraphBuilder::new(n as usize);
        b.directed(true).keep_self_loops(true);
        for _ in 0..rng.next_below(u64::from(5 * n)) {
            // The last two vertices get no out-edges.
            let u = rng.next_below(u64::from(n - 2)) as u32;
            b.add_edge(u, rng.next_below(u64::from(n)) as u32);
        }
        b.build().with_weights(|_, _, _| match rng.next_below(8) {
            0 => 0.0,
            1 => -(rng.next_f64() as f32),
            _ => (0.1 + 4.0 * rng.next_f64()) as f32,
        })
    }

    #[test]
    fn marked_kernels_match_the_binary_search_and_merge_oracles() {
        // One runtime across every graph and call: stale marks from any
        // earlier call must never leak into a later one.
        let mut rt = SamplerRuntime::disabled();
        let pq = [(2.0, 0.5), (0.25, 4.0), (1.0, 1.0)];
        let mut order = SplitMix64::new(99);
        let mut calls = 0u32;
        for seed in 0..40u64 {
            let g = random_weighted_graph(seed);
            let n = g.vertex_count() as VertexId;
            let mut pairs: Vec<(VertexId, Option<VertexId>)> = (0..n)
                .flat_map(|cur| {
                    std::iter::once(None)
                        .chain((0..n).map(Some))
                        .map(move |prev| (cur, prev))
                })
                .collect();
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, order.next_below(i as u64 + 1) as usize);
            }
            for (k, &(cur, prev)) in pairs.iter().enumerate() {
                let (p, q) = pq[k % pq.len()];
                let ctx = format!("seed {seed}: cur {cur}, prev {prev:?}, p {p}, q {q}");
                let mut want_rng = SplitMix64::new(seed << 32 | k as u64);
                let mut got_rng = want_rng;
                let want = oracle::node2vec_reservoir(&g, cur, prev, p, q, &mut want_rng);
                let got = node2vec_reservoir(&g, cur, prev, p, q, &mut rt, &mut got_rng);
                assert_eq!(got, want, "reservoir, {ctx}");
                assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "reservoir, {ctx}");
                for use_weights in [false, true] {
                    let want =
                        oracle::second_order_alias(&g, cur, prev, p, q, use_weights, &mut want_rng);
                    let got =
                        second_order_alias(&g, cur, prev, p, q, use_weights, &mut rt, &mut got_rng);
                    assert_eq!(got, want, "alias (weights {use_weights}), {ctx}");
                    assert_eq!(
                        got_rng.next_u64(),
                        want_rng.next_u64(),
                        "alias (weights {use_weights}), {ctx}"
                    );
                }
                calls += 1;
            }
        }
        assert!(calls > 10_000, "{calls} calls");
    }

    #[test]
    fn direct_outcome_is_minimal() {
        let o = SampleOutcome::direct(3);
        assert_eq!(o.local_index, 3);
        assert_eq!(o.uniform_trials, 1);
        assert_eq!(o.random_reads(), 0);
        assert_eq!(o.scanned, 0);
        assert_eq!(o.method, SampleMethod::Uniform);
        assert_eq!(o.cache_hits + o.alias_builds, 0);
    }

    #[test]
    fn random_reads_sums_probe_like_costs() {
        let o = SampleOutcome {
            local_index: 0,
            uniform_trials: 2,
            alias_reads: 2,
            scanned: 8,
            membership_probes: 5,
            method: SampleMethod::Rejection,
            cache_hits: 0,
            alias_builds: 0,
        };
        assert_eq!(o.random_reads(), 7);
    }

    #[test]
    fn method_names_are_stable() {
        assert_eq!(SampleMethod::Uniform.name(), "uniform");
        assert_eq!(SampleMethod::SecondOrderAlias.name(), "second_order_alias");
    }
}
