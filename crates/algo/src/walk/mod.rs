//! The software walk executor: the functional reference for every
//! accelerator.
//!
//! Execution is organised around the streaming [`WalkBackend`] trait
//! (submit / poll / drain with backpressure); [`run_streamed`] runs a
//! whole batch through any backend and returns its paths in query order.
//! [`ReferenceBackend`] runs one kernel, the cohort-interleaved
//! `walk_batch`, on one or more workers: many walkers in flight, each
//! one's next CSR read prefetched, paths returned in submission order and
//! identical to executing Algorithm II.1 of the paper one query at a time.

pub mod backend;

pub use backend::{
    run_streamed, BackendClass, BackendTelemetry, BatchFnBackend, ReferenceBackend, WalkBackend,
};

use crate::strategy::SamplerRuntime;
use crate::{PreparedGraph, WalkPath, WalkQuery, WalkSpec};
use grw_graph::VertexId;
use grw_rng::WalkKey;

/// Walkers the cohort kernel keeps in flight: enough independent reads
/// outstanding to cover a DRAM miss, few enough that every walker's state
/// stays in L1. A hop takes two passes, so 32 walkers keep ~16 hops'
/// reads in flight; out of cache 32 beat 16, in cache they tie.
const COHORT_WIDTH: usize = 32;

/// Executes `queries` to completion and returns one path per query, in
/// query order — the inner loop of every [`ReferenceBackend`] worker.
///
/// This is ThunderRW's step interleaving: up to [`COHORT_WIDTH`] walkers
/// are in flight, and each pass over the cohort moves every walker one
/// half-step. A walker that holds a chosen column position reads the
/// neighbor there (prefetched on its previous pass), moves to it and
/// prefetches that vertex's row pointer. Otherwise it decides its next
/// column position (reading the row pointer prefetched on its previous
/// pass) and prefetches it. The cohort thus always has independent memory
/// reads outstanding instead of stalling on one walk's dependent
/// row-pointer and column reads. A finished walker's place refills from
/// the next query.
///
/// Every walker draws hop `h` from its [`WalkKey`]'s stream for `h`, a
/// function of `(seed, id, h)` alone, so each path is exactly the one
/// executing the queries one at a time would give — and the one every
/// other executor gives. `rt` is the executing worker's sampler runtime:
/// it never influences a path, only where second-order rows come from and
/// what gets counted. When it holds an edge cache, whose hits and evictions
/// depend on step order, the cohort is one walker wide and the queries
/// run one at a time, in order.
pub(crate) fn walk_batch(
    prepared: &PreparedGraph,
    rt: &mut SamplerRuntime,
    spec: &WalkSpec,
    seed: u64,
    queries: &[WalkQuery],
) -> Vec<WalkPath> {
    let width = if rt.cache().is_some() {
        1
    } else {
        COHORT_WIDTH
    };
    let graph = prepared.graph();
    let (row_ptr, col) = (graph.row_pointers(), graph.column_list());
    let start = |(slot, q): (usize, &WalkQuery)| Walker::new(slot, q, seed, spec.max_len());
    // Every slot receives its finished path before this returns.
    let mut out: Vec<WalkPath> = queries
        .iter()
        .map(|q| WalkPath {
            query: q.id,
            vertices: Vec::new(),
        })
        .collect();
    let mut waiting = queries.iter().enumerate();
    let mut cohort: Vec<Walker> = waiting.by_ref().take(width).map(start).collect();
    while !cohort.is_empty() {
        let mut i = 0;
        while i < cohort.len() {
            let w = &mut cohort[i];
            if let Some(position) = w.pending.take() {
                let next = col[position];
                w.advance(next);
                prefetch(&row_ptr[next as usize]);
                i += 1;
                continue;
            }
            match prepared.step_position_with(rt, spec, w.cur, w.prev, w.hop, w.key) {
                Ok((position, _)) => {
                    prefetch(&col[position]);
                    w.pending = Some(position);
                    i += 1;
                }
                Err(_) => {
                    out[w.slot].vertices = std::mem::take(&mut w.vertices);
                    // The refilled walker, or the one swapped into place,
                    // takes its turn at `i` on this same pass.
                    match waiting.next() {
                        Some(next) => *w = start(next),
                        None => {
                            cohort.swap_remove(i);
                        }
                    }
                }
            }
        }
    }
    out
}

/// One in-flight walk of [`walk_batch`]'s cohort.
struct Walker {
    /// The query's index in the batch, i.e. its output slot.
    slot: usize,
    /// The current vertex: the last of `vertices`.
    cur: VertexId,
    /// The vertex before `cur`, if any.
    prev: Option<VertexId>,
    /// Hops taken: `vertices.len() - 1`.
    hop: u32,
    /// Column position of the neighbor chosen (and prefetched) on the
    /// previous pass, read on the next.
    pending: Option<usize>,
    key: WalkKey,
    /// The path so far, starting with the query's start vertex.
    vertices: Vec<VertexId>,
}

impl Walker {
    fn new(slot: usize, query: &WalkQuery, seed: u64, max_len: u32) -> Self {
        let mut vertices = Vec::with_capacity(max_len as usize + 1);
        vertices.push(query.start);
        Self {
            slot,
            cur: query.start,
            prev: None,
            hop: 0,
            pending: None,
            key: WalkKey::new(seed, query.id),
            vertices,
        }
    }

    fn advance(&mut self, next: VertexId) {
        self.vertices.push(next);
        self.prev = Some(self.cur);
        self.cur = next;
        self.hop += 1;
    }
}

/// Asks the CPU to pull the cache line holding `*r` into L1 ahead of its
/// use. A no-op off x86-64.
#[inline(always)]
fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is only a hint: it reads no data into the program
    // and never faults, whatever the address. The pointer comes from a
    // live, in-bounds reference anyway.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((r as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Node2VecMethod, QuerySet, SamplerConfig, StepDecision};
    use grw_graph::generators::{Dataset, ScaleFactor};
    use grw_graph::{weights, CsrGraph};
    use grw_rng::{RandomSource, SplitMix64};
    use grw_sim::stats::SamplingCounters;

    const SEED: u64 = 17;

    /// The oracle: each query walked to completion, in submission order,
    /// through the public step API.
    fn sequential(
        prepared: &PreparedGraph,
        rt: &mut SamplerRuntime,
        spec: &WalkSpec,
        queries: &[WalkQuery],
    ) -> Vec<WalkPath> {
        queries
            .iter()
            .map(|q| {
                let key = WalkKey::new(SEED, q.id);
                let mut vertices = vec![q.start];
                let (mut cur, mut prev, mut hop) = (q.start, None, 0);
                while let StepDecision::Advance { next, .. } =
                    prepared.next_step_with(rt, spec, cur, prev, hop, key)
                {
                    vertices.push(next);
                    (prev, cur, hop) = (Some(cur), next, hop + 1);
                }
                WalkPath::new(q.id, vertices)
            })
            .collect()
    }

    /// Every path a backend emits, in emission order: submit whatever it
    /// accepts, poll when it refuses, then poll to empty.
    fn stream(b: &mut impl WalkBackend, queries: &[WalkQuery]) -> Vec<WalkPath> {
        let mut out = Vec::new();
        let mut rest = queries;
        while !rest.is_empty() {
            let taken = b.submit(rest);
            rest = &rest[taken..];
            if taken == 0 {
                out.extend(b.poll());
            }
        }
        while b.in_flight() > 0 {
            out.extend(b.poll());
        }
        out
    }

    /// Weighted, 3-typed graphs for every spec: the Tiny Skitter stand-in,
    /// and a chain `0 -> 1 -> 2 -> 3` that dead-ends.
    fn graphs() -> [CsrGraph; 2] {
        let chain = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], true)
            .with_weights(|_, _, _| 1.0)
            .with_vertex_types(weights::round_robin_types(3));
        [
            Dataset::AsSkitter.generate_typed(ScaleFactor::Tiny, 3),
            chain,
        ]
    }

    fn specs(max_len: u32) -> [WalkSpec; 6] {
        [
            WalkSpec::urw(max_len),
            WalkSpec::ppr(max_len),
            WalkSpec::deepwalk(max_len),
            WalkSpec::node2vec(max_len, Node2VecMethod::Rejection),
            WalkSpec::node2vec(max_len, Node2VecMethod::Reservoir),
            WalkSpec::MetaPath {
                pattern: vec![0, 1, 2],
                max_len,
            },
        ]
    }

    /// Random starts; each id is used three times, with different starts.
    fn queries(vertex_count: usize) -> Vec<WalkQuery> {
        let mut rng = SplitMix64::new(5);
        (0..150)
            .map(|i| WalkQuery {
                id: i % 50,
                start: rng.next_below(vertex_count as u64) as u32,
            })
            .collect()
    }

    /// The backend emits exactly the oracle's paths, in submission order,
    /// and counts exactly the oracle's sampling work — edge-cache hits and
    /// evictions included — for every spec, sampler mode, walk length,
    /// chunking and worker count.
    #[test]
    fn backends_match_the_sequential_oracle_path_for_path_and_count_for_count() {
        let mut cache = SamplingCounters::default();
        for graph in graphs() {
            let qs = queries(graph.vertex_count());
            for max_len in [0, 1, 80] {
                for spec in specs(max_len) {
                    for config in [SamplerConfig::legacy(), SamplerConfig::auto()] {
                        // Small enough that the cached second-order rows
                        // of `auto` evict one another.
                        let config = config.cache_budget_bytes(16 << 10).segments(1);
                        let p = PreparedGraph::with_sampler(graph.clone(), &spec, config)
                            .expect("the graphs carry weights and types");
                        let case = format!("{} {max_len} {:?}", spec.name(), config.mode());

                        let mut rt = p.runtime();
                        let expected = sequential(&p, &mut rt, &spec, &qs);
                        let expected_counters = rt.counters();
                        cache.merge(&expected_counters);
                        for chunk in [1, 3, 256] {
                            let mut b = ReferenceBackend::new(&p, spec.clone(), SEED)
                                .queue_capacity(5)
                                .poll_chunk(chunk);
                            assert_eq!(stream(&mut b, &qs), expected, "{case} chunk={chunk}");
                            let t = b.telemetry();
                            assert_eq!(t.sampling, expected_counters, "{case} chunk={chunk}");
                            let steps: u64 = expected.iter().map(WalkPath::steps).sum();
                            assert_eq!(t.steps, steps, "{case} chunk={chunk}");
                        }

                        // A poll splits its threads * per_thread queries
                        // across the workers, `div_ceil(n, threads)` each,
                        // in order.
                        let per_thread = 7;
                        for threads in [1, 2, 3] {
                            let mut rts: Vec<SamplerRuntime> =
                                (0..threads).map(|_| p.runtime()).collect();
                            let mut expected = Vec::new();
                            for batch in qs.chunks(threads * per_thread) {
                                let parts = batch.chunks(batch.len().div_ceil(threads));
                                for (part, rt) in parts.zip(&mut rts) {
                                    expected.extend(sequential(&p, rt, &spec, part));
                                }
                            }
                            let mut expected_counters = SamplingCounters::default();
                            for rt in &rts {
                                expected_counters.merge(&rt.counters());
                            }
                            let mut b = ReferenceBackend::new(&p, spec.clone(), SEED)
                                .threads(threads)
                                .poll_chunk(threads * per_thread);
                            assert_eq!(stream(&mut b, &qs), expected, "{case} threads={threads}");
                            assert_eq!(
                                b.telemetry().sampling,
                                expected_counters,
                                "{case} threads={threads}"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            cache.cache_hits > 0 && cache.cache_evictions > 0,
            "the edge cache must both hit and evict somewhere: {cache:?}"
        );
    }

    /// Every path of a one-worker backend with default bounds.
    pub(super) fn run(
        p: &PreparedGraph,
        spec: &WalkSpec,
        seed: u64,
        queries: &[WalkQuery],
    ) -> Vec<WalkPath> {
        run_streamed(&mut ReferenceBackend::new(p, spec.clone(), seed), queries)
    }

    fn ring(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        CsrGraph::from_edges(n, &edges, true)
    }

    #[test]
    fn urw_walks_have_exact_length_on_dead_end_free_graphs() {
        let spec = WalkSpec::urw(7);
        let p = PreparedGraph::new(ring(5), &spec).unwrap();
        let qs = QuerySet::random(5, 20, 3);
        let paths = run(&p, &spec, 0, qs.queries());
        assert!(paths.iter().all(|w| w.steps() == 7));
    }

    #[test]
    fn paths_only_use_real_edges() {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(20);
        let qs = QuerySet::random(g.vertex_count(), 50, 7);
        let p = PreparedGraph::new(g, &spec).unwrap();
        for w in &run(&p, &spec, 1, qs.queries()) {
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
    fn backend_is_deterministic() {
        let g = Dataset::CitPatents.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::ppr(30);
        let qs = QuerySet::random(g.vertex_count(), 30, 9);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let a = run(&p, &spec, 5, qs.queries());
        assert_eq!(a, run(&p, &spec, 5, qs.queries()));
        assert_ne!(a, run(&p, &spec, 6, qs.queries()));
    }

    #[test]
    fn multi_worker_runs_match_one_worker_exactly() {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(12);
        let qs = QuerySet::random(g.vertex_count(), 64, 5);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let one = run(&p, &spec, 77, qs.queries());
        for threads in [1, 2, 4, 7] {
            let mut b = ReferenceBackend::new(&p, spec.clone(), 77).threads(threads);
            assert_eq!(
                one,
                run_streamed(&mut b, qs.queries()),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn ppr_lengths_are_geometric() {
        let spec = WalkSpec::Ppr {
            alpha: 0.2,
            max_len: 10_000,
        };
        let p = PreparedGraph::new(ring(8), &spec).unwrap();
        let qs = QuerySet::random(8, 4_000, 11);
        let paths = run(&p, &spec, 2, qs.queries());
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
        for w in &run(&p, &spec, 3, qs.queries()) {
            assert_eq!(w.vertices, vec![0, 1, 2]);
        }
    }

    #[test]
    fn every_spec_runs_end_to_end() {
        let g = Dataset::AsSkitter.generate_typed(ScaleFactor::Tiny, 3);
        for spec in specs(10) {
            let p = PreparedGraph::new(g.clone(), &spec).unwrap();
            let qs = QuerySet::random(g.vertex_count(), 20, 1);
            let paths = run(&p, &spec, 0, qs.queries());
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
        for w in &run(&p, &spec, 4, qs.queries()) {
            for pair in w.vertices.windows(2) {
                assert!(p.graph().has_edge(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn empty_query_set_is_fine() {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(4);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let mut b = ReferenceBackend::new(&p, spec, 0).threads(4);
        assert!(run_streamed(&mut b, &[]).is_empty());
        assert!(b.poll().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (1, 0)], true);
        let spec = WalkSpec::urw(4);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let _ = ReferenceBackend::new(&p, spec, 0).threads(0);
    }
}
