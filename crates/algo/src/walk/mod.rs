//! Software walk engines: the functional reference for every accelerator.
//!
//! Execution is organised around the streaming [`WalkBackend`] trait
//! (submit / poll / drain with backpressure); the batch [`WalkEngine`]
//! interface survives as a compatibility shim implemented via
//! [`run_streamed`] on each engine's backend. Both software backends run
//! one kernel, the cohort-interleaved `walk_batch`: many walkers in
//! flight, each one's next CSR read prefetched, paths returned in
//! submission order and identical to executing the queries one at a time.

pub mod backend;
mod parallel;
mod reference;

pub use backend::{
    run_streamed, BackendClass, BackendTelemetry, BatchFnBackend, ParallelBackend,
    ReferenceBackend, WalkBackend,
};
pub use parallel::ParallelEngine;
pub use reference::ReferenceEngine;

use crate::strategy::SamplerRuntime;
use crate::{PreparedGraph, WalkPath, WalkQuery, WalkSpec};
use grw_graph::VertexId;
use grw_rng::Xoshiro256StarStar;

/// Anything that can execute a batch of walk queries.
///
/// Implementations must produce paths whose *distribution* matches
/// Algorithm II.1 of the paper for the given spec; they are free to order
/// execution however they like (the Markov property guarantees the result
/// is exchangeable).
///
/// This is the legacy bulk interface: every implementation in this
/// workspace is a thin shim that opens a streaming [`WalkBackend`], feeds
/// it the whole batch via [`run_streamed`], and returns the reordered
/// result. New code that wants incremental submission, interleaving or
/// backpressure should use the backend directly.
pub trait WalkEngine {
    /// Executes all `queries` and returns one path per query, in query
    /// order.
    fn run(
        &mut self,
        prepared: &PreparedGraph,
        spec: &WalkSpec,
        queries: &[WalkQuery],
    ) -> Vec<WalkPath>;
}

/// Walkers the cohort kernel keeps in flight: enough independent reads
/// outstanding to cover a DRAM miss, few enough that every walker's state
/// stays in L1. A hop takes two passes, so 32 walkers keep ~16 hops'
/// reads in flight; out of cache 32 beat 16, in cache they tie.
const COHORT_WIDTH: usize = 32;

/// Executes `queries` to completion and returns one path per query, in
/// query order — the inner loop of both software backends.
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
/// Every walker draws from its own `(seed, id)` stream
/// ([`ReferenceEngine::query_rng`]), so each path is exactly the one
/// executing the queries one at a time would give. `rt` is the executing
/// worker's sampler runtime: it never influences a path, only where
/// second-order rows come from and what gets counted. When it holds an
/// edge cache, whose hits and evictions depend on step order, the cohort
/// is one walker wide and the queries run one at a time, in order.
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
            match prepared.step_position_with(rt, spec, w.cur, w.prev, w.hop, &mut w.rng) {
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
    rng: Xoshiro256StarStar,
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
            rng: ReferenceEngine::query_rng(seed, query.id),
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
    use crate::{
        Node2VecMethod, ParallelBackend, ReferenceBackend, SamplerConfig, StepDecision, WalkBackend,
    };
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
                let mut rng = ReferenceEngine::query_rng(SEED, q.id);
                let mut vertices = vec![q.start];
                let (mut cur, mut prev, mut hop) = (q.start, None, 0);
                while let StepDecision::Advance { next, .. } =
                    prepared.next_step_with(rt, spec, cur, prev, hop, &mut rng)
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

    /// Both software backends emit exactly the oracle's paths, in
    /// submission order, and count exactly the oracle's sampling work —
    /// edge-cache hits and evictions included — for every spec, sampler
    /// mode, walk length and chunking.
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

                        // A poll hands threads * chunk queries to the
                        // workers, `div_ceil(n, threads)` each, in order.
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
                            let mut b = ParallelBackend::new(&p, spec.clone(), SEED, threads)
                                .chunk_per_thread(per_thread);
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
}
