//! The streaming execution API: incremental submit/poll/drain backends.
//!
//! The paper's core claim is that RidgeWalker keeps its pipelines full by
//! streaming tasks hop-by-hop instead of running bulk-synchronous batches.
//! [`WalkBackend`] exposes that property to software: callers *submit*
//! queries as they arrive (with backpressure via [`WalkBackend::submit`]'s
//! accepted count and [`WalkBackend::capacity_hint`]), *poll* for whatever
//! has completed, and *drain* when the stream ends. Batch execution —
//! [`run_streamed`] — is the degenerate case: submit everything, then
//! drain.
//!
//! Backends bind an executor to a prepared graph and a walk spec. They are
//! generic over how the graph is owned ([`Borrow`]): bulk callers borrow
//! their graph (`&PreparedGraph`), while long-lived serving layers (the
//! `grw_service` crate) share one graph across shards via
//! `Arc<PreparedGraph>`.

use super::walk_batch;
use crate::strategy::SamplerRuntime;
use crate::{PreparedGraph, WalkPath, WalkQuery, WalkSpec};
use grw_graph::VertexId;
use grw_sim::stats::{SamplingCounters, UtilizationMeter};
use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};

/// Default bound on queries a software backend holds before pushing back.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4_096;

/// The execution substrate a backend runs on — the coarse placement
/// signal a routing tier keys on when a fleet mixes accelerator and CPU
/// shards behind one service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum BackendClass {
    /// A software executor on host CPU threads.
    #[default]
    Cpu,
    /// A (simulated) accelerator device with its own cycle clock.
    Accelerator,
}

impl BackendClass {
    /// Every class, in a stable order (report / iteration helper).
    pub fn all() -> [BackendClass; 2] {
        [BackendClass::Cpu, BackendClass::Accelerator]
    }

    /// Lowercase name as recorded in bench JSON and reports.
    pub fn name(&self) -> &'static str {
        match self {
            BackendClass::Cpu => "cpu",
            BackendClass::Accelerator => "accelerator",
        }
    }
}

impl std::fmt::Display for BackendClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cumulative execution counters a backend may expose.
///
/// `steps` is always maintained (it is what the paper's MStep/s metric
/// counts); simulated backends additionally report their cycle clock so a
/// serving layer can convert to simulated time instead of wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendTelemetry {
    /// Hops executed since the backend was created.
    pub steps: u64,
    /// Simulated cycles consumed, for cycle-level backends.
    pub cycles: Option<u64>,
    /// Clock of the simulated platform in MHz, when `cycles` is reported.
    pub clock_mhz: Option<f64>,
    /// Pipeline-cycle occupancy breakdown (busy / bubble / drained) for
    /// cycle-level backends; serving layers merge these by raw counts.
    pub pipeline: Option<UtilizationMeter>,
    /// Residency split `(awaiting injection, executing)` for backends with
    /// an internal admission queue (the accelerator machine's occupancy):
    /// the two terms sum to [`WalkBackend::in_flight`]. Routing tiers use
    /// the awaiting term as the admission-backlog signal.
    pub occupancy_split: Option<(usize, usize)>,
    /// Sampling-kernel counters (rejection trials, alias builds, edge-cache
    /// hits/evictions) accumulated by the backend's sampler runtimes.
    pub sampling: SamplingCounters,
}

/// An incremental walk executor: queries stream in, paths stream out.
///
/// The contract:
///
/// * [`submit`](Self::submit) accepts a *prefix* of the offered queries and
///   returns its length; `0` means the backend is at capacity and the
///   caller must [`poll`](Self::poll) before retrying.
/// * [`poll`](Self::poll) makes progress on accepted work and returns every
///   path completed so far (possibly none). It never blocks on new input.
/// * [`drain`](Self::drain) runs all accepted work to completion and
///   returns the remaining paths; afterwards
///   [`in_flight`](Self::in_flight) is `0`.
/// * Paths carry the ids of the queries that produced them; completion
///   order is unspecified. Determinism: the path returned for a query
///   depends only on the backend's seed and the query — hop `h` draws from
///   [`grw_rng::WalkKey`]'s stream for `(seed, id, h)` on every backend in
///   this workspace — never on batching, placement or wall-clock timing.
///
/// # Thread placement
///
/// The trait deliberately has no `Send` supertrait: a backend is
/// single-owner mutable state (`&mut self` everywhere), and a purely
/// local engine — one holding `Rc` graph views, say — is a legitimate
/// implementation. Serving layers that *move* backends onto worker
/// threads (the threads executor of `grw_service::Driver`) demand
/// `B: Send` at their own boundary instead, which every engine in this
/// workspace satisfies: the shared graph travels as `Arc<PreparedGraph>`
/// and all RNG/sampler state is owned per backend (asserted in this
/// module's tests).
pub trait WalkBackend {
    /// Offers queries; accepts a prefix and returns how many were taken.
    fn submit(&mut self, queries: &[WalkQuery]) -> usize;

    /// Advances accepted work and returns completed paths.
    fn poll(&mut self) -> Vec<WalkPath>;

    /// Completes all accepted work and returns the remaining paths.
    fn drain(&mut self) -> Vec<WalkPath>;

    /// How many more queries `submit` would accept right now.
    fn capacity_hint(&self) -> usize;

    /// Queries accepted but not yet returned as paths.
    fn in_flight(&self) -> usize;

    /// Cumulative counters (steps, simulated cycles where applicable).
    fn telemetry(&self) -> BackendTelemetry {
        BackendTelemetry::default()
    }

    /// The execution substrate this backend runs on. Routing tiers use it
    /// to place tenants across mixed accelerator/CPU fleets; the default
    /// is [`BackendClass::Cpu`] (software executors).
    fn backend_class(&self) -> BackendClass {
        BackendClass::Cpu
    }

    /// Static relative cost hint: the approximate cost of serving one
    /// query on this backend, lower is cheaper. The hint is a *prior* —
    /// a placement policy should prefer live signals (occupancy, EWMA
    /// latency, calibrated saturation) where available and fall back to
    /// this when a shard has no history yet. Default `1.0`.
    fn cost_hint(&self) -> f64 {
        1.0
    }
}

/// Boxed backends are backends: lets a serving layer pick the shard
/// implementation at runtime (`Box<dyn WalkBackend + Send>`) while the
/// rest of the stack stays generic over `B: WalkBackend`.
impl<B: WalkBackend + ?Sized> WalkBackend for Box<B> {
    fn submit(&mut self, queries: &[WalkQuery]) -> usize {
        (**self).submit(queries)
    }

    fn poll(&mut self) -> Vec<WalkPath> {
        (**self).poll()
    }

    fn drain(&mut self) -> Vec<WalkPath> {
        (**self).drain()
    }

    fn capacity_hint(&self) -> usize {
        (**self).capacity_hint()
    }

    fn in_flight(&self) -> usize {
        (**self).in_flight()
    }

    fn telemetry(&self) -> BackendTelemetry {
        (**self).telemetry()
    }

    fn backend_class(&self) -> BackendClass {
        (**self).backend_class()
    }

    fn cost_hint(&self) -> f64 {
        (**self).cost_hint()
    }
}

/// Mutable references delegate too, so helpers like [`run_streamed`] can
/// drive a backend the caller keeps owning.
impl<B: WalkBackend + ?Sized> WalkBackend for &mut B {
    fn submit(&mut self, queries: &[WalkQuery]) -> usize {
        (**self).submit(queries)
    }

    fn poll(&mut self) -> Vec<WalkPath> {
        (**self).poll()
    }

    fn drain(&mut self) -> Vec<WalkPath> {
        (**self).drain()
    }

    fn capacity_hint(&self) -> usize {
        (**self).capacity_hint()
    }

    fn in_flight(&self) -> usize {
        (**self).in_flight()
    }

    fn telemetry(&self) -> BackendTelemetry {
        (**self).telemetry()
    }

    fn backend_class(&self) -> BackendClass {
        (**self).backend_class()
    }

    fn cost_hint(&self) -> f64 {
        (**self).cost_hint()
    }
}

/// Streams `queries` through `backend` and returns one path per query, in
/// query order — the bulk-synchronous way to run a backend.
///
/// Respects backpressure: refused queries are retried after a poll, so a
/// bounded backend still absorbs arbitrarily large batches.
///
/// # Panics
///
/// Panics if the backend loses or duplicates a query (a backend bug).
pub fn run_streamed<B: WalkBackend + ?Sized>(
    backend: &mut B,
    queries: &[WalkQuery],
) -> Vec<WalkPath> {
    let mut collected: Vec<WalkPath> = Vec::with_capacity(queries.len());
    let mut offset = 0;
    while offset < queries.len() {
        let accepted = backend.submit(&queries[offset..]);
        offset += accepted;
        if accepted == 0 {
            // At capacity: make room by letting the backend work.
            let out = backend.poll();
            assert!(
                !out.is_empty() || backend.capacity_hint() > 0,
                "backend refused input but made no progress"
            );
            collected.extend(out);
        }
    }
    collected.extend(backend.drain());
    reorder(collected, queries)
}

/// Orders completed paths to match the submission order of `queries`.
/// A path is matched to its query by (id, start vertex). Queries equal in
/// both walk the same path on every backend, since walks are keyed by
/// `(seed, id)`, so the order in which such queries complete does not
/// matter.
fn reorder(paths: Vec<WalkPath>, queries: &[WalkQuery]) -> Vec<WalkPath> {
    assert_eq!(
        paths.len(),
        queries.len(),
        "backend must answer every query exactly once"
    );
    let mut positions: HashMap<(u64, VertexId), VecDeque<usize>> = HashMap::new();
    for (i, q) in queries.iter().enumerate() {
        positions.entry((q.id, q.start)).or_default().push_back(i);
    }
    let mut slots: Vec<Option<WalkPath>> = (0..queries.len()).map(|_| None).collect();
    for path in paths {
        let pos = positions
            .get_mut(&(path.query, path.vertices[0]))
            .and_then(|v| v.pop_front())
            .expect("backend returned a path for an unsubmitted query");
        slots[pos] = Some(path);
    }
    slots
        .into_iter()
        .map(|p| p.expect("every slot filled"))
        .collect()
}

/// The software walk executor: queries queue up, and each poll walks the
/// next [`ReferenceBackend::poll_chunk`] of them through the cohort kernel
/// (walkers interleaved, CSR reads prefetched) and returns their paths in
/// submission order.
///
/// With [`ReferenceBackend::threads`] above one, a poll splits its queries
/// into one contiguous part per worker, walks part 0 on the calling thread
/// and the rest on scoped threads. Every query draws from an RNG stream
/// keyed by `(seed, id)`, so its path does not depend on the thread count,
/// the chunking or which worker walks it.
///
/// # Example
///
/// ```
/// use grw_algo::{run_streamed, PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};
/// use grw_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)], true);
/// let spec = WalkSpec::urw(5);
/// let p = PreparedGraph::new(g, &spec).unwrap();
/// let qs = QuerySet::random(3, 8, 0);
/// let one = run_streamed(&mut ReferenceBackend::new(&p, spec.clone(), 1), qs.queries());
/// let two = run_streamed(&mut ReferenceBackend::new(&p, spec, 1).threads(2), qs.queries());
/// assert!(one.iter().all(|w| w.steps() == 5));
/// assert_eq!(one, two);
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceBackend<P> {
    prepared: P,
    spec: WalkSpec,
    seed: u64,
    pending: VecDeque<WalkQuery>,
    queue_cap: usize,
    poll_chunk: usize,
    steps: u64,
    /// One sampler runtime per worker, worker 0 being the calling thread —
    /// caches are per worker by design, so threads never contend on
    /// sampler state.
    runtimes: Vec<SamplerRuntime>,
}

impl<P: Borrow<PreparedGraph>> ReferenceBackend<P> {
    /// Creates a one-worker backend bound to a prepared graph and spec.
    pub fn new(prepared: P, spec: WalkSpec, seed: u64) -> Self {
        let runtimes = vec![prepared.borrow().runtime()];
        Self {
            prepared,
            spec,
            seed,
            pending: VecDeque::new(),
            queue_cap: DEFAULT_QUEUE_CAPACITY,
            poll_chunk: 256,
            steps: 0,
            runtimes,
        }
    }

    /// Sets the worker count: the calling thread plus `threads - 1` scoped
    /// threads per poll. Worker 0 keeps the runtime built by
    /// [`ReferenceBackend::new`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        let prepared = self.prepared.borrow();
        self.runtimes.resize_with(threads, || prepared.runtime());
        self
    }

    /// Bounds the pending-query queue (backpressure point).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        self.queue_cap = cap;
        self
    }

    /// Sets how many queries one `poll` executes, across all workers.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn poll_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "poll chunk must be positive");
        self.poll_chunk = chunk;
        self
    }

    /// Executes up to `limit` pending queries, `div_ceil(n, threads)` per
    /// worker, and returns their paths in submission order.
    fn execute_some(&mut self, limit: usize) -> Vec<WalkPath> {
        let n = limit.min(self.pending.len());
        if n == 0 {
            return Vec::new();
        }
        let batch = &self.pending.make_contiguous()[..n];
        let prepared = self.prepared.borrow();
        let (spec, seed) = (&self.spec, self.seed);
        let out = match &mut self.runtimes[..] {
            // One worker: the kernel runs on the calling thread, no scope.
            [rt] => walk_batch(prepared, rt, spec, seed, batch),
            runtimes => {
                let chunk = n.div_ceil(runtimes.len());
                let mut parts = batch.chunks(chunk).zip(runtimes);
                // The caller walks part 0 itself instead of idling in `join`.
                let (first, first_rt) = parts.next().expect("a non-empty batch has a part");
                std::thread::scope(|scope| {
                    let handles: Vec<_> = parts
                        .map(|(part, rt)| {
                            scope.spawn(move || walk_batch(prepared, rt, spec, seed, part))
                        })
                        .collect();
                    let mut out = walk_batch(prepared, first_rt, spec, seed, first);
                    for h in handles {
                        out.extend(h.join().expect("walk worker panicked"));
                    }
                    out
                })
            }
        };
        self.pending.drain(..n);
        self.steps += out.iter().map(WalkPath::steps).sum::<u64>();
        out
    }
}

impl<P: Borrow<PreparedGraph>> WalkBackend for ReferenceBackend<P> {
    fn submit(&mut self, queries: &[WalkQuery]) -> usize {
        let room = self.queue_cap.saturating_sub(self.pending.len());
        let n = room.min(queries.len());
        self.pending.extend(queries[..n].iter().copied());
        n
    }

    fn poll(&mut self) -> Vec<WalkPath> {
        self.execute_some(self.poll_chunk)
    }

    fn drain(&mut self) -> Vec<WalkPath> {
        self.execute_some(usize::MAX)
    }

    fn capacity_hint(&self) -> usize {
        self.queue_cap.saturating_sub(self.pending.len())
    }

    fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn telemetry(&self) -> BackendTelemetry {
        let mut sampling = SamplingCounters::default();
        for rt in &self.runtimes {
            sampling.merge(&rt.counters());
        }
        BackendTelemetry {
            steps: self.steps,
            sampling,
            ..BackendTelemetry::default()
        }
    }

    fn cost_hint(&self) -> f64 {
        // The prepared graph's strategy table sets the per-step sampling
        // cost (exactly 1.0 under the legacy kernels); N workers serve a
        // poll ~N× faster.
        self.prepared.borrow().sampler_cost_factor() / self.runtimes.len() as f64
    }
}

/// Adapts any batch function `&[WalkQuery] -> Vec<WalkPath>` to the
/// streaming interface — the bridge for executors whose native API is
/// bulk-synchronous (e.g. the gSampler GPU model, whose super-batching *is*
/// its performance signature).
pub struct BatchFnBackend<F> {
    f: F,
    pending: Vec<WalkQuery>,
    queue_cap: usize,
    steps: u64,
}

impl<F: FnMut(&[WalkQuery]) -> Vec<WalkPath>> BatchFnBackend<F> {
    /// Wraps a batch function.
    pub fn new(f: F) -> Self {
        Self {
            f,
            pending: Vec::new(),
            queue_cap: DEFAULT_QUEUE_CAPACITY,
            steps: 0,
        }
    }

    /// Bounds the pending-query buffer (one flush = one native batch).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        self.queue_cap = cap;
        self
    }

    fn flush(&mut self) -> Vec<WalkPath> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let out = (self.f)(&self.pending);
        self.pending.clear();
        self.steps += out.iter().map(WalkPath::steps).sum::<u64>();
        out
    }
}

impl<F: FnMut(&[WalkQuery]) -> Vec<WalkPath>> WalkBackend for BatchFnBackend<F> {
    fn submit(&mut self, queries: &[WalkQuery]) -> usize {
        let room = self.queue_cap.saturating_sub(self.pending.len());
        let n = room.min(queries.len());
        self.pending.extend_from_slice(&queries[..n]);
        n
    }

    fn poll(&mut self) -> Vec<WalkPath> {
        self.flush()
    }

    fn drain(&mut self) -> Vec<WalkPath> {
        self.flush()
    }

    fn capacity_hint(&self) -> usize {
        self.queue_cap.saturating_sub(self.pending.len())
    }

    fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn telemetry(&self) -> BackendTelemetry {
        BackendTelemetry {
            steps: self.steps,
            ..BackendTelemetry::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::tests::run;
    use crate::QuerySet;
    use grw_graph::generators::{Dataset, ScaleFactor};

    fn setup() -> (PreparedGraph, WalkSpec, QuerySet) {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(12);
        let qs = QuerySet::random(g.vertex_count(), 300, 11);
        (PreparedGraph::new(g, &spec).unwrap(), spec, qs)
    }

    /// The workspace engines must stay movable onto worker threads (the
    /// threaded serving driver's `B: Send` bound) — a compile-time
    /// assertion, so a future `Rc` or raw-pointer field fails here, not
    /// in a downstream crate.
    #[test]
    fn workspace_backends_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ReferenceBackend<std::sync::Arc<PreparedGraph>>>();
        assert_send::<Box<dyn WalkBackend + Send>>();
    }

    #[test]
    fn bounded_queue_matches_an_unbounded_run() {
        let (p, spec, qs) = setup();
        let unbounded = run(&p, &spec, 5, qs.queries());
        let mut b = ReferenceBackend::new(&p, spec.clone(), 5).queue_capacity(64);
        let streamed = run_streamed(&mut b, qs.queries());
        assert_eq!(unbounded, streamed);
        assert_eq!(b.in_flight(), 0);
        assert_eq!(
            b.telemetry().steps,
            unbounded.iter().map(WalkPath::steps).sum::<u64>()
        );
    }

    #[test]
    fn parallel_backend_is_bit_identical_across_chunkings() {
        let (p, spec, qs) = setup();
        let one = run(&p, &spec, 5, qs.queries());
        for (threads, chunk, cap) in [(1, 1, 7), (2, 128, 128), (4, 12, 4096), (7, 119, 33)] {
            let mut b = ReferenceBackend::new(&p, spec.clone(), 5)
                .threads(threads)
                .poll_chunk(chunk)
                .queue_capacity(cap);
            let streamed = run_streamed(&mut b, qs.queries());
            assert_eq!(one, streamed, "threads={threads} chunk={chunk} cap={cap}");
        }
    }

    #[test]
    fn incremental_submit_poll_interleaving_works() {
        let (p, spec, qs) = setup();
        let mut b = ReferenceBackend::new(&p, spec.clone(), 9)
            .threads(2)
            .queue_capacity(16);
        let mut got = Vec::new();
        let queries = qs.queries();
        let mut offset = 0;
        // Trickle queries in a few at a time, polling as we go.
        while offset < queries.len() {
            let end = (offset + 5).min(queries.len());
            let mut part = &queries[offset..end];
            while !part.is_empty() {
                let taken = b.submit(part);
                part = &part[taken..];
                if taken == 0 {
                    got.extend(b.poll());
                }
            }
            offset = end;
        }
        got.extend(b.drain());
        assert_eq!(got.len(), queries.len());
        let expected = run(&p, &spec, 9, queries);
        let mut got_sorted = got;
        got_sorted.sort_by_key(|w| w.query);
        assert_eq!(expected, got_sorted);
    }

    #[test]
    fn backpressure_is_real() {
        let (p, spec, qs) = setup();
        let mut b = ReferenceBackend::new(&p, spec, 1).queue_capacity(10);
        let accepted = b.submit(qs.queries());
        assert_eq!(accepted, 10, "queue capacity must bound acceptance");
        assert_eq!(b.capacity_hint(), 0);
        assert_eq!(b.submit(qs.queries()), 0);
        let out = b.poll();
        assert!(!out.is_empty());
        assert!(b.capacity_hint() > 0, "polling frees capacity");
    }

    #[test]
    fn batch_fn_backend_adapts_a_closure() {
        let (p, spec, qs) = setup();
        let mut b = BatchFnBackend::new(|queries: &[WalkQuery]| run(&p, &spec, 3, queries));
        let streamed = run_streamed(&mut b, qs.queries());
        assert_eq!(streamed, run(&p, &spec, 3, qs.queries()));
    }

    #[test]
    fn arc_ownership_works_for_long_lived_backends() {
        let (p, spec, qs) = setup();
        let shared = std::sync::Arc::new(p);
        let mut b = ReferenceBackend::new(shared.clone(), spec.clone(), 5).threads(2);
        let streamed = run_streamed(&mut b, qs.queries());
        assert_eq!(streamed, run(&shared, &spec, 5, qs.queries()));
    }

    #[test]
    fn boxed_and_borrowed_backends_delegate() {
        let (p, spec, qs) = setup();
        let expected = run(&p, &spec, 5, qs.queries());
        // Runtime-selected shard kind: a trait object behind a Box.
        let mut boxed: Box<dyn WalkBackend> =
            Box::new(ReferenceBackend::new(&p, spec.clone(), 5).queue_capacity(64));
        let streamed = run_streamed(&mut boxed, qs.queries());
        assert_eq!(expected, streamed);
        assert_eq!(boxed.in_flight(), 0);
        assert!(boxed.telemetry().steps > 0);
        assert!(boxed.telemetry().pipeline.is_none(), "software backend");
        // And a &mut to a concrete backend works the same way.
        let mut owned = ReferenceBackend::new(&p, spec.clone(), 5);
        let via_ref = run_streamed(&mut &mut owned, qs.queries());
        assert_eq!(expected, via_ref);
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn reorder_rejects_lost_queries() {
        let queries = [WalkQuery { id: 0, start: 0 }, WalkQuery { id: 1, start: 0 }];
        let _ = reorder(vec![WalkPath::new(0, vec![0])], &queries);
    }
}
