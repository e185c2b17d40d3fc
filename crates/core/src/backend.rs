//! The accelerator behind the streaming [`WalkBackend`] interface: one
//! persistent cycle-level [`Machine`] per backend.
//!
//! `submit` parks queries at the loader of the running machine, where they
//! are injected at the next issue slot with capacity; `poll` advances the
//! machine by at most [`AcceleratorConfig::poll_quantum`] cycles; `drain`
//! runs it until it holds no work. The quantum is the only poll policy:
//!
//! * a bounded quantum (the default, `512 · pipelines` cycles) lets later
//!   submissions join a pipeline that is still running, so under sustained
//!   load the pipeline never drains between micro-batches;
//! * an unbounded one (`u64::MAX`) runs every poll to quiescence, so each
//!   micro-batch pays pipeline fill at its head and drain at its tail, the
//!   batch-barrier cost of LightRW-style designs.
//!
//! Determinism: a query's randomness is keyed by the configured seed and
//! its id ([`grw_rng::WalkKey`]), so the path returned for a query is
//! bit-identical whatever the quantum, the submission order and however
//! submissions interleave with polls — and identical to `Accelerator::run`
//! and to a `grw_algo::ReferenceBackend` with the same seed. Only the
//! simulated timing depends on the schedule.
//!
//! [`AcceleratorConfig::poll_quantum`]: crate::AcceleratorConfig::poll_quantum

use crate::accelerator::{Accelerator, Machine};
use crate::report::RunReport;
use grw_algo::{BackendTelemetry, PreparedGraph, WalkBackend, WalkPath, WalkQuery, WalkSpec};
use std::borrow::Borrow;

/// Default bound on queries resident in the backend before it pushes back.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1 << 20;

/// A persistent cycle-level accelerator machine behind the streaming
/// [`WalkBackend`] interface.
///
/// The simulated clock is work-conserving: it only advances while the
/// machine holds work, so idle gaps between submissions consume no
/// simulated time (an idle machine is not charged bubbles for having no
/// demand).
///
/// # Example
///
/// ```
/// use grw_algo::{PreparedGraph, QuerySet, WalkBackend, WalkSpec};
/// use grw_graph::CsrGraph;
/// use ridgewalker::{Accelerator, AcceleratorConfig};
///
/// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], true);
/// let spec = WalkSpec::urw(8);
/// let prepared = PreparedGraph::new(g, &spec).unwrap();
/// let queries = QuerySet::random(4, 16, 3);
/// let accel = Accelerator::new(AcceleratorConfig::new().pipelines(2));
/// let mut backend = accel.backend(&prepared, &spec);
/// assert_eq!(backend.submit(queries.queries()), 16);
/// let paths = backend.drain();
/// assert_eq!(paths.len(), 16);
/// assert!(backend.telemetry().cycles.unwrap() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratorBackend<P> {
    machine: Machine,
    prepared: P,
    queue_cap: usize,
    poll_quantum: u64,
}

impl Accelerator {
    /// Opens a streaming backend bound to a prepared graph and spec: one
    /// persistent machine, advanced at most the configured poll quantum
    /// per poll, with submissions joining the running pipeline.
    pub fn backend<P: Borrow<PreparedGraph>>(
        &self,
        prepared: P,
        spec: &WalkSpec,
    ) -> AcceleratorBackend<P> {
        let machine = Machine::new(*self.config(), prepared.borrow(), spec);
        AcceleratorBackend {
            machine,
            prepared,
            queue_cap: DEFAULT_QUEUE_CAPACITY,
            poll_quantum: self.config().effective_poll_quantum(),
        }
    }
}

impl<P: Borrow<PreparedGraph>> AcceleratorBackend<P> {
    /// Bounds the queries resident in the machine — pending injection plus
    /// in flight (backpressure point).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        self.queue_cap = cap;
        self
    }

    /// Simulated cycles consumed so far (the clock only runs while the
    /// machine holds work).
    pub fn cycles(&self) -> u64 {
        self.machine.cycles()
    }

    /// The cumulative run report over everything executed so far. `paths`
    /// is empty — completed paths stream out of
    /// [`poll`](WalkBackend::poll)/[`drain`](WalkBackend::drain).
    pub fn cumulative_report(&self) -> RunReport {
        self.machine.report(Vec::new())
    }

    /// Takes every completed walk out of the machine, in completion order.
    fn collect(&mut self) -> Vec<WalkPath> {
        self.machine
            .take_completed()
            .into_iter()
            .map(|(_index, path)| path)
            .collect()
    }
}

impl<P: Borrow<PreparedGraph>> WalkBackend for AcceleratorBackend<P> {
    fn submit(&mut self, queries: &[WalkQuery]) -> usize {
        let room = self.queue_cap.saturating_sub(self.machine.resident());
        let n = room.min(queries.len());
        for q in &queries[..n] {
            self.machine.enqueue(q);
        }
        n
    }

    fn poll(&mut self) -> Vec<WalkPath> {
        self.machine
            .advance(self.prepared.borrow(), self.poll_quantum);
        self.collect()
    }

    fn drain(&mut self) -> Vec<WalkPath> {
        self.machine.run_to_quiescence(self.prepared.borrow());
        self.collect()
    }

    fn capacity_hint(&self) -> usize {
        self.queue_cap.saturating_sub(self.machine.resident())
    }

    fn in_flight(&self) -> usize {
        self.machine.resident()
    }

    fn telemetry(&self) -> BackendTelemetry {
        BackendTelemetry {
            steps: self.machine.steps(),
            cycles: Some(self.machine.cycles()),
            clock_mhz: Some(self.machine.config().platform.spec().clock_mhz),
            pipeline: Some(self.machine.pipeline_meter()),
            occupancy_split: Some(self.machine.occupancy()),
            sampling: self.machine.sampling_counters(),
        }
    }

    fn backend_class(&self) -> grw_algo::BackendClass {
        grw_algo::BackendClass::Accelerator
    }

    fn cost_hint(&self) -> f64 {
        self.prepared.borrow().sampler_cost_factor()
            / f64::from(self.machine.config().effective_pipelines().max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use grw_algo::{run_streamed, QuerySet};
    use grw_graph::generators::{Dataset, ScaleFactor};
    use grw_sim::FpgaPlatform;

    fn config() -> AcceleratorConfig {
        AcceleratorConfig::new()
            .platform(FpgaPlatform::AlveoU55c)
            .pipelines(4)
    }

    fn accel() -> Accelerator {
        Accelerator::new(config())
    }

    /// Every poll runs to quiescence: the micro-batch policy.
    fn unbounded() -> Accelerator {
        Accelerator::new(config().poll_quantum(u64::MAX))
    }

    fn setup(len: u32, n: usize) -> (grw_algo::PreparedGraph, grw_algo::WalkSpec, QuerySet) {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = grw_algo::WalkSpec::urw(len);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::random(p.graph().vertex_count(), n, 3);
        (p, spec, qs)
    }

    /// Streaming one submission through `accel`'s backend reproduces the
    /// one-shot run: the same paths and, since everything was submitted
    /// before the first poll, the same cumulative report bit for bit.
    fn assert_streaming_matches_run(accel: Accelerator) {
        let (p, spec, qs) = setup(16, 128);
        let legacy = accel.run(&p, &spec, qs.queries());
        let mut backend = accel.backend(&p, &spec);
        let streamed = run_streamed(&mut backend, qs.queries());
        assert_eq!(legacy.paths, streamed);
        assert_eq!(backend.in_flight(), 0);
        let cum = backend.cumulative_report();
        assert_eq!(cum.cycles, legacy.cycles);
        assert_eq!(cum.steps, legacy.steps);
        assert_eq!(cum.random_txns, legacy.random_txns);
        assert_eq!(cum.bytes_moved, legacy.bytes_moved);
        assert_eq!(cum.pipeline_cycles, legacy.pipeline_cycles);
        assert_eq!(cum.terminations, legacy.terminations);
        assert_eq!(cum.sampling, legacy.sampling);
        for (got, want) in [
            (cum.msteps_per_sec, legacy.msteps_per_sec),
            (cum.bubble_ratio, legacy.bubble_ratio),
            (cum.pipeline_utilization, legacy.pipeline_utilization),
            (cum.bandwidth_utilization, legacy.bandwidth_utilization),
        ] {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn paths_match_the_batch_run_bit_for_bit() {
        assert_streaming_matches_run(accel());
    }

    #[test]
    fn single_batch_streaming_is_bit_identical_to_run() {
        assert_streaming_matches_run(unbounded());
    }

    #[test]
    fn run_streamed_keeps_queries_that_share_an_id_on_their_own_paths() {
        // The dead end completes first although it was submitted second.
        let (p, spec, _) = setup(16, 0);
        let g = p.graph();
        let hub = (0..g.vertex_count() as u32)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        let dead_end = (0..g.vertex_count() as u32)
            .find(|&v| g.degree(v) == 0)
            .unwrap();
        let queries = [
            WalkQuery { id: 7, start: hub },
            WalkQuery {
                id: 7,
                start: dead_end,
            },
        ];
        let streamed = run_streamed(&mut accel().backend(&p, &spec), &queries);
        let starts: Vec<u32> = streamed.iter().map(|w| w.vertices[0]).collect();
        assert_eq!(starts, [hub, dead_end]);
        assert_eq!(streamed, accel().run(&p, &spec, &queries).paths);
    }

    /// Two queries equal in id and start walk one path, wherever each
    /// sits in the submission order and whenever it completes.
    #[test]
    fn equal_queries_walk_equal_paths() {
        let (p, spec, _) = setup(16, 0);
        let g = p.graph();
        let hub = (0..g.vertex_count() as u32)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        let twin = WalkQuery { id: 7, start: hub };
        let queries = [twin, WalkQuery { id: 8, start: hub }, twin];
        let streamed = run_streamed(&mut accel().backend(&p, &spec), &queries);
        assert_eq!(streamed[0], streamed[2]);
        assert!(streamed[0].steps() > 0);
        assert_ne!(streamed[0], streamed[1], "another id walks elsewhere");
    }

    #[test]
    fn micro_batches_accumulate_cycles_and_steps() {
        let (p, spec, qs) = setup(12, 90);
        let mut backend = unbounded().backend(&p, &spec);
        let mut last_cycles = 0;
        for chunk in qs.queries().chunks(30) {
            assert_eq!(backend.submit(chunk), 30);
            assert_eq!(backend.poll().len(), 30, "each poll drains its batch");
            assert_eq!(backend.in_flight(), 0);
            assert!(backend.cycles() > last_cycles, "one continuous clock");
            last_cycles = backend.cycles();
        }
        assert!(backend.drain().is_empty());
        let t = backend.telemetry();
        assert_eq!(t.cycles, Some(last_cycles));
        assert_eq!(
            t.steps,
            backend.cumulative_report().steps,
            "telemetry and report agree"
        );
    }

    #[test]
    fn poll_advances_a_bounded_quantum() {
        let (p, spec, qs) = setup(40, 512);
        let mut backend = Accelerator::new(config().poll_quantum(64))
            .backend(&p, &spec)
            .queue_capacity(4096);
        assert_eq!(backend.submit(qs.queries()), 512);
        let before = backend.cycles();
        backend.poll();
        assert_eq!(backend.cycles(), before + 64, "one quantum per poll");
        // Drain finishes everything; polling the now-idle machine
        // consumes no simulated time.
        let done = backend.drain();
        assert_eq!(done.len(), 512, "drain must finish every query");
        let settled = backend.cycles();
        assert!(backend.poll().is_empty());
        assert_eq!(backend.cycles(), settled);
    }

    #[test]
    fn queries_join_the_running_machine_without_a_restart() {
        let (p, spec, qs) = setup(30, 300);
        let mut backend = Accelerator::new(config().poll_quantum(128))
            .backend(&p, &spec)
            .queue_capacity(4096);
        let (first, second) = qs.queries().split_at(150);
        assert_eq!(backend.submit(first), 150);
        let mut got = backend.poll().len();
        let mid = backend.cycles();
        assert!(mid > 0);
        // Second wave joins while the first is still in flight.
        assert!(backend.in_flight() > 0, "first wave must still be running");
        assert_eq!(backend.submit(second), 150);
        got += backend.drain().len();
        assert_eq!(got, 300);
        // One continuous clock, no per-batch reset.
        assert!(backend.cycles() > mid);
        assert_eq!(backend.telemetry().steps, backend.cumulative_report().steps);
        assert!(backend.telemetry().steps > 0);
    }

    /// A full queue refuses submissions until a poll hands walks back.
    fn assert_queue_capacity_applies_backpressure(accel: Accelerator) {
        let (p, spec, qs) = setup(4, 64);
        let mut backend = accel.backend(&p, &spec).queue_capacity(10);
        assert_eq!(backend.submit(qs.queries()), 10);
        assert_eq!(backend.capacity_hint(), 0);
        assert_eq!(backend.submit(qs.queries()), 0);
        assert_eq!(backend.poll().len(), 10);
        assert_eq!(backend.capacity_hint(), 10);
    }

    #[test]
    fn backpressure_bounds_residency() {
        assert_queue_capacity_applies_backpressure(Accelerator::new(
            config().poll_quantum(1_000_000),
        ));
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        assert_queue_capacity_applies_backpressure(unbounded());
    }

    #[test]
    fn occupancy_tracks_residency_split() {
        let (p, spec, qs) = setup(24, 200);
        let mut backend = Accelerator::new(config().poll_quantum(32))
            .backend(&p, &spec)
            .queue_capacity(4096);
        let split = |b: &AcceleratorBackend<_>| b.telemetry().occupancy_split.unwrap();
        assert_eq!(split(&backend), (0, 0));
        assert_eq!(backend.submit(qs.queries()), 200);
        assert_eq!(split(&backend), (200, 0), "nothing issued before a poll");
        backend.poll();
        let (awaiting, in_flight) = split(&backend);
        assert!(in_flight > 0, "polling issues queries into pipelines");
        assert_eq!(awaiting + in_flight, backend.in_flight());
        backend.drain();
        assert_eq!(split(&backend), (0, 0));
    }

    #[test]
    fn slot_table_stays_within_peak_residency_without_quiescence() {
        let (p, spec, qs) = setup(12, 2048);
        let baseline = accel().run(&p, &spec, qs.queries());
        let mut backend = Accelerator::new(config().poll_quantum(32))
            .backend(&p, &spec)
            .queue_capacity(64);
        let queries = qs.queries();
        let mut offset = 0;
        let mut peak_resident = 0;
        let mut got = Vec::new();
        while offset < queries.len() {
            offset += backend.submit(&queries[offset..]);
            peak_resident = peak_resident.max(backend.in_flight());
            got.extend(backend.poll());
            assert!(
                backend.in_flight() > 0 || offset == queries.len(),
                "the stream must never let the machine quiesce"
            );
            assert!(
                backend.machine.slot_table_len() <= peak_resident,
                "{} slots for at most {peak_resident} resident queries",
                backend.machine.slot_table_len()
            );
        }
        got.extend(backend.drain());
        assert_eq!(peak_resident, 64);
        // Recycled slots do not change a walk: randomness is keyed by the
        // query id.
        got.sort_by_key(|w| w.query);
        assert_eq!(got, baseline.paths);
    }

    #[test]
    fn sustained_load_has_lower_bubble_ratio_than_micro_batching() {
        let (p, spec, qs) = setup(16, 960);
        let mut batch = unbounded().backend(&p, &spec);
        // A quantum smaller than one wave's work keeps the machine
        // backlogged: the next wave arrives before this one drains.
        let mut inc = Accelerator::new(config().poll_quantum(128)).backend(&p, &spec);
        let mut b_done = 0;
        let mut i_done = 0;
        for wave in qs.queries().chunks(64) {
            assert_eq!(batch.submit(wave), wave.len());
            b_done += batch.poll().len();
            assert_eq!(inc.submit(wave), wave.len());
            i_done += inc.poll().len();
        }
        b_done += batch.drain().len();
        i_done += inc.drain().len();
        assert_eq!(b_done, 960);
        assert_eq!(i_done, 960);
        let br = batch.cumulative_report();
        let ir = inc.cumulative_report();
        assert!(
            ir.bubble_ratio < br.bubble_ratio,
            "incremental {:.4} must beat batch {:.4}",
            ir.bubble_ratio,
            br.bubble_ratio
        );
        assert!(
            ir.pipeline_utilization > br.pipeline_utilization,
            "incremental util {:.4} vs batch {:.4}",
            ir.pipeline_utilization,
            br.pipeline_utilization
        );
    }
}
