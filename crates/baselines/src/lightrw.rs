//! LightRW model (Tan et al., SIGMOD'23) — the Fig. 8c/8d baseline.
//!
//! LightRW pipelines its memory path well (it is the strongest FPGA
//! baseline: RidgeWalker wins by only 1.1–1.7×), but batches queries in a
//! ring buffer and issues every step in a predetermined order: when a walk
//! terminates early its reserved slots stay empty until the whole batch
//! drains (§III-B Observation #2 — bubble ratios up to 37%). The model is
//! therefore the shared engine with asynchronous memory but static
//! bulk-synchronous batching.

use grw_algo::{PreparedGraph, WalkQuery, WalkSpec};
use grw_sim::FpgaPlatform;
use ridgewalker::{Accelerator, AcceleratorConfig, MemoryMode, RunReport, ScheduleMode};

/// The LightRW accelerator model.
///
/// # Example
///
/// ```
/// use grw_algo::{Node2VecMethod, PreparedGraph, QuerySet, WalkSpec};
/// use grw_baselines::LightRw;
/// use grw_graph::generators::{Dataset, ScaleFactor};
///
/// let g = Dataset::WebGoogle.generate_weighted(ScaleFactor::Tiny);
/// let spec = WalkSpec::node2vec(8, Node2VecMethod::Reservoir);
/// let p = PreparedGraph::new(g, &spec).unwrap();
/// let qs = QuerySet::random(p.graph().vertex_count(), 32, 0);
/// let report = LightRw::new().run(&p, &spec, qs.queries());
/// assert_eq!(report.paths.len(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LightRw {
    /// Ring-buffer capacity (walkers per batch).
    pub ring_capacity: usize,
    /// Target platform (the paper compares on the Alveo U250).
    pub platform: FpgaPlatform,
}

impl LightRw {
    /// Creates the default model (U250, 128-walker ring).
    pub fn new() -> Self {
        Self {
            ring_capacity: 128,
            platform: FpgaPlatform::AlveoU250,
        }
    }

    /// Overrides the ring capacity.
    pub fn ring_capacity(mut self, walkers: usize) -> Self {
        assert!(walkers > 0, "ring must hold at least one walker");
        self.ring_capacity = walkers;
        self
    }

    /// Overrides the platform.
    pub fn platform(mut self, platform: FpgaPlatform) -> Self {
        self.platform = platform;
        self
    }

    /// The underlying engine configuration.
    pub fn config(&self) -> AcceleratorConfig {
        AcceleratorConfig::new()
            .platform(self.platform)
            .schedule(ScheduleMode::StaticBatched)
            .memory(MemoryMode::Asynchronous)
            .batch_size(self.ring_capacity)
    }

    /// Runs the model.
    pub fn run(
        &self,
        prepared: &PreparedGraph,
        spec: &WalkSpec,
        queries: &[WalkQuery],
    ) -> RunReport {
        Accelerator::new(self.config()).run(prepared, spec, queries)
    }

    /// Opens a streaming backend over this model's engine configuration;
    /// each poll runs its micro-batch to completion.
    pub fn backend<P: std::borrow::Borrow<PreparedGraph>>(
        &self,
        prepared: P,
        spec: &WalkSpec,
    ) -> ridgewalker::AcceleratorBackend<P> {
        Accelerator::new(self.config().poll_quantum(u64::MAX)).backend(prepared, spec)
    }
}

impl Default for LightRw {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_algo::{Node2VecMethod, QuerySet};
    use grw_graph::generators::{Dataset, ScaleFactor};

    #[test]
    fn ridgewalker_wins_but_modestly_on_node2vec() {
        // Fig. 8c: 1.1–1.5× — LightRW is a strong baseline. WG (directed,
        // early-terminating) is where dynamic scheduling has its edge; LJ
        // (undirected) is the paper's own weakest case at 1.1×.
        let g = Dataset::WebGoogle.generate_weighted(ScaleFactor::Tiny);
        let spec = WalkSpec::node2vec(20, Node2VecMethod::Reservoir);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::random(p.graph().vertex_count(), 2_048, 5);
        let light = LightRw::new().run(&p, &spec, qs.queries());
        let ridge = Accelerator::new(AcceleratorConfig::new().platform(FpgaPlatform::AlveoU250))
            .run(&p, &spec, qs.queries());
        let speedup = ridge.speedup_over(&light);
        assert!(
            speedup > 1.05 && speedup < 4.0,
            "Node2Vec speedup over LightRW should be modest, got {speedup:.2}x"
        );
    }

    #[test]
    fn metapath_gap_exceeds_node2vec_gap() {
        // Fig. 8d vs 8c: early termination makes MetaPath the better
        // showcase for dynamic scheduling.
        let g = Dataset::WebGoogle.generate_typed(ScaleFactor::Tiny, 3);
        let qs = QuerySet::random(g.vertex_count(), 512, 5);

        let n2v = WalkSpec::node2vec(20, Node2VecMethod::Reservoir);
        let pn = PreparedGraph::new(g.clone(), &n2v).unwrap();
        let n2v_ratio =
            Accelerator::new(AcceleratorConfig::new().platform(FpgaPlatform::AlveoU250))
                .run(&pn, &n2v, qs.queries())
                .speedup_over(&LightRw::new().run(&pn, &n2v, qs.queries()));

        let mp = WalkSpec::metapath(20);
        let pm = PreparedGraph::new(g, &mp).unwrap();
        let mp_ratio = Accelerator::new(AcceleratorConfig::new().platform(FpgaPlatform::AlveoU250))
            .run(&pm, &mp, qs.queries())
            .speedup_over(&LightRw::new().run(&pm, &mp, qs.queries()));

        assert!(
            mp_ratio > n2v_ratio * 0.95,
            "MetaPath ratio {mp_ratio:.2} should not trail Node2Vec ratio {n2v_ratio:.2}"
        );
    }

    #[test]
    fn batched_execution_leaves_bubbles() {
        let g = Dataset::CitPatents.generate_weighted(ScaleFactor::Tiny);
        let spec = WalkSpec::node2vec(20, Node2VecMethod::Reservoir);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::random(p.graph().vertex_count(), 512, 2);
        let light = LightRw::new().run(&p, &spec, qs.queries());
        assert!(
            light.bubble_ratio > 0.02,
            "ring-buffer batching should starve pipelines, ratio {}",
            light.bubble_ratio
        );
    }

    #[test]
    #[should_panic(expected = "at least one walker")]
    fn zero_ring_panics() {
        let _ = LightRw::new().ring_capacity(0);
    }
}
