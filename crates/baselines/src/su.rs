//! Su et al. model (FPL'21) — the Fig. 8b baseline.
//!
//! An early HBM-enabled FPGA sampler: walkers are statically distributed
//! over channels and every access goes through a plain AXI master, so
//! pointer-chasing latency is barely hidden. The RidgeWalker paper
//! attributes its 9.2–9.9× win to the memory subsystem (§VIII-B); the
//! model is therefore the shared engine with *blocking* memory and static
//! scheduling on the same board (Alveo U280).

use grw_algo::{PreparedGraph, WalkQuery, WalkSpec};
use grw_sim::FpgaPlatform;
use ridgewalker::{Accelerator, AcceleratorConfig, MemoryMode, RunReport, ScheduleMode};

/// The Su et al. accelerator model.
///
/// # Example
///
/// ```
/// use grw_algo::{PreparedGraph, QuerySet, WalkSpec};
/// use grw_baselines::SuEtAl;
/// use grw_graph::generators::{Dataset, ScaleFactor};
///
/// let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
/// let spec = WalkSpec::urw(8);
/// let p = PreparedGraph::new(g, &spec).unwrap();
/// let qs = QuerySet::random(p.graph().vertex_count(), 32, 0);
/// let report = SuEtAl::new().run(&p, &spec, qs.queries());
/// assert_eq!(report.paths.len(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuEtAl {
    /// Target platform.
    pub platform: FpgaPlatform,
}

impl SuEtAl {
    /// Creates the default model (Alveo U280).
    pub fn new() -> Self {
        Self {
            platform: FpgaPlatform::AlveoU280,
        }
    }

    /// The underlying engine configuration.
    pub fn config(&self) -> AcceleratorConfig {
        AcceleratorConfig::new()
            .platform(self.platform)
            .schedule(ScheduleMode::StaticBatched)
            .memory(MemoryMode::Blocking)
            // An early design with a small static walker pool per channel.
            .batch_size(16 * self.platform.spec().pipelines() as usize)
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

impl Default for SuEtAl {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_algo::QuerySet;
    use grw_graph::generators::{Dataset, ScaleFactor};

    #[test]
    fn ridgewalker_wins_by_memory_subsystem_margin() {
        // Fig. 8b: 9.2× (PPR) and 9.9× (URW) on WG.
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        for spec in [WalkSpec::urw(24), WalkSpec::ppr(24)] {
            // PPR walks are short; a continuous stream needs more queries
            // to reach the throughput-bound regime.
            let n = if matches!(spec, WalkSpec::Ppr { .. }) {
                16_384
            } else {
                4_096
            };
            let p = PreparedGraph::new(g.clone(), &spec).unwrap();
            let qs = QuerySet::random(p.graph().vertex_count(), n, 1);
            let su = SuEtAl::new().run(&p, &spec, qs.queries());
            let ridge = Accelerator::new(
                AcceleratorConfig::new().platform(FpgaPlatform::AlveoU280),
            )
            .run(&p, &spec, qs.queries());
            let speedup = ridge.speedup_over(&su);
            assert!(
                speedup > 4.0,
                "{spec}: expected a large memory-subsystem win, got {speedup:.2}x"
            );
        }
    }

    #[test]
    fn blocking_memory_shows_low_bandwidth_utilization() {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(24);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::random(p.graph().vertex_count(), 256, 1);
        let su = SuEtAl::new().run(&p, &spec, qs.queries());
        assert!(
            su.bandwidth_utilization < 0.35,
            "blocking design should leave bandwidth idle, got {:.2}",
            su.bandwidth_utilization
        );
    }
}
