//! FastRW model (Gao et al., DATE'23) — the Fig. 8a baseline.
//!
//! FastRW's signature mechanisms, per §III-B of the RidgeWalker paper:
//!
//! 1. **Frequency-based on-chip caching** of row-pointer entries. Works
//!    while the hot set fits BRAM/URAM; on large graphs the cache thrashes
//!    and every miss is an in-order pointer chase.
//! 2. **CPU-pre-generated random numbers** streamed from HBM, spending
//!    memory bandwidth that could serve graph data (two 64-bit words per
//!    DeepWalk step: slot pick + alias coin).
//! 3. **Static dataflow scheduling** in bulk-synchronous batches.
//!
//! The model is the shared cycle-level engine with exactly those knobs:
//! a degree-ranked RP cache, an RNG stream tax, a tiny in-order RA window,
//! and static batching.

use grw_algo::{PreparedGraph, WalkQuery, WalkSpec};
use grw_sim::FpgaPlatform;
use ridgewalker::{Accelerator, AcceleratorConfig, MemoryMode, RunReport, ScheduleMode};

/// The FastRW accelerator model.
///
/// # Example
///
/// ```
/// use grw_algo::{PreparedGraph, QuerySet, WalkSpec};
/// use grw_baselines::FastRw;
/// use grw_graph::generators::{Dataset, ScaleFactor};
///
/// let g = Dataset::WebGoogle.generate_weighted(ScaleFactor::Tiny);
/// let spec = WalkSpec::deepwalk(8);
/// let p = PreparedGraph::new(g, &spec).unwrap();
/// let qs = QuerySet::random(p.graph().vertex_count(), 64, 0);
/// let report = FastRw::new().run(&p, &spec, qs.queries());
/// assert_eq!(report.paths.len(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastRw {
    /// On-chip RP cache capacity, in entries.
    pub cache_entries: usize,
    /// Pipelines instantiated by the design.
    pub pipelines: u32,
    /// Target platform (the paper compares on the Alveo U50).
    pub platform: FpgaPlatform,
}

impl FastRw {
    /// U50-scale on-chip memory divided by the 256-bit DeepWalk RP entry,
    /// shrunk by the same ~1/16 factor as the standard-scale dataset
    /// stand-ins (`DESIGN.md`): ~28 MB / 32 B / 16.
    pub const DEFAULT_CACHE_ENTRIES: usize = 56_000;

    /// Creates the default model.
    pub fn new() -> Self {
        Self {
            cache_entries: Self::DEFAULT_CACHE_ENTRIES,
            pipelines: 16,
            platform: FpgaPlatform::AlveoU50,
        }
    }

    /// The cache capacity consistent with a dataset scale: the on-chip
    /// memory shrinks by the same factor as the graphs so cache-residency
    /// relations (WG mostly resident, LJ thrashing) survive scaling.
    pub fn cache_for(scale: grw_graph::generators::ScaleFactor) -> usize {
        use grw_graph::generators::ScaleFactor;
        match scale {
            ScaleFactor::Standard => Self::DEFAULT_CACHE_ENTRIES,
            ScaleFactor::Small => Self::DEFAULT_CACHE_ENTRIES / 8,
            ScaleFactor::Tiny => Self::DEFAULT_CACHE_ENTRIES / 64,
        }
    }

    /// Creates the model sized for a dataset scale.
    pub fn for_scale(scale: grw_graph::generators::ScaleFactor) -> Self {
        Self::new().cache_entries(Self::cache_for(scale))
    }

    /// Overrides the cache capacity.
    pub fn cache_entries(mut self, entries: usize) -> Self {
        self.cache_entries = entries;
        self
    }

    /// Overrides the platform.
    pub fn platform(mut self, platform: FpgaPlatform) -> Self {
        self.platform = platform;
        self
    }

    /// The underlying engine configuration.
    pub fn config(&self, spec: &WalkSpec) -> AcceleratorConfig {
        // Random numbers consumed per step: one for uniform sampling, two
        // for alias sampling (slot + coin).
        let rng_reads = match spec {
            WalkSpec::DeepWalk { .. } => 2,
            _ => 1,
        };
        AcceleratorConfig::new()
            .platform(self.platform)
            .pipelines(self.pipelines)
            .schedule(ScheduleMode::StaticBatched)
            .memory(MemoryMode::Asynchronous)
            // FastRW's dataflow holds a small pool of concurrent walkers.
            .batch_size(16 * self.pipelines as usize)
            // In-order pointer chases: a cache miss stalls the dataflow.
            .ra_outstanding(2)
            // The column stream is well pipelined in FastRW's dataflow.
            .ca_outstanding(32)
            .rp_cache(self.cache_entries)
            .rng_stream_tax(rng_reads)
    }

    /// Runs the model.
    pub fn run(
        &self,
        prepared: &PreparedGraph,
        spec: &WalkSpec,
        queries: &[WalkQuery],
    ) -> RunReport {
        Accelerator::new(self.config(spec)).run(prepared, spec, queries)
    }

    /// Opens a streaming backend over this model's engine configuration;
    /// each poll runs its micro-batch to completion.
    pub fn backend<P: std::borrow::Borrow<PreparedGraph>>(
        &self,
        prepared: P,
        spec: &WalkSpec,
    ) -> ridgewalker::AcceleratorBackend<P> {
        Accelerator::new(self.config(spec).poll_quantum(u64::MAX)).backend(prepared, spec)
    }
}

impl Default for FastRw {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_algo::QuerySet;
    use grw_graph::generators::{Dataset, ScaleFactor};
    use ridgewalker::AcceleratorConfig as RwConfig;

    fn deepwalk_on(d: Dataset, cache: usize) -> (f64, f64) {
        let g = d.generate_weighted(ScaleFactor::Tiny);
        let spec = WalkSpec::deepwalk(24);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::random(p.graph().vertex_count(), 384, 7);
        let fast = FastRw::new()
            .cache_entries(cache)
            .run(&p, &spec, qs.queries());
        let ridge = ridgewalker::Accelerator::new(RwConfig::new().platform(FpgaPlatform::AlveoU50))
            .run(&p, &spec, qs.queries());
        (fast.msteps_per_sec, ridge.msteps_per_sec)
    }

    #[test]
    fn ridgewalker_always_wins() {
        let (fast, ridge) = deepwalk_on(Dataset::WebGoogle, FastRw::DEFAULT_CACHE_ENTRIES);
        assert!(ridge > fast, "ridge {ridge} vs fastrw {fast}");
    }

    #[test]
    fn cache_thrash_collapses_fastrw() {
        // Fig. 3a / Fig. 8a: cache-resident (WG) is workable, an uncachable
        // graph collapses, and the speedup widens with graph size.
        let g = Dataset::WebGoogle.generate_weighted(ScaleFactor::Tiny);
        let spec = WalkSpec::deepwalk(24);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::random(p.graph().vertex_count(), 2_048, 7);
        let resident = FastRw::new()
            .cache_entries(p.graph().vertex_count()) // everything fits
            .run(&p, &spec, qs.queries());
        let thrashing = FastRw::new().cache_entries(16).run(&p, &spec, qs.queries());
        let ratio = resident.msteps_per_sec / thrashing.msteps_per_sec;
        assert!(
            ratio > 2.0,
            "cache residency should dominate FastRW performance, got {ratio:.2}x"
        );
    }

    #[test]
    fn rng_stream_tax_costs_bandwidth() {
        let g = Dataset::WebGoogle.generate_weighted(ScaleFactor::Tiny);
        let spec = WalkSpec::deepwalk(16);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::random(p.graph().vertex_count(), 256, 3);
        let base = FastRw::new().config(&spec);
        let with_tax = Accelerator::new(base).run(&p, &spec, qs.queries());
        let without_tax = Accelerator::new(base.rng_stream_tax(0)).run(&p, &spec, qs.queries());
        assert!(
            without_tax.bytes_moved < with_tax.bytes_moved,
            "the RNG stream must show up as extra memory traffic"
        );
    }

    #[test]
    fn config_varies_rng_tax_by_algorithm() {
        let f = FastRw::new();
        assert_eq!(f.config(&WalkSpec::deepwalk(80)).rng_seq_reads_per_step, 2);
        assert_eq!(f.config(&WalkSpec::urw(80)).rng_seq_reads_per_step, 1);
    }
}
