//! Accelerator configuration, including the Fig. 11 ablation toggles.

use grw_queueing::ridgewalker_fifo_depth;
use grw_sim::FpgaPlatform;

/// How queries are scheduled onto pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScheduleMode {
    /// The zero-bubble scheduler: per-hop dynamic reassignment, ready tasks
    /// fill any open slot immediately.
    #[default]
    ZeroBubble,
    /// Static bulk-synchronous batches: queries are bound to pipelines by
    /// id and a new batch starts only when the whole previous batch has
    /// finished (the FastRW/LightRW-style baseline of Fig. 11).
    StaticBatched,
}

/// How memory accesses are issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemoryMode {
    /// The asynchronous access engine: up to 128 outstanding non-blocking
    /// requests per channel (Fig. 6).
    #[default]
    Asynchronous,
    /// Plain AXI access without the asynchronous engine: a standard HLS
    /// `m_axi` master with a small request window (8 outstanding); the
    /// pipeline effectively stalls on pointer chases (ablation baseline).
    Blocking,
}

/// Full configuration of an [`crate::Accelerator`].
///
/// # Example
///
/// ```
/// use grw_sim::FpgaPlatform;
/// use ridgewalker::{AcceleratorConfig, MemoryMode, ScheduleMode};
///
/// let cfg = AcceleratorConfig::new()
///     .platform(FpgaPlatform::AlveoU50)
///     .pipelines(8)
///     .schedule(ScheduleMode::StaticBatched)
///     .memory(MemoryMode::Blocking);
/// assert_eq!(cfg.effective_pipelines(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Target board (memory channels, clock, latency).
    pub platform: FpgaPlatform,
    /// Pipeline count override; `None` uses `channels / 2` (§VIII-A).
    pub pipeline_override: Option<u32>,
    /// Scheduling mode (ablation axis 1).
    pub schedule: ScheduleMode,
    /// Memory-access mode (ablation axis 2).
    pub memory: MemoryMode,
    /// Per-pipeline input FIFO depth; `None` uses Theorem VI.1's
    /// `1 + 4·log2(N)`.
    pub fifo_depth: Option<usize>,
    /// Concurrent in-flight queries (dynamic mode); `None` uses `256·N`
    /// (Little's law: a ~250-cycle hop round-trip at ~0.5 steps/cycle per
    /// pipeline needs ≈125 resident hops to saturate; the hardware's
    /// 512-entry metadata queues provide the headroom, and modest
    /// oversubscription keeps queue delay bounded).
    pub max_inflight: Option<usize>,
    /// Batch size for static mode; `None` uses `16·N`.
    pub batch_size: Option<usize>,
    /// Walk seed: hop `h` of query `q` draws from
    /// `grw_rng::WalkKey::new(seed, q).hop(h)`, as on every other executor.
    pub seed: u64,
    /// On-chip RP cache capacity in entries, held by in-degree rank
    /// (models FastRW's frequency-based caching; `None` = no cache).
    pub rp_cache_entries: Option<usize>,
    /// Sequential 64-bit reads per step spent streaming pre-generated
    /// random numbers from memory (FastRW's CPU-side RNG; 0 = on-chip RNG).
    pub rng_seq_reads_per_step: u32,
    /// Override of the Row-Access channel outstanding window (baselines
    /// with in-order pointer chases use small values).
    pub ra_outstanding: Option<usize>,
    /// Override of the Column-Access channel outstanding window.
    pub ca_outstanding: Option<usize>,
    /// Cycles one `poll` of the [`crate::AcceleratorBackend`] simulates
    /// at most; `None` uses `512 · pipelines` (a few hundred queries'
    /// worth of progress at ~0.5 steps/cycle/pipeline, so a serving tick
    /// keeps pace with micro-batch-sized arrival waves). `u64::MAX` makes
    /// every poll run the machine until it holds no work, so each
    /// micro-batch pays pipeline fill and drain.
    pub poll_quantum: Option<u64>,
}

impl AcceleratorConfig {
    /// The default configuration: U55C, zero-bubble, asynchronous.
    pub fn new() -> Self {
        Self {
            platform: FpgaPlatform::AlveoU55c,
            pipeline_override: None,
            schedule: ScheduleMode::ZeroBubble,
            memory: MemoryMode::Asynchronous,
            fifo_depth: None,
            max_inflight: None,
            batch_size: None,
            seed: 0x5EED,
            rp_cache_entries: None,
            rng_seq_reads_per_step: 0,
            ra_outstanding: None,
            ca_outstanding: None,
            poll_quantum: None,
        }
    }

    /// Enables a FastRW-style on-chip RP cache of `entries` entries.
    pub fn rp_cache(mut self, entries: usize) -> Self {
        self.rp_cache_entries = Some(entries);
        self
    }

    /// Charges `reads` sequential 64-bit reads per step for pre-generated
    /// random numbers (FastRW's CPU-side RNG stream).
    pub fn rng_stream_tax(mut self, reads: u32) -> Self {
        self.rng_seq_reads_per_step = reads;
        self
    }

    /// Overrides the Row-Access outstanding window only.
    pub fn ra_outstanding(mut self, n: usize) -> Self {
        assert!(n > 0, "outstanding window must be positive");
        self.ra_outstanding = Some(n);
        self
    }

    /// Overrides the Column-Access outstanding window only.
    pub fn ca_outstanding(mut self, n: usize) -> Self {
        assert!(n > 0, "outstanding window must be positive");
        self.ca_outstanding = Some(n);
        self
    }

    /// Resolved RA outstanding window.
    pub fn effective_ra_outstanding(&self) -> usize {
        self.ra_outstanding
            .unwrap_or_else(|| self.effective_outstanding())
    }

    /// Resolved CA outstanding window.
    pub fn effective_ca_outstanding(&self) -> usize {
        self.ca_outstanding
            .unwrap_or_else(|| self.effective_outstanding())
    }

    /// Sets the platform.
    pub fn platform(mut self, platform: FpgaPlatform) -> Self {
        self.platform = platform;
        self
    }

    /// Overrides the pipeline count.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two (butterfly requirement).
    pub fn pipelines(mut self, n: u32) -> Self {
        assert!(n > 0, "need at least one pipeline");
        assert!(n.is_power_of_two(), "butterfly fabrics need a power of two");
        self.pipeline_override = Some(n);
        self
    }

    /// Sets the scheduling mode.
    pub fn schedule(mut self, mode: ScheduleMode) -> Self {
        self.schedule = mode;
        self
    }

    /// Sets the memory-access mode.
    pub fn memory(mut self, mode: MemoryMode) -> Self {
        self.memory = mode;
        self
    }

    /// Overrides the per-pipeline FIFO depth.
    pub fn fifo_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "FIFO depth must be positive");
        self.fifo_depth = Some(depth);
        self
    }

    /// Overrides the in-flight query cap.
    pub fn max_inflight(mut self, n: usize) -> Self {
        assert!(n > 0, "in-flight cap must be positive");
        self.max_inflight = Some(n);
        self
    }

    /// Overrides the static-mode batch size.
    pub fn batch_size(mut self, n: usize) -> Self {
        assert!(n > 0, "batch size must be positive");
        self.batch_size = Some(n);
        self
    }

    /// Sets the walk seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The four Fig. 11 ablation configurations, in the figure's order:
    /// baseline, +scheduler, +async, full.
    pub fn ablation_grid(self) -> [AcceleratorConfig; 4] {
        [
            self.schedule(ScheduleMode::StaticBatched)
                .memory(MemoryMode::Blocking),
            self.schedule(ScheduleMode::ZeroBubble)
                .memory(MemoryMode::Blocking),
            self.schedule(ScheduleMode::StaticBatched)
                .memory(MemoryMode::Asynchronous),
            self.schedule(ScheduleMode::ZeroBubble)
                .memory(MemoryMode::Asynchronous),
        ]
    }

    /// Resolved pipeline count.
    pub fn effective_pipelines(&self) -> u32 {
        let n = self
            .pipeline_override
            .unwrap_or_else(|| self.platform.spec().pipelines());
        // Butterfly fabrics need powers of two; round down.
        if n.is_power_of_two() {
            n
        } else {
            n.next_power_of_two() / 2
        }
    }

    /// Resolved per-pipeline FIFO depth (Theorem VI.1 by default).
    pub fn effective_fifo_depth(&self) -> usize {
        self.fifo_depth
            .unwrap_or_else(|| ridgewalker_fifo_depth(self.effective_pipelines() as usize))
    }

    /// Resolved in-flight query cap.
    pub fn effective_max_inflight(&self) -> usize {
        self.max_inflight
            .unwrap_or(256 * self.effective_pipelines() as usize)
    }

    /// Overrides the backend's poll quantum (simulated cycles per `poll`
    /// at most).
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0`.
    pub fn poll_quantum(mut self, cycles: u64) -> Self {
        assert!(cycles > 0, "poll quantum must be positive");
        self.poll_quantum = Some(cycles);
        self
    }

    /// Resolved poll quantum.
    pub fn effective_poll_quantum(&self) -> u64 {
        self.poll_quantum
            .unwrap_or(512 * u64::from(self.effective_pipelines()))
    }

    /// Resolved static batch size.
    pub fn effective_batch_size(&self) -> usize {
        self.batch_size
            .unwrap_or(16 * self.effective_pipelines() as usize)
    }

    /// Outstanding-request budget per channel under the memory mode.
    pub fn effective_outstanding(&self) -> usize {
        match self.memory {
            MemoryMode::Asynchronous => self.platform.spec().max_outstanding,
            MemoryMode::Blocking => 8,
        }
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = AcceleratorConfig::new();
        assert_eq!(c.effective_pipelines(), 16); // 32 channels / 2
        assert_eq!(c.effective_fifo_depth(), 17); // 1 + 4·log2(16)
        assert_eq!(c.effective_outstanding(), 128);
    }

    #[test]
    fn blocking_mode_has_a_small_window() {
        let c = AcceleratorConfig::new().memory(MemoryMode::Blocking);
        assert_eq!(c.effective_outstanding(), 8);
        assert!(c.effective_outstanding() < AcceleratorConfig::new().effective_outstanding());
    }

    #[test]
    fn ablation_grid_covers_all_four_configs() {
        let grid = AcceleratorConfig::new().ablation_grid();
        let combos: Vec<(ScheduleMode, MemoryMode)> =
            grid.iter().map(|c| (c.schedule, c.memory)).collect();
        assert_eq!(combos.len(), 4);
        assert_eq!(
            combos[0],
            (ScheduleMode::StaticBatched, MemoryMode::Blocking)
        );
        assert_eq!(
            combos[3],
            (ScheduleMode::ZeroBubble, MemoryMode::Asynchronous)
        );
    }

    #[test]
    fn pipeline_override_wins() {
        let c = AcceleratorConfig::new().pipelines(4);
        assert_eq!(c.effective_pipelines(), 4);
        assert_eq!(c.effective_fifo_depth(), 9); // 1 + 4·log2(4)
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_pipelines_panic() {
        let _ = AcceleratorConfig::new().pipelines(6);
    }

    #[test]
    fn derived_sizes_scale_with_pipelines() {
        let c = AcceleratorConfig::new().pipelines(8);
        assert_eq!(c.effective_max_inflight(), 2048);
        assert_eq!(c.effective_batch_size(), 128);
    }
}
