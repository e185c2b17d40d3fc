//! Pipeline utilization and sampler counters.
//!
//! The paper's two headline diagnostics are *bandwidth utilization*
//! (`B_measured / B_peak`, Sec. III) and the *bubble ratio* (cycles a
//! pipeline starves while work exists, Sec. III Obs. #2). The bubble ratio
//! is [`UtilizationMeter`]'s; throughput and bandwidth follow from a run's
//! steps and cycles, which each engine's report derives (for the machine,
//! `ridgewalker::RunReport`).

/// Per-pipeline utilization accounting.
///
/// Each simulated cycle is classified as exactly one of:
/// * **busy** — the pipeline accepted or processed a task;
/// * **bubble** — the pipeline was idle *while work existed* somewhere
///   upstream (the waste RidgeWalker eliminates);
/// * **drained** — idle with no work anywhere (start-up/run-out, charged to
///   neither side).
///
/// # Example
///
/// ```
/// use grw_sim::stats::UtilizationMeter;
///
/// let mut m = UtilizationMeter::new();
/// m.record_busy();
/// m.record_bubble();
/// assert!((m.bubble_ratio() - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UtilizationMeter {
    busy: u64,
    bubble: u64,
    drained: u64,
}

impl UtilizationMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstructs a meter from raw counts — the merge path for layers
    /// that aggregate pipeline-cycle breakdowns across reports (ratios must
    /// be re-derived from summed counts, never averaged).
    pub fn from_counts(busy: u64, bubble: u64, drained: u64) -> Self {
        Self {
            busy,
            bubble,
            drained,
        }
    }

    /// Records a cycle in which the pipeline did useful work.
    pub fn record_busy(&mut self) {
        self.busy += 1;
    }

    /// Records a cycle in which the pipeline starved despite pending work.
    pub fn record_bubble(&mut self) {
        self.bubble += 1;
    }

    /// Records an idle cycle with no pending work.
    pub fn record_drained(&mut self) {
        self.drained += 1;
    }

    /// Busy cycles.
    pub fn busy(&self) -> u64 {
        self.busy
    }

    /// Bubble cycles.
    pub fn bubbles(&self) -> u64 {
        self.bubble
    }

    /// Idle-without-work cycles.
    pub fn drained(&self) -> u64 {
        self.drained
    }

    /// All recorded pipeline-cycles (busy + bubble + drained).
    pub fn total(&self) -> u64 {
        self.busy + self.bubble + self.drained
    }

    /// Bubbles / (busy + bubbles): the paper's bubble ratio. Zero when the
    /// meter is empty.
    pub fn bubble_ratio(&self) -> f64 {
        let active = self.busy + self.bubble;
        if active == 0 {
            0.0
        } else {
            self.bubble as f64 / active as f64
        }
    }

    /// Busy / all recorded cycles.
    pub fn utilization(&self) -> f64 {
        let total = self.busy + self.bubble + self.drained;
        if total == 0 {
            0.0
        } else {
            self.busy as f64 / total as f64
        }
    }

    /// Merges another meter into this one (for cross-pipeline totals).
    pub fn merge(&mut self, other: &UtilizationMeter) {
        self.busy += other.busy;
        self.bubble += other.bubble;
        self.drained += other.drained;
    }
}

/// Cumulative sampler-kernel counters: what the sampling stage actually
/// did, independent of which engine ran it.
///
/// The runtime-adaptive sampling layer tags every sample with the kernel
/// that produced it; engines accumulate these counters and surface them
/// through their telemetry so serving/routing tiers can see sampler
/// heterogeneity (e.g. a hot second-order alias cache) the same way they
/// see pipeline occupancy. All fields merge as raw sums.
///
/// # Example
///
/// ```
/// use grw_sim::stats::SamplingCounters;
///
/// let mut a = SamplingCounters {
///     samples: 10,
///     cache_hits: 6,
///     alias_builds: 2,
///     ..SamplingCounters::default()
/// };
/// a.merge(&SamplingCounters {
///     samples: 2,
///     alias_builds: 2,
///     ..SamplingCounters::default()
/// });
/// assert_eq!(a.samples, 12);
/// assert!((a.cache_hit_ratio() - 0.6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplingCounters {
    /// Neighbor samples drawn (one per advancing hop).
    pub samples: u64,
    /// Extra uniform candidate draws beyond the first (rejection retries).
    pub rejection_trials: u64,
    /// Alias rows constructed at sample time (second-order builds and
    /// table-free on-the-fly first-order rows).
    pub alias_builds: u64,
    /// Second-order alias tables served from the edge cache.
    pub cache_hits: u64,
    /// Cache entries evicted to stay under the byte budget.
    pub cache_evictions: u64,
    /// Sequential words scanned by list-walking kernels.
    pub scanned_words: u64,
}

impl SamplingCounters {
    /// Accumulates `other` into `self` (plain sums).
    pub fn merge(&mut self, other: &SamplingCounters) {
        self.samples += other.samples;
        self.rejection_trials += other.rejection_trials;
        self.alias_builds += other.alias_builds;
        self.cache_hits += other.cache_hits;
        self.cache_evictions += other.cache_evictions;
        self.scanned_words += other.scanned_words;
    }

    /// Fraction of second-order table lookups served from the cache:
    /// `hits / (hits + builds)`. `0.0` when no second-order sampling ran.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.alias_builds;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_counters_merge_and_ratio() {
        let mut a = SamplingCounters::default();
        assert_eq!(a.cache_hit_ratio(), 0.0);
        a.merge(&SamplingCounters {
            samples: 4,
            rejection_trials: 3,
            alias_builds: 1,
            cache_hits: 3,
            cache_evictions: 2,
            scanned_words: 40,
        });
        a.merge(&SamplingCounters {
            samples: 1,
            alias_builds: 1,
            ..SamplingCounters::default()
        });
        assert_eq!(a.samples, 5);
        assert_eq!(a.rejection_trials, 3);
        assert_eq!(a.alias_builds, 2);
        assert_eq!(a.cache_evictions, 2);
        assert_eq!(a.scanned_words, 40);
        assert!((a.cache_hit_ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn bubble_ratio_ignores_drained_cycles() {
        let mut m = UtilizationMeter::new();
        for _ in 0..60 {
            m.record_busy();
        }
        for _ in 0..40 {
            m.record_bubble();
        }
        for _ in 0..100 {
            m.record_drained();
        }
        assert!((m.bubble_ratio() - 0.4).abs() < 1e-9);
        assert!((m.utilization() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn empty_meters_are_zero() {
        let m = UtilizationMeter::new();
        assert_eq!(m.bubble_ratio(), 0.0);
        assert_eq!(m.utilization(), 0.0);
    }

    #[test]
    fn from_counts_round_trips() {
        let m = UtilizationMeter::from_counts(6, 4, 10);
        assert_eq!(m.busy(), 6);
        assert_eq!(m.bubbles(), 4);
        assert_eq!(m.drained(), 10);
        assert_eq!(m.total(), 20);
        assert!((m.bubble_ratio() - 0.4).abs() < 1e-12);
        assert!((m.utilization() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = UtilizationMeter::new();
        a.record_busy();
        let mut b = UtilizationMeter::new();
        b.record_bubble();
        a.merge(&b);
        assert_eq!(a.busy(), 1);
        assert_eq!(a.bubbles(), 1);
    }
}
