//! FPGA platform presets (Table III of the paper).
//!
//! Each preset captures the only properties the evaluation depends on:
//! memory technology, channel count, sequential bandwidth (reported for
//! context), the calibrated sustained random-transaction rate per channel,
//! and the accelerator core clock. Calibration rationale lives in
//! `DESIGN.md`: rates are chosen so the theoretical peaks implied by the
//! paper's Table III hold.

use crate::memory::MemoryChannelSpec;
use crate::Cycle;

/// Memory technology of a platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryTech {
    /// High-bandwidth memory, 32 pseudo-channels.
    Hbm2,
    /// Conventional DDR4 DIMM channels.
    Ddr4,
    /// DDR4 behind the Versal hardened NoC (interleaving disabled).
    Ddr4Noc,
}

/// The evaluation boards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpgaPlatform {
    /// AMD Alveo U50: HBM2, 316 GB/s (FastRW comparison platform).
    AlveoU50,
    /// AMD Alveo U250: 4× DDR4, 77 GB/s (LightRW comparison platform).
    AlveoU250,
    /// AMD Alveo U280: HBM2, 460 GB/s (Su et al. comparison platform).
    AlveoU280,
    /// AMD Alveo U55C: HBM2, 460 GB/s (primary platform).
    AlveoU55c,
    /// AMD Versal VCK5000: 4× DDR4 behind a hardened NoC, 102 GB/s.
    Vck5000,
}

/// Static description of a platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Memory technology.
    pub tech: MemoryTech,
    /// Independent memory channels.
    pub channels: u32,
    /// Aggregate sequential bandwidth in GB/s (Table III, for context).
    pub seq_bandwidth_gbs: f64,
    /// Calibrated sustained random 64-bit transactions per channel,
    /// millions/s (the `f_mem / t_RRD` of Eq. 1).
    pub random_mtps_per_channel: f64,
    /// Accelerator core clock in MHz.
    pub clock_mhz: f64,
    /// Memory round-trip latency in core cycles.
    pub latency_cycles: Cycle,
    /// Outstanding transactions per channel controller.
    pub max_outstanding: usize,
}

impl FpgaPlatform {
    /// All five boards.
    pub fn all() -> [FpgaPlatform; 5] {
        [
            FpgaPlatform::AlveoU250,
            FpgaPlatform::Vck5000,
            FpgaPlatform::AlveoU50,
            FpgaPlatform::AlveoU280,
            FpgaPlatform::AlveoU55c,
        ]
    }

    /// The platform's spec.
    pub fn spec(self) -> PlatformSpec {
        match self {
            FpgaPlatform::AlveoU50 => PlatformSpec {
                name: "Alveo U50",
                tech: MemoryTech::Hbm2,
                channels: 32,
                seq_bandwidth_gbs: 316.0,
                random_mtps_per_channel: 104.0,
                clock_mhz: 300.0,
                latency_cycles: 96,
                max_outstanding: 128,
            },
            FpgaPlatform::AlveoU250 => PlatformSpec {
                name: "Alveo U250",
                tech: MemoryTech::Ddr4,
                channels: 4,
                seq_bandwidth_gbs: 77.0,
                random_mtps_per_channel: 159.0,
                clock_mhz: 300.0,
                latency_cycles: 84,
                max_outstanding: 64,
            },
            FpgaPlatform::AlveoU280 => PlatformSpec {
                name: "Alveo U280",
                tech: MemoryTech::Hbm2,
                channels: 32,
                seq_bandwidth_gbs: 460.0,
                random_mtps_per_channel: 150.0,
                clock_mhz: 300.0,
                latency_cycles: 96,
                max_outstanding: 128,
            },
            FpgaPlatform::AlveoU55c => PlatformSpec {
                name: "Alveo U55C",
                tech: MemoryTech::Hbm2,
                channels: 32,
                seq_bandwidth_gbs: 460.0,
                random_mtps_per_channel: 150.0,
                clock_mhz: 320.0,
                latency_cycles: 100,
                max_outstanding: 128,
            },
            FpgaPlatform::Vck5000 => PlatformSpec {
                name: "VCK5000",
                tech: MemoryTech::Ddr4Noc,
                channels: 4,
                seq_bandwidth_gbs: 102.0,
                random_mtps_per_channel: 116.0,
                clock_mhz: 300.0,
                latency_cycles: 110,
                max_outstanding: 64,
            },
        }
    }
}

impl PlatformSpec {
    /// Total sustained random-transaction rate, millions/s (Eq. 1 ×
    /// channels).
    pub fn peak_random_mtps(&self) -> f64 {
        self.random_mtps_per_channel * f64::from(self.channels)
    }

    /// Peak random-access bandwidth in GB/s (Eq. 1: 64-bit words).
    pub fn peak_random_bandwidth_gbs(&self) -> f64 {
        self.peak_random_mtps() * 8.0 / 1000.0
    }

    /// Number of asynchronous pipelines the design instantiates: each
    /// pipeline pairs one Row-Access with one Column-Access channel
    /// (Sec. VIII-A: 32 / 2 = 16 on the U55C).
    pub fn pipelines(&self) -> u32 {
        (self.channels / 2).max(1)
    }

    /// The per-channel [`MemoryChannelSpec`] used by the simulators.
    pub fn channel_spec(&self) -> MemoryChannelSpec {
        MemoryChannelSpec {
            random_mtps: self.random_mtps_per_channel,
            clock_mhz: self.clock_mhz,
            latency_cycles: self.latency_cycles,
            max_outstanding: self.max_outstanding,
        }
    }

    /// Theoretical peak GRW step rate (MStep/s) when each step costs
    /// `txns_per_step` random transactions spread evenly over channels —
    /// the red dashed line of Fig. 11.
    ///
    /// The pipeline clock also bounds steps: each of the
    /// [`PlatformSpec::pipelines`] retires at most one step per cycle.
    pub fn peak_msteps(&self, txns_per_step: f64) -> f64 {
        assert!(txns_per_step > 0.0, "steps must cost at least one access");
        let mem_bound = self.peak_random_mtps() / txns_per_step;
        let clock_bound = self.clock_mhz * f64::from(self.pipelines());
        mem_bound.min(clock_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u55c_matches_calibration() {
        let s = FpgaPlatform::AlveoU55c.spec();
        assert_eq!(s.channels, 32);
        assert_eq!(s.pipelines(), 16);
        assert!((s.peak_random_mtps() - 4800.0).abs() < 1e-9);
        // URW: 2 random transactions per step → 2400 MStep/s peak,
        // consistent with Table III's 2098 MStep/s at 88% utilization.
        let peak = s.peak_msteps(2.0);
        assert!((peak - 2400.0).abs() < 1e-9);
        assert!((0.85..0.92).contains(&(2098.0 / peak)));
    }

    #[test]
    fn u250_matches_calibration() {
        let s = FpgaPlatform::AlveoU250.spec();
        let peak = s.peak_msteps(2.0);
        // Table III: 258 MStep/s at 81% → peak ≈ 318.
        assert!((peak - 318.0).abs() < 5.0, "peak {peak}");
    }

    #[test]
    fn random_peak_is_far_below_sequential() {
        // The central premise of the paper: random-access peak is a small
        // fraction of the quoted sequential bandwidth.
        for p in FpgaPlatform::all() {
            let spec = p.spec();
            assert!(
                spec.peak_random_bandwidth_gbs() < 0.55 * spec.seq_bandwidth_gbs,
                "{}: random {} vs seq {}",
                spec.name,
                spec.peak_random_bandwidth_gbs(),
                spec.seq_bandwidth_gbs
            );
        }
    }

    #[test]
    fn platform_ordering_matches_table_iii() {
        // Table III throughput ordering VCK5000 (202) < U250 (258) <
        // U50 (1463) < U55C (2098) must be implied by the peak step rates.
        let peaks: Vec<f64> = [
            FpgaPlatform::Vck5000,
            FpgaPlatform::AlveoU250,
            FpgaPlatform::AlveoU50,
            FpgaPlatform::AlveoU55c,
        ]
        .iter()
        .map(|p| p.spec().peak_msteps(2.0))
        .collect();
        assert!(peaks.windows(2).all(|w| w[0] < w[1]), "{peaks:?}");
    }

    #[test]
    fn clock_bounds_peak_for_cheap_steps() {
        let s = FpgaPlatform::AlveoU55c.spec();
        // With implausibly cheap steps the pipeline clock must bind:
        // 16 pipelines × 320 MHz = 5120 MStep/s.
        assert!((s.peak_msteps(0.01) - 5120.0).abs() < 1e-9);
    }

    #[test]
    fn channel_spec_inherits_platform_numbers() {
        let s = FpgaPlatform::Vck5000.spec();
        let c = s.channel_spec();
        assert_eq!(c.random_mtps, s.random_mtps_per_channel);
        assert_eq!(c.clock_mhz, s.clock_mhz);
    }

    #[test]
    fn all_lists_every_board_once() {
        let names: Vec<&str> = FpgaPlatform::all().iter().map(|p| p.spec().name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one access")]
    fn zero_cost_steps_panic() {
        let _ = FpgaPlatform::AlveoU50.spec().peak_msteps(0.0);
    }
}
