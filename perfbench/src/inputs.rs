//! Seeded open-loop input streams: which vertex each query starts from,
//! which tenant sends it, and at which logical tick it arrives.
//!
//! The generator is the benchmark's own (a SplitMix64 stream), so the
//! inputs for a seed never change when the serving stack does.

/// A stream of queries; query `i` has id `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Start vertex per query.
    pub starts: Vec<u32>,
    /// Submitting tenant per query.
    pub tenants: Vec<u16>,
    /// Arrival tick per query, non-decreasing.
    pub arrivals: Vec<u64>,
}

/// How arrivals are spaced in logical ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Poisson arrivals at `per_tick` queries per tick.
    Poisson { per_tick: f64 },
    /// Two-state on/off bursts (MMPP-2): Poisson at `burstiness ×
    /// per_tick` while on (16 arrivals per burst on average), silent while
    /// off, phases sized so the long-run mean is `per_tick`.
    Bursty { per_tick: f64, burstiness: f64 },
}

/// Where queries start.
#[derive(Debug, Clone, PartialEq)]
pub enum Starts {
    /// Uniform over `0..vertices`.
    Uniform { vertices: u32 },
    /// Uniform over the listed vertices.
    Among(Vec<u32>),
}

/// Mean arrivals per on-phase of [`Arrivals::Bursty`].
const BURST_MEAN_ARRIVALS: f64 = 16.0;

/// SplitMix64: a small, well-mixed seeded generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Exponential with the given rate.
    fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Arrival times (continuous, in ticks) of `n` queries.
fn arrival_times(rng: &mut SplitMix64, n: usize, arrivals: Arrivals) -> Vec<f64> {
    let mut clock = 0.0;
    match arrivals {
        Arrivals::Poisson { per_tick } => (0..n)
            .map(|_| {
                clock += rng.exponential(per_tick);
                clock
            })
            .collect(),
        Arrivals::Bursty {
            per_tick,
            burstiness,
        } => {
            let on_rate = per_tick * burstiness;
            let mean_on = BURST_MEAN_ARRIVALS / on_rate;
            let mean_off = mean_on * (burstiness - 1.0);
            let mut phase_end = rng.exponential(1.0 / mean_on);
            let mut times = Vec::with_capacity(n);
            while times.len() < n {
                let candidate = clock + rng.exponential(on_rate);
                if candidate <= phase_end {
                    clock = candidate;
                    times.push(clock);
                } else {
                    // The on-phase ended first: skip the off-phase.
                    clock = phase_end + rng.exponential(1.0 / mean_off);
                    phase_end = clock + rng.exponential(1.0 / mean_on);
                }
            }
            times
        }
    }
}

/// Stream number `index` for `seed`: `n` queries from `starts`, tenants
/// assigned round-robin over `tenants`, arrivals spaced by `arrivals`.
///
/// # Panics
///
/// Panics if `tenants` is zero or `starts` names no vertex.
pub fn stream(
    seed: u64,
    index: u64,
    n: usize,
    starts: &Starts,
    tenants: u16,
    arrivals: Arrivals,
) -> Stream {
    assert!(tenants > 0, "a stream needs a tenant");
    let mut rng = SplitMix64(seed ^ 0x5EED_0F57_2EA3);
    // Stream `index` starts 2^40 draws per index further along the same
    // sequence, far beyond what any earlier stream draws.
    rng.0 = rng
        .0
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64.wrapping_shl(40)));
    let starts = (0..n)
        .map(|_| match starts {
            Starts::Uniform { vertices } => {
                assert!(*vertices > 0, "a stream needs a vertex");
                rng.below(u64::from(*vertices)) as u32
            }
            Starts::Among(set) => set[rng.below(set.len() as u64) as usize],
        })
        .collect();
    let arrivals = arrival_times(&mut rng, n, arrivals)
        .into_iter()
        .map(|t| t.floor() as u64)
        .collect();
    Stream {
        starts,
        tenants: (0..n).map(|i| (i % usize::from(tenants)) as u16).collect(),
        arrivals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let shape = Arrivals::Poisson { per_tick: 4.0 };
        let uniform = Starts::Uniform { vertices: 100 };
        let a = stream(1, 0, 500, &uniform, 3, shape);
        assert_eq!(a, stream(1, 0, 500, &uniform, 3, shape));
        assert_ne!(a, stream(2, 0, 500, &uniform, 3, shape));
        assert_ne!(a, stream(1, 1, 500, &uniform, 3, shape));
        assert!(a.starts.iter().all(|&v| v < 100));
        assert_eq!(&a.tenants[..4], &[0, 1, 2, 0]);
        assert!(a.arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn arrival_rates_hold_their_means() {
        for shape in [
            Arrivals::Poisson { per_tick: 8.0 },
            Arrivals::Bursty {
                per_tick: 8.0,
                burstiness: 8.0,
            },
        ] {
            let s = stream(3, 0, 40_000, &Starts::Among(vec![5, 6]), 1, shape);
            let rate = 40_000.0 / (*s.arrivals.last().unwrap() + 1) as f64;
            assert!((rate - 8.0).abs() / 8.0 < 0.1, "{shape:?} rate {rate}");
            assert!(s.starts.iter().all(|&v| v == 5 || v == 6));
        }
    }
}
