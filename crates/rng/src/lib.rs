//! Pseudo-random number generation for graph random walks.
//!
//! A walk draws a few random numbers per hop, and RidgeWalker executes
//! every hop as a stateless task that may run on any pipeline, in any
//! order. The generators here keep a walk's draws independent of where and
//! when its hops execute:
//!
//! * [`WalkKey`] — walk randomness, one rule for every executor: hop `h` of
//!   query `q` under seed `s` draws from a stream that is a pure function
//!   of `(s, q, h)`, so the CPU kernel, the cycle-level machine and the GPU
//!   model walk identical paths.
//! * [`SplitMix64`] — the stream a hop draws from, and seeding, key mixing
//!   and general-purpose scalar generation (graph generators, arrival
//!   processes, test fixtures).
//! * [`dist`] — exponential, Poisson and normal samplers over any
//!   [`RandomSource`], for the queueing model.
//!
//! # Example
//!
//! ```
//! use grw_rng::{RandomSource, SplitMix64, WalkKey};
//!
//! // A hop's draw depends only on its key, not on who computes it.
//! let key = WalkKey::new(7, 3);
//! assert_eq!(key.hop(2).next_u64(), WalkKey::new(7, 3).hop(2).next_u64());
//! // Distinct seeds give distinct streams.
//! let a: Vec<u64> = {
//!     let mut g = SplitMix64::new(1);
//!     (0..3).map(|_| g.next_u64()).collect()
//! };
//! let b: Vec<u64> = {
//!     let mut g = SplitMix64::new(2);
//!     (0..3).map(|_| g.next_u64()).collect()
//! };
//! assert_ne!(a, b);
//! ```

pub mod dist;
mod splitmix;
mod walk;

pub use splitmix::SplitMix64;
pub use walk::WalkKey;

/// A deterministic source of uniformly distributed 64-bit values.
///
/// All generators in this crate implement this trait. Default methods derive
/// floats, bounded integers and coin flips from the raw 64-bit output without
/// modulo bias (Lemire's multiply-shift rejection method).
pub trait RandomSource {
    /// Returns the next raw 64-bit output of the generator.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniform `f64` in `[0, 1)` using the high 53 bits.
    fn next_f64(&mut self) -> f64 {
        // 53 bits of mantissa; divide by 2^53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` without modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's method: multiply-shift with rejection of the biased zone.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn next_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }
}

/// Blanket impl so `&mut G` can be passed where a source is consumed.
impl<T: RandomSource + ?Sized> RandomSource for &mut T {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of<G: RandomSource>(gen: &mut G, n: usize) -> f64 {
        (0..n).map(|_| gen.next_f64()).sum::<f64>() / n as f64
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut g = SplitMix64::new(1);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut g = SplitMix64::new(42);
        let m = mean_of(&mut g, 100_000);
        assert!((m - 0.5).abs() < 0.01, "mean {m} too far from 0.5");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut g = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(g.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut g = SplitMix64::new(9);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[g.next_below(10) as usize] += 1;
        }
        let expected = n as f64 / 10.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 9 degrees of freedom; 99.9th percentile is ~27.9.
        assert!(chi2 < 30.0, "chi-square {chi2} too large");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        let mut g = SplitMix64::new(1);
        let _ = g.next_below(0);
    }

    #[test]
    fn next_bool_extremes() {
        let mut g = SplitMix64::new(1);
        assert!(g.next_bool(1.0));
        assert!(!g.next_bool(0.0));
    }

    #[test]
    fn next_bool_frequency_tracks_p() {
        let mut g = SplitMix64::new(3);
        let hits = (0..100_000).filter(|_| g.next_bool(0.3)).count();
        let f = hits as f64 / 100_000.0;
        assert!((f - 0.3).abs() < 0.01, "frequency {f}");
    }

    #[test]
    fn mut_ref_is_a_source() {
        fn draw<G: RandomSource>(mut g: G) -> u64 {
            g.next_u64()
        }
        let mut g = SplitMix64::new(5);
        let direct = SplitMix64::new(5).next_u64();
        assert_eq!(draw(&mut g), direct);
    }
}
