//! xoshiro256**: the per-query stream of the software walk executor.

use crate::{RandomSource, SplitMix64};

/// xoshiro256** (Blackman & Vigna): the general-purpose workhorse.
///
/// 256 bits of state, period 2^256 - 1, excellent statistical quality.
/// The software walk executor gives every query its own generator, keyed
/// by `(seed, query id)`, so a path does not depend on which worker walks
/// it or in what order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator, expanding `seed` through SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

impl RandomSource for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256StarStar::new(99);
        let mut b = Xoshiro256StarStar::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_mean_is_balanced() {
        let mut g = Xoshiro256StarStar::new(7);
        let mean: f64 = (0..50_000).map(|_| g.next_f64()).sum::<f64>() / 50_000.0;
        assert!((mean - 0.5).abs() < 0.01);
    }
}
