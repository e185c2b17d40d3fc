//! Walk randomness: one keyed stream per hop.
//!
//! RidgeWalker turns a walk into stateless hop tasks that may run on any
//! pipeline, in any order. That leaves the walk unchanged only if a hop's
//! draws depend on the walk and the hop alone. Every executor in this
//! workspace therefore draws hop `h` of query `q` under walk seed `s`
//! from one stream, a pure function of `(s, q, h)`:
//!
//! * the walk key `k = mix(s ^ mix(q))` is computed once per walk;
//! * hop `h` draws from `SplitMix64::new(k + ((h·γ) << 32))`, so its
//!   draw `i` (from 0) is `mix(k + γ·(h·2³² + i + 1))`, with `γ` the
//!   SplitMix64 increment and `mix` its finalizer.
//!
//! `γ` is odd, so distinct Weyl positions `h·2³² + i + 1` give distinct
//! inputs to `mix`: two hops of one walk never share a draw while a hop
//! draws fewer than 2³² numbers. A draw costs one `mix`, and a hop's
//! stream costs an add and a multiply to open.

use crate::SplitMix64;

/// The key of one walk's randomness: hop `h` draws from [`WalkKey::hop`].
///
/// # Example
///
/// ```
/// use grw_rng::{RandomSource, WalkKey};
///
/// // A hop's draws depend only on (seed, query id, hop).
/// let key = WalkKey::new(7, 42);
/// assert_eq!(key.hop(3).next_u64(), WalkKey::new(7, 42).hop(3).next_u64());
/// assert_ne!(key.hop(3).next_u64(), key.hop(4).next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WalkKey(u64);

impl WalkKey {
    /// The key of query `query_id`'s walk under walk seed `seed`.
    #[inline]
    pub fn new(seed: u64, query_id: u64) -> Self {
        Self(SplitMix64::mix(seed ^ SplitMix64::mix(query_id)))
    }

    /// The stream hop `hop` (from 0) of this walk draws from.
    #[inline]
    pub fn hop(self, hop: u32) -> SplitMix64 {
        SplitMix64::new(
            self.0
                .wrapping_add(u64::from(hop).wrapping_mul(SplitMix64::GAMMA) << 32),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomSource;

    #[test]
    fn hop_draws_follow_the_closed_form() {
        let key = WalkKey::new(0x5EED, 9);
        let k = SplitMix64::mix(0x5EED ^ SplitMix64::mix(9));
        for hop in [0u32, 1, 7, u32::MAX] {
            let mut rng = key.hop(hop);
            for i in 0..4u64 {
                let position = (u64::from(hop) << 32).wrapping_add(i + 1);
                let want =
                    SplitMix64::mix(k.wrapping_add(SplitMix64::GAMMA.wrapping_mul(position)));
                assert_eq!(rng.next_u64(), want, "hop {hop} draw {i}");
            }
        }
    }

    #[test]
    fn streams_depend_on_seed_query_and_hop() {
        let first = |seed, id, hop| WalkKey::new(seed, id).hop(hop).next_u64();
        let base = first(1, 2, 3);
        assert_eq!(base, first(1, 2, 3));
        assert_ne!(base, first(0, 2, 3));
        assert_ne!(base, first(1, 3, 3));
        assert_ne!(base, first(1, 2, 4));
    }

    /// First draws over adjacent query ids and adjacent hops — the keys a
    /// fleet actually uses — are balanced bit by bit.
    #[test]
    fn adjacent_walks_and_hops_are_balanced() {
        let n = 64 * 64;
        let mut ones = [0u32; 64];
        let mut mean = 0.0;
        for id in 0..64 {
            let key = WalkKey::new(17, id);
            for hop in 0..64 {
                let x = key.hop(hop).next_u64();
                mean += (x >> 11) as f64 / (1u64 << 53) as f64;
                for (bit, count) in ones.iter_mut().enumerate() {
                    *count += (x >> bit) as u32 & 1;
                }
            }
        }
        mean /= f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        // Each bit is Binomial(4096, 1/2): sd 32, so 160 is 5 sd.
        for (bit, &count) in ones.iter().enumerate() {
            assert!((i64::from(count) - 2048).abs() < 160, "bit {bit}: {count}");
        }
    }
}
