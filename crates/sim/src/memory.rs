//! DRAM/HBM memory-channel model.
//!
//! The paper's bandwidth analysis (Eq. 1) reduces a channel to its
//! sustained random 64-bit transaction rate `f_mem / t_RRD`: every GRW
//! access misses the row buffer, so row-activation spacing — not burst
//! bandwidth — is the binding constraint. This model captures exactly that:
//! a credit accumulator admits transactions at the calibrated rate, each
//! completes after a fixed round-trip latency plus a small bank-dependent
//! jitter (which makes returns out-of-order, as on real HBM), and the
//! controller holds at most `max_outstanding` requests in flight.

use crate::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Static parameters of one memory channel, at core-clock granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryChannelSpec {
    /// Sustained random 64-bit transactions per second, in millions
    /// (the effective `f_mem / t_RRD` of Eq. 1).
    pub random_mtps: f64,
    /// Core clock driving the accelerator, in MHz.
    pub clock_mhz: f64,
    /// Round-trip latency in core cycles (paper: ~100 cycles at 320 MHz).
    pub latency_cycles: Cycle,
    /// Maximum outstanding transactions the controller accepts (paper: 128).
    pub max_outstanding: usize,
}

impl MemoryChannelSpec {
    /// Admission rate in transactions per core cycle.
    pub fn transactions_per_cycle(&self) -> f64 {
        self.random_mtps / self.clock_mhz
    }
}

impl Default for MemoryChannelSpec {
    /// One HBM2 pseudo-channel as calibrated for the U55C (DESIGN.md).
    fn default() -> Self {
        Self {
            random_mtps: 150.0,
            clock_mhz: 320.0,
            latency_cycles: 100,
            max_outstanding: 128,
        }
    }
}

/// Lifetime statistics of a channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Transactions admitted.
    pub issued: u64,
    /// Transactions completed (data returned).
    pub completed: u64,
    /// Issue attempts refused for lack of rate credit.
    pub refused_no_credit: u64,
    /// Issue attempts refused because the outstanding window was full.
    pub refused_outstanding: u64,
}

/// A single memory channel.
///
/// Callers tag each transaction with an opaque `token` (the hardware
/// transaction ID); completions return tokens, possibly out of order, and
/// returns due in the same cycle come back in token order. The admission
/// rate `spec.transactions_per_cycle()` is computed once, when the channel
/// is built, and added to the credit at every [`begin_cycle`](Self::begin_cycle).
///
/// # Example
///
/// ```
/// use grw_sim::{MemoryChannel, MemoryChannelSpec};
///
/// let mut ch = MemoryChannel::new(MemoryChannelSpec::default());
/// ch.begin_cycle(0);
/// assert!(ch.try_issue(7, 1.0, 0));
/// let spec = MemoryChannelSpec::default();
/// ch.begin_cycle(spec.latency_cycles + 8);
/// assert_eq!(ch.pop_ready(), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct MemoryChannel {
    spec: MemoryChannelSpec,
    /// `spec.transactions_per_cycle()`, computed once: credit accrual sits
    /// on the per-cycle path of every channel.
    per_cycle: f64,
    credit: f64,
    inflight: BinaryHeap<Reverse<(Cycle, u64)>>,
    ready: Vec<u64>,
    ready_cursor: usize,
    stats: ChannelStats,
    last_cycle: Option<Cycle>,
}

impl MemoryChannel {
    /// Maximum credit that can be banked, bounding post-idle bursts.
    const CREDIT_CAP: f64 = 4.0;
    /// Return jitter window in cycles (bank timing variation).
    const JITTER_MASK: u64 = 0x7;

    /// Creates a channel from its spec.
    ///
    /// A fresh (idle) channel starts with one transaction of banked credit,
    /// so the first access after an idle period is never rate-refused.
    pub fn new(spec: MemoryChannelSpec) -> Self {
        Self {
            spec,
            per_cycle: spec.transactions_per_cycle(),
            credit: 1.0,
            inflight: BinaryHeap::new(),
            ready: Vec::new(),
            ready_cursor: 0,
            stats: ChannelStats::default(),
            last_cycle: None,
        }
    }

    /// The channel's spec.
    pub fn spec(&self) -> &MemoryChannelSpec {
        &self.spec
    }

    /// Advances channel state to `cycle`: accrues issue credit and moves
    /// matured transactions to the ready queue. Must be called once per
    /// cycle, monotonically.
    pub fn begin_cycle(&mut self, cycle: Cycle) {
        let elapsed = match self.last_cycle {
            Some(prev) => {
                debug_assert!(cycle >= prev, "cycles must be monotonic");
                cycle - prev
            }
            None => 1,
        };
        self.last_cycle = Some(cycle);
        self.credit = (self.credit + elapsed as f64 * self.per_cycle).min(Self::CREDIT_CAP);
        while let Some(&Reverse((ready_at, token))) = self.inflight.peek() {
            if ready_at <= cycle {
                self.inflight.pop();
                self.ready.push(token);
                self.stats.completed += 1;
            } else {
                break;
            }
        }
    }

    /// Whether a transaction of `cost` credits could be admitted right now.
    #[inline]
    pub fn can_issue(&self, cost: f64) -> bool {
        self.credit >= cost && self.inflight.len() < self.spec.max_outstanding
    }

    /// Tries to admit a transaction at `cycle`.
    ///
    /// `cost` is the credit charge: `1.0` for a random 64-bit access; burst
    /// or sequential accesses charge fractions (e.g. `0.125` per word for an
    /// 8-word streak hitting an open row).
    pub fn try_issue(&mut self, token: u64, cost: f64, cycle: Cycle) -> bool {
        if self.credit < cost {
            self.stats.refused_no_credit += 1;
            return false;
        }
        if self.inflight.len() >= self.spec.max_outstanding {
            self.stats.refused_outstanding += 1;
            return false;
        }
        self.credit -= cost;
        let jitter = splitmix(token ^ cycle) & Self::JITTER_MASK;
        let ready_at = cycle + self.spec.latency_cycles + jitter;
        self.inflight.push(Reverse((ready_at, token)));
        self.stats.issued += 1;
        true
    }

    /// Pops one completed token, if any arrived.
    #[inline]
    pub fn pop_ready(&mut self) -> Option<u64> {
        if self.ready_cursor < self.ready.len() {
            let t = self.ready[self.ready_cursor];
            self.ready_cursor += 1;
            if self.ready_cursor == self.ready.len() {
                self.ready.clear();
                self.ready_cursor = 0;
            }
            Some(t)
        } else {
            None
        }
    }

    /// Transactions currently in flight.
    #[inline]
    pub fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    /// Completed-but-unconsumed transactions.
    #[inline]
    pub fn ready_count(&self) -> usize {
        self.ready.len() - self.ready_cursor
    }

    /// Whether the channel holds no work at all.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty() && self.ready_count() == 0
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_spec() -> MemoryChannelSpec {
        MemoryChannelSpec {
            random_mtps: 160.0,
            clock_mhz: 320.0, // 0.5 txn/cycle
            latency_cycles: 10,
            max_outstanding: 64,
        }
    }

    #[test]
    fn issue_rate_is_credit_limited() {
        let mut ch = MemoryChannel::new(fast_spec());
        let mut issued = 0;
        for c in 0..1000u64 {
            ch.begin_cycle(c);
            if ch.try_issue(c, 1.0, c) {
                issued += 1;
            }
            while ch.pop_ready().is_some() {}
        }
        // 0.5 txn/cycle → ~500 issues over 1000 cycles (±1 for start-up credit).
        assert!((480..=521).contains(&issued), "issued {issued}");
    }

    #[test]
    fn completions_arrive_after_latency() {
        let spec = fast_spec();
        let mut ch = MemoryChannel::new(spec);
        ch.begin_cycle(0);
        assert!(ch.try_issue(42, 1.0, 0));
        for c in 1..spec.latency_cycles {
            ch.begin_cycle(c);
            assert_eq!(ch.pop_ready(), None, "completed early at {c}");
        }
        // Jitter window is 0..=7 cycles past nominal latency.
        let mut got = None;
        for c in spec.latency_cycles..spec.latency_cycles + 9 {
            ch.begin_cycle(c);
            if let Some(t) = ch.pop_ready() {
                got = Some((t, c));
                break;
            }
        }
        let (token, _) = got.expect("transaction never completed");
        assert_eq!(token, 42);
    }

    #[test]
    fn outstanding_window_is_enforced() {
        let mut ch = MemoryChannel::new(MemoryChannelSpec {
            random_mtps: 32_000.0, // effectively unlimited credit
            clock_mhz: 320.0,
            latency_cycles: 100,
            max_outstanding: 4,
        });
        ch.begin_cycle(0);
        let mut ok = 0;
        for t in 0..10u64 {
            ch.begin_cycle(t);
            if ch.try_issue(t, 1.0, t) {
                ok += 1;
            }
        }
        assert_eq!(ok, 4, "window must cap outstanding transactions");
        assert!(ch.stats().refused_outstanding > 0);
    }

    #[test]
    fn fractional_cost_models_sequential_bursts() {
        let mut ch = MemoryChannel::new(fast_spec());
        ch.begin_cycle(0);
        // 0.5 credit accrued; a full random txn may not fit but four
        // eighth-cost sequential words do.
        let mut seq = 0;
        for t in 0..4 {
            if ch.try_issue(t, 0.125, 0) {
                seq += 1;
            }
        }
        assert_eq!(seq, 4);
    }

    #[test]
    fn returns_can_reorder_across_tokens() {
        let mut ch = MemoryChannel::new(MemoryChannelSpec {
            random_mtps: 32_000.0,
            clock_mhz: 320.0,
            latency_cycles: 20,
            max_outstanding: 64,
        });
        ch.begin_cycle(0);
        for t in 0..32u64 {
            assert!(ch.try_issue(t, 0.01, 0));
        }
        let mut order = Vec::new();
        for c in 1..64u64 {
            ch.begin_cycle(c);
            while let Some(t) = ch.pop_ready() {
                order.push(t);
            }
        }
        assert_eq!(order.len(), 32);
        let sorted: Vec<u64> = {
            let mut s = order.clone();
            s.sort_unstable();
            s
        };
        assert_ne!(order, sorted, "jitter should reorder some returns");
    }

    #[test]
    fn stats_count_refusals() {
        let mut ch = MemoryChannel::new(MemoryChannelSpec {
            random_mtps: 1.0, // ~0.003 txn/cycle: almost no credit
            clock_mhz: 320.0,
            latency_cycles: 10,
            max_outstanding: 4,
        });
        ch.begin_cycle(0);
        // The start-up credit covers exactly one transaction; the second
        // must be rate-refused.
        assert!(ch.try_issue(0, 1.0, 0));
        assert!(!ch.try_issue(1, 1.0, 0));
        assert_eq!(ch.stats().refused_no_credit, 1);
    }

    #[test]
    fn idle_channel_reports_idle() {
        let mut ch = MemoryChannel::new(fast_spec());
        ch.begin_cycle(0);
        assert!(ch.is_idle());
        ch.try_issue(1, 0.1, 0);
        assert!(!ch.is_idle());
    }
}
