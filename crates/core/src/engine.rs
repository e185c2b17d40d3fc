//! The asynchronous memory-access engine (Fig. 6).
//!
//! The engine decouples request issue from response arrival: the *Request
//! Proxy* strips a task's address, tags the DRAM transaction with a free
//! transaction id, and parks the metadata in an on-chip queue; the
//! *Response Proxy* reunites returning data with its metadata and hands a
//! complete task downstream. Because the engine never waits on input
//! readiness, the pipeline behind it keeps issuing — up to the transaction
//! id capacity (64–128) — which is how pointer-chasing latency is amortised
//! across concurrent queries (Observation #1).

use grw_sim::{Cycle, MemoryChannel, MemoryChannelSpec};

/// A non-blocking request/response proxy over one memory channel.
///
/// `M` is the metadata carried alongside each transaction (the task tuple
/// in the real design).
///
/// # Example
///
/// ```
/// use grw_sim::MemoryChannelSpec;
/// use ridgewalker::AsyncAccessEngine;
///
/// let spec = MemoryChannelSpec::default();
/// let mut e: AsyncAccessEngine<&str> = AsyncAccessEngine::new(spec, 64);
/// e.begin_cycle(0);
/// assert!(e.try_issue("row of v2", 1.0, 0));
/// // ... ~latency cycles later the metadata pops out of pop_completed().
/// ```
#[derive(Debug, Clone)]
pub struct AsyncAccessEngine<M> {
    channel: MemoryChannel,
    /// Metadata slab indexed by transaction id (the BRAM metadata queue).
    slab: Vec<Option<M>>,
    free_ids: Vec<u32>,
    issued: u64,
    bytes: u64,
}

impl<M> AsyncAccessEngine<M> {
    /// Creates an engine with `txn_ids` transaction-id slots.
    ///
    /// # Panics
    ///
    /// Panics if `txn_ids == 0`.
    pub fn new(spec: MemoryChannelSpec, txn_ids: usize) -> Self {
        assert!(txn_ids > 0, "need at least one transaction id");
        Self {
            channel: MemoryChannel::new(spec),
            slab: (0..txn_ids).map(|_| None).collect(),
            free_ids: (0..txn_ids as u32).rev().collect(),
            issued: 0,
            bytes: 0,
        }
    }

    /// Advances the channel clock; transactions that matured by `cycle`
    /// become poppable through [`pop_completed`](Self::pop_completed). Call
    /// once per cycle.
    #[inline]
    pub fn begin_cycle(&mut self, cycle: Cycle) {
        self.channel.begin_cycle(cycle);
    }

    /// Whether a request of `cost` credits could be issued right now.
    #[inline]
    pub fn can_issue(&self, cost: f64) -> bool {
        !self.free_ids.is_empty() && self.channel.can_issue(cost)
    }

    /// Issues a request carrying `meta`; returns `false` if refused
    /// (no transaction id, no rate credit, or outstanding window full).
    pub fn try_issue(&mut self, meta: M, cost: f64, cycle: Cycle) -> bool {
        let Some(&id) = self.free_ids.last() else {
            return false;
        };
        if !self.channel.try_issue(u64::from(id), cost, cycle) {
            return false;
        }
        self.free_ids.pop();
        self.slab[id as usize] = Some(meta);
        self.issued += 1;
        // Partial-beat costs still move whole bytes on the bus: round up,
        // and never account a transaction at zero bytes.
        self.bytes += ((cost * 8.0).ceil() as u64).max(1);
        true
    }

    /// Record extra bytes moved by an already-issued transaction (wide RP
    /// entries move 16/32 bytes in one activation).
    pub fn add_bytes(&mut self, bytes: u64) {
        self.bytes += bytes;
    }

    /// Pops one completed request's metadata, in the channel's return
    /// order, straight from the channel's ready queue. Its transaction id
    /// returns to the free list here.
    #[inline]
    pub fn pop_completed(&mut self) -> Option<M> {
        let token = self.channel.pop_ready()?;
        self.free_ids.push(token as u32);
        let meta = self.slab[token as usize]
            .take()
            .expect("completed token must hold metadata");
        Some(meta)
    }

    /// Requests in flight (issued, not yet completed).
    pub fn in_flight(&self) -> usize {
        self.channel.outstanding()
    }

    /// Whether the engine holds no work at all.
    pub fn is_idle(&self) -> bool {
        self.channel.is_idle()
    }

    /// Completed-but-unconsumed count.
    #[inline]
    pub fn pending_completions(&self) -> usize {
        self.channel.ready_count()
    }

    /// Lifetime issued transactions.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Lifetime bytes moved (footprint accounting).
    pub fn bytes_moved(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(outstanding: usize) -> MemoryChannelSpec {
        MemoryChannelSpec {
            random_mtps: 320_000.0, // 1000 txn/cycle: never rate-limited
            clock_mhz: 320.0,
            latency_cycles: 20,
            max_outstanding: outstanding,
        }
    }

    #[test]
    fn metadata_survives_the_round_trip() {
        let mut e: AsyncAccessEngine<u32> = AsyncAccessEngine::new(spec(64), 64);
        e.begin_cycle(0);
        assert!(e.try_issue(777, 1.0, 0));
        let mut got = None;
        for c in 1..40 {
            e.begin_cycle(c);
            if let Some(m) = e.pop_completed() {
                got = Some(m);
                break;
            }
        }
        assert_eq!(got, Some(777));
        assert!(e.is_idle());
    }

    #[test]
    fn txn_ids_bound_concurrency() {
        let mut e: AsyncAccessEngine<u32> = AsyncAccessEngine::new(spec(1024), 4);
        e.begin_cycle(0);
        let mut ok = 0;
        for i in 0..10 {
            if e.try_issue(i, 0.001, 0) {
                ok += 1;
            }
        }
        assert_eq!(ok, 4, "transaction-id slab must cap in-flight requests");
        assert_eq!(e.in_flight(), 4);
    }

    #[test]
    fn blocking_configuration_serialises() {
        // A one-deep window serialises requests: each waits for the
        // previous one's return (the Blocking ablation allows 8).
        let mut e: AsyncAccessEngine<u32> = AsyncAccessEngine::new(spec(1), 64);
        e.begin_cycle(0);
        assert!(e.try_issue(1, 1.0, 0));
        assert!(!e.try_issue(2, 1.0, 0), "second issue must block");
        // After the first completes, the next can go.
        let mut freed = false;
        for c in 1..40 {
            e.begin_cycle(c);
            if e.pop_completed().is_some() {
                freed = true;
                assert!(e.try_issue(2, 1.0, c));
                break;
            }
        }
        assert!(freed);
    }

    #[test]
    fn many_outstanding_requests_overlap() {
        let mut e: AsyncAccessEngine<u32> = AsyncAccessEngine::new(spec(128), 128);
        // Issue one request per cycle for 64 cycles; with latency 20 the
        // engine should be fully overlapped, completing ~1 per cycle after
        // the fill delay. Total time ≈ 64 + latency + jitter, far below the
        // serialised 64 × 20.
        let mut completed = 0;
        let mut cycle = 0;
        let mut next = 0u32;
        while completed < 64 {
            e.begin_cycle(cycle);
            if next < 64 && e.try_issue(next, 1.0, cycle) {
                next += 1;
            }
            while e.pop_completed().is_some() {
                completed += 1;
            }
            cycle += 1;
            assert!(cycle < 200, "async engine failed to overlap latency");
        }
        assert!(cycle < 120, "completion took {cycle} cycles");
    }

    #[test]
    fn byte_accounting_tracks_issues() {
        let mut e: AsyncAccessEngine<u32> = AsyncAccessEngine::new(spec(8), 8);
        e.begin_cycle(0);
        e.try_issue(0, 1.0, 0);
        assert_eq!(e.bytes_moved(), 8);
        e.add_bytes(24); // a 256-bit RP entry moves 24 extra bytes
        assert_eq!(e.bytes_moved(), 32);
    }

    #[test]
    fn sub_byte_costs_round_up_not_down() {
        let mut e: AsyncAccessEngine<u32> = AsyncAccessEngine::new(spec(8), 8);
        e.begin_cycle(0);
        // 0.3 credits = 2.4 bytes of bus traffic: must charge 3, not 2.
        assert!(e.try_issue(0, 0.3, 0));
        assert_eq!(e.bytes_moved(), 3);
        // A fractional credit below one byte still moves one byte.
        assert!(e.try_issue(1, 0.01, 0));
        assert_eq!(e.bytes_moved(), 4);
        // 1.125 credits (the FastRW RNG-tax shape) = 9 bytes exactly.
        assert!(e.try_issue(2, 1.125, 0));
        assert_eq!(e.bytes_moved(), 13);
    }

    #[test]
    #[should_panic(expected = "transaction id")]
    fn zero_ids_panics() {
        let _: AsyncAccessEngine<u8> = AsyncAccessEngine::new(spec(1), 0);
    }
}
