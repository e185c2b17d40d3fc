//! The per-shard micro-batch coalescer.
//!
//! Incoming queries park in a bounded buffer until either the buffer holds
//! a full micro-batch (`max_batch`) or the oldest parked query has waited
//! `max_delay_ticks` service ticks — the classic size-or-deadline batching
//! front-end. Size flushes favour throughput; deadline flushes bound the
//! latency a trickle of traffic can suffer.
//!
//! Every parked query remembers its own arrival tick, so partial flushes
//! and backend pushback never restart anyone's deadline clock: the oldest
//! *remaining* query always drives [`MicroBatcher::due`].

use grw_algo::WalkQuery;
use std::collections::VecDeque;

/// Why a micro-batch left the coalescing buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The buffer reached the size bound.
    Size,
    /// The oldest parked query reached the deadline bound.
    Deadline,
    /// The service is draining: everything goes, ready or not.
    Drain,
}

/// Size/deadline-bounded coalescing buffer for one shard.
#[derive(Debug, Clone)]
pub(crate) struct MicroBatcher {
    /// Parked queries with their arrival ticks, oldest first.
    buf: VecDeque<(WalkQuery, u64)>,
    /// The batch most recently removed by `take_batch`, and beside it
    /// each of its queries' arrival ticks. Both buffers are reused from
    /// batch to batch. The ticks let the runner record who arrived when,
    /// and let `unshift` restore pushback with its true ages — a query
    /// that already passed its deadline must stay past-deadline, not
    /// wait out a fresh `max_delay_ticks`.
    taken: Vec<WalkQuery>,
    taken_arrivals: Vec<u64>,
    max_batch: usize,
    max_delay_ticks: u64,
    capacity: usize,
}

impl MicroBatcher {
    pub(crate) fn new(max_batch: usize, max_delay_ticks: u64, capacity: usize) -> Self {
        assert!(max_batch > 0, "micro-batch size must be positive");
        assert!(capacity >= max_batch, "buffer must hold one full batch");
        Self {
            buf: VecDeque::new(),
            taken: Vec::new(),
            taken_arrivals: Vec::new(),
            max_batch,
            max_delay_ticks,
            capacity,
        }
    }

    /// Parks a query; `false` means the buffer is full (backpressure).
    pub(crate) fn push(&mut self, q: WalkQuery, now: u64) -> bool {
        if self.buf.len() >= self.capacity {
            return false;
        }
        self.buf.push_back((q, now));
        true
    }

    /// Whether a batch should flush at tick `now`, and why.
    pub(crate) fn due(&self, now: u64) -> Option<FlushReason> {
        let &(_, oldest) = self.buf.front()?;
        if self.buf.len() >= self.max_batch {
            return Some(FlushReason::Size);
        }
        (now.saturating_sub(oldest) >= self.max_delay_ticks).then_some(FlushReason::Deadline)
    }

    /// Takes up to one micro-batch out of the buffer. The remainder (if
    /// the buffer held more than `max_batch`) stays parked, each survivor
    /// keeping its own arrival tick — the deadline clock never restarts on
    /// a flush.
    pub(crate) fn take_batch(&mut self) -> &[WalkQuery] {
        let n = self.buf.len().min(self.max_batch);
        self.taken.clear();
        self.taken_arrivals.clear();
        for (q, arrival) in self.buf.drain(..n) {
            self.taken.push(q);
            self.taken_arrivals.push(arrival);
        }
        &self.taken
    }

    /// Keeps the first `accepted` queries of the last taken batch and
    /// returns the rest to the *front* of the buffer (backend pushback),
    /// each with its original arrival tick, so ordering and ages are both
    /// preserved.
    ///
    /// # Panics
    ///
    /// Panics if `accepted` exceeds the length of the batch most recently
    /// returned by [`take_batch`](Self::take_batch).
    pub(crate) fn unshift(&mut self, accepted: usize) {
        assert!(
            accepted <= self.taken.len(),
            "a backend cannot accept more than it was offered"
        );
        for i in (accepted..self.taken.len()).rev() {
            self.buf.push_front((self.taken[i], self.taken_arrivals[i]));
        }
        self.taken.truncate(accepted);
        self.taken_arrivals.truncate(accepted);
    }

    /// The queries of the last taken batch that stayed taken, each with
    /// its arrival tick, in flush order.
    pub(crate) fn taken(&self) -> impl Iterator<Item = (&WalkQuery, u64)> {
        self.taken.iter().zip(self.taken_arrivals.iter().copied())
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(id: u64) -> WalkQuery {
        WalkQuery { id, start: 0 }
    }

    #[test]
    fn size_flush_fires_at_max_batch() {
        let mut b = MicroBatcher::new(3, 100, 16);
        assert!(b.due(0).is_none());
        b.push(q(0), 0);
        b.push(q(1), 0);
        assert!(b.due(0).is_none(), "under-size batch waits for deadline");
        b.push(q(2), 0);
        assert_eq!(b.due(0), Some(FlushReason::Size));
        assert_eq!(b.take_batch().len(), 3);
        assert!(b.is_empty());
    }

    #[test]
    fn deadline_flush_fires_on_age() {
        let mut b = MicroBatcher::new(64, 5, 128);
        b.push(q(0), 10);
        assert!(b.due(14).is_none());
        assert_eq!(b.due(15), Some(FlushReason::Deadline));
    }

    #[test]
    fn oversized_buffer_flushes_in_batch_sized_pieces() {
        let mut b = MicroBatcher::new(2, 0, 8);
        for i in 0..5 {
            assert!(b.push(q(i), 0));
        }
        assert_eq!(b.take_batch().len(), 2);
        assert_eq!(b.take_batch().len(), 2);
        assert_eq!(b.take_batch().len(), 1);
        assert!(b.take_batch().is_empty());
    }

    #[test]
    fn capacity_pushes_back() {
        let mut b = MicroBatcher::new(2, 0, 2);
        assert!(b.push(q(0), 0));
        assert!(b.push(q(1), 0));
        assert!(!b.push(q(2), 0), "full buffer must refuse");
    }

    #[test]
    fn unshift_preserves_order() {
        let mut b = MicroBatcher::new(2, 0, 8);
        for i in 0..3 {
            b.push(q(i), 0);
        }
        // The backend is offered [0, 1] and accepts one query; the rest
        // bounce back.
        assert_eq!(b.take_batch().len(), 2);
        b.unshift(1);
        let ids: Vec<u64> = b.take_batch().iter().map(|x| x.id).collect();
        assert_eq!(ids, vec![1, 2], "pushback rejoins ahead of later arrivals");
    }

    #[test]
    fn take_batch_preserves_survivor_age() {
        // Regression: a partial flush used to restart the survivors'
        // deadline clock at the flush tick, so under a steady trickle a
        // parked query's latency was unbounded.
        let mut b = MicroBatcher::new(2, 10, 8);
        b.push(q(0), 0);
        b.push(q(1), 0);
        b.push(q(2), 5);
        assert_eq!(b.due(2), Some(FlushReason::Size));
        assert_eq!(b.take_batch().len(), 2); // q0, q1 leave at tick 2
                                             // Survivor q2 arrived at tick 5: its deadline is 15, not 2 + 10.
        assert!(b.due(14).is_none(), "survivor is not due early either");
        assert_eq!(
            b.due(15),
            Some(FlushReason::Deadline),
            "survivor age preserved across the flush"
        );
    }

    #[test]
    fn unshift_after_pushback_keeps_the_deadline_clock_running() {
        let mut b = MicroBatcher::new(64, 4, 128);
        b.push(q(0), 10);
        // Deadline passes at tick 14; the flush attempt is pushed back.
        assert_eq!(b.due(14), Some(FlushReason::Deadline));
        b.take_batch();
        b.unshift(0);
        // The query is still past its deadline: retry immediately, don't
        // wait out another max_delay_ticks.
        assert_eq!(b.due(15), Some(FlushReason::Deadline));
    }
}
