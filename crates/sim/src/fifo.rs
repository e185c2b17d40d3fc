//! Bounded hardware FIFO with two-phase commit.

use std::collections::VecDeque;

/// A registered hardware FIFO.
///
/// During a cycle, producers [`push`](Fifo::push) and consumers
/// [`pop`](Fifo::pop) freely; pushed values are *staged* and only become
/// poppable after [`commit`](Fifo::commit) — the register update at the
/// clock edge. Capacity counts staged plus stored elements, so a producer
/// can never overfill the FIFO within a cycle.
///
/// The paper implements shallow inter-module FIFOs in LUTs and deeper ones
/// (metadata queues, scheduler buffers) in BRAM; both behave like this.
///
/// Staged values wait behind the committed ones in a single queue, so the
/// clock edge is O(1): it only moves the committed boundary. The FIFO keeps
/// no occupancy statistics.
///
/// # Example
///
/// ```
/// use grw_sim::Fifo;
///
/// let mut f = Fifo::new(2);
/// assert!(f.push(1));
/// assert!(f.pop().is_none()); // not visible until the clock edge
/// f.commit();
/// assert_eq!(f.pop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    /// Committed elements first, then the ones staged this cycle.
    queue: VecDeque<T>,
    /// How many elements at the front of `queue` are committed.
    committed: usize,
    capacity: usize,
}

impl<T> Fifo<T> {
    /// Creates a FIFO holding at most `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FIFO capacity must be positive");
        Self {
            queue: VecDeque::with_capacity(capacity),
            committed: 0,
            capacity,
        }
    }

    /// Total occupancy (stored + staged) — what a producer's `full` wire sees.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the FIFO holds no elements at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether a producer can push this cycle.
    #[inline]
    pub fn can_push(&self) -> bool {
        self.queue.len() < self.capacity
    }

    /// Capacity the FIFO was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pushes a value; returns `false` (dropping nothing) when full.
    #[inline]
    pub fn push(&mut self, value: T) -> bool {
        if !self.can_push() {
            return false;
        }
        self.queue.push_back(value);
        true
    }

    /// Pops the oldest committed value, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if self.committed == 0 {
            return None;
        }
        self.committed -= 1;
        self.queue.pop_front()
    }

    /// Peeks at the oldest committed value.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        if self.committed == 0 {
            None
        } else {
            self.queue.front()
        }
    }

    /// Clock edge: staged values become visible.
    #[inline]
    pub fn commit(&mut self) {
        self.committed = self.queue.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_is_invisible_until_commit() {
        let mut f = Fifo::new(4);
        assert!(f.push(7));
        assert_eq!(f.front(), None);
        assert_eq!(f.pop(), None);
        f.commit();
        assert_eq!(f.front(), Some(&7));
        assert_eq!(f.pop(), Some(7));
    }

    #[test]
    fn capacity_counts_staged_elements() {
        let mut f = Fifo::new(2);
        assert!(f.push(1));
        assert!(f.push(2));
        assert!(!f.push(3), "staged elements must count toward capacity");
        assert!(!f.can_push());
    }

    #[test]
    fn fifo_order_is_preserved_across_commits() {
        let mut f = Fifo::new(8);
        f.push(1);
        f.push(2);
        f.commit();
        f.push(3);
        f.commit();
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn pop_frees_capacity_within_the_cycle() {
        let mut f = Fifo::new(1);
        f.push(1);
        f.commit();
        assert!(!f.can_push());
        assert_eq!(f.pop(), Some(1));
        // A pop in the same cycle frees the slot (standard FIFO behaviour:
        // simultaneous read+write at full is legal).
        assert!(f.push(2));
        f.commit();
        assert_eq!(f.pop(), Some(2));
    }

    /// Reference model: a two-queue FIFO whose pushes land in a staged
    /// queue that the clock edge appends to the stored one.
    struct Reference {
        stored: VecDeque<u32>,
        staged: VecDeque<u32>,
        capacity: usize,
    }

    impl Reference {
        fn push(&mut self, v: u32) -> bool {
            if self.stored.len() + self.staged.len() >= self.capacity {
                return false;
            }
            self.staged.push_back(v);
            true
        }

        fn commit(&mut self) {
            self.stored.append(&mut self.staged);
        }
    }

    #[test]
    fn matches_the_two_queue_reference_model() {
        // A tiny LCG keeps the op mix varied without a dev-dependency.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for capacity in 1..=9 {
            let mut f = Fifo::new(capacity);
            let mut r = Reference {
                stored: VecDeque::new(),
                staged: VecDeque::new(),
                capacity,
            };
            for op in 0..4_000u32 {
                match next(8) {
                    0..=3 => assert_eq!(f.push(op), r.push(op)),
                    4 | 5 => assert_eq!(f.pop(), r.stored.pop_front()),
                    _ => {
                        f.commit();
                        r.commit();
                    }
                }
                assert_eq!(f.front(), r.stored.front());
                assert_eq!(f.len(), r.stored.len() + r.staged.len());
                assert_eq!(f.can_push(), f.len() < capacity);
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: Fifo<u8> = Fifo::new(0);
    }

    #[test]
    fn front_peeks_without_removing() {
        let mut f = Fifo::new(2);
        f.push(9);
        f.commit();
        assert_eq!(f.front(), Some(&9));
        assert_eq!(f.len(), 1);
        assert_eq!(f.pop(), Some(9));
    }
}
