//! Hand-rolled blocking queues for the threaded driver — zero external
//! deps, mirroring the repo's criterion-shim philosophy.
//!
//! Two primitives, both `Mutex` + `Condvar` (std only):
//!
//! * [`SyncQueue`] — a close-able bounded FIFO carrying the driver→worker
//!   command streams (the coordinator blocks when a worker falls behind:
//!   backpressure, not unbounded queueing).
//! * [`Reply`] — a one-shot rendezvous slot: the only way a worker talks
//!   back. Workers fill slots without ever blocking, which is what keeps
//!   the coordinator's blocking command pushes deadlock-free.
//!
//! What crosses per call: a submit is one command per shard it touches
//! (the whole bucket of that shard's queries, usually with no reply); a
//! tick is one command and one reply per shard, the reply carrying that
//! tick's completed walks. Only a submit near buffer saturation pays a
//! round-trip per same-shard run. A plain mutex is nowhere near the
//! bottleneck the walk kernels are at that rate.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How often a blocked [`Reply::recv_while`] re-checks that the
/// responding thread is still alive: a dead worker surfaces within one
/// slice, and a live one costs a wake-up per slice at most.
const LIVENESS_SLICE: Duration = Duration::from_millis(50);

struct QueueState<T> {
    buf: VecDeque<T>,
    closed: bool,
}

/// A blocking multi-producer FIFO with optional capacity and close
/// semantics: `push` blocks while full (erring if closed), `pop` blocks
/// while empty (returning `None` once closed *and* empty — remaining
/// items are always delivered).
pub(crate) struct SyncQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> SyncQueue<T> {
    /// A queue that holds at most `capacity` items; pushes beyond that
    /// block until a consumer makes room.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(QueueState {
                buf: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `v`, blocking while the queue is at capacity. Returns
    /// `Err(v)` if the queue was closed (the item is handed back).
    pub(crate) fn push(&self, v: T) -> Result<(), T> {
        let mut s = self.state.lock().expect("queue lock poisoned");
        while s.buf.len() >= self.capacity && !s.closed {
            s = self.not_full.wait(s).expect("queue lock poisoned");
        }
        if s.closed {
            return Err(v);
        }
        s.buf.push_back(v);
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed and drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(v) = s.buf.pop_front() {
                drop(s);
                self.not_full.notify_one();
                return Some(v);
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait(s).expect("queue lock poisoned");
        }
    }

    /// Closes the queue: subsequent pushes fail, poppers drain what is
    /// left and then see `None`. Idempotent.
    pub(crate) fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently enqueued.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").buf.len()
    }
}

/// A one-shot rendezvous: one side [`send`](Reply::send)s exactly once,
/// the other [`recv_while`](Reply::recv_while)s, blocking until the value
/// arrives or the sending side is known dead.
pub(crate) struct Reply<T> {
    slot: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> Reply<T> {
    pub(crate) fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Fulfills the reply. Double-sends are a protocol bug.
    ///
    /// # Panics
    ///
    /// Panics if the reply was already sent.
    pub(crate) fn send(&self, v: T) {
        let mut slot = self.slot.lock().expect("reply lock poisoned");
        assert!(slot.is_none(), "reply sent twice");
        *slot = Some(v);
        drop(slot);
        self.ready.notify_all();
    }

    /// Blocks until the reply arrives and returns it, or returns `None`
    /// once `alive` reports the responding thread gone with no reply
    /// sent. `alive` is re-checked every [`LIVENESS_SLICE`], under the
    /// slot lock, so a reply sent just before the responder exited is
    /// never mistaken for a death.
    pub(crate) fn recv_while(&self, alive: impl Fn() -> bool) -> Option<T> {
        let mut slot = self.slot.lock().expect("reply lock poisoned");
        loop {
            if let Some(v) = slot.take() {
                return Some(v);
            }
            if !alive() {
                return None;
            }
            slot = self
                .ready
                .wait_timeout(slot, LIVENESS_SLICE)
                .expect("reply lock poisoned")
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn queue_delivers_fifo_across_threads() {
        let q = Arc::new(SyncQueue::bounded(4));
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                for i in 0..100u64 {
                    q.push(i).unwrap();
                }
                q.close();
            })
        };
        let mut got = Vec::new();
        while let Some(v) = q.pop() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_queue_blocks_producers_at_capacity() {
        let q = Arc::new(SyncQueue::bounded(2));
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        // The third push must wait until the consumer pops.
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || q.push(3).unwrap())
        };
        assert_eq!(q.pop(), Some(1));
        producer.join().unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn closed_queue_drains_then_ends() {
        let q: SyncQueue<u32> = SyncQueue::bounded(4);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.push(8), Err(8), "push after close hands the item back");
        assert_eq!(q.pop(), Some(7), "remaining items still delivered");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reply_rendezvous_crosses_threads() {
        let r = Arc::new(Reply::new());
        let sender = {
            let r = r.clone();
            std::thread::spawn(move || r.send(42u64))
        };
        assert_eq!(r.recv_while(|| true), Some(42));
        sender.join().unwrap();
    }

    #[test]
    fn reply_wait_gives_up_on_a_dead_responder() {
        let r: Reply<u64> = Reply::new();
        assert_eq!(r.recv_while(|| false), None, "no responder, no reply");
        r.send(7);
        assert_eq!(
            r.recv_while(|| false),
            Some(7),
            "a reply sent before the responder exited still arrives"
        );
    }
}
