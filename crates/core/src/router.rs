//! The data-aware Task Router.
//!
//! A butterfly interconnect that delivers each task to the memory channel
//! holding the data it needs next: the Row-Access channel owning
//! `RP[v_curr]` for recirculated tasks, or the Column-Access channel named
//! in a freshly read RP entry (§IV-B step ➍). The performance-relevant
//! properties are its fixed pipeline latency (`2·log2(N)` cycles — two per
//! stage) and the II=1 rate of each output port; this model captures both
//! while keeping per-cycle cost O(ports).

use grw_sim::Cycle;
use std::collections::VecDeque;

/// A fixed-latency, per-port-rate-limited routing fabric.
///
/// # Example
///
/// ```
/// use ridgewalker::TaskRouter;
///
/// let mut r: TaskRouter<&str> = TaskRouter::new(4);
/// r.push("task", 2, 0);
/// assert!(r.pop_ready(2, 0).is_none()); // still in flight
/// let lat = r.latency();
/// assert_eq!(r.pop_ready(2, lat), Some("task"));
/// ```
#[derive(Debug, Clone)]
pub struct TaskRouter<T> {
    latency: Cycle,
    per_port_window: usize,
    ports: Vec<VecDeque<(Cycle, T)>>,
    last_pop: Vec<Option<Cycle>>,
    /// Tasks inside the fabric, summed over ports.
    in_flight: usize,
    /// `(ready cycle, tasks)` of recent pushes that may not be ready yet,
    /// oldest first; `fresh` sums their task counts. A task's ready cycle
    /// is its push cycle plus the fixed latency, so entries arrive in
    /// ready order and none of them can have been popped.
    recent: VecDeque<(Cycle, usize)>,
    fresh: usize,
    routed: u64,
}

impl<T> TaskRouter<T> {
    /// In-flight budget per output port before the fabric backpressures.
    const DEFAULT_WINDOW: usize = 8;

    /// Creates a router with `ports` outputs (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero or not a power of two.
    pub fn new(ports: usize) -> Self {
        assert!(
            ports > 0 && ports.is_power_of_two(),
            "butterfly ports must be a power of two"
        );
        let stages = ports.trailing_zeros() as Cycle;
        Self {
            latency: 2 * stages,
            per_port_window: Self::DEFAULT_WINDOW + 2 * stages as usize,
            ports: (0..ports).map(|_| VecDeque::new()).collect(),
            last_pop: vec![None; ports],
            in_flight: 0,
            recent: VecDeque::new(),
            fresh: 0,
            routed: 0,
        }
    }

    /// Number of output ports.
    pub fn ports(&self) -> usize {
        self.ports.len()
    }

    /// Pipeline latency through the fabric in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Whether a task for `port` can enter this cycle (backpressure view).
    pub fn can_push(&self, port: usize) -> bool {
        self.ports[port].len() < self.per_port_window
    }

    /// Routes `value` toward `port`, entering at `cycle`.
    ///
    /// Returns `false` when that port's window is full (backpressure).
    pub fn push(&mut self, value: T, port: usize, cycle: Cycle) -> bool {
        if !self.can_push(port) {
            return false;
        }
        let ready = cycle + self.latency;
        self.ports[port].push_back((ready, value));
        match self.recent.back_mut() {
            Some((at, n)) if *at == ready => *n += 1,
            _ => self.recent.push_back((ready, 1)),
        }
        self.fresh += 1;
        self.in_flight += 1;
        self.routed += 1;
        true
    }

    /// Whether some port holds a task that has traversed the fabric by
    /// `cycle` (ignoring the one-per-cycle port limit). When this is
    /// `false`, no [`pop_ready`](Self::pop_ready) at `cycle` can succeed.
    #[inline]
    pub fn any_ready(&mut self, cycle: Cycle) -> bool {
        while let Some(&(ready, n)) = self.recent.front() {
            if ready > cycle {
                break;
            }
            self.recent.pop_front();
            self.fresh -= n;
        }
        self.in_flight > self.fresh
    }

    /// Pops the next task that has traversed the fabric to `port`.
    /// Each port delivers at most one task per cycle (II = 1).
    #[inline]
    pub fn pop_ready(&mut self, port: usize, cycle: Cycle) -> Option<T> {
        if self.last_pop[port] == Some(cycle) {
            return None; // one per port per cycle
        }
        if self.ports[port]
            .front()
            .is_some_and(|&(ready, _)| ready <= cycle)
        {
            self.last_pop[port] = Some(cycle);
            self.in_flight -= 1;
            return self.ports[port].pop_front().map(|(_, v)| v);
        }
        None
    }

    /// Tasks currently inside the fabric (all ports).
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether the fabric holds no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.in_flight == 0
    }

    /// Lifetime routed count.
    pub fn routed(&self) -> u64 {
        self.routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_scales_with_ports() {
        assert_eq!(TaskRouter::<u8>::new(1).latency(), 0);
        assert_eq!(TaskRouter::<u8>::new(4).latency(), 4);
        assert_eq!(TaskRouter::<u8>::new(16).latency(), 8);
    }

    #[test]
    fn tasks_arrive_after_latency_in_order() {
        let mut r: TaskRouter<u32> = TaskRouter::new(4);
        r.push(1, 0, 0);
        r.push(2, 0, 1);
        assert_eq!(r.pop_ready(0, 3), None);
        assert_eq!(r.pop_ready(0, 4), Some(1));
        assert_eq!(r.pop_ready(0, 5), Some(2));
        assert!(r.is_empty());
    }

    #[test]
    fn each_port_delivers_once_per_cycle() {
        let mut r: TaskRouter<u32> = TaskRouter::new(2);
        r.push(1, 1, 0);
        r.push(2, 1, 0);
        let at = r.latency() + 1;
        assert_eq!(r.pop_ready(1, at), Some(1));
        assert_eq!(r.pop_ready(1, at), None, "II = 1 per port");
        assert_eq!(r.pop_ready(1, at + 1), Some(2));
    }

    #[test]
    fn any_ready_matches_a_scan_of_the_ports() {
        let mut r: TaskRouter<u32> = TaskRouter::new(4);
        let mut state = 7u64;
        for cycle in 0..2_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let scan = r
                .ports
                .iter()
                .any(|q| q.front().is_some_and(|&(ready, _)| ready <= cycle));
            assert_eq!(r.any_ready(cycle), scan, "cycle {cycle}");
            for port in 0..4 {
                if (state >> (33 + port)) & 1 == 1 {
                    r.pop_ready(port, cycle);
                }
            }
            for k in 0..(state >> 60) as usize % 3 {
                r.push(cycle as u32, (k + cycle as usize) % 4, cycle);
            }
        }
    }

    #[test]
    fn ports_are_independent() {
        let mut r: TaskRouter<u32> = TaskRouter::new(2);
        r.push(10, 0, 0);
        r.push(11, 1, 0);
        let at = r.latency();
        assert_eq!(r.pop_ready(0, at), Some(10));
        assert_eq!(r.pop_ready(1, at), Some(11));
    }

    #[test]
    fn window_exerts_backpressure() {
        let mut r: TaskRouter<u32> = TaskRouter::new(2);
        let mut accepted = 0;
        for i in 0..100 {
            if r.push(i, 0, 0) {
                accepted += 1;
            }
        }
        assert!(accepted < 100, "window must bound in-flight tasks");
        assert_eq!(accepted, r.in_flight());
        assert_eq!(r.in_flight(), r.ports.iter().map(VecDeque::len).sum());
        assert!(!r.can_push(0));
        assert!(r.can_push(1), "other ports unaffected");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_port_count_panics() {
        let _: TaskRouter<u8> = TaskRouter::new(3);
    }
}
