//! The result-streaming contract: where completed walks go.
//!
//! [`Driver::tick`](crate::Driver::tick) and
//! [`drain`](crate::Driver::drain) return growing `Vec`s, which means
//! a service that runs for weeks accumulates every path it ever produced
//! unless the caller disposes of them — the last unbounded-growth path in
//! the serving tier. [`WalkSink`] inverts the flow: consumers register
//! *where walks go* and the service streams each [`CompletedWalk`] into
//! exactly one sink as it completes, so the resident completed-path count
//! is bounded by the sink's own buffer capacity plus the service's spill
//! buffer, never by the length of the run.
//!
//! Delivery happens at the coordinator under both executors: the one
//! sink and its spill buffer live on the caller's thread, and worker
//! threads never see a sink. Each batch of walks is offered stamped with
//! the tick it completed in, so a sink sees the same sequence of
//! `(walks, tick)` whichever executor runs the shards.
//!
//! The concrete sinks — skip-gram corpus windows, PPR terminal-visit
//! aggregation, step/latency histograms, per-tenant fan-out routing — live
//! in the `grw_sink` crate, which re-exports this trait; the trait itself
//! sits here, next to [`CompletedWalk`], so the service can hold attached
//! sinks as trait objects without a dependency cycle.
//!
//! # The delivery protocol
//!
//! * [`accept`](WalkSink::accept) offers one walk by reference. The sink
//!   either consumes it ([`SinkAck::Accepted`] — fold it, window it, copy
//!   what it needs) or refuses it ([`SinkAck::Backpressured`]) because its
//!   bounded buffer cannot take the walk right now.
//! * [`flush`](WalkSink::flush) asks the sink to move buffered state
//!   downstream (emit the corpus window, hand counts to a reader) and
//!   thereby make room. **Contract:** after a `flush`, a sink should
//!   accept at least one further walk; a sink that refuses indefinitely
//!   stalls delivery and eventually trips the service's spill-capacity
//!   assertion — deliberately, because silently dropping a walk would
//!   break the conservation guarantee (every delivered walk reaches
//!   exactly one sink route, exactly once).
//! * [`report`](WalkSink::report) returns point-in-time counters for
//!   observability; the service additionally tracks delivery-side
//!   counters in [`ServiceStats`](crate::ServiceStats)
//!   (`sink_accepted` / `sink_backpressured` / `sink_spilled`).

use crate::stats::StatsCollector;
use crate::CompletedWalk;
use grw_obs::ShardObs;
use std::collections::VecDeque;
use std::fmt;

/// A sink's verdict on one offered walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkAck {
    /// The walk was consumed; the sink owns whatever it copied out.
    Accepted,
    /// The sink's bounded buffer is full; re-offer after a
    /// [`flush`](WalkSink::flush) (the service spills and retries).
    Backpressured,
}

/// Point-in-time counters of one sink (or one routed tree of sinks).
///
/// Only `accepted`/`refused`/`flushes` are maintained by every sink;
/// the item-level fields describe whatever the sink's unit of output is
/// (skip-gram pairs, histogram samples, ranked vertices) and stay zero
/// where they do not apply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkReport {
    /// Walks consumed.
    pub accepted: u64,
    /// Accept attempts refused with [`SinkAck::Backpressured`].
    pub refused: u64,
    /// Times the sink flushed buffered state downstream.
    pub flushes: u64,
    /// Output items emitted downstream over the sink's lifetime.
    pub emitted: u64,
    /// Output items currently buffered inside the sink.
    pub buffered: usize,
    /// Largest `buffered` ever observed (the bounded-memory witness).
    pub peak_buffered: usize,
}

impl SinkReport {
    /// Component-wise sum — how a fan-out router aggregates its routes.
    /// `buffered`/`peak_buffered` add too: a router's resident footprint
    /// is the sum of its children's.
    pub fn merge(&mut self, other: &SinkReport) {
        self.accepted += other.accepted;
        self.refused += other.refused;
        self.flushes += other.flushes;
        self.emitted += other.emitted;
        self.buffered += other.buffered;
        self.peak_buffered += other.peak_buffered;
    }
}

impl fmt::Display for SinkReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sink: {} accepted, {} refused, {} flushes | {} emitted, {} buffered (peak {})",
            self.accepted,
            self.refused,
            self.flushes,
            self.emitted,
            self.buffered,
            self.peak_buffered
        )
    }
}

/// A consumer of completed walks with bounded internal buffering.
///
/// See the [module docs](self) for the delivery protocol and the
/// conservation guarantee the service layers on top.
pub trait WalkSink {
    /// Offers one completed walk; the sink consumes it or pushes back.
    fn accept(&mut self, walk: &CompletedWalk) -> SinkAck;

    /// Moves buffered state downstream, making room for further walks.
    fn flush(&mut self);

    /// Point-in-time counters.
    fn report(&self) -> SinkReport;
}

/// Boxed sinks are sinks, so services can hold attached sinks as trait
/// objects while callers keep working with concrete types.
impl<S: WalkSink + ?Sized> WalkSink for Box<S> {
    fn accept(&mut self, walk: &CompletedWalk) -> SinkAck {
        (**self).accept(walk)
    }

    fn flush(&mut self) {
        (**self).flush()
    }

    fn report(&self) -> SinkReport {
        (**self).report()
    }
}

/// Mutable references delegate too, so a caller can lend a sink to
/// `tick_into` and keep using it afterwards.
impl<S: WalkSink + ?Sized> WalkSink for &mut S {
    fn accept(&mut self, walk: &CompletedWalk) -> SinkAck {
        (**self).accept(walk)
    }

    fn flush(&mut self) {
        (**self).flush()
    }

    fn report(&self) -> SinkReport {
        (**self).report()
    }
}

/// The bounded spill buffer between the coordinator's delivery stream
/// and its sink: the conservation machinery (offer → spill on pushback →
/// forced flush before the bound breaches). The [`Driver`](crate::Driver)
/// owns the one instance; the spill belongs to the delivery *stream*, not
/// to any one sink value.
pub(crate) struct SpillDelivery {
    /// Completed walks a backpressured sink could not take yet, oldest
    /// first; bounded by the configured capacity.
    spill: VecDeque<CompletedWalk>,
    capacity: usize,
    /// Observability recorder for this delivery stream (disabled until a
    /// hub is attached). Spill events are stamped with the *walk's*
    /// completion tick — the spill has no clock of its own, and the walk
    /// stamp is deterministic under both executors.
    pub(crate) obs: ShardObs,
}

impl SpillDelivery {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            spill: VecDeque::new(),
            capacity,
            obs: ShardObs::disabled(),
        }
    }

    /// Installs this delivery stream's observability recorder.
    pub(crate) fn set_obs(&mut self, obs: ShardObs) {
        self.obs = obs;
    }

    pub(crate) fn depth(&self) -> usize {
        self.spill.len()
    }

    /// Hands every parked walk back to the caller (oldest first) — the
    /// escape hatch when delivery switches from sink to `Vec` mode.
    pub(crate) fn take_all(&mut self) -> Vec<CompletedWalk> {
        self.spill.drain(..).collect()
    }

    /// Journals one accepted walk's sink-accept stamp — the
    /// delivery-side terminus of the query's span (`now` is the
    /// stream's logical tick, so sink-wait = `now − completed_tick`).
    fn record_accept(&mut self, now: u64, w: &CompletedWalk) {
        self.obs.sink_accepted(
            now,
            w.tenant.0,
            w.path.query,
            w.arrival_tick,
            w.completed_tick,
        );
    }

    /// Offers every walk to the sink, spilled walks first (delivery stays
    /// in completion order); pushback parks walks in the bounded spill
    /// buffer. `now` is the delivery stream's logical tick (the accept
    /// stamp). Returns how many walks entered the sink route.
    pub(crate) fn deliver<S: WalkSink + ?Sized>(
        &mut self,
        walks: Vec<CompletedWalk>,
        sink: &mut S,
        now: u64,
        c: &mut StatsCollector,
    ) -> usize {
        let n = walks.len();
        self.retry(sink, now, c);
        for w in walks {
            if self.spill.is_empty() {
                match sink.accept(&w) {
                    SinkAck::Accepted => {
                        c.sink_accepted += 1;
                        self.record_accept(now, &w);
                        continue;
                    }
                    SinkAck::Backpressured => c.sink_backpressured += 1,
                }
            }
            self.park(w, sink, now, c);
        }
        n
    }

    /// Re-offers spilled walks in order, stopping at the first refusal.
    fn retry<S: WalkSink + ?Sized>(&mut self, sink: &mut S, now: u64, c: &mut StatsCollector) {
        while let Some(w) = self.spill.front() {
            match sink.accept(w) {
                SinkAck::Accepted => {
                    c.sink_accepted += 1;
                    let w = self.spill.pop_front().expect("front exists");
                    self.record_accept(now, &w);
                }
                SinkAck::Backpressured => {
                    c.sink_backpressured += 1;
                    return;
                }
            }
        }
    }

    /// Parks one refused walk in the spill buffer, forcing a sink flush
    /// first if the buffer is at capacity.
    fn park<S: WalkSink + ?Sized>(
        &mut self,
        w: CompletedWalk,
        sink: &mut S,
        now: u64,
        c: &mut StatsCollector,
    ) {
        if self.spill.len() >= self.capacity {
            // Last resort before breaching the delivery-side bound: make
            // the sink move buffered state downstream and retry.
            sink.flush();
            c.sink_forced_flushes += 1;
            self.obs.sink_forced_flush(w.completed_tick);
            self.retry(sink, now, c);
            assert!(
                self.spill.len() < self.capacity,
                "sink refused delivery after a flush: spill capacity {} exhausted",
                self.capacity
            );
            if self.spill.is_empty() {
                // The flush unblocked the sink entirely; deliver this
                // walk now instead of making it wait a tick in the spill.
                match sink.accept(&w) {
                    SinkAck::Accepted => {
                        c.sink_accepted += 1;
                        self.record_accept(now, &w);
                        return;
                    }
                    SinkAck::Backpressured => c.sink_backpressured += 1,
                }
            }
        }
        let tick = w.completed_tick;
        self.spill.push_back(w);
        c.sink_spilled += 1;
        self.obs.sink_spilled(tick, self.spill.len());
    }

    /// Empties the spill buffer into the sink, flushing it as often as
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if a flush frees no room at all (the sink contract says it
    /// must).
    pub(crate) fn run_dry<S: WalkSink + ?Sized>(
        &mut self,
        sink: &mut S,
        now: u64,
        c: &mut StatsCollector,
    ) {
        self.retry(sink, now, c);
        while !self.spill.is_empty() {
            // retry just stopped at a refusal: flushing is the only way
            // forward, so don't re-offer to the unchanged sink first
            // (that would inflate the backpressure counters).
            let before = self.spill.len();
            let tick = self.spill.front().map_or(0, |w| w.completed_tick);
            sink.flush();
            c.sink_forced_flushes += 1;
            self.obs.sink_forced_flush(tick);
            self.retry(sink, now, c);
            assert!(
                self.spill.len() < before,
                "sink accepts no spilled walks even after a flush"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TenantId;
    use grw_algo::WalkPath;

    fn walk(id: u64) -> CompletedWalk {
        CompletedWalk {
            tenant: TenantId(0),
            path: WalkPath::new(id, vec![0, 1]),
            arrival_tick: 0,
            flushed_tick: 0,
            completed_tick: 1,
        }
    }

    /// Accepts everything, counts walks.
    struct Counter(u64);

    impl WalkSink for Counter {
        fn accept(&mut self, _walk: &CompletedWalk) -> SinkAck {
            self.0 += 1;
            SinkAck::Accepted
        }

        fn flush(&mut self) {}

        fn report(&self) -> SinkReport {
            SinkReport {
                accepted: self.0,
                ..SinkReport::default()
            }
        }
    }

    #[test]
    fn boxed_and_borrowed_sinks_delegate() {
        let mut boxed: Box<dyn WalkSink> = Box::new(Counter(0));
        assert_eq!(boxed.accept(&walk(1)), SinkAck::Accepted);
        let mut owned = Counter(0);
        {
            let lent: &mut Counter = &mut owned;
            assert_eq!(lent.accept(&walk(2)), SinkAck::Accepted);
            lent.flush();
        }
        assert_eq!(boxed.report().accepted, 1);
        assert_eq!(owned.report().accepted, 1);
    }

    #[test]
    fn reports_merge_component_wise() {
        let mut a = SinkReport {
            accepted: 3,
            refused: 1,
            flushes: 2,
            emitted: 10,
            buffered: 4,
            peak_buffered: 6,
        };
        let b = SinkReport {
            accepted: 2,
            refused: 0,
            flushes: 1,
            emitted: 5,
            buffered: 1,
            peak_buffered: 2,
        };
        a.merge(&b);
        assert_eq!(a.accepted, 5);
        assert_eq!(a.refused, 1);
        assert_eq!(a.flushes, 3);
        assert_eq!(a.emitted, 15);
        assert_eq!(a.buffered, 5);
        assert_eq!(a.peak_buffered, 8);
    }

    #[test]
    fn display_names_the_essentials() {
        let r = SinkReport {
            accepted: 7,
            ..SinkReport::default()
        };
        let text = r.to_string();
        assert!(text.contains("7 accepted"), "{text}");
        assert!(text.contains("peak"), "{text}");
    }
}
