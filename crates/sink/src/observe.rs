//! Metrics instrumentation for any sink.
//!
//! [`ObservedSink`] wraps a [`WalkSink`] and mirrors its delivery
//! activity into a [`MetricsRegistry`]: accepts, backpressure refusals,
//! flushes, and the walk steps that flowed through. The wrapper is
//! transparent — every call passes straight to the inner sink and the
//! ack is returned unchanged — so it composes with routers, corpus
//! windows, and aggregators alike, and a [`disabled`](
//! grw_obs::MetricsRegistry::disabled) registry turns the whole wrapper
//! into no-op handle calls.

use grw_obs::{Counter, Labels, MetricsRegistry};
use grw_service::{CompletedWalk, SinkAck, SinkReport, WalkSink};

/// A [`WalkSink`] whose delivery counters also land in a metrics
/// registry. `route` labels the stream (a driver's one subscription
/// passes 0; a fan-out deployment passes each branch its own index), so
/// parallel streams stay apart in the exposition.
pub struct ObservedSink<S: WalkSink> {
    inner: S,
    accepted: Counter,
    refused: Counter,
    flushes: Counter,
    steps: Counter,
}

impl<S: WalkSink> ObservedSink<S> {
    /// Wraps `inner`, resolving this route's counters from `registry`.
    pub fn new(inner: S, registry: &MetricsRegistry, route: u32) -> Self {
        let labels = Labels::shard(route);
        Self {
            inner,
            accepted: registry.counter("grw_sink_accepted_total", labels),
            refused: registry.counter("grw_sink_refused_total", labels),
            flushes: registry.counter("grw_sink_flushes_total", labels),
            steps: registry.counter("grw_sink_steps_total", labels),
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: WalkSink> WalkSink for ObservedSink<S> {
    fn accept(&mut self, walk: &CompletedWalk) -> SinkAck {
        let ack = self.inner.accept(walk);
        match ack {
            SinkAck::Accepted => {
                self.accepted.inc();
                self.steps.add(walk.path.steps());
            }
            SinkAck::Backpressured => self.refused.inc(),
        }
        ack
    }

    fn flush(&mut self) {
        self.flushes.inc();
        self.inner.flush();
    }

    fn report(&self) -> SinkReport {
        self.inner.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectingSink;
    use grw_algo::WalkPath;
    use grw_service::TenantId;

    fn walk(id: u64) -> CompletedWalk {
        CompletedWalk {
            tenant: TenantId(0),
            path: WalkPath::new(id, vec![0, 1, 2]),
            arrival_tick: 0,
            flushed_tick: 0,
            completed_tick: 1,
        }
    }

    #[test]
    fn counters_mirror_delivery_activity() {
        let reg = MetricsRegistry::new();
        let mut s = ObservedSink::new(CollectingSink::unbounded().capacity(2), &reg, 3);
        assert_eq!(s.accept(&walk(0)), SinkAck::Accepted);
        assert_eq!(s.accept(&walk(1)), SinkAck::Accepted);
        assert_eq!(s.accept(&walk(2)), SinkAck::Backpressured);
        s.flush();
        assert_eq!(s.accept(&walk(2)), SinkAck::Accepted);
        let labels = Labels::shard(3);
        assert_eq!(
            reg.counter_value("grw_sink_accepted_total", labels),
            Some(3)
        );
        assert_eq!(reg.counter_value("grw_sink_refused_total", labels), Some(1));
        assert_eq!(reg.counter_value("grw_sink_flushes_total", labels), Some(1));
        assert_eq!(reg.counter_value("grw_sink_steps_total", labels), Some(6));
        assert_eq!(s.report().accepted, 3, "report passes through");
        assert_eq!(s.into_inner().len(), 3);
    }

    #[test]
    fn disabled_registry_records_nothing_and_changes_nothing() {
        let reg = MetricsRegistry::disabled();
        let mut s = ObservedSink::new(CollectingSink::unbounded(), &reg, 0);
        for id in 0..10 {
            assert_eq!(s.accept(&walk(id)), SinkAck::Accepted);
        }
        assert_eq!(
            reg.counter_value("grw_sink_accepted_total", Labels::shard(0)),
            None
        );
        assert_eq!(s.inner().len(), 10);
    }
}
