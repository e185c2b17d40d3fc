//! Per-tenant fan-out: one delivery stream, many consumers.

use grw_service::{CompletedWalk, SinkAck, SinkReport, TenantId, WalkSink};

/// Dispatches each walk to the sink registered for its tenant, falling
/// back to a default route — so one `Driver` subscription serves a
/// whole fleet of per-tenant consumers.
///
/// The router preserves the service's conservation guarantee: every
/// accepted walk reaches **exactly one** route (the tenant's sink if
/// registered, the default otherwise), and a route's backpressure is the
/// router's backpressure — the walk is not re-routed elsewhere, because
/// silently diverting tenant data would break per-tenant accounting.
/// `flush` fans out to every route, in tenant order.
pub struct SinkRouter {
    /// Each tenant's route, indexed by tenant id (grown to the highest
    /// tenant registered so far).
    routes: Vec<Option<Box<dyn WalkSink + Send>>>,
    default: Box<dyn WalkSink + Send>,
    /// Walks delivered per tenant (conservation accounting), indexed by
    /// tenant id; the default route's tally is kept under the tenant that
    /// used it.
    routed: Vec<u64>,
    via_default: u64,
    /// Final reports of removed/replaced routes, folded in so the
    /// aggregate [`report`](WalkSink::report) keeps covering every walk
    /// the router ever delivered (no phantom loss after a route retires).
    retired: SinkReport,
}

impl SinkRouter {
    /// Creates a router whose unregistered tenants fall through to
    /// `default`.
    pub fn new(default: Box<dyn WalkSink + Send>) -> Self {
        Self {
            routes: Vec::new(),
            default,
            routed: Vec::new(),
            via_default: 0,
            retired: SinkReport::default(),
        }
    }

    /// Registers `sink` as tenant `tenant`'s route (builder style).
    /// Re-registering a tenant replaces (and drops) its previous sink.
    pub fn route(mut self, tenant: TenantId, sink: Box<dyn WalkSink + Send>) -> Self {
        self.add_route(tenant, sink);
        self
    }

    /// Registers `sink` as tenant `tenant`'s route.
    pub fn add_route(&mut self, tenant: TenantId, sink: Box<dyn WalkSink + Send>) {
        let slot = usize::from(tenant.0);
        if slot >= self.routes.len() {
            self.routes.resize_with(slot + 1, || None);
        }
        if let Some(old) = self.routes[slot].replace(sink) {
            let mut last = old.report();
            // A dropped sink holds nothing anymore; only its history
            // stays in the aggregate.
            last.buffered = 0;
            self.retired.merge(&last);
        }
    }

    /// The sink registered for `tenant`, if any.
    pub fn sink_for(&self, tenant: TenantId) -> Option<&(dyn WalkSink + Send)> {
        self.routes.get(usize::from(tenant.0))?.as_deref()
    }

    /// The default route.
    pub fn default_sink(&self) -> &(dyn WalkSink + Send) {
        &*self.default
    }

    /// Walks delivered on `tenant`'s behalf (via its own route or the
    /// default).
    pub fn delivered_for(&self, tenant: TenantId) -> u64 {
        self.routed.get(usize::from(tenant.0)).copied().unwrap_or(0)
    }

    /// Walks that fell through to the default route.
    pub fn delivered_via_default(&self) -> u64 {
        self.via_default
    }

    /// Removes and returns `tenant`'s sink (subsequent walks fall through
    /// to the default route). Its counters stay folded into the router's
    /// aggregate report, so retiring a route never looks like walk loss.
    pub fn remove_route(&mut self, tenant: TenantId) -> Option<Box<dyn WalkSink + Send>> {
        let sink = self.routes.get_mut(usize::from(tenant.0))?.take()?;
        let mut last = sink.report();
        // The sink leaves with its buffer; only its history stays here.
        last.buffered = 0;
        self.retired.merge(&last);
        Some(sink)
    }
}

impl WalkSink for SinkRouter {
    fn accept(&mut self, walk: &CompletedWalk) -> SinkAck {
        let tenant = usize::from(walk.tenant.0);
        let (ack, via_default) = match self.routes.get_mut(tenant) {
            Some(Some(sink)) => (sink.accept(walk), false),
            _ => (self.default.accept(walk), true),
        };
        if ack == SinkAck::Accepted {
            if tenant >= self.routed.len() {
                self.routed.resize(tenant + 1, 0);
            }
            self.routed[tenant] += 1;
            if via_default {
                self.via_default += 1;
            }
        }
        ack
    }

    fn flush(&mut self) {
        for sink in self.routes.iter_mut().flatten() {
            sink.flush();
        }
        self.default.flush();
    }

    fn report(&self) -> SinkReport {
        let mut merged = self.default.report();
        merged.merge(&self.retired);
        for sink in self.routes.iter().flatten() {
            merged.merge(&sink.report());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectingSink, CountingSink};
    use grw_algo::WalkPath;

    fn walk(tenant: u16, id: u64) -> CompletedWalk {
        CompletedWalk {
            tenant: TenantId(tenant),
            path: WalkPath::new(id, vec![0, 1]),
            arrival_tick: 0,
            flushed_tick: 0,
            completed_tick: 1,
        }
    }

    #[test]
    fn walks_reach_exactly_one_route() {
        let mut router = SinkRouter::new(Box::new(CountingSink::new()))
            .route(TenantId(1), Box::new(CollectingSink::unbounded()))
            .route(TenantId(2), Box::new(CollectingSink::unbounded()));
        for (t, id) in [(1u16, 0u64), (1, 1), (2, 2), (9, 3), (1, 4)] {
            assert_eq!(router.accept(&walk(t, id)), SinkAck::Accepted);
        }
        assert_eq!(router.delivered_for(TenantId(1)), 3);
        assert_eq!(router.delivered_for(TenantId(2)), 1);
        assert_eq!(router.delivered_for(TenantId(9)), 1);
        assert_eq!(router.delivered_via_default(), 1);
        assert_eq!(router.report().accepted, 5, "routes partition the stream");
        assert_eq!(
            router.sink_for(TenantId(1)).unwrap().report().accepted,
            3,
            "tenant 1's sink saw only tenant 1's walks"
        );
        assert!(router.sink_for(TenantId(9)).is_none());
        assert_eq!(router.default_sink().report().accepted, 1);
    }

    #[test]
    fn route_backpressure_is_router_backpressure() {
        let mut router = SinkRouter::new(Box::new(CountingSink::new())).route(TenantId(1), {
            let mut s = CollectingSink::unbounded();
            s = s.capacity(1);
            Box::new(s)
        });
        assert_eq!(router.accept(&walk(1, 0)), SinkAck::Accepted);
        assert_eq!(
            router.accept(&walk(1, 1)),
            SinkAck::Backpressured,
            "full route refuses — the walk is not diverted to the default"
        );
        assert_eq!(router.delivered_via_default(), 0);
        // Fan-out flush frees the route.
        router.flush();
        assert_eq!(router.accept(&walk(1, 1)), SinkAck::Accepted);
        assert_eq!(router.delivered_for(TenantId(1)), 2);
    }

    #[test]
    fn removing_a_route_falls_back_to_default() {
        let mut router = SinkRouter::new(Box::new(CountingSink::new()))
            .route(TenantId(3), Box::new(CountingSink::new()));
        router.accept(&walk(3, 0));
        let removed = router.remove_route(TenantId(3)).expect("was registered");
        assert_eq!(removed.report().accepted, 1);
        router.accept(&walk(3, 1));
        assert_eq!(router.delivered_via_default(), 1);
        // The retired route's history stays in the aggregate: no phantom
        // walk loss after removal.
        assert_eq!(router.report().accepted, 2);
    }
}
