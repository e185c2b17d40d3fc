//! Driver-generic serving: one type that is either execution regime.
//!
//! [`Driver`] wraps the two runtimes the per-shard
//! `ShardRunner` logic (the private `runner` module) can execute under — the
//! deterministic tick loop ([`WalkService`], one thread, bit-reproducible)
//! and the thread-per-shard [`ThreadedDriver`] (wall-clock parallelism,
//! multiset-reproducible) — behind the shared lifecycle `submit` →
//! `tick`* → `drain`/`finish`, so fleets, routers, and benches write one
//! code path and pick the regime with [`ServiceConfig::driver`].
//!
//! The enum is deliberately thin: anything regime-specific (explicit
//! `tick_into` streaming on the deterministic side, per-shard sink
//! reports on the threaded side) stays on the concrete types, reachable
//! through [`as_deterministic`](Driver::as_deterministic) /
//! [`as_threaded`](Driver::as_threaded).

use crate::{
    CompletedWalk, DriverMode, ServiceConfig, ServiceStats, ShardSnapshot, TenantId,
    ThreadedDriver, WalkService, WalkSink,
};
use grw_algo::{WalkBackend, WalkQuery};
use grw_obs::Obs;

/// A serving runtime in either execution regime. See the
/// [module docs](self).
// A Driver is built once per run and lives on the stack or behind its
// own allocation — never in bulk collections — so the size gap between
// the inline deterministic service and the handle-sized threaded
// driver costs nothing worth an indirection on every tick.
#[allow(clippy::large_enum_variant)]
pub enum Driver<B: WalkBackend> {
    /// The single-threaded logical-tick loop: inline, bit-deterministic.
    Deterministic(WalkService<B>),
    /// One OS thread per shard: same walks as a multiset, real overlap.
    Threaded(ThreadedDriver),
}

impl<B: WalkBackend + Send + 'static> Driver<B> {
    /// Builds the regime [`ServiceConfig::driver`] selects, with the
    /// `shard`-th backend from `make_backend(shard)`.
    ///
    /// `B: Send` because the threaded regime moves each backend onto its
    /// worker thread. A backend type that is *not* `Send` can still serve
    /// deterministically — construct [`WalkService::new`] directly and
    /// wrap it (`Driver::from`).
    pub fn new(cfg: ServiceConfig, make_backend: impl FnMut(usize) -> B) -> Self {
        match cfg.driver {
            DriverMode::Deterministic => Driver::Deterministic(WalkService::new(cfg, make_backend)),
            DriverMode::Threaded => Driver::Threaded(ThreadedDriver::new(cfg, make_backend)),
        }
    }

    /// Grows the live fleet by one shard and returns its index — see
    /// [`WalkService::append_shard`] / [`ThreadedDriver::append_shard`].
    /// In both regimes the append lands at a micro-batch boundary and
    /// the new shard joins the vertex-hash partition from the next
    /// submission; derive its seed with
    /// [`fleet_shard_seed`](crate::fleet_shard_seed) (or reuse the
    /// fleet's shared CPU seed) so scale events stay deterministic.
    pub fn append_shard(&mut self, backend: B) -> usize {
        match self {
            Driver::Deterministic(svc) => svc.append_shard(backend),
            Driver::Threaded(thr) => thr.append_shard(backend),
        }
    }

    /// Shrinks the live fleet by one shard (the highest-index one),
    /// draining it in place so walk conservation holds — see
    /// [`WalkService::retire_shard`] / [`ThreadedDriver::retire_shard`].
    /// Both regimes return only the retiring shard's walks not yet handed
    /// out: its drain output, plus — in the threaded regime, one tick
    /// behind — its last tick's completions.
    ///
    /// # Panics
    ///
    /// Panics if the fleet has only one shard.
    pub fn retire_shard(&mut self) -> Vec<CompletedWalk> {
        match self {
            Driver::Deterministic(svc) => svc.retire_shard(),
            Driver::Threaded(thr) => thr.retire_shard(),
        }
    }
}

impl<B: WalkBackend> Driver<B> {
    /// Which regime this driver is running.
    pub fn mode(&self) -> DriverMode {
        match self {
            Driver::Deterministic(_) => DriverMode::Deterministic,
            Driver::Threaded(_) => DriverMode::Threaded,
        }
    }

    /// The underlying deterministic service, when in that regime.
    pub fn as_deterministic(&self) -> Option<&WalkService<B>> {
        match self {
            Driver::Deterministic(svc) => Some(svc),
            Driver::Threaded(_) => None,
        }
    }

    /// Mutable access to the deterministic service, when in that regime.
    pub fn as_deterministic_mut(&mut self) -> Option<&mut WalkService<B>> {
        match self {
            Driver::Deterministic(svc) => Some(svc),
            Driver::Threaded(_) => None,
        }
    }

    /// The underlying threaded driver, when in that regime.
    pub fn as_threaded(&self) -> Option<&ThreadedDriver> {
        match self {
            Driver::Deterministic(_) => None,
            Driver::Threaded(thr) => Some(thr),
        }
    }

    /// Mutable access to the threaded driver, when in that regime.
    pub fn as_threaded_mut(&mut self) -> Option<&mut ThreadedDriver> {
        match self {
            Driver::Deterministic(_) => None,
            Driver::Threaded(thr) => Some(thr),
        }
    }

    /// The shard a start vertex routes to — the same pure hash partition
    /// in both regimes.
    pub fn shard_of(&self, start: u32) -> usize {
        match self {
            Driver::Deterministic(svc) => svc.shard_of(start),
            Driver::Threaded(thr) => thr.shard_of(start),
        }
    }

    /// Offers queries on behalf of `tenant`, each to its vertex-hash
    /// home; accepts a prefix and returns its length (identical
    /// backpressure semantics in both regimes).
    pub fn submit(&mut self, tenant: TenantId, queries: &[WalkQuery]) -> usize {
        match self {
            Driver::Deterministic(svc) => svc.submit(tenant, queries),
            Driver::Threaded(thr) => thr.submit(tenant, queries),
        }
    }

    /// [`submit`](Self::submit) with every query placed on `shard` by the
    /// caller.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn submit_routed(
        &mut self,
        tenant: TenantId,
        queries: &[WalkQuery],
        shard: usize,
    ) -> usize {
        match self {
            Driver::Deterministic(svc) => svc.submit_routed(tenant, queries, shard),
            Driver::Threaded(thr) => thr.submit_routed(tenant, queries, shard),
        }
    }

    /// [`submit`](Self::submit) with query `i` placed on shard `homes[i]`
    /// by the caller — the one entry both `submit` forms reduce to, and
    /// the hook `grw_route` drives with a whole call at once. See
    /// [`WalkService::submit_placed`] / [`ThreadedDriver::submit_placed`].
    ///
    /// # Panics
    ///
    /// Panics if `homes` and `queries` differ in length or a home is out
    /// of range.
    pub fn submit_placed(
        &mut self,
        tenant: TenantId,
        queries: &[WalkQuery],
        homes: &[usize],
    ) -> usize {
        match self {
            Driver::Deterministic(svc) => svc.submit_placed(tenant, queries, homes),
            Driver::Threaded(thr) => thr.submit_placed(tenant, queries, homes),
        }
    }

    /// Advances the logical clock one tick on every shard. The
    /// deterministic regime returns this tick's completions; the threaded
    /// regime, whose ticks are pipelined one deep, returns the previous
    /// tick's — exactly what deterministic `tick()` *k−1* returned — and
    /// hands the last tick's out at [`drain`](Self::drain) /
    /// [`finish`](Self::finish) (see [`ThreadedDriver::tick`]).
    pub fn tick(&mut self) -> Vec<CompletedWalk> {
        match self {
            Driver::Deterministic(svc) => svc.tick(),
            Driver::Threaded(thr) => thr.tick(),
        }
    }

    /// Runs every shard dry and returns all remaining completions — a
    /// full barrier in both regimes; afterwards
    /// [`queue_depth`](Self::queue_depth) is zero.
    pub fn drain(&mut self) -> Vec<CompletedWalk> {
        match self {
            Driver::Deterministic(svc) => svc.drain(),
            Driver::Threaded(thr) => thr.drain(),
        }
    }

    /// Routes completions into sinks from now on: the deterministic
    /// regime subscribes `make_sink(0)` as its one global sink (a single
    /// delivery stream), the threaded regime gives the `shard`-th worker
    /// thread `make_sink(shard)` (per-shard delivery streams). In both
    /// regimes every delivered walk reaches exactly one sink route
    /// exactly once.
    pub fn attach_sinks(&mut self, mut make_sink: impl FnMut(usize) -> Box<dyn WalkSink + Send>) {
        match self {
            Driver::Deterministic(svc) => {
                svc.attach_sink(make_sink(0));
            }
            Driver::Threaded(thr) => thr.attach_sinks(make_sink),
        }
    }

    /// Attaches an observability hub: every shard records structured
    /// events and registry metrics from now on — see
    /// [`WalkService::attach_obs`] / [`ThreadedDriver::attach_obs`].
    /// Attach before submitting traffic so the trace covers the whole
    /// run; an attached hub never changes walk content or tick stamps.
    pub fn attach_obs(&mut self, obs: Obs) {
        match self {
            Driver::Deterministic(svc) => svc.attach_obs(obs),
            Driver::Threaded(thr) => thr.attach_obs(obs),
        }
    }

    /// Builds a live hub sized by [`ServiceConfig::journal_capacity`],
    /// attaches it, and returns a handle — see
    /// [`crate::ServiceConfig::journal_capacity`].
    pub fn attach_fresh_obs(&mut self) -> Obs {
        match self {
            Driver::Deterministic(svc) => svc.attach_fresh_obs(),
            Driver::Threaded(thr) => thr.attach_fresh_obs(),
        }
    }

    /// The configured journal capacity
    /// ([`crate::ServiceConfig::journal_capacity`]).
    pub fn journal_capacity(&self) -> usize {
        match self {
            Driver::Deterministic(svc) => svc.journal_capacity(),
            Driver::Threaded(thr) => thr.journal_capacity(),
        }
    }

    /// Forces an export barrier so every shard's buffered events reach
    /// the attached hub journal (a worker round-trip in the threaded
    /// regime; inline in the deterministic one).
    pub fn flush_obs(&mut self) {
        match self {
            Driver::Deterministic(svc) => svc.flush_obs(),
            Driver::Threaded(thr) => thr.flush_obs(),
        }
    }

    /// Point-in-time service statistics (a worker round-trip in the
    /// threaded regime).
    pub fn stats(&self) -> ServiceStats {
        match self {
            Driver::Deterministic(svc) => svc.stats(),
            Driver::Threaded(thr) => thr.stats(),
        }
    }

    /// Queries parked in buffers or submission queues plus queries in
    /// flight inside backends, fleet-wide.
    pub fn queue_depth(&self) -> usize {
        match self {
            Driver::Deterministic(svc) => svc.queue_depth(),
            Driver::Threaded(thr) => thr.queue_depth(),
        }
    }

    /// Live per-shard signals for load-aware placement.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        match self {
            Driver::Deterministic(svc) => svc.shard_snapshots(),
            Driver::Threaded(thr) => thr.shard_snapshots(),
        }
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        match self {
            Driver::Deterministic(svc) => svc.now(),
            Driver::Threaded(thr) => thr.now(),
        }
    }

    /// Number of backend shards.
    pub fn shard_count(&self) -> usize {
        match self {
            Driver::Deterministic(svc) => svc.shard_count(),
            Driver::Threaded(thr) => thr.shard_count(),
        }
    }

    /// Clean shutdown: drains everything, stops worker threads in the
    /// threaded regime, and returns all remaining completed walks with
    /// the final statistics.
    pub fn finish(self) -> (Vec<CompletedWalk>, ServiceStats) {
        match self {
            Driver::Deterministic(mut svc) => {
                let walks = svc.drain();
                let stats = svc.stats();
                (walks, stats)
            }
            Driver::Threaded(thr) => thr.finish(),
        }
    }
}

impl<B: WalkBackend> From<WalkService<B>> for Driver<B> {
    fn from(svc: WalkService<B>) -> Self {
        Driver::Deterministic(svc)
    }
}

/// A [`ThreadedDriver`] is a `Driver` for *any* backend type parameter —
/// the workers already own their backends, so `B` is phantom on this arm.
impl<B: WalkBackend> From<ThreadedDriver> for Driver<B> {
    fn from(thr: ThreadedDriver) -> Self {
        Driver::Threaded(thr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_algo::{PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};
    use grw_graph::generators::{Dataset, ScaleFactor};
    use std::sync::Arc;

    fn driver(mode: DriverMode) -> Driver<ReferenceBackend<Arc<PreparedGraph>>> {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(8);
        let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
        Driver::new(ServiceConfig::new(2).driver_mode(mode), move |shard| {
            ReferenceBackend::new(p.clone(), spec.clone(), 0xD1CE ^ shard as u64)
        })
    }

    #[test]
    fn config_selects_the_regime() {
        for (mode, want_threaded) in [
            (DriverMode::Deterministic, false),
            (DriverMode::Threaded, true),
        ] {
            let mut d = driver(mode);
            assert_eq!(d.mode(), mode);
            assert_eq!(d.as_threaded().is_some(), want_threaded);
            assert_eq!(d.as_deterministic().is_some(), !want_threaded);
            assert_eq!(d.shard_count(), 2);

            let qs = QuerySet::random(200, 120, 21);
            assert_eq!(d.submit(TenantId(3), qs.queries()), 120);
            let mut walks = d.tick();
            walks.extend(d.drain());
            assert_eq!(d.queue_depth(), 0);
            let (rest, stats) = d.finish();
            walks.extend(rest);
            assert_eq!(walks.len(), 120);
            assert_eq!(stats.completed, 120);
        }
    }

    #[test]
    fn scale_events_keep_the_multiset_identical_across_regimes() {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(8);
        let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
        let keys = |mode| {
            let make = |shard: usize| {
                ReferenceBackend::new(p.clone(), spec.clone(), 0xD1CE ^ shard as u64)
            };
            let cfg = ServiceConfig::new(2)
                .max_batch(8)
                .max_delay_ticks(1)
                .driver_mode(mode);
            let mut d = Driver::new(cfg, make);
            let qs = QuerySet::random(200, 300, 77);
            let mut walks = Vec::new();
            for (i, chunk) in qs.queries().chunks(50).enumerate() {
                assert_eq!(d.submit(TenantId(2), chunk), 50);
                walks.extend(d.tick());
                // Same scale schedule in both regimes: grow to 3 shards
                // after the second chunk, shrink back after the fourth.
                match i {
                    1 => assert_eq!(d.append_shard(make(2)), 2),
                    3 => walks.extend(d.retire_shard()),
                    _ => {}
                }
            }
            let (rest, stats) = d.finish();
            walks.extend(rest);
            assert_eq!(walks.len(), 300, "conservation across scale events");
            assert_eq!(stats.completed, 300);
            let mut keys: Vec<_> = walks
                .iter()
                .map(|c| {
                    (
                        c.path.query,
                        c.arrival_tick,
                        c.flushed_tick,
                        c.completed_tick,
                        c.path.vertices.clone(),
                    )
                })
                .collect();
            keys.sort();
            keys
        };
        assert_eq!(
            keys(DriverMode::Deterministic),
            keys(DriverMode::Threaded),
            "same walks, tick stamps included, across a scale schedule"
        );
    }

    #[test]
    fn both_regimes_complete_the_same_walks() {
        let run = |mode| {
            let mut d = driver(mode);
            let qs = QuerySet::random(200, 150, 22);
            d.submit(TenantId(1), qs.queries());
            let (mut walks, _) = d.finish();
            walks.sort_by_key(|c| (c.path.query, c.path.vertices.clone()));
            walks
                .into_iter()
                .map(|c| (c.path.query, c.path.vertices))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(DriverMode::Deterministic), run(DriverMode::Threaded));
    }
}
