//! Placement policies: how a tenant's next micro-batch picks its shard.
//!
//! Three built-ins ship, in increasing sophistication:
//!
//! * [`StaticHashPolicy`] — today's behaviour: every query goes to the
//!   vertex-hash home shard. Load-blind; the baseline the adaptive
//!   policies are benched against.
//! * [`LeastLoadedPolicy`] — join-shortest-queue, weighted by each
//!   shard's estimated service rate. Reacts instantly but rebinds the
//!   tenant on every submission, so under oscillating load tenants flap
//!   between shards.
//! * [`AdaptivePolicy`] — cost-based placement with hysteresis: a tenant
//!   stays where it is unless another shard is *enough* better
//!   (relative-improvement threshold) and the tenant has dwelt long
//!   enough on its current shard. Bounded migration under oscillating
//!   load is a property test in `tests/routing.rs`.

use crate::signals::FleetView;
use grw_service::TenantId;

/// A policy's verdict for one micro-batch of one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Route each query to its vertex-hash home among the *eligible*
    /// shards (identical to `Driver::submit` when nothing is
    /// drained). No tenant binding is recorded.
    HashEach,
    /// Park the whole batch on this shard and bind the tenant there
    /// until the policy decides otherwise. Must be an eligible shard.
    Shard(usize),
}

/// Decides where each tenant's next micro-batch of queries executes.
///
/// The router calls [`place`](Self::place) once per `submit` — the
/// micro-batch boundary at which tenant migration is permitted. In-flight
/// queries are never moved: a placement only affects queries accepted
/// *after* it, which is what keeps walk conservation trivial under
/// migration (every query still reaches exactly one shard exactly once).
pub trait RoutePolicy {
    /// Stable policy name for reports and bench records.
    fn name(&self) -> &'static str;

    /// Whether this policy reads the fleet signals. When `false` the
    /// router skips the per-shard snapshot/telemetry sweep and hands
    /// [`place`](Self::place) a [`FleetView`] with an **empty** `shards`
    /// slice (eligibility and rates are still populated). Default `true`.
    fn wants_signals(&self) -> bool {
        true
    }

    /// Chooses a placement for `tenant`'s next `batch`.
    ///
    /// `current` is the tenant's live binding, already filtered for
    /// eligibility (`None` for a first-time tenant *or* one whose bound
    /// shard was drained — either way the policy is free to move it).
    /// Returning [`Placement::Shard`] on an ineligible shard is a
    /// contract violation and panics in the router.
    fn place(
        &mut self,
        tenant: TenantId,
        batch: &[grw_algo::WalkQuery],
        current: Option<usize>,
        fleet: &FleetView<'_>,
    ) -> Placement;
}

/// Boxed policies are policies, so callers can pick one at runtime.
impl RoutePolicy for Box<dyn RoutePolicy + Send> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn wants_signals(&self) -> bool {
        (**self).wants_signals()
    }

    fn place(
        &mut self,
        tenant: TenantId,
        batch: &[grw_algo::WalkQuery],
        current: Option<usize>,
        fleet: &FleetView<'_>,
    ) -> Placement {
        (**self).place(tenant, batch, current, fleet)
    }
}

/// Static vertex-hash placement — the load-blind baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticHashPolicy;

impl RoutePolicy for StaticHashPolicy {
    fn name(&self) -> &'static str {
        "static-hash"
    }

    fn wants_signals(&self) -> bool {
        false
    }

    fn place(
        &mut self,
        _tenant: TenantId,
        _batch: &[grw_algo::WalkQuery],
        _current: Option<usize>,
        _fleet: &FleetView<'_>,
    ) -> Placement {
        Placement::HashEach
    }
}

/// Join-shortest-queue, weighted by estimated service rate: the batch
/// goes wherever it would drain soonest right now. No hysteresis — the
/// tenant rebinds freely every submission.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoadedPolicy;

impl RoutePolicy for LeastLoadedPolicy {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn place(
        &mut self,
        _tenant: TenantId,
        batch: &[grw_algo::WalkQuery],
        _current: Option<usize>,
        fleet: &FleetView<'_>,
    ) -> Placement {
        let best = fleet
            .eligible_shards()
            .map(|s| (s.shard, fleet.drain_time(s, batch.len())))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("router guarantees at least one eligible shard");
        Placement::Shard(best.0)
    }
}

/// Tuning knobs of the [`AdaptivePolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Relative cost improvement another shard must offer before a bound
    /// tenant migrates (`0.3` = at least 30% cheaper). Higher values
    /// trade reaction speed for placement stability.
    pub hysteresis: f64,
    /// Minimum ticks a tenant dwells on its shard between voluntary
    /// migrations — the hard bound on flap rate (at most one migration
    /// per tenant per window, regardless of how wildly the load
    /// signal oscillates). Each tenant's effective window is staggered
    /// by a deterministic per-tenant offset in `[0, min_dwell_ticks/2]`,
    /// so a fleet-wide load swing releases tenants one at a time instead
    /// of stampeding them onto whichever shard momentarily looks empty.
    pub min_dwell_ticks: u64,
    /// Weight of the shard's realized-latency EWMA in the cost score,
    /// in ticks of cost per tick of EWMA. The backlog model predicts
    /// queueing delay; this term folds in what deliveries actually
    /// experienced (batching, pipeline effects the model misses).
    pub ewma_weight: f64,
    /// Cost multiplier per unit of pipeline bubble ratio: a shard
    /// wasting issue slots is charged extra, steering load toward
    /// well-pipelined shards at equal backlog.
    pub bubble_penalty: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            hysteresis: 0.3,
            min_dwell_ticks: 64,
            ewma_weight: 0.25,
            bubble_penalty: 0.5,
        }
    }
}

/// Cost-based placement with hysteresis: pick the cheapest shard by a
/// blended cost score, but move a *bound* tenant only when the win beats
/// the hysteresis threshold and the dwell clock has run out.
#[derive(Debug, Clone, Default)]
pub struct AdaptivePolicy {
    cfg: AdaptiveConfig,
    /// The binding last *observed* per tenant and the tick it was first
    /// seen — the dwell clock. Keyed off observations (the `current`
    /// argument) rather than our own decisions, so a migration the
    /// router could not execute (target shard refused the batch) does
    /// not consume the tenant's dwell window.
    observed: std::collections::HashMap<TenantId, (usize, u64)>,
}

impl AdaptivePolicy {
    /// A policy with the given knobs.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        Self {
            cfg,
            observed: std::collections::HashMap::new(),
        }
    }

    /// This tenant's effective dwell window: the configured minimum plus
    /// a deterministic per-tenant stagger of up to half the window
    /// (de-synchronizes migration waves across tenants).
    fn dwell_for(&self, tenant: TenantId) -> u64 {
        let jitter = self.cfg.min_dwell_ticks / 2;
        if jitter == 0 {
            return self.cfg.min_dwell_ticks;
        }
        self.cfg.min_dwell_ticks + grw_rng::SplitMix64::mix(u64::from(tenant.0)) % (jitter + 1)
    }

    /// The cost of placing `incoming` queries on shard `s` now: estimated
    /// queueing delay, a realized-latency drift term, and a pipeline-waste
    /// penalty.
    fn score(&self, fleet: &FleetView<'_>, s: &grw_service::ShardSnapshot, incoming: usize) -> f64 {
        let mut score = fleet.drain_time(s, incoming)
            + self.cfg.ewma_weight * s.ewma_latency_ticks.unwrap_or(0.0);
        if let Some(pipeline) = s.telemetry.pipeline {
            score *= 1.0 + self.cfg.bubble_penalty * pipeline.bubble_ratio();
        }
        score
    }
}

impl RoutePolicy for AdaptivePolicy {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn place(
        &mut self,
        tenant: TenantId,
        batch: &[grw_algo::WalkQuery],
        current: Option<usize>,
        fleet: &FleetView<'_>,
    ) -> Placement {
        let (best, best_score) = fleet
            .eligible_shards()
            .map(|s| (s.shard, self.score(fleet, s, batch.len())))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("router guarantees at least one eligible shard");
        let Some(cur) = current else {
            // Unbound (new tenant, or its shard was drained): free move.
            // The dwell clock starts when the executed binding is next
            // observed, so forget any stale observation.
            self.observed.remove(&tenant);
            return Placement::Shard(best);
        };
        // Advance the observation: a changed binding means the router
        // executed a move since our last look — the dwell clock restarts
        // at this first sighting.
        let since = match self.observed.get(&tenant) {
            Some(&(shard, since)) if shard == cur => since,
            _ => {
                self.observed.insert(tenant, (cur, fleet.now));
                fleet.now
            }
        };
        if best == cur {
            return Placement::Shard(cur);
        }
        let cur_score = self.score(fleet, &fleet.shards[cur], batch.len());
        let dwelt = fleet.now.saturating_sub(since);
        if best_score < cur_score * (1.0 - self.cfg.hysteresis) && dwelt >= self.dwell_for(tenant) {
            // Do not touch the clock here: if the router cannot place
            // the batch on `best`, the tenant has not moved and remains
            // free to retry immediately.
            Placement::Shard(best)
        } else {
            Placement::Shard(cur)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{tests::snap, ClassRates};
    use grw_algo::BackendClass;

    fn queries(n: usize) -> Vec<grw_algo::WalkQuery> {
        (0..n as u64)
            .map(|id| grw_algo::WalkQuery { id, start: 0 })
            .collect()
    }

    #[test]
    fn least_loaded_picks_the_fastest_draining_shard() {
        // Shard 0: accel, backlog 12 at 4 q/tick -> 3.25 ticks with the
        // batch. Shard 1: cpu, backlog 1 at 1 q/tick -> 2 ticks. JSQ by
        // *time*, not raw depth: the CPU shard wins here.
        let shards = vec![
            snap(0, BackendClass::Accelerator, 12),
            snap(1, BackendClass::Cpu, 1),
        ];
        let eligible = vec![true, true];
        let rates = ClassRates::none()
            .with(BackendClass::Accelerator, 4.0)
            .with(BackendClass::Cpu, 1.0);
        let view = FleetView {
            now: 0,
            shards: &shards,
            eligible: &eligible,
            rates: &rates,
        };
        let mut p = LeastLoadedPolicy;
        assert_eq!(
            p.place(grw_service::TenantId(0), &queries(1), None, &view),
            Placement::Shard(1)
        );
        // Pile 9 more onto the CPU shard and the accelerator wins again.
        let shards = vec![
            snap(0, BackendClass::Accelerator, 12),
            snap(1, BackendClass::Cpu, 10),
        ];
        let view = FleetView {
            shards: &shards,
            ..view
        };
        assert_eq!(
            p.place(grw_service::TenantId(0), &queries(1), None, &view),
            Placement::Shard(0)
        );
    }

    #[test]
    fn least_loaded_skips_drained_shards() {
        let shards = vec![
            snap(0, BackendClass::Accelerator, 0),
            snap(1, BackendClass::Cpu, 50),
        ];
        // The empty accelerator is drained: the loaded CPU shard must win.
        let eligible = vec![false, true];
        let rates = ClassRates::none();
        let view = FleetView {
            now: 0,
            shards: &shards,
            eligible: &eligible,
            rates: &rates,
        };
        assert_eq!(
            LeastLoadedPolicy.place(grw_service::TenantId(1), &queries(4), None, &view),
            Placement::Shard(1)
        );
    }

    #[test]
    fn adaptive_stays_put_inside_the_hysteresis_band() {
        let cfg = AdaptiveConfig {
            hysteresis: 0.5,
            min_dwell_ticks: 0,
            ewma_weight: 0.0,
            bubble_penalty: 0.0,
        };
        let mut p = AdaptivePolicy::new(cfg);
        let t = grw_service::TenantId(3);
        let rates = ClassRates::none()
            .with(BackendClass::Accelerator, 1.0)
            .with(BackendClass::Cpu, 1.0);
        let eligible = vec![true, true];
        // Bound to shard 0 with backlog 10; shard 1 at 7 is better but
        // not 50% better -> stay.
        let shards = vec![
            snap(0, BackendClass::Accelerator, 10),
            snap(1, BackendClass::Cpu, 7),
        ];
        let view = FleetView {
            now: 100,
            shards: &shards,
            eligible: &eligible,
            rates: &rates,
        };
        assert_eq!(p.place(t, &queries(1), Some(0), &view), Placement::Shard(0));
        // Shard 1 at backlog 2 is far past the threshold -> migrate.
        let shards = vec![
            snap(0, BackendClass::Accelerator, 10),
            snap(1, BackendClass::Cpu, 2),
        ];
        let view = FleetView {
            shards: &shards,
            ..view
        };
        assert_eq!(p.place(t, &queries(1), Some(0), &view), Placement::Shard(1));
    }

    #[test]
    fn adaptive_dwell_clock_blocks_early_migration() {
        let cfg = AdaptiveConfig {
            hysteresis: 0.1,
            min_dwell_ticks: 50,
            ewma_weight: 0.0,
            bubble_penalty: 0.0,
        };
        let mut p = AdaptivePolicy::new(cfg);
        let t = grw_service::TenantId(5);
        let rates = ClassRates::none().with(BackendClass::Cpu, 1.0);
        let eligible = vec![true, true];
        let loaded_vs_empty =
            |a: usize, b: usize| vec![snap(0, BackendClass::Cpu, a), snap(1, BackendClass::Cpu, b)];
        // First placement at tick 10 binds shard 1 and starts the clock.
        let shards = loaded_vs_empty(40, 0);
        let view = FleetView {
            now: 10,
            shards: &shards,
            eligible: &eligible,
            rates: &rates,
        };
        assert_eq!(p.place(t, &queries(1), None, &view), Placement::Shard(1));
        // At tick 30 shard 0 looks much better, but only 20 ticks dwelt.
        let shards = loaded_vs_empty(0, 40);
        let view = FleetView {
            now: 30,
            shards: &shards,
            ..view
        };
        assert_eq!(p.place(t, &queries(1), Some(1), &view), Placement::Shard(1));
        // At tick 120 even the staggered window (≤ 1.5 × min_dwell) has
        // passed.
        let view = FleetView {
            now: 120,
            shards: &shards,
            eligible: &eligible,
            rates: &rates,
        };
        assert_eq!(p.place(t, &queries(1), Some(1), &view), Placement::Shard(0));
    }

    #[test]
    fn adaptive_charges_bubbly_pipelines_extra() {
        let cfg = AdaptiveConfig {
            hysteresis: 0.0,
            min_dwell_ticks: 0,
            ewma_weight: 0.0,
            bubble_penalty: 2.0,
        };
        let p = AdaptivePolicy::new(cfg);
        let rates = ClassRates::none().with(BackendClass::Accelerator, 1.0);
        let eligible = vec![true];
        let mut clean = snap(0, BackendClass::Accelerator, 10);
        // One busy cycle: no bubbles. One more, a bubble: 50% bubbles.
        let meter = clean.telemetry.pipeline.insert(Default::default());
        meter.record_busy();
        let mut bubbly = clean.clone();
        bubbly.telemetry.pipeline.as_mut().unwrap().record_bubble();
        let shards = vec![clean.clone()];
        let view = FleetView {
            now: 0,
            shards: &shards,
            eligible: &eligible,
            rates: &rates,
        };
        let base = p.score(&view, &clean, 0);
        let penalized = p.score(&view, &bubbly, 0);
        assert!((penalized / base - 2.0).abs() < 1e-9, "2x at 50% bubbles");
    }
}
