//! # grw_route — load-aware tenant placement over mixed shard fleets
//!
//! `grw_service` serves a sharded fleet, and since the `DynWalkBackend`
//! shard type landed, a fleet can *mix* accelerator shards (batch or
//! incremental cycle-level machines) with CPU shards behind one
//! `WalkService`. What was missing is the layer that decides **who runs
//! where**: static vertex-hash placement spreads load uniformly, which is
//! exactly wrong when the shards are heterogeneous — a slow CPU shard
//! gets the same share as a deep accelerator pipeline, and its queue sets
//! the fleet's tail latency.
//!
//! This crate is that layer. A [`Router`] wraps the service and consults
//! a [`RoutePolicy`] at every micro-batch boundary, handing it the live
//! fleet signals the serving tier already measures:
//!
//! * per-shard occupancy — coalescing-buffer depth, backend residency,
//!   and the incremental machine's awaiting/executing split
//!   ([`ShardSnapshot`]);
//! * per-shard realized latency (EWMA over delivered queries) and
//!   pipeline bubble ratios;
//! * calibrated per-class saturation rates μ̂ from the load harness
//!   ([`ClassRates`]).
//!
//! Three policies ship: [`StaticHashPolicy`] (today's behaviour, the
//! baseline), [`LeastLoadedPolicy`] (weighted join-shortest-queue), and
//! [`AdaptivePolicy`] (cost-based with hysteresis and a per-tenant dwell
//! clock, so tenants don't flap under oscillating load).
//!
//! **Migration and conservation.** Tenants migrate only at micro-batch
//! boundaries: a placement affects queries accepted *after* it, in-flight
//! work always completes on the shard that accepted it, and the service's
//! delivery path is untouched — so every walk still reaches exactly one
//! sink route exactly once, routed or not (property-tested over mixed
//! fleets in `tests/routing.rs`).
//!
//! **Draining.** [`Router::set_shard_eligible`] /
//! [`Router::drain_class`] take shards out of rotation administratively:
//! a drained shard finishes what it holds but never receives another
//! query, under every policy (static hash re-hashes over the eligible
//! subset).
//!
//! **Elastic scaling.** The fleet itself can change size while serving:
//! [`Router::append_shard`] grows it at a micro-batch boundary and
//! [`Router::begin_retire`] / [`Router::try_finish_retire`] shrink it
//! through the drain path, with [`Router::replan`] re-hashing tenant
//! placement over the changed shard set at each boundary. A
//! [`ScalePolicy`] — such as [`TargetSlo`], which holds a latency SLO
//! with hysteresis and staggered cooldowns — closes the loop through
//! [`Router::scale_step`]; see the [`scale`] module docs.
//!
//! # Example
//!
//! ```
//! use grw_algo::{ParallelBackend, PreparedGraph, QuerySet, WalkSpec};
//! use grw_graph::CsrGraph;
//! use grw_route::{AdaptivePolicy, Router};
//! use grw_service::{DynWalkBackend, ServiceConfig, TenantId, WalkService};
//! use std::sync::Arc;
//!
//! let g = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)], true);
//! let spec = WalkSpec::urw(6);
//! let prepared = Arc::new(PreparedGraph::new(g, &spec).unwrap());
//! let service = WalkService::new(ServiceConfig::new(2), |_| -> DynWalkBackend {
//!     Box::new(ParallelBackend::new(prepared.clone(), spec.clone(), 0xFEED, 2))
//! });
//! let mut router = Router::new(service, AdaptivePolicy::default());
//! let queries = QuerySet::random(8, 100, 1);
//! assert_eq!(router.submit(TenantId(7), queries.queries()), 100);
//! assert_eq!(router.drain().len(), 100);
//! println!("{}", router.report());
//! ```

mod policy;
pub mod scale;
mod signals;

pub use policy::{
    AdaptiveConfig, AdaptivePolicy, LeastLoadedPolicy, Placement, RoutePolicy, StaticHashPolicy,
};
pub use scale::{ScaleDecision, ScaleObservation, ScalePolicy, SloConfig, TargetSlo};
pub use signals::{cost_hint_rate, ClassRates, FleetView};

use grw_algo::{BackendClass, WalkQuery};
use grw_obs::{Counter, EventKind, Gauge, Labels, Obs, GLOBAL_SHARD};
use grw_rng::SplitMix64;
use grw_service::{
    CompletedWalk, Driver, DynWalkBackend, ServiceStats, ShardSnapshot, TenantId, WalkService,
    WalkSink,
};
use std::collections::HashMap;
use std::fmt;

/// What the routing tier did, as opposed to what the service underneath
/// measured ([`ServiceStats`]): where queries went and how often tenants
/// moved.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteReport {
    /// Name of the policy that produced this routing.
    pub policy: String,
    /// Tenant rebindings to a *different* shard (micro-batch-boundary
    /// migrations). Hash placement binds nothing and migrates nothing.
    pub migrations: u64,
    /// Queries accepted per shard, by shard index (live shards only).
    pub routed_per_shard: Vec<u64>,
    /// Queries that were routed to shards which have since retired —
    /// their per-shard counters fold in here when the fleet shrinks, so
    /// `routed_per_shard.sum() + routed_retired` still accounts for
    /// every accepted query across the fleet's whole lifetime.
    pub routed_retired: u64,
    /// Queries accepted per backend class, in [`BackendClass::all`] order
    /// (classes with no shards are omitted).
    pub routed_per_class: Vec<(BackendClass, u64)>,
    /// Tenants currently bound to a shard.
    pub bound_tenants: usize,
}

impl RouteReport {
    /// Queries routed to class `c` so far.
    pub fn routed_to(&self, c: BackendClass) -> u64 {
        self.routed_per_class
            .iter()
            .find(|(class, _)| *class == c)
            .map_or(0, |&(_, n)| n)
    }
}

impl fmt::Display for RouteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "routing[{}]: {} migrations, {} bound tenants |",
            self.policy, self.migrations, self.bound_tenants
        )?;
        for (class, n) in &self.routed_per_class {
            write!(f, " {class}: {n}")?;
        }
        write!(f, " | per shard {:?}", self.routed_per_shard)?;
        if self.routed_retired > 0 {
            write!(f, " (+{} on retired shards)", self.routed_retired)?;
        }
        Ok(())
    }
}

/// What one [`Router::scale_step`] control step did. At most one of the
/// action fields is `Some` per step, except that `retired` (completing
/// an *earlier* `Down`) can coincide with this step's own verdict.
#[derive(Debug, Default)]
pub struct ScaleStep {
    /// The policy's verdict this step.
    pub decision: ScaleDecision,
    /// Index of the shard appended by an `Up` verdict.
    pub appended: Option<usize>,
    /// Index of a draining tail shard that an `Up` verdict reactivated
    /// instead of appending a new one.
    pub reactivated: Option<usize>,
    /// Index of the tail shard a `Down` verdict began retiring.
    pub drain_begun: Option<usize>,
    /// Index of a previously-draining shard that ran dry and left the
    /// fleet this step.
    pub retired: Option<usize>,
    /// Straggler walks reclaimed from the retired shard's in-place
    /// drain (usually empty — the shard only retires once idle).
    pub reclaimed: Vec<CompletedWalk>,
}

/// The routing tier: a serving [`Driver`] over a (possibly
/// heterogeneous) fleet, fronted by a [`RoutePolicy`] that places every
/// tenant's micro-batches using live load signals.
///
/// The router is driver-generic: it wraps either execution regime — the
/// deterministic tick loop ([`WalkService`]) or the thread-per-shard
/// `ThreadedDriver` — behind the same placement logic, because
/// `submit_routed`, `shard_snapshots`, and the tick/drain lifecycle have
/// identical semantics in both ([`ShardSnapshot::pending_commands`]
/// additionally exposes the threaded regime's cross-thread backlog to
/// the policies' `backlog()` signal). Delivery passes straight through,
/// so everything the driver guarantees about conservation and
/// (multiset-)determinism holds verbatim.
pub struct Router<P: RoutePolicy> {
    driver: Driver<DynWalkBackend>,
    policy: P,
    rates: ClassRates,
    eligible: Vec<bool>,
    /// Tenant -> shard binding from the last `Placement::Shard` decision.
    bindings: HashMap<TenantId, usize>,
    /// Backend class per shard, captured at construction and refreshed
    /// by [`replan`](Self::replan) at every scale event.
    classes: Vec<BackendClass>,
    migrations: u64,
    routed_per_shard: Vec<u64>,
    /// Routed-query counters of shards that have since retired.
    routed_retired: u64,
    /// Observability hub (disabled until [`attach_obs`](Self::attach_obs)):
    /// the routing tier journals migrations, scale verdicts, and fleet
    /// membership changes into it, alongside the driver's own events.
    obs: Obs,
    /// Registry handles, resolved once at attach time (no-ops before).
    obs_migrations: Counter,
    obs_scale_ups: Counter,
    obs_scale_downs: Counter,
    obs_fleet_shards: Gauge,
}

impl<P: RoutePolicy> Router<P> {
    /// Wraps a serving driver with `policy` — pass a [`WalkService`], a
    /// `ThreadedDriver`, or a [`Driver`] (anything `Into<Driver>`). All
    /// shards start eligible and no calibration is loaded (policies fall
    /// back to cost-hint priors — see [`with_rates`](Self::with_rates)).
    pub fn new(driver: impl Into<Driver<DynWalkBackend>>, policy: P) -> Self {
        let driver = driver.into();
        let classes: Vec<BackendClass> = driver.shard_snapshots().iter().map(|s| s.class).collect();
        let shards = classes.len();
        Self {
            driver,
            policy,
            rates: ClassRates::none(),
            eligible: vec![true; shards],
            bindings: HashMap::new(),
            classes,
            migrations: 0,
            routed_per_shard: vec![0; shards],
            routed_retired: 0,
            obs: Obs::disabled(),
            obs_migrations: Counter::noop(),
            obs_scale_ups: Counter::noop(),
            obs_scale_downs: Counter::noop(),
            obs_fleet_shards: Gauge::noop(),
        }
    }

    /// Attaches an observability hub to the routing tier *and* the
    /// driver underneath: every shard records service events, and the
    /// router additionally journals tenant migrations (with from/to and
    /// moved-batch cost), every scale verdict carrying its control-law
    /// inputs, and fleet membership changes. Attach before submitting
    /// traffic so the trace covers the whole run.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.driver.attach_obs(obs.clone());
        let reg = obs.registry();
        self.obs_migrations = reg.counter("grw_migrations_total", Labels::none());
        self.obs_scale_ups = reg.counter("grw_scale_ups_total", Labels::none());
        self.obs_scale_downs = reg.counter("grw_scale_downs_total", Labels::none());
        self.obs_fleet_shards = reg.gauge("grw_fleet_shards", Labels::none());
        self.obs_fleet_shards.set(self.driver.shard_count() as i64);
        self.obs = obs;
    }

    /// Builds a live hub sized by the service config's
    /// `journal_capacity`, attaches it (routing tier and driver), and
    /// returns a handle.
    pub fn attach_fresh_obs(&mut self) -> Obs {
        let obs = Obs::with_capacity(self.driver.journal_capacity());
        self.attach_obs(obs.clone());
        obs
    }

    /// Forces an export barrier so every shard's buffered events reach
    /// the attached hub journal — see [`Driver::flush_obs`].
    pub fn flush_obs(&mut self) {
        self.driver.flush_obs();
    }

    /// Loads calibrated per-class saturation rates (builder form).
    pub fn with_rates(mut self, rates: ClassRates) -> Self {
        self.rates = rates;
        self
    }

    /// Marks one shard eligible or drained. A drained shard finishes its
    /// in-flight work but receives no further queries; tenants bound to
    /// it are re-placed at their next submission.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn set_shard_eligible(&mut self, shard: usize, eligible: bool) {
        assert!(shard < self.eligible.len(), "shard {shard} out of range");
        self.eligible[shard] = eligible;
    }

    /// Drains (or restores) every shard of a backend class; returns how
    /// many shards changed state.
    pub fn set_class_eligible(&mut self, class: BackendClass, eligible: bool) -> usize {
        let mut changed = 0;
        for (shard, &c) in self.classes.iter().enumerate() {
            if c == class && self.eligible[shard] != eligible {
                self.eligible[shard] = eligible;
                changed += 1;
            }
        }
        changed
    }

    /// Drains every shard of `class` — see
    /// [`set_class_eligible`](Self::set_class_eligible).
    pub fn drain_class(&mut self, class: BackendClass) -> usize {
        self.set_class_eligible(class, false)
    }

    /// The per-shard eligibility mask (false while a shard is drained
    /// or retiring).
    pub fn eligible(&self) -> &[bool] {
        &self.eligible
    }

    /// Re-plans placement over the current shard set — the migration
    /// boundary of every scale event. Refreshes the per-shard class
    /// table, resizes the eligibility mask and routing counters (new
    /// shards start eligible; counters of removed shards fold into the
    /// retired total), and drops tenant bindings that point at shards
    /// which no longer exist or are no longer eligible — those tenants
    /// re-place at their next submission, and each dropped binding
    /// counts as a migration. Returns the number of bindings dropped.
    ///
    /// [`append_shard`](Self::append_shard) and
    /// [`try_finish_retire`](Self::try_finish_retire) call this
    /// automatically; it is idempotent between scale events.
    pub fn replan(&mut self) -> usize {
        self.classes = self
            .driver
            .shard_snapshots()
            .iter()
            .map(|s| s.class)
            .collect();
        let shards = self.classes.len();
        if shards > self.eligible.len() {
            self.eligible.resize(shards, true);
            self.routed_per_shard.resize(shards, 0);
        } else if shards < self.eligible.len() {
            self.eligible.truncate(shards);
            self.routed_retired += self.routed_per_shard[shards..].iter().sum::<u64>();
            self.routed_per_shard.truncate(shards);
        }
        let eligible = self.eligible.clone();
        let mut dropped_bindings: Vec<(TenantId, usize)> = Vec::new();
        self.bindings.retain(|t, s| {
            let keep = *s < shards && eligible[*s];
            if !keep {
                dropped_bindings.push((*t, *s));
            }
            keep
        });
        let dropped = dropped_bindings.len();
        self.migrations += dropped as u64;
        self.obs_migrations.add(dropped as u64);
        self.obs_fleet_shards.set(shards as i64);
        if self.obs.is_enabled() && !dropped_bindings.is_empty() {
            // Binding drops surface in hash-map order; sort by tenant so
            // the journal stays deterministic for a fixed schedule.
            dropped_bindings.sort_by_key(|&(t, _)| t.0);
            let now = self.driver.now();
            for (t, s) in dropped_bindings {
                // An unbinding, not a rebinding: the tenant re-places at
                // its next submission, so `to` is the no-shard sentinel
                // and no batch moved with it.
                self.obs.record(
                    now,
                    GLOBAL_SHARD,
                    EventKind::Migration {
                        tenant: t.0,
                        from: s as u32,
                        to: GLOBAL_SHARD,
                        cost: 0.0,
                    },
                );
            }
        }
        dropped
    }

    /// Grows the live fleet by one shard at a micro-batch boundary and
    /// re-plans placement over it; returns the new shard's index (always
    /// the highest). The shard starts eligible and receives traffic from
    /// the very next [`submit`](Self::submit) — see
    /// [`Driver::append_shard`] for the seeding discipline that keeps
    /// new shards deterministic.
    pub fn append_shard(&mut self, backend: DynWalkBackend) -> usize {
        let shard = self.driver.append_shard(backend);
        if self.obs.is_enabled() {
            self.obs.record(
                self.driver.now(),
                shard as u32,
                EventKind::ShardAppended { reactivated: false },
            );
        }
        self.obs_scale_ups.inc();
        self.replan();
        shard
    }

    /// Starts retiring the highest-index shard: it turns ineligible
    /// immediately (no policy may place there from this moment) but
    /// keeps serving what it holds. Returns the retiring shard's index,
    /// or `None` if the tail shard is already retiring or it is the last
    /// eligible shard. Complete the retirement with
    /// [`try_finish_retire`](Self::try_finish_retire) once it runs dry.
    ///
    /// Retirement is LIFO by construction — both drivers only remove
    /// the tail shard, which is what keeps every surviving shard's index
    /// (and therefore bindings, counters, and snapshots) stable.
    pub fn begin_retire(&mut self) -> Option<usize> {
        let last = self.eligible.len().checked_sub(1)?;
        let live = self.eligible.iter().filter(|&&e| e).count();
        if !self.eligible[last] || live <= 1 {
            return None;
        }
        self.eligible[last] = false;
        if self.obs.is_enabled() {
            self.obs
                .record(self.driver.now(), last as u32, EventKind::RetireBegun);
        }
        Some(last)
    }

    /// Completes a retirement begun by [`begin_retire`](Self::begin_retire):
    /// once the draining tail shard holds no work, removes it from the
    /// fleet (the driver drains it in place, so any stragglers are
    /// conserved and returned here), and re-plans placement over the
    /// smaller fleet. Returns `None` while the shard is still busy, no
    /// retirement is in progress, or only one shard remains.
    pub fn try_finish_retire(&mut self) -> Option<(usize, Vec<CompletedWalk>)> {
        let last = self.eligible.len().checked_sub(1)?;
        if self.eligible[last] || self.eligible.len() <= 1 {
            return None;
        }
        if self.driver.shard_snapshots()[last].backlog() > 0 {
            return None;
        }
        let walks = self.driver.retire_shard();
        if self.obs.is_enabled() {
            self.obs.record(
                self.driver.now(),
                last as u32,
                EventKind::ShardRetired {
                    reclaimed: walks.len() as u32,
                },
            );
        }
        self.obs_scale_downs.inc();
        self.replan();
        Some((last, walks))
    }

    /// One closed-loop control step: finish any in-progress retirement
    /// whose shard has run dry, then consult `policy` on the live fleet
    /// and execute its verdict — `Up` appends a shard built by
    /// `make_backend(next_index)` (or, if the tail shard is still
    /// draining from an earlier `Down`, simply reactivates it — warm
    /// capacity beats a cold start), `Down` begins retiring the tail
    /// shard through the drain path. Call once per control interval
    /// (e.g. every service tick) from a serving loop.
    pub fn scale_step<S: ScalePolicy>(
        &mut self,
        policy: &mut S,
        make_backend: impl FnOnce(usize) -> DynWalkBackend,
    ) -> ScaleStep {
        let mut step = ScaleStep::default();
        if let Some((shard, walks)) = self.try_finish_retire() {
            step.retired = Some(shard);
            step.reclaimed = walks;
        }
        let snaps = self.driver.shard_snapshots();
        let view = FleetView {
            now: self.driver.now(),
            shards: &snaps,
            eligible: &self.eligible,
            rates: &self.rates,
        };
        let observed = policy.observe(&view);
        step.decision = observed.decision;
        // Journal the verdict with its evidence. A quiet Hold (no
        // pressure, no slack, nothing suppressed) journals nothing —
        // recording every idle control step would flood the bounded
        // ring; suppressed verdicts *are* recorded, with the guard that
        // blocked them, so a trace explains why the fleet held still.
        if self.obs.is_enabled()
            && (observed.decision != ScaleDecision::Hold || observed.inputs.suppressed.is_some())
        {
            let tag = match observed.decision {
                ScaleDecision::Hold => "hold",
                ScaleDecision::Up => "up",
                ScaleDecision::Down => "down",
            };
            self.obs.record(
                self.driver.now(),
                GLOBAL_SHARD,
                EventKind::ScaleDecision {
                    decision: tag,
                    inputs: Box::new(observed.inputs),
                },
            );
        }
        match step.decision {
            ScaleDecision::Hold => {}
            ScaleDecision::Up => {
                let last = self.eligible.len() - 1;
                if !self.eligible[last] {
                    self.eligible[last] = true;
                    if self.obs.is_enabled() {
                        self.obs.record(
                            self.driver.now(),
                            last as u32,
                            EventKind::ShardAppended { reactivated: true },
                        );
                    }
                    self.obs_scale_ups.inc();
                    step.reactivated = Some(last);
                } else {
                    let shard = self.append_shard(make_backend(self.eligible.len()));
                    step.appended = Some(shard);
                }
            }
            ScaleDecision::Down => {
                step.drain_begun = self.begin_retire();
            }
        }
        step
    }

    /// The tenant's current shard binding, if a placement recorded one.
    pub fn binding(&self, tenant: TenantId) -> Option<usize> {
        self.bindings.get(&tenant).copied()
    }

    /// Tenant migrations so far (rebindings to a different shard).
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Offers queries on behalf of `tenant`, placing them via the policy;
    /// accepts a prefix and returns its length, exactly like
    /// [`WalkService::submit`]. With every shard drained nothing is
    /// accepted (returns 0).
    pub fn submit(&mut self, tenant: TenantId, queries: &[WalkQuery]) -> usize {
        if queries.is_empty() || !self.eligible.iter().any(|&e| e) {
            return 0;
        }
        // Signals are only gathered for policies that read them — the
        // static-hash baseline skips the per-shard telemetry sweep.
        let snaps = if self.policy.wants_signals() {
            self.driver.shard_snapshots()
        } else {
            Vec::new()
        };
        let view = FleetView {
            now: self.driver.now(),
            shards: &snaps,
            eligible: &self.eligible,
            rates: &self.rates,
        };
        let current = self
            .bindings
            .get(&tenant)
            .copied()
            .filter(|&s| self.eligible[s]);
        match self.policy.place(tenant, queries, current, &view) {
            Placement::HashEach => self.submit_hashed(tenant, queries),
            Placement::Shard(shard) => {
                assert!(
                    self.eligible.get(shard) == Some(&true),
                    "policy '{}' placed {tenant} on drained/unknown shard {shard}",
                    self.policy.name()
                );
                let taken = self.driver.submit_routed(tenant, queries, shard);
                if taken == 0 {
                    // Nothing landed (shard buffer full): the tenant has
                    // not moved, so neither the binding nor the migration
                    // counter may say it did.
                    return 0;
                }
                let prev = self.bindings.insert(tenant, shard);
                if let Some(p) = prev.filter(|&p| p != shard) {
                    self.migrations += 1;
                    self.obs_migrations.inc();
                    if self.obs.is_enabled() {
                        // Cost of the move = the micro-batch that landed
                        // on the new shard at this boundary.
                        self.obs.record(
                            self.driver.now(),
                            GLOBAL_SHARD,
                            EventKind::Migration {
                                tenant: tenant.0,
                                from: p as u32,
                                to: shard as u32,
                                cost: taken as f64,
                            },
                        );
                    }
                }
                self.routed_per_shard[shard] += taken as u64;
                taken
            }
        }
    }

    /// Vertex-hash placement over the eligible subset: with nothing
    /// drained this reproduces [`WalkService::submit`]'s shard choice
    /// query for query. The whole call goes to the driver at once, with
    /// each query's home.
    fn submit_hashed(&mut self, tenant: TenantId, queries: &[WalkQuery]) -> usize {
        let targets: Vec<usize> = (0..self.eligible.len())
            .filter(|&s| self.eligible[s])
            .collect();
        let all = targets.len() == self.eligible.len();
        // With nothing drained this is exactly `WalkService::shard_of`.
        let homes: Vec<usize> = queries
            .iter()
            .map(|q| {
                if all {
                    self.driver.shard_of(q.start)
                } else {
                    targets[(SplitMix64::mix(u64::from(q.start)) % targets.len() as u64) as usize]
                }
            })
            .collect();
        let accepted = self.driver.submit_placed(tenant, queries, &homes);
        for &shard in &homes[..accepted] {
            self.routed_per_shard[shard] += 1;
        }
        accepted
    }

    /// Advances the fleet one tick — see [`Driver::tick`].
    pub fn tick(&mut self) -> Vec<CompletedWalk> {
        self.driver.tick()
    }

    /// [`WalkService::tick_into`]: one tick, delivered into `sink`.
    ///
    /// # Panics
    ///
    /// Panics under the threaded driver — explicit borrowed-sink
    /// delivery is a deterministic-regime API (the sink would have to
    /// cross threads every call); attach owned per-shard sinks with
    /// [`attach_sinks`](Self::attach_sinks) instead.
    pub fn tick_into<S: WalkSink + ?Sized>(&mut self, sink: &mut S) -> usize {
        self.deterministic_mut("tick_into").tick_into(sink)
    }

    /// Runs the fleet dry — see [`Driver::drain`].
    pub fn drain(&mut self) -> Vec<CompletedWalk> {
        self.driver.drain()
    }

    /// [`WalkService::drain_into`]: drains, delivered into `sink`.
    ///
    /// # Panics
    ///
    /// Panics under the threaded driver — see
    /// [`tick_into`](Self::tick_into).
    pub fn drain_into<S: WalkSink + ?Sized>(&mut self, sink: &mut S) -> usize {
        self.deterministic_mut("drain_into").drain_into(sink)
    }

    /// Routes completions into sinks from now on — see
    /// [`Driver::attach_sinks`] (one global sink under the deterministic
    /// regime, one owned sink per worker thread under the threaded one).
    pub fn attach_sinks(&mut self, make_sink: impl FnMut(usize) -> Box<dyn WalkSink + Send>) {
        self.driver.attach_sinks(make_sink);
    }

    /// Queries parked or in flight anywhere in the fleet.
    pub fn queue_depth(&self) -> usize {
        self.driver.queue_depth()
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.driver.now()
    }

    /// Service-level statistics (latency, throughput, per-tenant rows).
    pub fn stats(&self) -> ServiceStats {
        self.driver.stats()
    }

    /// Live per-shard signals (what the policy last saw, re-read).
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.driver.shard_snapshots()
    }

    /// Clean shutdown: drains the fleet (joining worker threads under
    /// the threaded driver) and returns the remaining walks plus final
    /// statistics — see [`Driver::finish`].
    pub fn finish(self) -> (Vec<CompletedWalk>, ServiceStats) {
        self.driver.finish()
    }

    /// What the routing tier did so far.
    pub fn report(&self) -> RouteReport {
        let mut routed_per_class = Vec::new();
        for class in BackendClass::all() {
            let n: u64 = self
                .classes
                .iter()
                .zip(&self.routed_per_shard)
                .filter(|(&c, _)| c == class)
                .map(|(_, &n)| n)
                .sum();
            if self.classes.contains(&class) {
                routed_per_class.push((class, n));
            }
        }
        RouteReport {
            policy: self.policy.name().to_string(),
            migrations: self.migrations,
            routed_per_shard: self.routed_per_shard.clone(),
            routed_retired: self.routed_retired,
            routed_per_class,
            bound_tenants: self.bindings.len(),
        }
    }

    /// Immutable access to the wrapped driver.
    pub fn driver(&self) -> &Driver<DynWalkBackend> {
        &self.driver
    }

    /// Mutable access to the wrapped driver. Submitting through this
    /// bypasses the policy — use [`submit`](Self::submit) for routed
    /// traffic.
    pub fn driver_mut(&mut self) -> &mut Driver<DynWalkBackend> {
        &mut self.driver
    }

    /// Unwraps the router, returning the driver.
    pub fn into_driver(self) -> Driver<DynWalkBackend> {
        self.driver
    }

    /// Immutable access to the wrapped deterministic service.
    ///
    /// # Panics
    ///
    /// Panics under the threaded driver — use [`driver`](Self::driver)
    /// for regime-generic access.
    pub fn service(&self) -> &WalkService<DynWalkBackend> {
        self.driver
            .as_deterministic()
            .expect("service() requires the deterministic driver; use driver()")
    }

    /// Mutable access to the wrapped deterministic service (sink
    /// subscription etc.). Submitting through this bypasses the policy —
    /// use [`submit`](Self::submit) for routed traffic.
    ///
    /// # Panics
    ///
    /// Panics under the threaded driver — use
    /// [`driver_mut`](Self::driver_mut).
    pub fn service_mut(&mut self) -> &mut WalkService<DynWalkBackend> {
        self.deterministic_mut("service_mut")
    }

    /// Unwraps the router, returning the deterministic service.
    ///
    /// # Panics
    ///
    /// Panics under the threaded driver — use
    /// [`into_driver`](Self::into_driver).
    pub fn into_service(self) -> WalkService<DynWalkBackend> {
        match self.driver {
            Driver::Deterministic(svc) => svc,
            Driver::Threaded(_) => {
                panic!("into_service() requires the deterministic driver; use into_driver()")
            }
        }
    }

    fn deterministic_mut(&mut self, what: &str) -> &mut WalkService<DynWalkBackend> {
        self.driver
            .as_deterministic_mut()
            .unwrap_or_else(|| panic!("{what}() requires the deterministic driver"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_algo::{ParallelBackend, PreparedGraph, QuerySet, WalkSpec};
    use grw_graph::generators::{Dataset, ScaleFactor};
    use grw_service::ServiceConfig;
    use std::sync::Arc;

    fn cpu_fleet(shards: usize, seed: u64) -> WalkService<DynWalkBackend> {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(8);
        let prepared = Arc::new(PreparedGraph::new(g, &spec).unwrap());
        WalkService::new(ServiceConfig::new(shards).max_batch(32), move |_| {
            Box::new(ParallelBackend::new(
                prepared.clone(),
                spec.clone(),
                seed,
                2,
            )) as DynWalkBackend
        })
    }

    #[test]
    fn hash_placement_matches_the_service_exactly() {
        let qs = QuerySet::random(2000, 600, 9);
        let mut direct = cpu_fleet(3, 0xAB);
        direct.submit(TenantId(1), qs.queries());
        let mut routed = Router::new(cpu_fleet(3, 0xAB), StaticHashPolicy);
        routed.submit(TenantId(1), qs.queries());
        assert_eq!(
            direct
                .shard_snapshots()
                .iter()
                .map(|s| s.submitted)
                .collect::<Vec<_>>(),
            routed
                .shard_snapshots()
                .iter()
                .map(|s| s.submitted)
                .collect::<Vec<_>>(),
            "hash routing reproduces WalkService::submit placement"
        );
        let mut a = direct.drain();
        let mut b = routed.drain();
        a.sort_by_key(|c| c.path.query);
        b.sort_by_key(|c| c.path.query);
        assert_eq!(a, b, "same shards, same seeds, same walks");
        assert_eq!(routed.report().migrations, 0);
        assert_eq!(routed.report().bound_tenants, 0);
    }

    #[test]
    fn shard_placement_binds_and_counts_migrations() {
        let mut r = Router::new(cpu_fleet(2, 1), LeastLoadedPolicy);
        let qs = QuerySet::random(100, 40, 2);
        // First batch binds; a second identical batch may stay or move
        // depending on load, but bindings are always recorded.
        assert_eq!(r.submit(TenantId(4), qs.queries()), 40);
        assert!(r.binding(TenantId(4)).is_some());
        let done = r.drain();
        assert_eq!(done.len(), 40);
        let report = r.report();
        assert_eq!(report.bound_tenants, 1);
        assert_eq!(report.routed_per_shard.iter().sum::<u64>(), 40);
        assert_eq!(report.routed_to(BackendClass::Cpu), 40);
        assert!(report.to_string().contains("least-loaded"));
    }

    #[test]
    fn fully_drained_fleet_accepts_nothing() {
        let mut r = Router::new(cpu_fleet(2, 1), LeastLoadedPolicy);
        assert_eq!(r.drain_class(BackendClass::Cpu), 2);
        let qs = QuerySet::random(100, 10, 3);
        assert_eq!(r.submit(TenantId(0), qs.queries()), 0);
        assert_eq!(r.queue_depth(), 0);
        // Restoring brings acceptance back.
        assert_eq!(r.set_class_eligible(BackendClass::Cpu, true), 2);
        assert_eq!(r.submit(TenantId(0), qs.queries()), 10);
        assert_eq!(r.drain().len(), 10);
    }

    #[test]
    fn drained_shard_never_receives_under_hash_placement() {
        let mut r = Router::new(cpu_fleet(3, 5), StaticHashPolicy);
        r.set_shard_eligible(1, false);
        let qs = QuerySet::random(2000, 500, 7);
        assert_eq!(r.submit(TenantId(2), qs.queries()), 500);
        let snaps = r.shard_snapshots();
        assert_eq!(snaps[1].submitted, 0, "drained shard got queries");
        assert!(snaps[0].submitted > 0 && snaps[2].submitted > 0);
        assert_eq!(r.drain().len(), 500);
    }

    /// A factory minting identically-seeded CPU shards over one shared
    /// prepared graph — the elastic-fleet tests grow fleets with it.
    fn cpu_backend_factory(seed: u64) -> impl Fn(usize) -> DynWalkBackend + Clone {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(8);
        let prepared = Arc::new(PreparedGraph::new(g, &spec).unwrap());
        move |_| {
            Box::new(ParallelBackend::new(
                prepared.clone(),
                spec.clone(),
                seed,
                2,
            )) as DynWalkBackend
        }
    }

    /// A rate-limited shard: completes at most `rate` (real) walks per
    /// poll. Software backends clear their whole queue every tick, which
    /// makes per-shard capacity infinite under the deterministic driver —
    /// this wrapper restores a finite service rate so queueing pressure
    /// (and therefore SLO-driven scaling) is observable in-process.
    struct TrickleBackend {
        inner: ParallelBackend<Arc<PreparedGraph>>,
        pending: std::collections::VecDeque<grw_algo::WalkQuery>,
        rate: usize,
    }

    impl grw_algo::WalkBackend for TrickleBackend {
        fn submit(&mut self, queries: &[WalkQuery]) -> usize {
            self.pending.extend(queries.iter().cloned());
            queries.len()
        }
        fn poll(&mut self) -> Vec<grw_algo::WalkPath> {
            for _ in 0..self.rate {
                match self.pending.pop_front() {
                    Some(q) => assert_eq!(self.inner.submit(&[q]), 1),
                    None => break,
                }
            }
            self.inner.drain()
        }
        fn drain(&mut self) -> Vec<grw_algo::WalkPath> {
            while let Some(q) = self.pending.pop_front() {
                assert_eq!(self.inner.submit(&[q]), 1);
            }
            self.inner.drain()
        }
        fn capacity_hint(&self) -> usize {
            usize::MAX
        }
        fn in_flight(&self) -> usize {
            self.pending.len() + self.inner.in_flight()
        }
        fn telemetry(&self) -> grw_algo::BackendTelemetry {
            self.inner.telemetry()
        }
    }

    fn trickle_backend_factory(seed: u64, rate: usize) -> impl Fn(usize) -> DynWalkBackend + Clone {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(8);
        let prepared = Arc::new(PreparedGraph::new(g, &spec).unwrap());
        move |_| {
            Box::new(TrickleBackend {
                inner: ParallelBackend::new(prepared.clone(), spec.clone(), seed, 2),
                pending: Default::default(),
                rate,
            }) as DynWalkBackend
        }
    }

    #[test]
    fn append_and_retire_replan_placement_and_conserve_walks() {
        let make = cpu_backend_factory(0xAB);
        let svc = WalkService::new(ServiceConfig::new(2).max_batch(32), &make);
        let mut r = Router::new(svc, StaticHashPolicy);
        let qs = QuerySet::random(2000, 300, 11);
        let mut done = Vec::new();
        assert_eq!(r.submit(TenantId(1), &qs.queries()[..150]), 150);
        done.extend(r.tick());

        // Grow: the appended shard is immediately part of the hash set.
        assert_eq!(r.append_shard(make(2)), 2);
        assert_eq!(r.eligible(), &[true, true, true]);
        assert_eq!(r.submit(TenantId(1), &qs.queries()[150..]), 150);
        assert!(
            r.shard_snapshots()[2].submitted > 0,
            "appended shard receives hashed traffic"
        );

        // Shrink: the tail shard turns ineligible at once...
        assert_eq!(r.begin_retire(), Some(2));
        assert_eq!(
            r.begin_retire(),
            None,
            "a retiring tail cannot retire twice"
        );
        let before = r.shard_snapshots()[2].submitted;
        assert_eq!(r.submit(TenantId(2), &qs.queries()[..100]), 100);
        assert_eq!(
            r.shard_snapshots()[2].submitted,
            before,
            "no new queries land on a retiring shard"
        );
        // ...but leaves the fleet only once it has run dry.
        let (retired, mut reclaimed) = loop {
            if let Some(res) = r.try_finish_retire() {
                break res;
            }
            done.extend(r.tick());
        };
        assert_eq!(retired, 2);
        done.append(&mut reclaimed);
        assert_eq!(r.eligible(), &[true, true]);

        done.extend(r.drain());
        assert_eq!(
            done.len(),
            400,
            "every accepted walk completes exactly once"
        );
        let report = r.report();
        assert_eq!(report.routed_per_shard.len(), 2);
        assert!(report.routed_retired > 0);
        assert_eq!(
            report.routed_per_shard.iter().sum::<u64>() + report.routed_retired,
            400,
            "lifetime routing counters survive the shrink"
        );
    }

    #[test]
    fn closed_loop_scaling_grows_under_pressure_and_shrinks_when_idle() {
        let make = trickle_backend_factory(0xAB, 4);
        let svc = WalkService::new(ServiceConfig::new(1).max_batch(8), &make);
        let mut r = Router::new(svc, StaticHashPolicy)
            .with_rates(ClassRates::none().with(BackendClass::Cpu, 4.0));
        let mut policy = TargetSlo::new(SloConfig {
            target_latency_ticks: 4.0,
            band: 0.25,
            breach_ticks: 2,
            slack_ticks: 3,
            up_cooldown_ticks: 2,
            cooldown_ticks: 4,
            min_shards: 1,
            max_shards: 3,
        });
        let qs = QuerySet::random(2000, 600, 13);
        let mut done = Vec::new();
        let mut offered = 0;
        for chunk in qs.queries().chunks(60) {
            offered += r.submit(TenantId(0), chunk);
            done.extend(r.tick());
            r.scale_step(&mut policy, |s| make(s));
        }
        assert!(
            r.eligible().len() > 1,
            "sustained SLO breach grew the fleet (events: {})",
            policy.events()
        );

        // Arrivals stop; slack must shrink the fleet back to one shard.
        for _ in 0..400 {
            done.extend(r.tick());
            r.scale_step(&mut policy, |s| make(s));
            if r.eligible() == [true] {
                break;
            }
        }
        assert_eq!(
            r.eligible(),
            &[true],
            "sustained slack shrank the fleet back to min_shards"
        );
        done.extend(r.drain());
        assert_eq!(
            done.len(),
            offered,
            "walks conserved across every scale event"
        );
    }

    #[test]
    #[should_panic(expected = "drained/unknown shard")]
    fn policies_may_not_place_on_drained_shards() {
        struct Stubborn;
        impl RoutePolicy for Stubborn {
            fn name(&self) -> &'static str {
                "stubborn"
            }
            fn place(
                &mut self,
                _: TenantId,
                _: &[WalkQuery],
                _: Option<usize>,
                _: &FleetView<'_>,
            ) -> Placement {
                Placement::Shard(0)
            }
        }
        let mut r = Router::new(cpu_fleet(2, 1), Stubborn);
        r.set_shard_eligible(0, false);
        let qs = QuerySet::random(100, 5, 1);
        let _ = r.submit(TenantId(0), qs.queries());
    }
}
