//! Every call the benchmark makes into the walk-serving stack.
//!
//! The rest of the benchmark speaks its own types ([`Delivery`],
//! [`Calls`], [`Layers`]); this file turns them into repository calls. From
//! the serving tier it uses only `Router::{new, submit, tick, finish,
//! attach_sinks, attach_obs}`, the fleet constructors (`Driver::new`,
//! `shard_backend`) and the `WalkBackend`, `WalkSink` and `RoutePolicy`
//! traits, so a change to the serving API is edited here and nowhere else.
//!
//! The timing adapters of the traced pass live here too: each wraps one
//! public layer boundary and adds what it measured into shared counters
//! that [`Fleet::finish`] reads back.

use crate::stats::walk_hash;
use crate::workloads::Workload;
use grw_algo::{
    BackendClass, BackendTelemetry, Node2VecMethod, PreparedGraph, ReferenceBackend, SamplerConfig,
    WalkBackend, WalkPath, WalkQuery, WalkSpec,
};
use grw_graph::generators::{Dataset, ScaleFactor};
use grw_obs::Obs;
use grw_route::{
    AdaptiveConfig, AdaptivePolicy, FleetView, Placement, RoutePolicy, Router, StaticHashPolicy,
};
use grw_service::{
    shard_backend, AccelShardMode, CompletedWalk, Driver, DriverMode, DynWalkBackend,
    ServiceConfig, ShardSpec, SinkAck, SinkReport, TenantId, WalkSink,
};
use grw_sink::{PprAggregator, SinkRouter};
use ridgewalker::{Accelerator, AcceleratorConfig};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tenant recorded for a walk that reached the sink router's default
/// route, i.e. no tenant's own sink.
const NO_TENANT: u16 = u16::MAX;

/// The mixed fleet of `n2v-mixed-routed`: two incremental accelerator
/// shards and one single-threaded CPU shard.
const N2V_PLAN: [ShardSpec; 3] = [
    ShardSpec::Accel(AccelShardMode::Incremental),
    ShardSpec::Accel(AccelShardMode::Incremental),
    ShardSpec::Cpu {
        threads: 1,
        poll_chunk: 4,
    },
];

/// One delivered walk, in the benchmark's own terms.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// The query's id (its index in the stream).
    pub query: u64,
    /// The tenant the walk was delivered to.
    pub tenant: u16,
    /// Tick the service accepted the query.
    pub arrival_tick: u64,
    /// Tick its micro-batch reached a backend.
    pub flushed_tick: u64,
    /// Tick it was delivered.
    pub completed_tick: u64,
    /// [`walk_hash`] of the walk.
    pub hash: u64,
    /// Wall instant of the delivery.
    pub at: Instant,
}

fn delivery(walk: &CompletedWalk, tenant: u16, at: Instant) -> Delivery {
    Delivery {
        query: walk.path.query,
        tenant,
        arrival_tick: walk.arrival_tick,
        flushed_tick: walk.flushed_tick,
        completed_tick: walk.completed_tick,
        hash: walk_hash(walk.path.query, walk.tenant.0, &walk.path.vertices),
        at,
    }
}

/// Wall time of one set-up, by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Generating the stand-in graph.
    pub generate_s: f64,
    /// Building the `PreparedGraph`.
    pub prepare_s: f64,
    /// Constructing the fleet (router, driver, shards, sinks, hub).
    pub build_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.prepare_s + self.build_s
    }
}

/// A workload's graph and walk, ready to build fleets over.
pub struct Setup {
    workload: Workload,
    seed: u64,
    prepared: Arc<PreparedGraph>,
    spec: WalkSpec,
    accel: Accelerator,
    /// What this set-up took.
    pub times: SetupTimes,
}

/// The stream's queries in the serving tier's own type.
pub struct Queries(Vec<WalkQuery>);

/// How a fleet deviates from its workload's own configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetOpts {
    /// Run on the inline driver even where the workload's is threaded.
    pub inline: bool,
    /// Leave the workload's observability hub detached.
    pub no_obs: bool,
    /// Wrap every layer boundary in a timing adapter.
    pub traced: bool,
}

impl Setup {
    /// Generates the graph, prepares it and constructs one fleet (then
    /// drops it), timing each phase. Shards and the accelerator are
    /// seeded from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let t = Instant::now();
        let graph = match workload {
            Workload::UrwLjThreaded => Dataset::LiveJournal.generate(ScaleFactor::Standard),
            Workload::PprTenantsInline => Dataset::WebGoogle.generate(ScaleFactor::Tiny),
            Workload::N2vMixedRouted => Dataset::WebGoogle.generate_weighted(ScaleFactor::Tiny),
        };
        let generate_s = t.elapsed().as_secs_f64();
        let spec = match workload {
            Workload::UrwLjThreaded => WalkSpec::urw(80),
            Workload::PprTenantsInline => WalkSpec::ppr(80),
            Workload::N2vMixedRouted => WalkSpec::node2vec(16, Node2VecMethod::Reservoir),
        };
        let t = Instant::now();
        let prepared = match workload {
            Workload::N2vMixedRouted => {
                PreparedGraph::with_sampler(graph, &spec, SamplerConfig::auto())
            }
            _ => PreparedGraph::new(graph, &spec),
        }
        .expect("the stand-in graph satisfies its walk spec");
        let prepare_s = t.elapsed().as_secs_f64();
        let accel = Accelerator::new(
            AcceleratorConfig::new()
                .pipelines(4)
                .max_inflight(64)
                .poll_quantum(64)
                .seed(seed),
        );
        let mut setup = Setup {
            workload,
            seed,
            prepared: Arc::new(prepared),
            spec,
            accel,
            times: SetupTimes {
                generate_s,
                prepare_s,
                build_s: 0.0,
            },
        };
        let t = Instant::now();
        let fleet = setup.fleet(FleetOpts::default(), 0);
        setup.times.build_s = t.elapsed().as_secs_f64();
        drop(fleet);
        setup
    }

    /// Vertices of the graph.
    pub fn vertex_count(&self) -> u32 {
        self.prepared.graph().vertex_count() as u32
    }

    /// The `k` highest-degree vertices (ties to the lower id).
    pub fn top_degree(&self, k: usize) -> Vec<u32> {
        let g = self.prepared.graph();
        let mut v: Vec<u32> = (0..self.vertex_count()).collect();
        v.sort_by_key(|&x| (std::cmp::Reverse(g.degree(x)), x));
        v.truncate(k);
        v
    }

    /// Query `i` starts at `starts[i]` and has id `i`.
    pub fn queries(&self, starts: &[u32]) -> Queries {
        Queries(
            starts
                .iter()
                .enumerate()
                .map(|(id, &start)| WalkQuery {
                    id: id as u64,
                    start,
                })
                .collect(),
        )
    }

    /// A fresh fleet of this workload behind its router, with room to
    /// log `walks` sink deliveries without reallocating mid-round.
    pub fn fleet(&self, opts: FleetOpts, walks: usize) -> Fleet {
        let threaded = self.workload == Workload::UrwLjThreaded && !opts.inline;
        let cfg = match self.workload {
            Workload::UrwLjThreaded | Workload::PprTenantsInline => ServiceConfig::new(2)
                .max_batch(256)
                .max_delay_ticks(1)
                .buffer_capacity(1 << 16),
            Workload::N2vMixedRouted => ServiceConfig::new(N2V_PLAN.len())
                .max_batch(16)
                .max_delay_ticks(1)
                .buffer_capacity(1 << 16),
        }
        .driver_mode(if threaded {
            DriverMode::Threaded
        } else {
            DriverMode::Deterministic
        });

        let probes = opts.traced.then(Probes::default);
        let mut backend_probes = Vec::new();
        let make_backend = |shard: usize| -> DynWalkBackend {
            let backend: DynWalkBackend = match self.workload {
                Workload::UrwLjThreaded | Workload::PprTenantsInline => Box::new(
                    ReferenceBackend::new(self.prepared.clone(), self.spec.clone(), self.seed),
                ),
                Workload::N2vMixedRouted => shard_backend(
                    &self.accel,
                    self.prepared.clone(),
                    &self.spec,
                    N2V_PLAN[shard],
                    shard,
                    self.seed,
                ),
            };
            if !opts.traced {
                return backend;
            }
            let probe = Arc::new(BackendProbe::new(backend.backend_class()));
            backend_probes.push(probe.clone());
            Box::new(TimedBackend {
                inner: backend,
                probe,
            })
        };
        let driver = Driver::new(cfg, make_backend);

        let policy: Box<dyn RoutePolicy + Send> = match self.workload {
            Workload::N2vMixedRouted => Box::new(AdaptivePolicy::new(AdaptiveConfig {
                hysteresis: 0.2,
                min_dwell_ticks: 16,
                ..AdaptiveConfig::default()
            })),
            _ => Box::new(StaticHashPolicy),
        };
        let policy: Box<dyn RoutePolicy + Send> = match &probes {
            Some(p) => Box::new(TimedPolicy {
                inner: policy,
                probe: p.policy.clone(),
            }),
            None => policy,
        };
        let mut router = Router::new(driver, policy);

        let obs = (self.workload == Workload::PprTenantsInline && !opts.no_obs).then(|| {
            let obs = Obs::new();
            router.attach_obs(obs.clone());
            obs
        });
        let taps = (self.workload == Workload::PprTenantsInline).then(|| {
            let shared = Arc::new(TapShared::default());
            let sink_probe = probes.as_ref().map(|p| p.sink.clone());
            let tenants = self.workload.tenants();
            router.attach_sinks(|_| {
                let mut sinks = SinkRouter::new(Box::new(Tap::new(NO_TENANT, 0, &shared)));
                let per_tenant = walks / usize::from(tenants) + 1;
                for t in 0..tenants {
                    sinks.add_route(TenantId(t), Box::new(Tap::new(t, per_tenant, &shared)));
                }
                let sink: Box<dyn WalkSink + Send> = match &sink_probe {
                    Some(probe) => Box::new(TimedSink {
                        inner: sinks,
                        probe: probe.clone(),
                    }),
                    None => Box::new(sinks),
                };
                sink
            });
            shared
        });

        Fleet {
            router,
            threaded,
            taps,
            obs,
            probes: probes.map(|mut p| {
                p.backends = backend_probes;
                p
            }),
            calls: Calls::default(),
        }
    }
}

/// What the driving thread spent in `Router` calls (call times only on
/// traced fleets).
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    /// `Router::submit` calls.
    pub submits: u64,
    /// Submits that accepted less than they were offered.
    pub partial_submits: u64,
    /// Queries the router accepted.
    pub accepted: u64,
    /// Time inside `Router::submit`.
    pub submit_ns: u64,
    /// `Router::tick` calls.
    pub ticks: u64,
    /// Time inside `Router::tick`.
    pub tick_ns: u64,
    /// Time inside `Router::finish`.
    pub finish_ns: u64,
}

/// What the timing adapters of one shard class measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendTotals {
    /// Shards of this class.
    pub shards: u64,
    /// Time in `WalkBackend::submit`.
    pub submit_ns: u64,
    /// Time in `WalkBackend::poll`.
    pub poll_ns: u64,
    /// Time in `WalkBackend::drain`.
    pub drain_ns: u64,
    /// `poll` calls.
    pub polls: u64,
    /// `poll` calls that returned no path.
    pub empty_polls: u64,
    /// Paths returned.
    pub paths: u64,
    /// Queries the backends accepted.
    pub accepted: u64,
    /// Hops executed (backend telemetry).
    pub steps: u64,
    /// Simulated cycles (accelerator telemetry).
    pub cycles: u64,
    /// Busy pipeline cycles.
    pub busy_cycles: u64,
    /// Bubble pipeline cycles.
    pub bubble_cycles: u64,
    /// Second-order alias tables served from the edge cache.
    pub cache_hits: u64,
    /// Alias rows built at sample time.
    pub alias_builds: u64,
}

impl BackendTotals {
    /// Time inside any timed backend call.
    pub fn busy_ns(&self) -> u64 {
        self.submit_ns + self.poll_ns + self.drain_ns
    }
}

/// Everything the timing adapters of one traced fleet measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// CPU shards (`grw_algo` kernels).
    pub cpu: BackendTotals,
    /// Accelerator shards (the `ridgewalker` machine).
    pub accel: BackendTotals,
    /// Time in `WalkSink::accept`.
    pub sink_accept_ns: u64,
    /// Walks the sink accepted.
    pub sink_accepted: u64,
    /// Walks the sink pushed back.
    pub sink_backpressured: u64,
    /// Time in `RoutePolicy::place`.
    pub place_ns: u64,
    /// `RoutePolicy::place` calls.
    pub place_calls: u64,
    /// Placements that moved a bound tenant to another shard.
    pub migrations: u64,
}

/// What a finished fleet leaves behind.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetEnd {
    /// Driving-thread call counts and times.
    pub calls: Calls,
    /// Events the observability hub dropped, when one was attached.
    pub obs_dropped: Option<u64>,
    /// Per-layer measurements of a traced fleet.
    pub layers: Option<Layers>,
    /// Whether the fleet ran on the threaded driver.
    pub threaded: bool,
}

/// One running fleet behind its router.
pub struct Fleet {
    router: Router<Box<dyn RoutePolicy + Send>>,
    threaded: bool,
    taps: Option<Arc<TapShared>>,
    obs: Option<Obs>,
    probes: Option<Probes>,
    calls: Calls,
}

impl Fleet {
    /// Whether the fleet runs on the threaded driver, whose deliveries
    /// reach `tick` asynchronously.
    pub fn threaded(&self) -> bool {
        self.threaded
    }

    /// Submits `queries[range]` for `tenant` through the router; returns
    /// how many were accepted.
    pub fn submit(&mut self, queries: &Queries, tenant: u16, range: Range<usize>) -> usize {
        let batch = &queries.0[range];
        let t = self.probes.is_some().then(Instant::now);
        let taken = self.router.submit(TenantId(tenant), batch);
        if let Some(t) = t {
            self.calls.submit_ns += t.elapsed().as_nanos() as u64;
        }
        self.calls.submits += 1;
        self.calls.accepted += taken as u64;
        self.calls.partial_submits += u64::from(taken < batch.len());
        taken
    }

    /// Advances the fleet one tick, appends the walks it hands back to
    /// `out` and returns how many walks were delivered (handed back or
    /// accepted by the sinks) during the call.
    pub fn tick(&mut self, out: &mut Vec<Delivery>) -> usize {
        let t = self.probes.is_some().then(Instant::now);
        let walks = self.router.tick();
        let at = Instant::now();
        if let Some(t) = t {
            self.calls.tick_ns += at.duration_since(t).as_nanos() as u64;
        }
        self.calls.ticks += 1;
        out.extend(walks.iter().map(|w| delivery(w, w.tenant.0, at)));
        let sunk = self
            .taps
            .as_ref()
            .map_or(0, |t| t.delivered.swap(0, Relaxed));
        walks.len() + sunk
    }

    /// Finishes the fleet, appending every remaining delivery — handed
    /// back by `finish` or logged by the sinks — to `out`.
    pub fn finish(self, out: &mut Vec<Delivery>) -> FleetEnd {
        let mut calls = self.calls;
        let t = Instant::now();
        let (walks, _) = self.router.finish();
        let at = Instant::now();
        calls.finish_ns = at.duration_since(t).as_nanos() as u64;
        out.extend(walks.iter().map(|w| delivery(w, w.tenant.0, at)));
        // The router dropped its sinks when it finished, and each tap
        // handed its log over as it dropped.
        if let Some(taps) = &self.taps {
            out.append(&mut taps.log.lock().expect("no tap panicked"));
        }
        FleetEnd {
            calls,
            obs_dropped: self.obs.as_ref().map(Obs::dropped),
            layers: self.probes.as_ref().map(Probes::totals),
            threaded: self.threaded,
        }
    }
}

/// Deliveries of the sink workload: a count the driving thread reads
/// after every tick, and the taps' logs once they drop.
#[derive(Default)]
struct TapShared {
    delivered: AtomicUsize,
    log: Mutex<Vec<Delivery>>,
}

/// One tenant's route in the sink router: a `PprAggregator` whose accepts
/// are logged as deliveries to `tenant`.
struct Tap {
    tenant: u16,
    inner: PprAggregator,
    log: Vec<Delivery>,
    shared: Arc<TapShared>,
}

impl Tap {
    fn new(tenant: u16, capacity: usize, shared: &Arc<TapShared>) -> Self {
        Self {
            tenant,
            inner: PprAggregator::new(10),
            log: Vec::with_capacity(capacity),
            shared: shared.clone(),
        }
    }
}

impl WalkSink for Tap {
    fn accept(&mut self, walk: &CompletedWalk) -> SinkAck {
        let ack = self.inner.accept(walk);
        if ack == SinkAck::Accepted {
            self.log.push(delivery(walk, self.tenant, Instant::now()));
            self.shared.delivered.fetch_add(1, Relaxed);
        }
        ack
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn report(&self) -> SinkReport {
        self.inner.report()
    }
}

impl Drop for Tap {
    fn drop(&mut self) {
        // A poisoned log only loses deliveries, which the ledger reports.
        if let Ok(mut log) = self.shared.log.lock() {
            log.append(&mut self.log);
        }
    }
}

/// The shared counters of one traced fleet.
#[derive(Default)]
struct Probes {
    backends: Vec<Arc<BackendProbe>>,
    sink: Arc<SinkProbe>,
    policy: Arc<PolicyProbe>,
}

impl Probes {
    fn totals(&self) -> Layers {
        let mut layers = Layers {
            sink_accept_ns: self.sink.accept_ns.load(Relaxed),
            sink_accepted: self.sink.accepted.load(Relaxed),
            sink_backpressured: self.sink.backpressured.load(Relaxed),
            place_ns: self.policy.place_ns.load(Relaxed),
            place_calls: self.policy.calls.load(Relaxed),
            migrations: self.policy.migrations.load(Relaxed),
            ..Layers::default()
        };
        for p in &self.backends {
            let t = match p.class {
                BackendClass::Cpu => &mut layers.cpu,
                BackendClass::Accelerator => &mut layers.accel,
            };
            t.shards += 1;
            t.submit_ns += p.submit_ns.load(Relaxed);
            t.poll_ns += p.poll_ns.load(Relaxed);
            t.drain_ns += p.drain_ns.load(Relaxed);
            t.polls += p.polls.load(Relaxed);
            t.empty_polls += p.empty_polls.load(Relaxed);
            t.paths += p.paths.load(Relaxed);
            t.accepted += p.accepted.load(Relaxed);
            let telemetry = p
                .telemetry
                .lock()
                .expect("no backend panicked")
                .expect("backends report telemetry when the fleet finishes");
            t.steps += telemetry.steps;
            t.cycles += telemetry.cycles.unwrap_or(0);
            if let Some(m) = telemetry.pipeline {
                t.busy_cycles += m.busy();
                t.bubble_cycles += m.bubbles();
            }
            t.cache_hits += telemetry.sampling.cache_hits;
            t.alias_builds += telemetry.sampling.alias_builds;
        }
        layers
    }
}

/// Counters of one shard's backend. Each is written by the thread that
/// owns the shard and read after the fleet finished, so relaxed
/// ordering suffices: the thread join (or same-thread drop) orders them.
struct BackendProbe {
    class: BackendClass,
    submit_ns: AtomicU64,
    poll_ns: AtomicU64,
    drain_ns: AtomicU64,
    polls: AtomicU64,
    empty_polls: AtomicU64,
    paths: AtomicU64,
    accepted: AtomicU64,
    /// The backend's telemetry as it dropped.
    telemetry: Mutex<Option<BackendTelemetry>>,
}

impl BackendProbe {
    fn new(class: BackendClass) -> Self {
        Self {
            class,
            submit_ns: AtomicU64::new(0),
            poll_ns: AtomicU64::new(0),
            drain_ns: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            empty_polls: AtomicU64::new(0),
            paths: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            telemetry: Mutex::new(None),
        }
    }
}

/// Timing adapter on one shard's `WalkBackend`.
struct TimedBackend {
    inner: DynWalkBackend,
    probe: Arc<BackendProbe>,
}

impl WalkBackend for TimedBackend {
    fn submit(&mut self, queries: &[WalkQuery]) -> usize {
        let t = Instant::now();
        let taken = self.inner.submit(queries);
        let p = &self.probe;
        p.submit_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        p.accepted.fetch_add(taken as u64, Relaxed);
        taken
    }

    fn poll(&mut self) -> Vec<WalkPath> {
        let t = Instant::now();
        let out = self.inner.poll();
        let p = &self.probe;
        p.poll_ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        p.polls.fetch_add(1, Relaxed);
        p.empty_polls.fetch_add(u64::from(out.is_empty()), Relaxed);
        p.paths.fetch_add(out.len() as u64, Relaxed);
        out
    }

    fn drain(&mut self) -> Vec<WalkPath> {
        let t = Instant::now();
        let out = self.inner.drain();
        let p = &self.probe;
        p.drain_ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        p.paths.fetch_add(out.len() as u64, Relaxed);
        out
    }

    fn capacity_hint(&self) -> usize {
        self.inner.capacity_hint()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn telemetry(&self) -> BackendTelemetry {
        self.inner.telemetry()
    }

    fn backend_class(&self) -> BackendClass {
        self.inner.backend_class()
    }

    fn cost_hint(&self) -> f64 {
        self.inner.cost_hint()
    }
}

impl Drop for TimedBackend {
    fn drop(&mut self) {
        if let Ok(mut slot) = self.probe.telemetry.lock() {
            *slot = Some(self.inner.telemetry());
        }
    }
}

/// Counters of the sink boundary.
#[derive(Default)]
struct SinkProbe {
    accept_ns: AtomicU64,
    accepted: AtomicU64,
    backpressured: AtomicU64,
}

/// Timing adapter on the attached `WalkSink`.
struct TimedSink {
    inner: SinkRouter,
    probe: Arc<SinkProbe>,
}

impl WalkSink for TimedSink {
    fn accept(&mut self, walk: &CompletedWalk) -> SinkAck {
        let t = Instant::now();
        let ack = self.inner.accept(walk);
        let p = &self.probe;
        p.accept_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        match ack {
            SinkAck::Accepted => p.accepted.fetch_add(1, Relaxed),
            SinkAck::Backpressured => p.backpressured.fetch_add(1, Relaxed),
        };
        ack
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn report(&self) -> SinkReport {
        self.inner.report()
    }
}

/// Counters of the routing policy.
#[derive(Default)]
struct PolicyProbe {
    place_ns: AtomicU64,
    calls: AtomicU64,
    migrations: AtomicU64,
}

/// Timing adapter on the router's `RoutePolicy`.
struct TimedPolicy {
    inner: Box<dyn RoutePolicy + Send>,
    probe: Arc<PolicyProbe>,
}

impl RoutePolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn wants_signals(&self) -> bool {
        self.inner.wants_signals()
    }

    fn place(
        &mut self,
        tenant: TenantId,
        batch: &[WalkQuery],
        current: Option<usize>,
        fleet: &FleetView<'_>,
    ) -> Placement {
        let t = Instant::now();
        let placement = self.inner.place(tenant, batch, current, fleet);
        let p = &self.probe;
        p.place_ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        p.calls.fetch_add(1, Relaxed);
        if let (Some(from), Placement::Shard(to)) = (current, placement) {
            p.migrations.fetch_add(u64::from(from != to), Relaxed);
        }
        placement
    }
}
