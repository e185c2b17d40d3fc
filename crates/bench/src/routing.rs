//! Routing bench: static hash vs load-aware placement on a mixed fleet.
//!
//! The serving story so far measured *homogeneous* fleets. Real fleets
//! mix fast accelerator shards with slower (but cheap and elastic) CPU
//! shards, and there static vertex-hash placement is structurally wrong:
//! it gives every shard the same share of a bursty stream, so the slow
//! class saturates first and its queue becomes the fleet's p99. This
//! bench quantifies exactly that, the way the load harness does — an
//! open-loop bursty (MMPP-2) arrival stream at a fixed offered load ρ
//! against the fleet's calibrated aggregate capacity, replayed with
//! common random numbers through one [`Router`] per policy:
//!
//! * `static-hash` — today's behaviour, the baseline;
//! * `least-loaded` — rate-weighted join-shortest-queue;
//! * `adaptive` — cost-based tenant placement with hysteresis.
//!
//! Per-class saturation rates μ̂ are calibrated exactly like the load
//! bench calibrates its grid anchor ([`calibrate_saturation`], one
//! single-shard closed-loop run per backend class) and handed to the
//! policies as [`ClassRates`]. Everything reported is in logical ticks
//! and exact counts — deterministic, so `BENCH_routing.json`'s summary
//! block is CI-gateable.

use crate::json::{self, higher, lower, Obj};
use crate::load::{calibrate_saturation, ArrivalShape, LoadWorkload};
use grw_algo::{BackendClass, PreparedGraph, QuerySet, WalkQuery, WalkSpec};
use grw_graph::generators::ScaleFactor;
use grw_route::{
    AdaptiveConfig, AdaptivePolicy, ClassRates, LeastLoadedPolicy, RoutePolicy, Router,
    StaticHashPolicy,
};
use grw_service::{
    accelerator_driver, mixed_fleet_driver, percentile, AccelShardMode, ServiceConfig, ShardSpec,
    TenantId,
};
use ridgewalker::{Accelerator, AcceleratorConfig};
use std::sync::Arc;

/// Configuration of one routing comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingBenchConfig {
    /// Dataset stand-in scale.
    pub scale: ScaleFactor,
    /// Maximum walk length.
    pub walk_len: u32,
    /// Accelerator shards in the fleet (incremental mode unless
    /// [`accel_mode`](Self::accel_mode) says otherwise).
    pub accel_shards: usize,
    /// Execution mode of the accelerator shards.
    pub accel_mode: AccelShardMode,
    /// CPU shards in the fleet.
    pub cpu_shards: usize,
    /// Worker threads per CPU shard.
    pub cpu_threads: usize,
    /// Queries each CPU worker executes per tick — with
    /// [`cpu_threads`](Self::cpu_threads) this sets the CPU shards'
    /// tick-time service rate, i.e. how much slower than the
    /// accelerator class they are.
    pub cpu_poll_chunk: usize,
    /// Pipelines per accelerator shard.
    pub pipelines: u32,
    /// In-flight cap per accelerator machine.
    pub max_inflight: usize,
    /// Cycle quantum an incremental accelerator shard simulates per tick.
    pub poll_quantum: u64,
    /// Micro-batch size bound.
    pub max_batch: usize,
    /// Tenants sharing the stream (queries assigned round-robin).
    pub tenants: u16,
    /// Queries in the stream.
    pub queries: usize,
    /// Offered load ρ against the calibrated aggregate fleet capacity.
    pub rho: f64,
    /// Traffic shape (bursty MMPP-2 is the headline case).
    pub arrival: ArrivalShape,
    /// Queries per per-class calibration run.
    pub calibration_queries: usize,
    /// Closed-loop window of the calibration runs.
    pub calibration_window: usize,
    /// Adaptive-policy knobs.
    pub adaptive: AdaptiveConfig,
    /// Workloads to sweep.
    pub workloads: Vec<LoadWorkload>,
    /// Base seed for queries and arrivals.
    pub seed: u64,
}

impl RoutingBenchConfig {
    /// CI-sized smoke comparison across the full workload matrix.
    pub fn smoke() -> Self {
        Self {
            scale: ScaleFactor::Tiny,
            walk_len: 16,
            accel_shards: 2,
            accel_mode: AccelShardMode::Incremental,
            cpu_shards: 2,
            cpu_threads: 1,
            cpu_poll_chunk: 1,
            pipelines: 4,
            max_inflight: 64,
            poll_quantum: 64,
            max_batch: 16,
            tenants: 8,
            queries: 3_072,
            rho: 0.75,
            arrival: ArrivalShape::Bursty,
            calibration_queries: 3_072,
            calibration_window: 512,
            // Smoke runs are only a few hundred ticks long: react in ~2
            // burst periods instead of the week-scale defaults.
            adaptive: AdaptiveConfig {
                hysteresis: 0.2,
                min_dwell_ticks: 16,
                ..AdaptiveConfig::default()
            },
            workloads: LoadWorkload::all().to_vec(),
            seed: 0x000D_07E5,
        }
    }

    /// Minimal comparison for integration tests (one workload). Kept
    /// large enough (a few burst cycles) that the static-vs-adaptive
    /// p99 gap is structural, not trajectory noise.
    pub fn test_tiny() -> Self {
        Self {
            queries: 2_048,
            calibration_queries: 2_048,
            calibration_window: 256,
            workloads: vec![LoadWorkload::Urw],
            seed: 0x07E5_70D0,
            ..Self::smoke()
        }
    }

    /// Figure-scale comparison: longer walks, more queries.
    pub fn full() -> Self {
        Self {
            scale: ScaleFactor::Small,
            walk_len: 40,
            max_inflight: 128,
            poll_quantum: 256,
            max_batch: 32,
            queries: 16_384,
            calibration_queries: 8_192,
            calibration_window: 1_024,
            seed: 0x00D0_7E60,
            ..Self::smoke()
        }
    }

    /// The fleet plan this configuration describes (accelerator shards
    /// first, then CPU shards).
    pub fn plan(&self) -> Vec<ShardSpec> {
        let mut plan = vec![ShardSpec::Accel(self.accel_mode); self.accel_shards];
        plan.extend(vec![
            ShardSpec::Cpu {
                threads: self.cpu_threads,
                poll_chunk: self.cpu_poll_chunk,
            };
            self.cpu_shards
        ]);
        plan
    }
}

/// What one policy achieved on the shared arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Policy name (`static-hash`, `least-loaded`, `adaptive`).
    pub policy: String,
    /// Queries delivered (always the full stream).
    pub completed: usize,
    /// Service ticks from first arrival to last delivery.
    pub ticks: u64,
    /// Exact mean end-to-end latency in ticks.
    pub mean_latency_ticks: f64,
    /// Median end-to-end latency.
    pub p50_latency_ticks: u64,
    /// 99th-percentile end-to-end latency — the headline number.
    pub p99_latency_ticks: u64,
    /// Worst-case end-to-end latency.
    pub max_latency_ticks: u64,
    /// Tenant migrations the policy performed.
    pub migrations: u64,
    /// Queries routed to accelerator shards.
    pub routed_accel: u64,
    /// Queries routed to CPU shards.
    pub routed_cpu: u64,
    /// Mean fleet queue depth sampled every tick.
    pub mean_queue_depth: f64,
}

/// One workload's comparison: calibration plus one outcome per policy.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRouting {
    /// Workload name (`URW`, …).
    pub workload: String,
    /// Calibrated per-shard saturation of the accelerator class, q/tick.
    pub accel_qpt: f64,
    /// Calibrated per-shard saturation of the CPU class, q/tick.
    pub cpu_qpt: f64,
    /// Offered arrival rate λ = ρ · fleet capacity, q/tick.
    pub lambda_per_tick: f64,
    /// One outcome per policy, in the order they ran.
    pub outcomes: Vec<PolicyOutcome>,
}

impl WorkloadRouting {
    /// The outcome of `policy`, if it ran.
    pub fn outcome(&self, policy: &str) -> Option<&PolicyOutcome> {
        self.outcomes.iter().find(|o| o.policy == policy)
    }
}

/// The full routing comparison across the workload matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingBenchReport {
    /// The configuration that produced the report.
    pub config: RoutingBenchConfig,
    /// One comparison per workload.
    pub workloads: Vec<WorkloadRouting>,
}

impl RoutingBenchReport {
    /// Worst (maximum) p99 across the workload matrix for `policy`.
    pub fn worst_p99(&self, policy: &str) -> u64 {
        self.workloads
            .iter()
            .filter_map(|w| w.outcome(policy))
            .map(|o| o.p99_latency_ticks)
            .max()
            .unwrap_or(0)
    }

    /// Total migrations across the matrix for `policy`.
    pub fn total_migrations(&self, policy: &str) -> u64 {
        self.workloads
            .iter()
            .filter_map(|w| w.outcome(policy))
            .map(|o| o.migrations)
            .sum()
    }

    /// Total queries `policy` routed to each class across the matrix.
    pub fn total_routed(&self, policy: &str) -> (u64, u64) {
        self.workloads
            .iter()
            .filter_map(|w| w.outcome(policy))
            .fold((0, 0), |(a, c), o| (a + o.routed_accel, c + o.routed_cpu))
    }

    /// Renders `BENCH_routing.json`: per-workload blocks plus a flat
    /// deterministic `summary` (worst-case p99 per policy, migrations,
    /// queries routed per class), which carries the gated metrics.
    pub fn to_json(&self) -> String {
        let outcome = |o: &PolicyOutcome| {
            Obj::new()
                .str("policy", &o.policy)
                .int("completed", o.completed as u64)
                .int("ticks", o.ticks)
                .num("mean_latency_ticks", o.mean_latency_ticks, 3)
                .int("p50_latency_ticks", o.p50_latency_ticks)
                .int("p99_latency_ticks", o.p99_latency_ticks)
                .int("max_latency_ticks", o.max_latency_ticks)
                .int("migrations", o.migrations)
                .int("routed_accel", o.routed_accel)
                .int("routed_cpu", o.routed_cpu)
                .num("mean_queue_depth", o.mean_queue_depth, 3)
        };
        let workload = |w: &WorkloadRouting| {
            Obj::new()
                .str("workload", &w.workload)
                .num("accel_qpt", w.accel_qpt, 6)
                .num("cpu_qpt", w.cpu_qpt, 6)
                .num("lambda_per_tick", w.lambda_per_tick, 6)
                .arr("outcomes", w.outcomes.iter().map(outcome))
        };
        let c = &self.config;
        let (acc_a, cpu_a) = self.total_routed("adaptive");
        let p99_static = self.worst_p99("static-hash");
        let p99_adaptive = self.worst_p99("adaptive");
        Obj::new()
            .str("bench", "routing")
            .str("arrival", c.arrival.name())
            .obj(
                "config",
                Obj::new()
                    .str("scale", &format!("{:?}", c.scale))
                    .int("walk_len", c.walk_len.into())
                    .int("accel_shards", c.accel_shards as u64)
                    .int("cpu_shards", c.cpu_shards as u64)
                    .int("cpu_threads", c.cpu_threads as u64)
                    .int("cpu_poll_chunk", c.cpu_poll_chunk as u64)
                    .int("pipelines", c.pipelines.into())
                    .int("poll_quantum", c.poll_quantum)
                    .int("max_batch", c.max_batch as u64)
                    .int("tenants", c.tenants.into())
                    .int("queries", c.queries as u64)
                    .num("rho", c.rho, 3),
            )
            .int("parallelism", json::parallelism() as u64)
            .obj(
                "summary",
                Obj::new()
                    .int("workloads", self.workloads.len() as u64)
                    .gated("p99_static", p99_static as f64, 0, lower(0.35, 16.0))
                    .gated("p99_adaptive", p99_adaptive as f64, 0, lower(0.30, 8.0))
                    // Derived from the two gated p99s and not gated itself:
                    // it would fail when only the static arm improves.
                    .num(
                        "p99_improvement",
                        p99_static as f64 / p99_adaptive.max(1) as f64,
                        3,
                    )
                    .gated(
                        "migrations_adaptive",
                        self.total_migrations("adaptive") as f64,
                        0,
                        lower(0.50, 16.0),
                    )
                    .gated("routed_accel_adaptive", acc_a as f64, 0, higher(0.25))
                    .int("routed_cpu_adaptive", cpu_a)
                    .int(
                        "migrations_least_loaded",
                        self.total_migrations("least-loaded"),
                    )
                    .gated(
                        "p99_least_loaded",
                        self.worst_p99("least-loaded") as f64,
                        0,
                        lower(0.30, 8.0),
                    ),
            )
            .arr("workloads", self.workloads.iter().map(workload))
            .record()
    }
}

/// Calibrates one backend class's per-shard saturation rate: a
/// single-shard service of that class, closed loop, exactly like the
/// load bench's grid anchor.
fn calibrate_class(
    cfg: &RoutingBenchConfig,
    accel: &Accelerator,
    prepared: &Arc<PreparedGraph>,
    spec: &WalkSpec,
    class: BackendClass,
) -> f64 {
    let svc_cfg = ServiceConfig::new(1)
        .max_batch(cfg.max_batch)
        .max_delay_ticks(1)
        .buffer_capacity(cfg.max_batch.max(cfg.calibration_queries));
    let mut svc = match class {
        BackendClass::Accelerator => {
            accelerator_driver(svc_cfg, accel, prepared.clone(), spec, cfg.accel_mode)
        }
        BackendClass::Cpu => mixed_fleet_driver(
            svc_cfg,
            accel,
            prepared.clone(),
            spec,
            &[ShardSpec::Cpu {
                threads: cfg.cpu_threads,
                poll_chunk: cfg.cpu_poll_chunk,
            }],
            cfg.seed ^ 0xC9_5EED,
        ),
    };
    let cal = QuerySet::random(
        prepared.graph().vertex_count(),
        cfg.calibration_queries,
        cfg.seed ^ 0xCA11,
    );
    calibrate_saturation(&mut svc, cal.queries(), cfg.calibration_window)
}

/// Everything measured while the shared stream plays through one router.
struct RoutedRun {
    latencies: Vec<u64>,
    ticks: u64,
    depth_sum: u128,
}

/// Plays the multi-tenant stream open loop through `router`, submitting
/// each query on behalf of its tenant at its arrival tick (consecutive
/// same-tenant arrivals go as one micro-batch), and ticking until every
/// walk is delivered. Latency is measured from the *intended* arrival
/// tick.
fn drive_router<P: RoutePolicy>(
    router: &mut Router<P>,
    queries: &[WalkQuery],
    tenant_of: &[TenantId],
    arrival_ticks: &[u64],
    max_ticks: u64,
) -> RoutedRun {
    let total = queries.len();
    let mut latencies = vec![0u64; total];
    let mut due = 0;
    let mut submitted = 0;
    let mut completed = 0;
    let mut depth_sum: u128 = 0;
    let mut ticks = 0u64;
    while completed < total {
        let now = router.now();
        while due < total && arrival_ticks[due] <= now {
            due += 1;
        }
        'submit: while submitted < due {
            // One micro-batch per run of same-tenant arrivals.
            let tenant = tenant_of[submitted];
            let mut end = submitted + 1;
            while end < due && tenant_of[end] == tenant {
                end += 1;
            }
            while submitted < end {
                let taken = router.submit(tenant, &queries[submitted..end]);
                if taken == 0 {
                    break 'submit; // backpressure: retry next tick
                }
                submitted += taken;
            }
        }
        let out = router.tick();
        let done_tick = router.now();
        for c in &out {
            let id = c.path.query as usize;
            debug_assert_eq!(tenant_of[id], c.tenant, "delivery routed to owner");
            latencies[id] = done_tick - arrival_ticks[id];
        }
        completed += out.len();
        depth_sum += router.queue_depth() as u128;
        ticks += 1;
        assert!(
            ticks <= max_ticks,
            "routed run stalled: {completed}/{total} after {ticks} ticks"
        );
    }
    RoutedRun {
        latencies,
        ticks,
        depth_sum,
    }
}

/// Runs the full comparison for one workload.
fn run_workload(cfg: &RoutingBenchConfig, wl: LoadWorkload) -> WorkloadRouting {
    assert!(cfg.accel_shards > 0 && cfg.cpu_shards > 0, "mixed fleet");
    let spec = wl.spec(cfg.walk_len);
    let graph = wl.graph(cfg.scale);
    let prepared = Arc::new(PreparedGraph::new(graph, &spec).expect("stand-in satisfies the spec"));
    let nv = prepared.graph().vertex_count();
    let accel = Accelerator::new(
        AcceleratorConfig::new()
            .pipelines(cfg.pipelines)
            .max_inflight(cfg.max_inflight)
            .poll_quantum(cfg.poll_quantum),
    );

    let accel_qpt = calibrate_class(cfg, &accel, &prepared, &spec, BackendClass::Accelerator);
    let cpu_qpt = calibrate_class(cfg, &accel, &prepared, &spec, BackendClass::Cpu);
    let rates = ClassRates::none()
        .with(BackendClass::Accelerator, accel_qpt)
        .with(BackendClass::Cpu, cpu_qpt);
    let fleet_rate = cfg.accel_shards as f64 * accel_qpt + cfg.cpu_shards as f64 * cpu_qpt;
    let lambda = cfg.rho * fleet_rate;

    // Common random numbers: one query pool, one tenant assignment, one
    // rate-1 arrival sequence scaled by 1/λ — identical offered load for
    // every policy.
    let queries = QuerySet::random(nv, cfg.queries, cfg.seed ^ 0xA0);
    let tenant_of: Vec<TenantId> = (0..cfg.queries)
        .map(|i| TenantId((i % cfg.tenants.max(1) as usize) as u16))
        .collect();
    let mut base = cfg.arrival.process(1.0, cfg.seed ^ 0xF0);
    let arrival_ticks: Vec<u64> = base
        .take(cfg.queries)
        .iter()
        .map(|t| (t / lambda).floor() as u64)
        .collect();
    let last_arrival = arrival_ticks.last().copied().unwrap_or(0);
    // Stall bound: the whole stream served by the slow class alone at 2%
    // of its calibrated rate would still fit.
    let max_ticks = last_arrival + ((cfg.queries as f64 / cpu_qpt.min(1.0)) * 50.0) as u64 + 10_000;

    let plan = cfg.plan();
    let svc_cfg = ServiceConfig::new(plan.len())
        .max_batch(cfg.max_batch)
        .max_delay_ticks(1)
        .buffer_capacity(cfg.max_batch.max(cfg.queries));
    let policies: Vec<Box<dyn RoutePolicy + Send>> = vec![
        Box::new(StaticHashPolicy),
        Box::new(LeastLoadedPolicy),
        Box::new(AdaptivePolicy::new(cfg.adaptive)),
    ];
    let mut outcomes = Vec::new();
    for policy in policies {
        let service = mixed_fleet_driver(
            svc_cfg,
            &accel,
            prepared.clone(),
            &spec,
            &plan,
            cfg.seed ^ 0xC9_5EED,
        );
        let mut router = Router::new(service, policy).with_rates(rates.clone());
        let run = drive_router(
            &mut router,
            queries.queries(),
            &tenant_of,
            &arrival_ticks,
            max_ticks,
        );
        let report = router.report();
        let completed = run.latencies.len();
        outcomes.push(PolicyOutcome {
            policy: report.policy.clone(),
            completed,
            ticks: run.ticks,
            mean_latency_ticks: run.latencies.iter().sum::<u64>() as f64 / completed.max(1) as f64,
            p50_latency_ticks: percentile(&run.latencies, 50.0),
            p99_latency_ticks: percentile(&run.latencies, 99.0),
            max_latency_ticks: run.latencies.iter().copied().max().unwrap_or(0),
            migrations: report.migrations,
            routed_accel: report.routed_to(BackendClass::Accelerator),
            routed_cpu: report.routed_to(BackendClass::Cpu),
            mean_queue_depth: run.depth_sum as f64 / run.ticks.max(1) as f64,
        });
    }

    WorkloadRouting {
        workload: wl.name().to_string(),
        accel_qpt,
        cpu_qpt,
        lambda_per_tick: lambda,
        outcomes,
    }
}

/// Runs the comparison across the configured workload matrix.
pub fn run_routing_bench(cfg: &RoutingBenchConfig) -> RoutingBenchReport {
    let workloads = cfg
        .workloads
        .iter()
        .map(|&wl| run_workload(cfg, wl))
        .collect();
    RoutingBenchReport {
        config: cfg.clone(),
        workloads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{gates, Json};

    #[test]
    fn smoke_comparison_favours_adaptive_on_the_mixed_fleet() {
        let cfg = RoutingBenchConfig::test_tiny();
        let report = run_routing_bench(&cfg);
        assert_eq!(report.workloads.len(), 1);
        let w = &report.workloads[0];
        assert!(w.accel_qpt > w.cpu_qpt, "CPU shards must be the slow class");
        let stat = w.outcome("static-hash").unwrap();
        let adapt = w.outcome("adaptive").unwrap();
        let jsq = w.outcome("least-loaded").unwrap();
        for o in [stat, adapt, jsq] {
            assert_eq!(o.completed, cfg.queries, "conservation: {}", o.policy);
        }
        assert!(
            adapt.p99_latency_ticks < stat.p99_latency_ticks,
            "adaptive p99 {} must beat static {} at equal offered load",
            adapt.p99_latency_ticks,
            stat.p99_latency_ticks
        );
        assert_eq!(stat.migrations, 0, "hash placement binds nothing");
        assert!(
            adapt.routed_accel > adapt.routed_cpu,
            "adaptive must prefer the fast class"
        );
    }

    #[test]
    fn the_comparison_is_deterministic() {
        let cfg = RoutingBenchConfig::test_tiny();
        let a = run_routing_bench(&cfg);
        let b = run_routing_bench(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn bench_json_carries_summary_and_gate_blocks() {
        let report = run_routing_bench(&RoutingBenchConfig::test_tiny());
        let json = Json::parse(&report.to_json()).expect("well-formed JSON");
        assert_eq!(
            json.get("summary.p99_adaptive").and_then(Json::as_f64),
            Some(report.worst_p99("adaptive") as f64)
        );
        assert_eq!(
            json.get("summary.migrations_adaptive")
                .and_then(Json::as_f64),
            Some(report.total_migrations("adaptive") as f64)
        );
        let (acc, cpu) = report.total_routed("adaptive");
        assert_eq!(
            json.get("summary.routed_accel_adaptive")
                .and_then(Json::as_f64),
            Some(acc as f64)
        );
        assert_eq!(
            json.get("summary.routed_cpu_adaptive")
                .and_then(Json::as_f64),
            Some(cpu as f64)
        );
        let baseline = Json::parse(include_str!(
            "../../../benchmarks/baselines/BENCH_routing.json"
        ))
        .unwrap();
        assert_eq!(
            gates(&json),
            gates(&baseline),
            "the record declares exactly its committed baseline's gates"
        );
        assert!(json.get("workloads").and_then(Json::as_arr).is_some());
    }
}
