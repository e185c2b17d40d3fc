//! Autoscale bench: SLO-driven elastic fleets vs static provisioning.
//!
//! The serving and routing benches measure *fixed* fleets. Real serving
//! load is neither fixed nor flat — it has a slow diurnal envelope with
//! bursty (MMPP-2) arrivals riding on top — so a fleet sized for the
//! peak idles through the trough and a fleet sized for the trough melts
//! at the peak. This bench replays exactly that stream, with common
//! random numbers, through three arms:
//!
//! * `autoscaled` — starts at `min_shards`; a [`TargetSlo`] policy grows
//!   and shrinks the live fleet through [`Router::scale_step`]
//!   (append at a micro-batch boundary, retire through the drain path);
//! * `static-over` — `max_shards` for the whole run: holds the SLO by
//!   brute force, pays for peak capacity at every tick;
//! * `static-under` — `min_shards` for the whole run: cheapest fleet,
//!   melts at the peak.
//!
//! The cost proxy is **fleet-ticks**: one unit per live shard per
//! service tick (a draining shard still costs — it exists). The headline
//! claim is the elastic one: the autoscaled arm must hold the p99 SLO at
//! strictly fewer fleet-ticks than static over-provisioning. Everything
//! reported is in logical ticks and exact counts — deterministic, so
//! `BENCH_autoscale.json`'s summary block is CI-gateable.
//!
//! [`Router::scale_step`]: grw_route::Router::scale_step

use crate::json::{self, higher, lower, Obj};
use crate::load::{calibrate_saturation, ArrivalShape, LoadWorkload};
use grw_algo::{BackendClass, PreparedGraph, QuerySet, WalkQuery};
use grw_graph::generators::ScaleFactor;
use grw_obs::SpanSet;
use grw_route::{ClassRates, Router, ScaleDecision, SloConfig, StaticHashPolicy, TargetSlo};
use grw_service::{
    accelerator_driver, percentile, shard_backend, AccelShardMode, ServiceConfig, ShardSpec,
    TenantId,
};
use ridgewalker::{Accelerator, AcceleratorConfig};
use std::sync::Arc;

/// Configuration of one autoscaling comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleBenchConfig {
    /// Dataset stand-in scale.
    pub scale: ScaleFactor,
    /// Maximum walk length.
    pub walk_len: u32,
    /// Execution mode of the (homogeneous accelerator) shards.
    pub accel_mode: AccelShardMode,
    /// Pipelines per accelerator shard.
    pub pipelines: u32,
    /// In-flight cap per accelerator machine.
    pub max_inflight: usize,
    /// Cycle quantum an incremental shard simulates per tick.
    pub poll_quantum: u64,
    /// Micro-batch size bound.
    pub max_batch: usize,
    /// Tenants sharing the stream (queries assigned round-robin).
    pub tenants: u16,
    /// Queries in the stream.
    pub queries: usize,
    /// Smallest fleet (the autoscaled arm starts here; also the
    /// static-under arm's size).
    pub min_shards: usize,
    /// Largest fleet (the autoscaler's cap; also the static-over arm's
    /// size).
    pub max_shards: usize,
    /// Occupancy of the *right-sized* fleet at every phase of the
    /// envelope: the diurnal arrival rate sweeps
    /// `rho · μ̂ · min_shards ↔ rho · μ̂ · max_shards`.
    pub rho: f64,
    /// Full diurnal (sinusoid) cycles across the stream.
    pub diurnal_cycles: f64,
    /// Burst process riding the diurnal envelope (MMPP-2 is the
    /// headline case).
    pub arrival: ArrivalShape,
    /// The p99 SLO, in units of one micro-batch's calibrated service
    /// time: `target_ticks = slo_latency_batches · max_batch / μ̂`.
    pub slo_latency_batches: f64,
    /// Consecutive breached control ticks before scaling up.
    pub breach_ticks: u64,
    /// Consecutive slack control ticks before scaling down.
    pub slack_ticks: u64,
    /// Minimum ticks after a scale event before the next scale-up
    /// (short — breaches cost users; staggered per event).
    pub up_cooldown_ticks: u64,
    /// Minimum ticks after a scale event before the next scale-down
    /// (long — the flap guard; staggered per event).
    pub cooldown_ticks: u64,
    /// Queries for the single-shard μ̂ calibration run.
    pub calibration_queries: usize,
    /// Closed-loop window of the calibration run.
    pub calibration_window: usize,
    /// Base seed for queries and arrivals.
    pub seed: u64,
}

impl AutoscaleBenchConfig {
    /// CI-sized smoke comparison.
    pub fn smoke() -> Self {
        Self {
            scale: ScaleFactor::Tiny,
            walk_len: 16,
            accel_mode: AccelShardMode::Incremental,
            pipelines: 4,
            max_inflight: 64,
            poll_quantum: 64,
            max_batch: 16,
            tenants: 8,
            queries: 4_096,
            min_shards: 1,
            max_shards: 4,
            rho: 0.6,
            diurnal_cycles: 2.0,
            arrival: ArrivalShape::Bursty,
            slo_latency_batches: 14.0,
            breach_ticks: 3,
            slack_ticks: 48,
            up_cooldown_ticks: 6,
            cooldown_ticks: 24,
            calibration_queries: 3_072,
            calibration_window: 512,
            seed: 0x00E1_A57C,
        }
    }

    /// Minimal comparison for integration tests. The looser SLO reflects
    /// the shorter stream: with a quarter of the smoke run's queries the
    /// unavoidable ramp transient weighs several times more in the p99.
    pub fn test_tiny() -> Self {
        Self {
            queries: 2_048,
            slo_latency_batches: 16.0,
            slack_ticks: 24,
            cooldown_ticks: 12,
            calibration_queries: 2_048,
            calibration_window: 256,
            seed: 0xA57C_07E5,
            ..Self::smoke()
        }
    }

    /// Figure-scale comparison: longer walks, more queries, more cycles.
    /// The SLO is denominated in batches, so the higher per-shard service
    /// rate of this configuration (bigger graph, bigger batches, deeper
    /// polling) deflates the target in ticks; 28 batches lands it above
    /// the MMPP burst-tail floor that even the static over-provisioned
    /// fleet cannot beat, with margin for the elastic arm's ramps.
    pub fn full() -> Self {
        Self {
            scale: ScaleFactor::Small,
            walk_len: 40,
            max_inflight: 128,
            poll_quantum: 256,
            max_batch: 32,
            queries: 16_384,
            diurnal_cycles: 3.0,
            slo_latency_batches: 28.0,
            calibration_queries: 8_192,
            calibration_window: 1_024,
            seed: 0x00E1_A580,
            ..Self::smoke()
        }
    }

    /// The SLO policy knobs this configuration describes, once μ̂ fixes
    /// the target in ticks.
    fn slo(&self, target_latency_ticks: f64) -> SloConfig {
        SloConfig {
            target_latency_ticks,
            band: 0.35,
            breach_ticks: self.breach_ticks,
            slack_ticks: self.slack_ticks,
            up_cooldown_ticks: self.up_cooldown_ticks,
            cooldown_ticks: self.cooldown_ticks,
            min_shards: self.min_shards,
            max_shards: self.max_shards,
        }
    }
}

/// What one provisioning arm achieved on the shared arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmOutcome {
    /// Arm name (`autoscaled`, `static-over`, `static-under`).
    pub arm: String,
    /// Queries delivered (always the full stream).
    pub completed: usize,
    /// Service ticks from first arrival to last delivery.
    pub ticks: u64,
    /// Cost proxy: one unit per live shard per tick.
    pub fleet_ticks: u64,
    /// Time-averaged live fleet size.
    pub mean_shards: f64,
    /// Largest fleet the arm ever ran.
    pub peak_shards: usize,
    /// Scale-up events (appends plus drain reactivations).
    pub scale_ups: u64,
    /// Completed scale-downs (shards that drained and left the fleet).
    pub scale_downs: u64,
    /// Exact mean end-to-end latency in ticks.
    pub mean_latency_ticks: f64,
    /// Median end-to-end latency.
    pub p50_latency_ticks: u64,
    /// 99th-percentile end-to-end latency — the SLO metric.
    pub p99_latency_ticks: u64,
    /// Worst-case end-to-end latency.
    pub max_latency_ticks: u64,
    /// Whether the arm's p99 met the SLO target.
    pub slo_held: bool,
}

/// The full autoscaling comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleBenchReport {
    /// The configuration that produced the report.
    pub config: AutoscaleBenchConfig,
    /// Calibrated per-shard saturation rate μ̂, q/tick.
    pub shard_qpt: f64,
    /// The p99 SLO target in ticks (`slo_latency_batches · max_batch / μ̂`).
    pub slo_target_ticks: f64,
    /// Mean offered rate at the diurnal midpoint, q/tick.
    pub lambda_mid: f64,
    /// One outcome per arm, in the order they ran.
    pub arms: Vec<ArmOutcome>,
    /// The autoscaled arm's event journal in canonical sorted JSONL —
    /// bit-identical for a fixed seed, so it participates in the
    /// report's determinism equality.
    pub trace_jsonl: String,
}

impl AutoscaleBenchReport {
    /// The outcome of `arm`, if it ran.
    pub fn arm(&self, arm: &str) -> Option<&ArmOutcome> {
        self.arms.iter().find(|a| a.arm == arm)
    }

    /// Renders `BENCH_autoscale.json`: per-arm blocks plus a flat
    /// deterministic `summary` (logical fleet-ticks, CRN arrival streams,
    /// seeded policy stagger), which carries the gated metrics.
    pub fn to_json(&self) -> String {
        let arm = |a: &ArmOutcome| {
            Obj::new()
                .str("arm", &a.arm)
                .int("completed", a.completed as u64)
                .int("ticks", a.ticks)
                .int("fleet_ticks", a.fleet_ticks)
                .num("mean_shards", a.mean_shards, 3)
                .int("peak_shards", a.peak_shards as u64)
                .int("scale_ups", a.scale_ups)
                .int("scale_downs", a.scale_downs)
                .num("mean_latency_ticks", a.mean_latency_ticks, 3)
                .int("p50_latency_ticks", a.p50_latency_ticks)
                .int("p99_latency_ticks", a.p99_latency_ticks)
                .int("max_latency_ticks", a.max_latency_ticks)
                // 0/1 so the summary stays numeric.
                .int("slo_held", a.slo_held.into())
        };
        let c = &self.config;
        let auto = self.arm("autoscaled").expect("autoscaled arm ran");
        let over = self.arm("static-over").expect("static-over arm ran");
        let under = self.arm("static-under").expect("static-under arm ran");
        let slo_held = |a: &ArmOutcome| f64::from(u8::from(a.slo_held));
        // Exact phase attribution of the instrumented arm, reconstructed
        // from its journal: integer sums, so `obsdiff` can diff two
        // records losslessly without the (multi-MB) trace itself.
        let phases = SpanSet::from_trace(&self.trace_jsonl).summary();
        Obj::new()
            .str("bench", "autoscale")
            .str("arrival", c.arrival.name())
            .int("parallelism", json::parallelism() as u64)
            .obj(
                "config",
                Obj::new()
                    .str("scale", &format!("{:?}", c.scale))
                    .int("walk_len", c.walk_len.into())
                    .int("pipelines", c.pipelines.into())
                    .int("poll_quantum", c.poll_quantum)
                    .int("max_batch", c.max_batch as u64)
                    .int("tenants", c.tenants.into())
                    .int("queries", c.queries as u64)
                    .int("min_shards", c.min_shards as u64)
                    .int("max_shards", c.max_shards as u64)
                    .num("rho", c.rho, 3)
                    .num("diurnal_cycles", c.diurnal_cycles, 2)
                    .num("slo_latency_batches", c.slo_latency_batches, 2),
            )
            .obj(
                "calibration",
                Obj::new()
                    .num("shard_qpt", self.shard_qpt, 6)
                    .num("slo_target_ticks", self.slo_target_ticks, 3)
                    .num("lambda_mid", self.lambda_mid, 6),
            )
            .obj(
                "summary",
                Obj::new()
                    .gated(
                        "p99_autoscaled",
                        auto.p99_latency_ticks as f64,
                        0,
                        lower(0.35, 8.0),
                    )
                    .gated(
                        "p99_static_over",
                        over.p99_latency_ticks as f64,
                        0,
                        lower(0.35, 8.0),
                    )
                    .int("p99_static_under", under.p99_latency_ticks)
                    .gated(
                        "fleet_ticks_autoscaled",
                        auto.fleet_ticks as f64,
                        0,
                        lower(0.30, 64.0),
                    )
                    .gated(
                        "fleet_ticks_static_over",
                        over.fleet_ticks as f64,
                        0,
                        lower(0.30, 64.0),
                    )
                    .int("fleet_ticks_static_under", under.fleet_ticks)
                    // The ratio of two gated fleet-tick counts, not gated
                    // itself: it would fail when only the baseline arm moves.
                    .num(
                        "cost_vs_over",
                        auto.fleet_ticks as f64 / over.fleet_ticks.max(1) as f64,
                        4,
                    )
                    .num("mean_shards_autoscaled", auto.mean_shards, 3)
                    .int("peak_shards_autoscaled", auto.peak_shards as u64)
                    .gated("scale_ups", auto.scale_ups as f64, 0, lower(0.75, 2.0))
                    // Higher is better: losing the fleet's ability to
                    // shrink is the regression this bench exists to catch.
                    .gated("scale_downs", auto.scale_downs as f64, 0, higher(0.75))
                    // The headline claims: the autoscaled arm keeps holding
                    // the SLO (1 stays 1) and the under-provisioned control
                    // keeps breaching it (0 stays 0).
                    .gated("slo_held_autoscaled", slo_held(auto), 0, higher(0.0))
                    .gated("slo_held_static_under", slo_held(under), 0, lower(0.0, 0.0)),
            )
            .phases(&phases, [0.35, 0.50, 0.35, 0.0], 64.0)
            .arr("arms", self.arms.iter().map(arm))
            .record()
    }
}

/// The diurnal envelope: arrival ticks from a unit-rate burst process
/// time-changed through `Λ(t) = Σ λ(tick)` where
/// `λ(t) = mid · (1 − amp · cos(2π t / period))` — the stream starts at
/// the trough (where `min_shards` is the right size for every arm) and
/// climbs to its first peak a half-period in. Deterministic for a fixed
/// seed, identical across arms (common random numbers).
fn diurnal_arrival_ticks(cfg: &AutoscaleBenchConfig, lambda_mid: f64, amp: f64) -> Vec<u64> {
    let n = cfg.queries;
    let unit_times = cfg.arrival.process(1.0, cfg.seed ^ 0xF0).take(n);
    // Stream duration at the mean rate fixes the period so the run
    // always covers `diurnal_cycles` full cycles regardless of scale.
    let period = (n as f64 / lambda_mid / cfg.diurnal_cycles).max(1.0);
    let mut ticks = Vec::with_capacity(n);
    let mut cum = 0.0_f64;
    let mut t = 0u64;
    let mut i = 0;
    while i < n {
        let phase = 2.0 * std::f64::consts::PI * t as f64 / period;
        cum += lambda_mid * (1.0 - amp * phase.cos()).max(0.0);
        while i < n && unit_times[i] <= cum {
            ticks.push(t);
            i += 1;
        }
        t += 1;
    }
    ticks
}

/// Everything measured while the shared stream plays through one arm.
struct ArmRun {
    latencies: Vec<u64>,
    ticks: u64,
    fleet_ticks: u64,
    shard_ticks: u128,
    peak_shards: usize,
    scale_ups: u64,
    scale_downs: u64,
}

/// Plays the stream open loop through `router`, stepping the scale
/// policy (if any) once per tick. Latency is measured from the intended
/// arrival tick; walks reclaimed by a retiring shard's in-place drain
/// are accounted exactly like ticked deliveries.
fn drive_arm(
    router: &mut Router<StaticHashPolicy>,
    mut policy: Option<&mut TargetSlo>,
    make_backend: &mut dyn FnMut(usize) -> grw_service::DynWalkBackend,
    queries: &[WalkQuery],
    tenant_of: &[TenantId],
    arrival_ticks: &[u64],
    max_ticks: u64,
) -> ArmRun {
    let total = queries.len();
    let mut latencies = vec![0u64; total];
    let mut due = 0;
    let mut submitted = 0;
    let mut completed = 0;
    let mut run = ArmRun {
        latencies: Vec::new(),
        ticks: 0,
        fleet_ticks: 0,
        shard_ticks: 0,
        peak_shards: 0,
        scale_ups: 0,
        scale_downs: 0,
    };
    while completed < total {
        let now = router.now();
        while due < total && arrival_ticks[due] <= now {
            due += 1;
        }
        'submit: while submitted < due {
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
        let mut out = router.tick();
        if let Some(p) = policy.as_deref_mut() {
            let step = router.scale_step(p, &mut *make_backend);
            if step.appended.is_some() || step.reactivated.is_some() {
                run.scale_ups += 1;
            }
            if step.retired.is_some() {
                run.scale_downs += 1;
            }
            debug_assert!(
                step.decision != ScaleDecision::Hold
                    || (step.appended.is_none() && step.drain_begun.is_none())
            );
            out.extend(step.reclaimed);
        }
        let done_tick = router.now();
        for c in &out {
            let id = c.path.query as usize;
            latencies[id] = done_tick - arrival_ticks[id];
        }
        completed += out.len();
        let shards = router.eligible().len();
        run.fleet_ticks += shards as u64;
        run.shard_ticks += shards as u128;
        run.peak_shards = run.peak_shards.max(shards);
        run.ticks += 1;
        assert!(
            run.ticks <= max_ticks,
            "autoscale run stalled: {completed}/{total} after {} ticks",
            run.ticks
        );
    }
    run.latencies = latencies;
    run
}

/// Runs the full three-arm comparison.
pub fn run_autoscale_bench(cfg: &AutoscaleBenchConfig) -> AutoscaleBenchReport {
    assert!(
        cfg.min_shards >= 1 && cfg.max_shards > cfg.min_shards,
        "elastic range must be non-trivial: 1 <= min < max"
    );
    let wl = LoadWorkload::Urw;
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

    // One single-shard closed-loop calibration run anchors everything:
    // the SLO target, the diurnal envelope, and the stall bound.
    let mut cal_svc = accelerator_driver(
        ServiceConfig::new(1)
            .max_batch(cfg.max_batch)
            .max_delay_ticks(1)
            .buffer_capacity(cfg.max_batch.max(cfg.calibration_queries)),
        &accel,
        prepared.clone(),
        &spec,
        cfg.accel_mode,
    );
    let cal = QuerySet::random(nv, cfg.calibration_queries, cfg.seed ^ 0xCA11);
    let shard_qpt = calibrate_saturation(&mut cal_svc, cal.queries(), cfg.calibration_window);
    let slo_target_ticks = cfg.slo_latency_batches * cfg.max_batch as f64 / shard_qpt;

    // The envelope sweeps between the right-sized load for the smallest
    // and largest fleet: troughs fit min_shards at occupancy rho, peaks
    // need max_shards at the same occupancy.
    let lambda_mid = cfg.rho * shard_qpt * (cfg.min_shards + cfg.max_shards) as f64 / 2.0;
    let amp = (cfg.max_shards - cfg.min_shards) as f64 / (cfg.max_shards + cfg.min_shards) as f64;

    // Common random numbers: one query pool, one tenant assignment, one
    // arrival sequence — identical offered stream for every arm.
    let queries = QuerySet::random(nv, cfg.queries, cfg.seed ^ 0xA0);
    let tenant_of: Vec<TenantId> = (0..cfg.queries)
        .map(|i| TenantId((i % cfg.tenants.max(1) as usize) as u16))
        .collect();
    let arrival_ticks = diurnal_arrival_ticks(cfg, lambda_mid, amp);
    let last_arrival = arrival_ticks.last().copied().unwrap_or(0);
    // Stall bound: the whole stream served by the smallest fleet at 2%
    // of its calibrated rate would still fit.
    let max_ticks = last_arrival
        + ((cfg.queries as f64 / (shard_qpt * cfg.min_shards as f64).min(1.0)) * 50.0) as u64
        + 10_000;

    // Journal sized so the instrumented arm never overflows: two span
    // events per query (admitted + delivered) plus batch/scale/migration
    // events — 4x queries is generous, and an overflow here would turn
    // the record's exact phase attribution into a lower bound.
    let journal_capacity = (cfg.queries * 4).max(grw_obs::DEFAULT_JOURNAL_CAPACITY);
    let svc_cfg = |shards: usize| {
        ServiceConfig::new(shards)
            .max_batch(cfg.max_batch)
            .max_delay_ticks(1)
            .buffer_capacity(cfg.max_batch.max(cfg.queries))
            .journal_capacity(journal_capacity)
    };
    // Appended shards walk under the seed `accelerator_driver` gives the
    // shards a fleet is born with.
    let mut make_backend = {
        let prepared = prepared.clone();
        let spec = spec.clone();
        let accel = accel.clone();
        let mode = cfg.accel_mode;
        move |shard: usize| {
            shard_backend(
                &accel,
                prepared.clone(),
                &spec,
                ShardSpec::Accel(mode),
                shard,
                accel.config().seed,
            )
        }
    };

    let mut arms = Vec::new();
    let mut obs_autoscaled = None;
    for (name, shards, elastic) in [
        ("autoscaled", cfg.min_shards, true),
        ("static-over", cfg.max_shards, false),
        ("static-under", cfg.min_shards, false),
    ] {
        let service = accelerator_driver(
            svc_cfg(shards),
            &accel,
            prepared.clone(),
            &spec,
            cfg.accel_mode,
        );
        let mut router = Router::new(service, StaticHashPolicy)
            .with_rates(ClassRates::none().with(BackendClass::Accelerator, shard_qpt));
        // Only the headline arm is instrumented: its trace is the
        // artifact that explains the scale history, and leaving the
        // static arms untouched keeps them as uninstrumented controls.
        if elastic {
            obs_autoscaled = Some(router.attach_fresh_obs());
        }
        let mut policy = TargetSlo::new(cfg.slo(slo_target_ticks));
        let run = drive_arm(
            &mut router,
            elastic.then_some(&mut policy),
            &mut make_backend,
            queries.queries(),
            &tenant_of,
            &arrival_ticks,
            max_ticks,
        );
        if elastic {
            router.flush_obs();
        }
        let completed = run.latencies.len();
        let p99 = percentile(&run.latencies, 99.0);
        arms.push(ArmOutcome {
            arm: name.to_string(),
            completed,
            ticks: run.ticks,
            fleet_ticks: run.fleet_ticks,
            mean_shards: run.shard_ticks as f64 / run.ticks.max(1) as f64,
            peak_shards: run.peak_shards,
            scale_ups: run.scale_ups,
            scale_downs: run.scale_downs,
            mean_latency_ticks: run.latencies.iter().sum::<u64>() as f64 / completed.max(1) as f64,
            p50_latency_ticks: percentile(&run.latencies, 50.0),
            p99_latency_ticks: p99,
            max_latency_ticks: run.latencies.iter().copied().max().unwrap_or(0),
            slo_held: (p99 as f64) <= slo_target_ticks,
        });
    }

    let obs = obs_autoscaled.expect("autoscaled arm ran");
    AutoscaleBenchReport {
        config: cfg.clone(),
        shard_qpt,
        slo_target_ticks,
        lambda_mid,
        arms,
        trace_jsonl: obs.trace_jsonl(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{gates, Json};

    #[test]
    fn autoscaled_arm_holds_the_slo_cheaper_than_static_over() {
        let cfg = AutoscaleBenchConfig::test_tiny();
        let report = run_autoscale_bench(&cfg);
        let auto = report.arm("autoscaled").unwrap();
        let over = report.arm("static-over").unwrap();
        let under = report.arm("static-under").unwrap();
        for a in [auto, over, under] {
            assert_eq!(a.completed, cfg.queries, "conservation: {}", a.arm);
        }
        assert!(
            auto.slo_held,
            "autoscaled p99 {} must meet the SLO target {:.1}",
            auto.p99_latency_ticks, report.slo_target_ticks
        );
        assert!(
            auto.fleet_ticks < over.fleet_ticks,
            "autoscaled fleet-ticks {} must undercut static-over {}",
            auto.fleet_ticks,
            over.fleet_ticks
        );
        assert!(
            !under.slo_held,
            "static-under p99 {} should breach the SLO {:.1} — otherwise the \
             envelope never needed more than min_shards",
            under.p99_latency_ticks, report.slo_target_ticks
        );
        assert!(auto.scale_ups >= 1, "the diurnal peak must force growth");
        assert!(auto.scale_downs >= 1, "the trough must allow shrinking");
        assert!(auto.peak_shards > cfg.min_shards);
        assert_eq!(over.scale_ups, 0);
        assert_eq!(under.scale_ups, 0);
    }

    #[test]
    fn the_comparison_is_deterministic() {
        let cfg = AutoscaleBenchConfig::test_tiny();
        let a = run_autoscale_bench(&cfg);
        let b = run_autoscale_bench(&cfg);
        // Report equality covers the event journal too — the trace
        // itself must be bit-reproducible.
        assert_eq!(a, b);
        assert!(!a.trace_jsonl.is_empty());
    }

    #[test]
    fn journal_explains_every_scale_event() {
        use grw_obs::{jsonl_field, jsonl_num};
        let cfg = AutoscaleBenchConfig::test_tiny();
        let report = run_autoscale_bench(&cfg);
        let auto = report.arm("autoscaled").unwrap();
        let lines: Vec<&str> = report.trace_jsonl.lines().collect();
        let with = |ev: &str| -> Vec<&&str> {
            lines
                .iter()
                .filter(|l| jsonl_field(l, "ev") == Some(ev))
                .collect()
        };
        // Every counted scale-up is an executed Up verdict (an append or
        // a drain reactivation), and each one journals both the verdict
        // and the membership change.
        let ups = with("scale_decision")
            .iter()
            .filter(|l| jsonl_field(l, "decision") == Some("up"))
            .count() as u64;
        assert_eq!(ups, auto.scale_ups, "one 'up' verdict per scale-up");
        assert_eq!(with("shard_appended").len() as u64, auto.scale_ups);
        assert_eq!(with("shard_retired").len() as u64, auto.scale_downs);
        // Retirements complete drains that a Down verdict began.
        assert!(
            with("scale_decision")
                .iter()
                .filter(|l| jsonl_field(l, "decision") == Some("down"))
                .count() as u64
                >= auto.scale_downs
        );
        // Every verdict carries the control-law evidence it was made on.
        for l in with("scale_decision") {
            for field in ["lambda_hat", "floor", "worst_ewma", "worst_wait", "shards"] {
                assert!(
                    jsonl_num(l, field).is_some(),
                    "scale_decision must carry policy input '{field}': {l}"
                );
            }
        }
        // The service-level stream is journaled alongside: every query
        // admission and delivery of the autoscaled arm.
        assert_eq!(with("query_admitted").len(), cfg.queries);
        assert_eq!(with("query_delivered").len(), cfg.queries);
    }

    #[test]
    fn bench_json_carries_summary_and_gate_blocks() {
        let report = run_autoscale_bench(&AutoscaleBenchConfig::test_tiny());
        let json = Json::parse(&report.to_json()).expect("well-formed JSON");
        let auto = report.arm("autoscaled").unwrap();
        assert_eq!(
            json.get("summary.p99_autoscaled").and_then(Json::as_f64),
            Some(auto.p99_latency_ticks as f64)
        );
        assert_eq!(
            json.get("summary.fleet_ticks_autoscaled")
                .and_then(Json::as_f64),
            Some(auto.fleet_ticks as f64)
        );
        assert_eq!(
            json.get("summary.slo_held_autoscaled")
                .and_then(Json::as_f64),
            Some(f64::from(u8::from(auto.slo_held)))
        );
        let baseline = Json::parse(include_str!(
            "../../../benchmarks/baselines/BENCH_autoscale.json"
        ))
        .unwrap();
        assert_eq!(
            gates(&json),
            gates(&baseline),
            "the record declares exactly its committed baseline's gates"
        );
        assert!(
            json.get("parallelism").and_then(Json::as_f64).is_some(),
            "host parallelism is recorded for figure-scale CI context"
        );
        assert!(json.get("arms").and_then(Json::as_arr).is_some());
    }

    #[test]
    fn bench_json_phases_block_attributes_every_delivered_query() {
        let cfg = AutoscaleBenchConfig::test_tiny();
        let report = run_autoscale_bench(&cfg);
        let json = Json::parse(&report.to_json()).expect("well-formed JSON");
        let num = |path: &str| {
            json.get(path)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing {path}"))
        };
        // The journal is sized to the stream, so the phase summary covers
        // the instrumented arm's full delivery count — no overflow, no
        // lower bounds.
        assert_eq!(num("phases.count") as usize, cfg.queries);
        assert_eq!(
            num("phases.batch_wait_sum") + num("phases.backend_sum") + num("phases.sink_wait_sum"),
            num("phases.total_sum"),
            "phase sums must telescope exactly to the end-to-end total"
        );
        // Sink-less arm: delivery is the end of the span.
        assert_eq!(num("phases.sink_wait_sum"), 0.0);
        // The record's summary and the journal reconstruction agree on
        // the mean: same spans, two independent measurement paths.
        let auto = report.arm("autoscaled").unwrap();
        let mean = num("phases.total_sum") / num("phases.count");
        assert!(
            (mean - auto.mean_latency_ticks).abs() < 1e-9,
            "journal mean {mean} vs measured mean {}",
            auto.mean_latency_ticks
        );
        // The router journals fleet scale events, so spans in flight
        // across an append/retire boundary carry the annotation — the
        // diurnal peak forces at least one scale-up mid-run.
        assert!(auto.scale_ups >= 1);
        let spans = SpanSet::from_trace(&report.trace_jsonl);
        assert!(
            spans.spans.iter().any(|s| s.scale_events > 0),
            "mid-run scale events must annotate overlapping spans"
        );
    }
}
