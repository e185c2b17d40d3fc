//! Wall-clock QPS comparison of the two serving drivers.
//!
//! Every other bench in this crate measures *logical* time — ticks and
//! simulated cycles — where the deterministic driver is the whole story.
//! This one asks the question the threaded runtime exists to answer: on
//! real cores, how many queries per second of *wall* time does each
//! execution regime sustain over the identical open-loop stream?
//!
//! One arrival schedule (logical ticks from an
//! [`ArrivalShape`] process) is replayed against the
//! same CPU shard fleet under both regimes:
//!
//! * [`DriverMode::Deterministic`] — every shard's flush/poll runs inline
//!   on the driving thread, one after another;
//! * [`DriverMode::Threaded`] — one OS thread per shard, the driving
//!   thread only routes commands and harvests completions.
//!
//! The fleet is [`ReferenceBackend`] shards (walks execute inline in
//! `poll`, on whichever thread owns the shard), so the threaded regime's
//! wall-clock win is exactly the shard-level parallelism the runtime
//! unlocks — there is no simulator clock to hide behind.
//!
//! Two kinds of numbers come out, with very different CI treatment:
//!
//! * **Deterministic counters** — walks completed, hops executed, and an
//!   order-independent digest of the completed walk multiset, asserted
//!   equal across regimes. These are machine-independent and the perf
//!   gate holds them to ±0%.
//! * **Wall-clock observations** — QPS, latency percentiles, the
//!   threaded/deterministic speedup. Real on the machine that ran them,
//!   meaningless to gate across machines; recorded but never gated.

use crate::json::{self, higher, lower, Obj};
use crate::ArrivalShape;
use grw_algo::{PreparedGraph, QuerySet, ReferenceBackend, WalkQuery, WalkSpec};
use grw_graph::generators::{Dataset, ScaleFactor};
use grw_obs::{Obs, PhaseSummary, SpanSet};
use grw_service::{percentile, CompletedWalk, Driver, DriverMode, ServiceConfig, TenantId};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one two-regime QPS run.
#[derive(Debug, Clone)]
pub struct QpsConfig {
    /// Dataset stand-in scale.
    pub scale: ScaleFactor,
    /// Maximum walk length (per-query work; longer walks give worker
    /// threads more to overlap).
    pub walk_len: u32,
    /// Backend shards — the threaded regime's parallelism ceiling.
    pub shards: usize,
    /// Micro-batch size bound.
    pub max_batch: usize,
    /// Queries in the stream.
    pub queries: usize,
    /// Mean arrivals per logical tick of the open-loop schedule.
    pub arrivals_per_tick: f64,
    /// Traffic shape of the arrival stream.
    pub arrival: ArrivalShape,
    /// Base seed for queries, arrivals, and shard RNGs.
    pub seed: u64,
}

impl QpsConfig {
    /// CI-sized smoke run (well under a second per regime).
    pub fn smoke() -> Self {
        Self {
            scale: ScaleFactor::Tiny,
            walk_len: 64,
            shards: 4,
            max_batch: 64,
            queries: 4_096,
            arrivals_per_tick: 8.0,
            arrival: ArrivalShape::Poisson,
            seed: 0x0095,
        }
    }

    /// Figure-scale run: enough per-query work that thread overlap
    /// dominates coordination cost.
    pub fn full() -> Self {
        Self {
            scale: ScaleFactor::Small,
            walk_len: 80,
            shards: 4,
            max_batch: 256,
            queries: 32_768,
            arrivals_per_tick: 32.0,
            arrival: ArrivalShape::Poisson,
            seed: 0x0095_F011,
        }
    }

    /// Minimal run for integration tests.
    pub fn test_tiny() -> Self {
        Self {
            scale: ScaleFactor::Tiny,
            walk_len: 16,
            shards: 2,
            max_batch: 32,
            queries: 512,
            arrivals_per_tick: 16.0,
            arrival: ArrivalShape::Poisson,
            seed: 0x7E57_0095,
        }
    }
}

/// What one regime measured over the stream.
#[derive(Debug, Clone)]
pub struct DriverQps {
    /// Which regime ran.
    pub mode: DriverMode,
    /// Queries completed (must equal the stream length).
    pub completed: u64,
    /// Total hops executed across shards — deterministic, gated.
    pub steps: u64,
    /// Order-independent digest of the completed walk multiset
    /// (`(query id, path)` pairs), masked to 32 bits — deterministic,
    /// gated via [`QpsReport::checksum_match`].
    pub walk_digest: u64,
    /// Logical ticks the drive loop issued.
    pub ticks: u64,
    /// Wall-clock seconds from first submit to last completion.
    pub wall_seconds: f64,
    /// Completed walks per wall-clock second.
    pub qps_wall: f64,
    /// Median submit→harvest latency, µs wall.
    pub p50_latency_us: u64,
    /// 99th-percentile submit→harvest latency, µs wall.
    pub p99_latency_us: u64,
    /// Worst submit→harvest latency, µs wall.
    pub max_latency_us: u64,
}

/// The paired run: both regimes over the identical stream.
#[derive(Debug, Clone)]
pub struct QpsReport {
    /// The run configuration.
    pub config: QpsConfig,
    /// [`json::parallelism`] on the machine that ran this — the context
    /// every wall-clock number must be read in.
    pub parallelism: usize,
    /// The single-threaded regime's measurements.
    pub deterministic: DriverQps,
    /// The thread-per-shard regime's measurements.
    pub threaded: DriverQps,
    /// Fractional wall-clock cost of full observability (an enabled
    /// event journal) on the deterministic regime, measured
    /// as `1 − qps_instrumented / qps_disabled` over repeated pairs on
    /// the same CRN stream, best pair kept (noise floor), clamped at 0.
    /// Gated in CI at an absolute ≤3% ceiling — the "observability is
    /// nearly free" claim.
    pub obs_overhead: f64,
    /// Exact phase attribution of the deterministic regime's stream,
    /// reconstructed from its event journal. Logical ticks only, so —
    /// like `completed` and `steps` — it is gated at ±0%: any drift in
    /// where a query's latency is spent is a behaviour change, not noise.
    pub phases: PhaseSummary,
}

impl QpsReport {
    /// `BENCH_qps.json`.
    pub fn file_name(&self) -> &'static str {
        "BENCH_qps.json"
    }

    /// Whether both regimes completed the identical walk multiset — the
    /// load-bearing determinism claim of the threaded runtime.
    pub fn checksum_match(&self) -> bool {
        self.deterministic.walk_digest == self.threaded.walk_digest
            && self.deterministic.completed == self.threaded.completed
            && self.deterministic.steps == self.threaded.steps
    }

    /// Threaded wall-clock QPS over deterministic wall-clock QPS.
    pub fn speedup_wall(&self) -> f64 {
        self.threaded.qps_wall / self.deterministic.qps_wall.max(1e-9)
    }

    /// Renders the report as the `BENCH_qps.json` record. The
    /// deterministic counters are gated at ±0%: any drift is a behaviour
    /// change, not noise. Wall-clock fields are recorded but not gated,
    /// except `obs_overhead`.
    pub fn to_json(&self) -> String {
        let regime = |d: &DriverQps| {
            Obj::new()
                .int("completed", d.completed)
                .int("steps", d.steps)
                .int("walk_digest", d.walk_digest)
                .int("ticks", d.ticks)
                .num("wall_seconds", d.wall_seconds, 6)
                .num("qps_wall", d.qps_wall, 1)
                .int("p50_latency_us", d.p50_latency_us)
                .int("p99_latency_us", d.p99_latency_us)
                .int("max_latency_us", d.max_latency_us)
        };
        let c = &self.config;
        let d = &self.deterministic;
        Obj::new()
            .str("bench", "qps")
            .obj(
                "config",
                Obj::new()
                    .str("scale", &format!("{:?}", c.scale))
                    .int("walk_len", c.walk_len.into())
                    .int("shards", c.shards as u64)
                    .int("max_batch", c.max_batch as u64)
                    .int("queries", c.queries as u64)
                    .num("arrivals_per_tick", c.arrivals_per_tick, 3)
                    .str("arrival", c.arrival.name()),
            )
            .int("parallelism", self.parallelism as u64)
            .obj(
                "summary",
                Obj::new()
                    .gated("completed", d.completed as f64, 0, higher(0.0))
                    .gated("steps", d.steps as f64, 0, higher(0.0))
                    .gated(
                        "checksum_match",
                        f64::from(u8::from(self.checksum_match())),
                        0,
                        higher(0.0),
                    )
                    .int("walk_digest", d.walk_digest)
                    .num("deterministic_qps_wall", d.qps_wall, 1)
                    .num("threaded_qps_wall", self.threaded.qps_wall, 1)
                    .num("speedup_wall", self.speedup_wall(), 3)
                    // A same-machine, same-run ratio, so it is stable
                    // across runner hardware: no relative band, an
                    // absolute ceiling of 3% over the baseline.
                    .gated("obs_overhead", self.obs_overhead, 4, lower(0.0, 0.03)),
            )
            .phases(&self.phases, [0.0; 4], 0.0)
            .obj("deterministic", regime(d))
            .obj("threaded", regime(&self.threaded))
            .record()
    }
}

/// SplitMix64 finalizer: the mixing step behind the digest.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of one completed walk's identity: the query id and every vertex
/// of the path, nothing wall-clock. Tick stamps are deliberately
/// excluded — the cross-regime tick-stamp parity claim is property-tested
/// in `tests/threaded.rs` under controlled schedules; here the digest
/// must stay comparable even though the two drive loops issue different
/// trailing tick counts.
fn walk_hash(c: &CompletedWalk) -> u64 {
    let mut h = mix64(c.path.query ^ 0x5157_4A1C);
    for &v in &c.path.vertices {
        h = mix64(h ^ v as u64);
    }
    h
}

type QpsDriver = Driver<ReferenceBackend<Arc<PreparedGraph>>>;

/// Plays the arrival schedule through one driver, open loop, and measures
/// wall-clock throughput and submit→harvest latency. Both regimes run
/// this exact loop; only `cfg.driver` differs.
fn drive(
    mut driver: QpsDriver,
    queries: &[WalkQuery],
    arrival_ticks: &[u64],
) -> (DriverQps, Vec<u64>) {
    let mode = driver.mode();
    let total = queries.len();
    // Query ids are `0..n` by construction (QuerySet::random), so both
    // stamp tables index by id.
    let mut submit_at: Vec<Option<Instant>> = vec![None; total];
    let mut latencies_us = vec![0u64; total];
    let mut digest = 0u64;
    let (mut due, mut submitted, mut completed) = (0usize, 0usize, 0usize);
    let mut ticks = 0u64;
    let tick_cap = arrival_ticks.last().copied().unwrap_or(0) + 1_000_000;
    let started = Instant::now();
    let harvest = |walks: &[CompletedWalk],
                   submit_at: &[Option<Instant>],
                   latencies_us: &mut [u64],
                   digest: &mut u64| {
        let now = Instant::now();
        for c in walks {
            let id = c.path.query as usize;
            let from = submit_at[id].expect("completed before submission");
            latencies_us[id] = now.duration_since(from).as_micros() as u64;
            *digest = digest.wrapping_add(walk_hash(c));
        }
    };
    while completed < total {
        let now = driver.now();
        while due < total && arrival_ticks[due] <= now {
            due += 1;
        }
        while submitted < due {
            let taken = driver.submit(TenantId(1), &queries[submitted..due]);
            if taken == 0 {
                break;
            }
            let stamp = Instant::now();
            for q in &queries[submitted..submitted + taken] {
                submit_at[q.id as usize] = Some(stamp);
            }
            submitted += taken;
        }
        let out = driver.tick();
        harvest(&out, &submit_at, &mut latencies_us, &mut digest);
        completed += out.len();
        ticks += 1;
        assert!(
            ticks <= tick_cap,
            "qps drive loop stalled: {completed}/{total} after {ticks} ticks"
        );
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    let (rest, stats) = driver.finish();
    harvest(&rest, &submit_at, &mut latencies_us, &mut digest);
    completed += rest.len();
    assert_eq!(completed, total, "open-loop stream conservation");
    assert_eq!(stats.completed as usize, total, "stats conservation");
    let result = DriverQps {
        mode,
        completed: stats.completed,
        steps: stats.steps,
        walk_digest: digest & 0xFFFF_FFFF,
        ticks,
        wall_seconds,
        qps_wall: total as f64 / wall_seconds.max(1e-9),
        p50_latency_us: percentile(&latencies_us, 50.0),
        p99_latency_us: percentile(&latencies_us, 99.0),
        max_latency_us: latencies_us.iter().copied().max().unwrap_or(0),
    };
    (result, latencies_us)
}

/// Runs the paired comparison: one query pool, one arrival schedule, both
/// regimes. Asserts the deterministic invariants on the spot — equal walk
/// multisets, equal step counts — and returns everything measured.
///
/// # Panics
///
/// Panics if the two regimes complete different walk multisets (that
/// would be a driver bug, not a measurement artifact).
pub fn run_qps_bench(cfg: &QpsConfig) -> QpsReport {
    let spec = WalkSpec::urw(cfg.walk_len);
    let graph = Dataset::WebGoogle.generate(cfg.scale);
    let prepared = Arc::new(PreparedGraph::new(graph, &spec).expect("stand-in satisfies URW"));
    let nv = prepared.graph().vertex_count();
    let queries = QuerySet::random(nv, cfg.queries, cfg.seed ^ 0xA0);

    // One normalized arrival schedule, shared verbatim by both regimes:
    // the logical-tick timeline is part of the experiment's identity.
    let mut proc = cfg.arrival.process(cfg.arrivals_per_tick, cfg.seed ^ 0xF0);
    let times = proc.take(cfg.queries);
    let arrival_ticks: Vec<u64> = times.iter().map(|t| t.floor() as u64).collect();

    let make_driver = |mode: DriverMode| {
        let prepared = prepared.clone();
        let spec = spec.clone();
        let seed = cfg.seed;
        Driver::new(
            ServiceConfig::new(cfg.shards)
                .max_batch(cfg.max_batch)
                .max_delay_ticks(1)
                .buffer_capacity(cfg.queries.max(cfg.max_batch))
                .journal_capacity((cfg.queries * 4).max(grw_obs::DEFAULT_JOURNAL_CAPACITY))
                .driver_mode(mode),
            move |shard| ReferenceBackend::new(prepared.clone(), spec.clone(), seed ^ shard as u64),
        )
    };

    // Only the deterministic regime's headline run is instrumented: its
    // journal is pure logical ticks, so the phase attribution it yields
    // is exactly reproducible (and gated as such).
    let mut det_driver = make_driver(DriverMode::Deterministic);
    let det_obs = det_driver.attach_fresh_obs();
    let (deterministic, _) = drive(det_driver, queries.queries(), &arrival_ticks);
    let phases = SpanSet::from_trace(&det_obs.trace_jsonl()).summary();
    let (threaded, _) = drive(
        make_driver(DriverMode::Threaded),
        queries.queries(),
        &arrival_ticks,
    );

    // Observability overhead: the identical CRN stream through the
    // deterministic regime with a live hub vs a disabled one. A single
    // smoke stream is a few milliseconds of wall — below the scheduler's
    // noise floor — so each timed window drives the stream three times
    // back to back, the arms alternate so both sample the same machine
    // state, and the *best* of three window pairs is kept (noise only
    // ever slows a run down; adjacent arms of a pair share it, the best
    // pair escapes it).
    let window_with = |make_obs: &dyn Fn() -> Obs| -> f64 {
        (0..3)
            .map(|_| {
                let mut driver = make_driver(DriverMode::Deterministic);
                driver.attach_obs(make_obs());
                let (result, _) = drive(driver, queries.queries(), &arrival_ticks);
                result.wall_seconds
            })
            .sum()
    };
    let mut overhead = f64::INFINITY;
    for _ in 0..5 {
        let instrumented = window_with(&Obs::new);
        let disabled = window_with(&Obs::disabled);
        overhead = overhead.min(instrumented / disabled.max(1e-9) - 1.0);
    }
    let obs_overhead = overhead.max(0.0);

    let report = QpsReport {
        config: cfg.clone(),
        parallelism: json::parallelism(),
        deterministic,
        threaded,
        obs_overhead,
        phases,
    };
    assert!(
        report.checksum_match(),
        "the two regimes completed different walk multisets: \
         deterministic (digest {}, {} walks, {} steps) vs \
         threaded (digest {}, {} walks, {} steps)",
        report.deterministic.walk_digest,
        report.deterministic.completed,
        report.deterministic.steps,
        report.threaded.walk_digest,
        report.threaded.completed,
        report.threaded.steps,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_regimes_complete_the_identical_stream() {
        let report = run_qps_bench(&QpsConfig::test_tiny());
        assert!(report.checksum_match());
        assert_eq!(report.deterministic.completed, 512);
        assert_eq!(report.threaded.completed, 512);
        assert!(report.deterministic.steps > 0);
        assert!(report.parallelism >= 1);
        assert!(report.speedup_wall() > 0.0);
        // Digests fit the 32-bit mask, so the JSON round-trips through
        // f64 exactly.
        assert!(report.deterministic.walk_digest <= u64::from(u32::MAX));
        // The instrumented regime's journal attributes every completed
        // query's latency, and the phases telescope exactly.
        assert_eq!(report.phases.count, report.deterministic.completed);
        assert_eq!(
            report.phases.phase_sums.iter().sum::<u64>(),
            report.phases.total_sum
        );
        assert_eq!(report.phases.phase_sums[2], 0, "no sink in this bench");
    }

    #[test]
    fn json_document_carries_the_gate_block() {
        let report = run_qps_bench(&QpsConfig::test_tiny());
        let json = report.to_json();
        let doc = crate::Json::parse(&json).expect("bench json parses");
        let num = |path: &str| doc.get(path).and_then(crate::Json::as_f64);
        assert_eq!(num("summary.checksum_match"), Some(1.0));
        assert_eq!(
            num("summary.completed"),
            Some(report.deterministic.completed as f64)
        );
        assert!(num("summary.obs_overhead").is_some());
        assert!((0.0..=1.0).contains(&report.obs_overhead));
        // Wall-clock fields are present but carry no gate entry; the
        // counters and `obs_overhead` do.
        assert!(num("summary.speedup_wall").is_some());
        let declared = crate::json::gates(&doc).unwrap();
        assert!(declared.iter().all(|g| g.path != "summary.speedup_wall"));
        let baseline =
            crate::Json::parse(include_str!("../../../benchmarks/baselines/BENCH_qps.json"))
                .unwrap();
        assert_eq!(
            Ok(declared),
            crate::json::gates(&baseline),
            "the record declares exactly its committed baseline's gates"
        );
        assert_eq!(report.file_name(), "BENCH_qps.json");
    }

    #[test]
    fn digest_hashes_paths_not_timing() {
        let walk = |query: u64, vertices: Vec<u32>| CompletedWalk {
            path: grw_algo::WalkPath { query, vertices },
            tenant: TenantId(1),
            arrival_tick: 1,
            flushed_tick: 2,
            completed_tick: 3,
        };
        let a = walk_hash(&walk(7, vec![1, 2, 3]));
        let mut b = walk(7, vec![1, 2, 3]);
        b.completed_tick = 99;
        b.arrival_tick = 0;
        assert_eq!(a, walk_hash(&b), "tick stamps must not enter the digest");
        assert_ne!(a, walk_hash(&walk(8, vec![1, 2, 3])));
        assert_ne!(a, walk_hash(&walk(7, vec![1, 2, 4])));
    }
}
