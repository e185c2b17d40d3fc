//! The threaded serving driver's load-bearing property: for a fixed seed
//! and submission sequence, the multiset of completed walks — per tenant,
//! paths *and* tick stamps included — equals the deterministic driver's,
//! under arbitrary schedules, saturated shards (every submit call's
//! acceptance count included), both accelerator shard modes, routed
//! mixed fleets, and backpressuring sinks; and shutdown under load loses
//! nothing.
//!
//! Like `tests/properties.rs`, randomness is hand-rolled (no `proptest`
//! in the container): many seeded cases per property, every case derived
//! from a fixed master seed, deterministic across runs.

use ridgewalker_suite::accel::{Accelerator, AcceleratorConfig};
use ridgewalker_suite::algo::{PreparedGraph, QuerySet, ReferenceBackend, WalkQuery, WalkSpec};
use ridgewalker_suite::graph::generators::{Dataset, ScaleFactor};
use ridgewalker_suite::rng::{RandomSource, SplitMix64};
use ridgewalker_suite::route::{Router, StaticHashPolicy};
use ridgewalker_suite::service::{
    accelerator_driver, mixed_fleet_driver, AccelShardMode, CompletedWalk, Driver, DriverMode,
    ServiceConfig, ShardSpec, SinkAck, SinkReport, TenantId, WalkSink,
};
use std::sync::Arc;

/// The full identity of a completed walk — if any component differs
/// between regimes, the parity claim is broken.
type WalkKey = (u16, u64, u64, u64, u64, Vec<u32>);

fn keys(walks: Vec<CompletedWalk>) -> Vec<WalkKey> {
    let mut keys: Vec<WalkKey> = walks
        .into_iter()
        .map(|c| {
            (
                c.tenant.0,
                c.path.query,
                c.arrival_tick,
                c.flushed_tick,
                c.completed_tick,
                c.path.vertices,
            )
        })
        .collect();
    keys.sort();
    keys
}

/// What one drive schedule produced: the walk keys, the completed and
/// step counts, and every submit call's `(offered, taken)`.
type Drive = (Vec<WalkKey>, u64, u64, Vec<(usize, usize)>);

/// One random drive schedule: interleaved submit chunks (rotating
/// tenants) and ticks, then drain + finish. The schedule is derived
/// entirely from `seed`, never from driver state, so both regimes replay
/// the identical command sequence.
fn drive_schedule<B: ridgewalker_suite::algo::WalkBackend>(
    mut driver: Driver<B>,
    queries: &[WalkQuery],
    seed: u64,
) -> Drive {
    let mut rng = SplitMix64::new(seed);
    let mut walks = Vec::new();
    let mut calls = Vec::new();
    let mut offset = 0;
    while offset < queries.len() {
        if rng.next_bool(0.6) {
            let chunk = 1 + rng.next_below(48) as usize;
            let end = (offset + chunk).min(queries.len());
            let tenant = TenantId(1 + (rng.next_below(4)) as u16);
            let mut part = &queries[offset..end];
            while !part.is_empty() {
                let taken = driver.submit(tenant, part);
                calls.push((part.len(), taken));
                part = &part[taken..];
                if taken == 0 {
                    walks.extend(driver.tick());
                }
            }
            offset = end;
        } else {
            walks.extend(driver.tick());
        }
    }
    for _ in 0..rng.next_below(4) {
        walks.extend(driver.tick());
    }
    let (rest, stats) = driver.finish();
    walks.extend(rest);
    (keys(walks), stats.completed, stats.steps, calls)
}

/// Cases 12 and up saturate the shards: a coalescing buffer of exactly
/// one micro-batch in front of a backend that holds four queries. Those
/// submits get refused part-way, which sends the threaded driver down its
/// exact run-by-run path; every call's acceptance count must still match
/// the deterministic driver's.
#[test]
fn walk_multisets_match_across_random_schedules() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(12);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let nv = p.graph().vertex_count();
    let mut refused_calls = 0;
    for case in 0..20u64 {
        let qs = QuerySet::random(nv, 300, 0x5EED ^ case);
        let shards = 1 + (case % 4) as usize;
        let saturating = case >= 12;
        let max_batch = 16 + 8 * (case as usize % 3);
        let run = |mode: DriverMode| {
            let p = p.clone();
            let spec = spec.clone();
            let driver = Driver::new(
                ServiceConfig::new(shards)
                    .max_batch(max_batch)
                    .buffer_capacity(if saturating { max_batch } else { 512 })
                    .driver_mode(mode),
                move |shard| {
                    let b = ReferenceBackend::new(p.clone(), spec.clone(), 0xD1CE ^ shard as u64);
                    if saturating {
                        b.queue_capacity(4)
                    } else {
                        b
                    }
                },
            );
            drive_schedule(driver, qs.queries(), 0xCA5E ^ case)
        };
        let det = run(DriverMode::Deterministic);
        let thr = run(DriverMode::Threaded);
        assert_eq!(det.0.len(), 300, "case {case}: stream conservation");
        assert_eq!(
            det.3, thr.3,
            "case {case} ({shards} shards): per-call acceptance counts must match"
        );
        assert_eq!(
            det, thr,
            "case {case} ({shards} shards): walk multisets (with tick stamps) must match"
        );
        if saturating {
            refused_calls += det
                .3
                .iter()
                .filter(|(offered, taken)| taken < offered)
                .count();
        }
    }
    assert!(
        refused_calls > 0,
        "the saturating cases must exercise partial or zero acceptance"
    );
}

/// PR 8's elastic extension of the parity property: the random schedule
/// now interleaves *scale events* — appends and drain-in-place
/// retirements — with submissions and ticks, and the full multiset
/// (tick stamps included) must still match across regimes. The schedule,
/// including the live-shard count that decides whether a scale event is
/// an append or a retire, is derived purely from the seed and
/// test-tracked state, never from driver state, so both regimes replay
/// the identical command sequence. Appended shards get the same pure
/// seed function of their index a fleet born at that size would have
/// used, so a shard appended at index `i` is indistinguishable from one
/// constructed at index `i`.
#[test]
fn walk_multisets_match_across_random_scale_schedules() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(12);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let nv = p.graph().vertex_count();
    const MAX_SHARDS: usize = 4;
    for case in 0..8u64 {
        let qs = QuerySet::random(nv, 260, 0x51CA ^ case);
        let run = |mode: DriverMode| {
            let make = {
                let p = p.clone();
                let spec = spec.clone();
                move |shard: usize| {
                    ReferenceBackend::new(p.clone(), spec.clone(), 0xD1CE ^ shard as u64)
                }
            };
            let mut driver = Driver::new(
                ServiceConfig::new(2)
                    .max_batch(16)
                    .buffer_capacity(512)
                    .driver_mode(mode),
                make.clone(),
            );
            let mut rng = SplitMix64::new(0xE1A5 ^ case);
            let mut walks = Vec::new();
            let mut offset = 0;
            // Test-tracked live count: the appended shard's index is the
            // count *before* the append, mirroring `Driver::append_shard`.
            let mut live = 2usize;
            let mut scale_events = 0u32;
            while offset < qs.queries().len() {
                let roll = rng.next_below(10);
                if roll < 5 {
                    let chunk = 1 + rng.next_below(48) as usize;
                    let end = (offset + chunk).min(qs.queries().len());
                    let tenant = TenantId(1 + (rng.next_below(4)) as u16);
                    let mut part = &qs.queries()[offset..end];
                    while !part.is_empty() {
                        let taken = driver.submit(tenant, part);
                        part = &part[taken..];
                        if taken == 0 {
                            walks.extend(driver.tick());
                        }
                    }
                    offset = end;
                } else if roll < 8 {
                    walks.extend(driver.tick());
                } else if rng.next_bool(0.5) && live < MAX_SHARDS {
                    let shard = driver.append_shard(make(live));
                    assert_eq!(shard, live, "append index must equal live count");
                    live += 1;
                    scale_events += 1;
                } else if live > 1 {
                    // Drain-in-place: the retiring shard's walks not yet
                    // handed out (under the threaded regime, its last
                    // tick's too) join the same final multiset.
                    walks.extend(driver.retire_shard());
                    live -= 1;
                    scale_events += 1;
                }
            }
            if scale_events == 0 {
                // A seed whose rolls never drew a scale event still must
                // exercise the property: force one append/retire pair.
                // `scale_events` is test-tracked, so both regimes take
                // this branch (or neither).
                assert_eq!(driver.append_shard(make(live)), live);
                walks.extend(driver.retire_shard());
                scale_events = 2;
            }
            for _ in 0..rng.next_below(4) {
                walks.extend(driver.tick());
            }
            let (rest, stats) = driver.finish();
            walks.extend(rest);
            (keys(walks), stats.completed, stats.steps, scale_events)
        };
        let det = run(DriverMode::Deterministic);
        let thr = run(DriverMode::Threaded);
        assert_eq!(det.0.len(), 260, "case {case}: stream conservation");
        assert!(
            det.3 > 0,
            "case {case}: the schedule must actually exercise scale events"
        );
        assert_eq!(
            det, thr,
            "case {case}: walk multisets (with tick stamps) must match across scale events"
        );
    }
}

#[test]
fn parity_holds_for_both_accelerator_shard_modes() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::ppr(16);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let qs = QuerySet::random(p.graph().vertex_count(), 400, 31);
    let accel = Accelerator::new(AcceleratorConfig::new().pipelines(4).seed(7));
    for shard_mode in [AccelShardMode::Batch, AccelShardMode::Incremental] {
        let run = |mode: DriverMode| {
            let driver = accelerator_driver(
                ServiceConfig::new(2)
                    .max_batch(64)
                    .buffer_capacity(512)
                    .driver_mode(mode),
                &accel,
                p.clone(),
                &spec,
                shard_mode,
            );
            drive_schedule(driver, qs.queries(), 0xACCE1)
        };
        let det = run(DriverMode::Deterministic);
        let thr = run(DriverMode::Threaded);
        assert_eq!(det.1, 400, "{shard_mode:?}: conservation");
        assert_eq!(det, thr, "{shard_mode:?}: accelerator fleet parity");
    }
}

#[test]
fn routed_mixed_fleet_matches_across_drivers() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(12);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let qs = QuerySet::random(p.graph().vertex_count(), 480, 17);
    let accel = Accelerator::new(AcceleratorConfig::new().pipelines(4).seed(5));
    let plan = [
        ShardSpec::Accel(AccelShardMode::Incremental),
        ShardSpec::Accel(AccelShardMode::Incremental),
        ShardSpec::Cpu {
            threads: 1,
            poll_chunk: 4,
        },
        ShardSpec::Cpu {
            threads: 1,
            poll_chunk: 4,
        },
    ];
    // Static hashing is the placement-deterministic policy: identical
    // decisions in both regimes regardless of live signals (which *are*
    // allowed to differ — threaded snapshots see in-flight commands).
    let run = |mode: DriverMode| {
        let driver = mixed_fleet_driver(
            ServiceConfig::new(4)
                .max_batch(32)
                .buffer_capacity(1024)
                .driver_mode(mode),
            &accel,
            p.clone(),
            &spec,
            &plan,
            0xC0FFEE,
        );
        let mut router = Router::new(driver, StaticHashPolicy);
        let mut walks = Vec::new();
        let mut offset = 0;
        while offset < qs.queries().len() {
            let end = (offset + 40).min(qs.queries().len());
            let tenant = TenantId(1 + (offset / 40 % 3) as u16);
            let mut part = &qs.queries()[offset..end];
            while !part.is_empty() {
                let taken = router.submit(tenant, part);
                part = &part[taken..];
                if taken == 0 {
                    walks.extend(router.tick());
                }
            }
            offset = end;
        }
        let (rest, stats) = router.finish();
        walks.extend(rest);
        (keys(walks), stats.completed, stats.steps)
    };
    let det = run(DriverMode::Deterministic);
    let thr = run(DriverMode::Threaded);
    assert_eq!(det.1, 480, "routed stream conservation");
    assert_eq!(det, thr, "routed mixed-fleet parity across drivers");
}

/// A sink that accepts at most `window` walks between flushes — the
/// backpressure pattern of a bounded downstream consumer. Lives on a
/// worker thread under the threaded driver, so it is plain owned state
/// (`Send` comes for free).
struct GatedSink {
    window: usize,
    since_flush: usize,
    accepted: u64,
    refused: u64,
    flushes: u64,
}

impl WalkSink for GatedSink {
    fn accept(&mut self, _walk: &CompletedWalk) -> SinkAck {
        if self.since_flush >= self.window {
            self.refused += 1;
            return SinkAck::Backpressured;
        }
        self.since_flush += 1;
        self.accepted += 1;
        SinkAck::Accepted
    }

    fn flush(&mut self) {
        self.since_flush = 0;
        self.flushes += 1;
    }

    fn report(&self) -> SinkReport {
        SinkReport {
            accepted: self.accepted,
            refused: self.refused,
            flushes: self.flushes,
            ..SinkReport::default()
        }
    }
}

#[test]
fn backpressuring_sinks_on_worker_threads_conserve_every_walk() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(10);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let qs = QuerySet::random(p.graph().vertex_count(), 600, 23);
    let p2 = p.clone();
    let spec2 = spec.clone();
    let mut driver: Driver<_> = Driver::new(
        ServiceConfig::new(3)
            .max_batch(32)
            .buffer_capacity(1024)
            .driver_mode(DriverMode::Threaded),
        move |shard| ReferenceBackend::new(p2.clone(), spec2.clone(), 0xD1CE ^ shard as u64),
    );
    // A tiny window forces refusals, spills, and forced flushes on the
    // worker threads themselves.
    driver.attach_sinks(|_shard| {
        Box::new(GatedSink {
            window: 7,
            since_flush: 0,
            accepted: 0,
            refused: 0,
            flushes: 0,
        })
    });
    assert_eq!(driver.submit(TenantId(1), qs.queries()), 600);
    for _ in 0..3 {
        // Sunk walks never come back through tick().
        assert!(driver.tick().is_empty());
    }
    let per_shard = driver
        .as_threaded()
        .expect("threaded regime")
        .sink_reports();
    assert_eq!(per_shard.len(), 3, "one sink per worker thread");
    let (rest, stats) = driver.finish();
    assert!(rest.is_empty(), "every walk was delivered to a sink");
    assert_eq!(stats.completed, 600, "conservation through backpressure");
    assert_eq!(stats.sink_accepted, 600);
    assert!(
        stats.sink_backpressured > 0,
        "the 7-walk window must actually push back"
    );
    assert!(stats.sink_forced_flushes > 0);
}

#[test]
fn shutdown_under_load_joins_cleanly_and_loses_nothing() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(14);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let nv = p.graph().vertex_count();
    for case in 0..6u64 {
        let qs = QuerySet::random(nv, 350, 0xDEAD ^ case);
        let p2 = p.clone();
        let spec2 = spec.clone();
        let mut driver: Driver<_> = Driver::new(
            ServiceConfig::new(2 + (case % 3) as usize)
                .max_batch(24)
                .buffer_capacity(512)
                .driver_mode(DriverMode::Threaded),
            move |shard| ReferenceBackend::new(p2.clone(), spec2.clone(), case ^ shard as u64),
        );
        // Load the workers up, tick a few times (or not at all), then
        // shut down immediately — everything accepted must come out.
        let accepted = driver.submit(TenantId(9), qs.queries());
        assert_eq!(accepted, 350);
        let mut walks = Vec::new();
        for _ in 0..case {
            walks.extend(driver.tick());
        }
        let (rest, stats) = driver.finish();
        walks.extend(rest);
        assert_eq!(stats.completed, 350, "case {case}: finish loses nothing");
        assert_eq!(stats.submitted, 350);
        assert_eq!(
            walks.len(),
            350,
            "case {case}: every accepted walk surfaces by shutdown"
        );
    }
}
