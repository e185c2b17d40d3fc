//! Observability's load-bearing property: the event journal is
//! **deterministic**. For a fixed seed and submission schedule the
//! canonical trace — every admission, flush, delivery, and scale event,
//! tick-stamped and sorted by `(tick, shard, seq)` — is *byte-identical*
//! across the deterministic and threaded serving regimes, because every
//! stamp is a machine tick and never a wall clock. A trace diff is
//! therefore a real behavioural diff, never scheduler noise.
//!
//! Also pinned here: the spill-depth gauge regression. `sink_spill_depth`
//! reports *live* backlog, so once a drain has run the spill dry it must
//! read zero in both regimes — a cumulative count leaking into the gauge
//! is exactly the drift this test exists to catch. And `drain()` is an
//! export barrier in both regimes: right after it returns, the journal
//! holds every delivery.
//!
//! Counts live in the report structs and events in the journal, each
//! once; the journal's event counts must equal those exact counters.

use ridgewalker_suite::algo::{PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};
use ridgewalker_suite::graph::generators::{Dataset, ScaleFactor};
use ridgewalker_suite::obs::{jsonl_field, jsonl_num, Obs, SpanSet};
use ridgewalker_suite::route::{LeastLoadedPolicy, Router};
use ridgewalker_suite::service::{
    CompletedWalk, Driver, DriverMode, DynWalkBackend, ServiceConfig, SinkAck, SinkReport,
    TenantId, WalkSink,
};
use std::sync::Arc;

/// Plays a fixed stream with a mid-run scale schedule (grow to three
/// shards after the second chunk, shrink back after the fourth) through
/// one regime and returns the canonical trace. With `sink`, delivery
/// streams into a backpressuring [`GatedSink`] that is handed over to a
/// fresh one right after the append.
fn trace_of(mode: DriverMode, sink: bool) -> String {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(8);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let make = |shard: usize| ReferenceBackend::new(p.clone(), spec.clone(), 0xD1CE ^ shard as u64);
    let cfg = ServiceConfig::new(2)
        .max_batch(8)
        .max_delay_ticks(1)
        .driver_mode(mode);
    let mut d = Driver::new(cfg, make);
    let obs = Obs::new();
    d.attach_obs(obs.clone());
    if sink {
        d.attach_sink(Box::new(GatedSink::new(5)));
    }
    let qs = QuerySet::random(200, 300, 77);
    let mut walks = Vec::new();
    for (i, chunk) in qs.queries().chunks(50).enumerate() {
        assert_eq!(d.submit(TenantId(2), chunk), 50);
        walks.extend(d.tick());
        match i {
            1 => {
                assert_eq!(d.append_shard(make(2)), 2);
                if sink {
                    let old = d.attach_sink(Box::new(GatedSink::new(5)));
                    assert!(old.is_some_and(|s| s.report().accepted > 0));
                }
            }
            3 => walks.extend(d.retire_shard()),
            _ => {}
        }
    }
    let (rest, stats) = d.finish();
    walks.extend(rest);
    let delivered = if sink {
        assert!(walks.is_empty(), "sunk walks never surface");
        assert!(stats.sink_spilled > 0, "the 5-walk window must spill");
        stats.sink_accepted as usize
    } else {
        walks.len()
    };
    assert_eq!(delivered, 300, "conservation across the scale schedule");
    assert_eq!(stats.completed, 300);
    assert_eq!(obs.dropped(), 0, "the stream must fit the journal ring");
    obs.trace_jsonl()
}

#[test]
fn fixed_seed_trace_is_bit_identical_across_regimes() {
    let det = trace_of(DriverMode::Deterministic, false);
    let thr = trace_of(DriverMode::Threaded, false);
    assert!(!det.is_empty());
    assert_eq!(det, thr, "canonical JSONL must match byte for byte");

    // The same schedule into a backpressuring sink at the coordinator,
    // handed over mid-run: spill, forced-flush and sink-accept events are
    // stamped identically too, because every batch reaches the sink
    // stamped with the tick it completed in.
    let det_sunk = trace_of(DriverMode::Deterministic, true);
    assert_eq!(
        det_sunk,
        trace_of(DriverMode::Threaded, true),
        "canonical JSONL with a sink must match byte for byte"
    );
    for ev in ["sink_accepted", "sink_spilled", "sink_forced_flush"] {
        assert!(
            det_sunk.lines().any(|l| jsonl_field(l, "ev") == Some(ev)),
            "the sink arm journals {ev}"
        );
    }

    // The trace actually covers the run: one admission and one delivery
    // per query, batches in between, stamped with logical ticks only.
    let count = |ev: &str| {
        det.lines()
            .filter(|l| jsonl_field(l, "ev") == Some(ev))
            .count()
    };
    assert_eq!(count("query_admitted"), 300);
    assert_eq!(count("query_delivered"), 300);
    assert!(count("batch_flushed") >= 300 / 8, "micro-batch boundaries");
    for l in det.lines() {
        assert!(
            jsonl_field(l, "tick").is_some(),
            "every event is tick-stamped: {l}"
        );
    }

    // Provenance rides on the same canonical order: the span trees (and
    // with them the whole phase attribution) reconstruct identically
    // from both regimes' traces.
    let spans = SpanSet::from_trace(&det);
    assert_eq!(spans.spans.len(), 300, "one span per delivered query");
    assert_eq!(spans.dropped, 0);
    assert_eq!(spans.summary(), SpanSet::from_trace(&thr).summary());
    // Fleet scale events are journaled by the Router, not the raw
    // driver, so a raw-driver trace annotates no spans with them — the
    // end-to-end annotation check lives with the autoscale bench.
    assert!(spans.spans.iter().all(|s| s.scale_events == 0));
}

/// A sink that accepts at most `window` walks between flushes, forcing
/// spills and forced flushes in both regimes.
struct GatedSink {
    window: usize,
    since_flush: usize,
    accepted: u64,
    refused: u64,
    flushes: u64,
}

impl GatedSink {
    fn new(window: usize) -> Self {
        Self {
            window,
            since_flush: 0,
            accepted: 0,
            refused: 0,
            flushes: 0,
        }
    }
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
fn spill_depth_reads_zero_after_drain_in_both_regimes() {
    for mode in [DriverMode::Deterministic, DriverMode::Threaded] {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(10);
        let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
        let qs = QuerySet::random(p.graph().vertex_count(), 400, 29);
        let p2 = p.clone();
        let spec2 = spec.clone();
        let mut d: Driver<_> = Driver::new(
            ServiceConfig::new(2)
                .max_batch(16)
                .buffer_capacity(512)
                .driver_mode(mode),
            move |shard| ReferenceBackend::new(p2.clone(), spec2.clone(), 0xBEEF ^ shard as u64),
        );
        // A tiny window forces refusals into the spill buffer.
        d.attach_sink(Box::new(GatedSink::new(5)));
        assert_eq!(d.submit(TenantId(3), qs.queries()), 400);
        let rest = d.drain();
        assert!(rest.is_empty(), "{mode:?}: sunk walks never surface");
        let stats = d.stats();
        assert_eq!(stats.completed, 400, "{mode:?}: conservation");
        assert_eq!(stats.sink_accepted, 400, "{mode:?}: all delivered");
        assert!(
            stats.sink_spilled > 0,
            "{mode:?}: the 5-walk window must actually spill"
        );
        assert_eq!(
            stats.sink_spill_depth, 0,
            "{mode:?}: a finished drain leaves the spill dry — the depth \
             gauge reports live backlog, not a cumulative count"
        );
        // The cumulative counter keeps the history the gauge must not:
        // a second stats() call right after must agree with the first.
        let again = d.stats();
        assert_eq!(again.sink_spilled, stats.sink_spilled, "{mode:?}");
        assert_eq!(again.sink_spill_depth, 0, "{mode:?}");
    }
}

/// The tentpole invariant: for *every* delivered query, in *both*
/// regimes, under a mid-run scale schedule with a backpressuring sink,
/// the reconstructed phases sum **exactly** to the end-to-end latency —
/// `batch-wait + backend-service + sink-wait == accepted - arrival`,
/// tick for tick, no residuals.
#[test]
fn phase_decomposition_sums_exactly_in_both_regimes() {
    for mode in [DriverMode::Deterministic, DriverMode::Threaded] {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(8);
        let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
        let make =
            |shard: usize| ReferenceBackend::new(p.clone(), spec.clone(), 0xFACE ^ shard as u64);
        let mut d: Driver<_> = Driver::new(
            ServiceConfig::new(2)
                .max_batch(8)
                .max_delay_ticks(1)
                .buffer_capacity(512)
                .driver_mode(mode),
            make,
        );
        let obs = d.attach_fresh_obs();
        // A tight accept window prices the sink-wait phase, and the
        // mid-run scale schedule exercises migration/scale annotation
        // while spans are open.
        d.attach_sink(Box::new(GatedSink::new(5)));
        let qs = QuerySet::random(200, 300, 99);
        for (i, chunk) in qs.queries().chunks(50).enumerate() {
            assert_eq!(d.submit(TenantId(4), chunk), 50, "{mode:?}");
            d.tick();
            match i {
                // The one sink at the coordinator serves the newcomer too.
                1 => assert_eq!(d.append_shard(make(2)), 2, "{mode:?}"),
                3 => assert!(d.retire_shard().is_empty(), "{mode:?}: sunk"),
                _ => {}
            }
        }
        let rest = d.drain();
        assert!(rest.is_empty(), "{mode:?}: sunk walks never surface");
        let stats = d.stats();
        assert_eq!(stats.completed, 300, "{mode:?}: conservation");
        assert_eq!(obs.dropped(), 0, "{mode:?}: stream fits the ring");

        let spans = SpanSet::from_trace(&obs.trace_jsonl());
        assert_eq!(spans.spans.len(), 300, "{mode:?}: one span per query");
        assert_eq!(spans.unmatched_accepts, 0, "{mode:?}");
        let mut sink_wait_total = 0u64;
        for s in &spans.spans {
            assert_eq!(
                s.phases().iter().sum::<u64>(),
                s.total(),
                "{mode:?}: span (tenant {}, query {}) must decompose \
                 exactly: {:?} vs total {}",
                s.tenant,
                s.query,
                s.phases(),
                s.total()
            );
            assert!(
                s.accepted_tick.is_some(),
                "{mode:?}: with a sink attached every span closes at accept"
            );
            sink_wait_total += s.phases()[2];
        }
        assert!(
            sink_wait_total > 0,
            "{mode:?}: the 5-walk window must make some walks wait"
        );
        // The aggregate face of the same invariant.
        let sum = spans.summary();
        assert_eq!(sum.count, 300);
        assert_eq!(sum.phase_sums.iter().sum::<u64>(), sum.total_sum);
    }
}

/// `drain()` is an export barrier in both regimes: with no `stats()` or
/// `flush_obs()` call, the journal holds one `query_delivered` per walk
/// the moment it returns — worker-side events included.
#[test]
fn drain_exports_every_delivery_in_both_regimes() {
    for mode in [DriverMode::Deterministic, DriverMode::Threaded] {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(8);
        let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
        let make =
            |shard: usize| ReferenceBackend::new(p.clone(), spec.clone(), 0xBA5E ^ shard as u64);
        let mut d = Driver::new(ServiceConfig::new(2).driver_mode(mode), make);
        let obs = d.attach_fresh_obs();
        let qs = QuerySet::random(200, 300, 41);
        assert_eq!(d.submit(TenantId(6), qs.queries()), 300, "{mode:?}");
        let mut walks = d.tick();
        assert_eq!(d.shard_snapshots().len(), 2, "{mode:?}");
        walks.extend(d.drain());
        assert_eq!(walks.len(), 300, "{mode:?}: conservation");
        let delivered = obs
            .trace_jsonl()
            .lines()
            .filter(|l| jsonl_field(l, "ev") == Some("query_delivered"))
            .count();
        assert_eq!(delivered, 300, "{mode:?}: drain exported every delivery");
    }
}

/// `ServiceConfig::journal_capacity` regression: a ring too small for
/// the stream *counts* what it dropped — in the handle, in the trace's
/// leading meta line, and in the span reconstruction — never silently.
#[test]
fn journal_overflow_is_counted_never_silent() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(8);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let make = |shard: usize| ReferenceBackend::new(p.clone(), spec.clone(), 0xC0DE ^ shard as u64);
    let mut d: Driver<_> = Driver::new(
        ServiceConfig::new(2)
            .max_batch(8)
            .max_delay_ticks(1)
            .buffer_capacity(512)
            .journal_capacity(64),
        make,
    );
    assert_eq!(d.journal_capacity(), 64);
    let obs = d.attach_fresh_obs();
    let qs = QuerySet::random(200, 300, 55);
    assert_eq!(d.submit(TenantId(5), qs.queries()), 300);
    let (walks, stats) = d.finish();
    assert_eq!(walks.len(), 300);
    assert_eq!(stats.completed, 300);

    // ~900 events through a 64-slot ring: most of the stream is gone,
    // and every layer says so.
    assert!(obs.dropped() > 0, "the ring must overflow");
    let trace = obs.trace_jsonl();
    let first = trace.lines().next().expect("non-empty trace");
    assert_eq!(
        jsonl_field(first, "ev"),
        Some("journal_overflow"),
        "the trace leads with the overflow meta line"
    );
    assert_eq!(jsonl_num(first, "dropped"), Some(obs.dropped() as f64));
    let spans = SpanSet::from_trace(&trace);
    assert_eq!(spans.dropped, obs.dropped(), "reconstruction carries it");
    // The ring keeps the *newest* events: what remains is the tail of
    // the run, so the surviving spans are real (exact), just fewer.
    assert_eq!(trace.lines().count(), 65, "64 events + 1 meta line");
    for s in &spans.spans {
        assert_eq!(s.phases().iter().sum::<u64>(), s.total());
    }
}

/// The journal and the exact counters agree event for event: a
/// least-loaded router moves three tenants over a fleet that grows by
/// one shard and retires it again, into a 5-walk sink, and every event
/// count in the trace equals the `ServiceStats` or `RouteReport` counter
/// of the same fact, in both regimes.
#[test]
fn journal_event_counts_equal_the_exact_counters_in_both_regimes() {
    for mode in [DriverMode::Deterministic, DriverMode::Threaded] {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(8);
        let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
        let make = |shard: usize| -> DynWalkBackend {
            Box::new(ReferenceBackend::new(
                p.clone(),
                spec.clone(),
                0xC047 ^ shard as u64,
            ))
        };
        let cfg = ServiceConfig::new(2)
            .max_batch(8)
            .max_delay_ticks(1)
            .driver_mode(mode);
        let mut router = Router::new(Driver::new(cfg, make), LeastLoadedPolicy);
        let obs = router.attach_fresh_obs();
        router.attach_sinks(|_| Box::new(GatedSink::new(5)));
        let tenants = [TenantId(1), TenantId(2), TenantId(3)];
        let qs = QuerySet::random(200, 360, 13);
        let chunks: Vec<_> = qs.queries().chunks(20).collect();
        // Each round every tenant submits once, in an order that rotates
        // from round to round, so the least-loaded shard a tenant lands
        // on keeps changing: tenants migrate.
        for (round, group) in chunks.chunks(tenants.len()).enumerate() {
            for (j, chunk) in group.iter().enumerate() {
                let tenant = tenants[(round + j) % tenants.len()];
                assert_eq!(router.submit(tenant, chunk), chunk.len(), "{mode:?}");
            }
            assert!(router.tick().is_empty(), "{mode:?}: sunk");
            match round {
                1 => assert_eq!(router.append_shard(make(2)), 2, "{mode:?}"),
                3 => {
                    assert_eq!(router.begin_retire(), Some(2), "{mode:?}");
                    while router.try_finish_retire().is_none() {
                        router.tick();
                    }
                }
                _ => {}
            }
        }
        assert!(router.drain().is_empty(), "{mode:?}");
        let report = router.report();
        let (rest, stats) = router.finish();
        assert!(rest.is_empty(), "{mode:?}");
        assert_eq!(stats.completed, 360, "{mode:?}: conservation");
        assert_eq!(obs.dropped(), 0, "{mode:?}: the stream fits the ring");

        let trace = obs.trace_jsonl();
        let events = |ev: &'static str| {
            trace
                .lines()
                .filter(move |l| jsonl_field(l, "ev") == Some(ev))
        };
        let count = |ev: &'static str| events(ev).count() as u64;
        assert_eq!(count("query_admitted"), stats.submitted, "{mode:?}");
        assert_eq!(stats.per_tenant.len(), tenants.len(), "{mode:?}");
        for t in &stats.per_tenant {
            let delivered = events("query_delivered")
                .filter(|l| jsonl_num(l, "tenant") == Some(f64::from(t.tenant.0)))
                .count() as u64;
            assert_eq!(delivered, t.completed, "{mode:?}: {}", t.tenant);
        }
        assert!(stats.sink_spilled > 0, "{mode:?}: the 5-walk window spills");
        assert_eq!(count("sink_spilled"), stats.sink_spilled, "{mode:?}");
        assert!(stats.sink_forced_flushes > 0, "{mode:?}: at its bound");
        assert_eq!(
            count("sink_forced_flush"),
            stats.sink_forced_flushes,
            "{mode:?}"
        );
        assert!(report.migrations > 0, "{mode:?}: least-loaded rebinds");
        assert_eq!(count("migration"), report.migrations, "{mode:?}");
        assert_eq!(count("shard_appended"), 1, "{mode:?}");
        assert_eq!(count("shard_retired"), 1, "{mode:?}");
    }
}
