//! The open-loop replay: one stream through one fresh fleet.
//!
//! The arrival schedule is fixed in logical ticks and replayed as fast as
//! the fleet's clock advances, from the driving thread alone. A query is
//! *due* at the wall instant the replay reaches its arrival tick, so the
//! generator is never late in ticks, and wall latency runs from that
//! instant to the delivery.

use crate::adapter::{Delivery, FleetEnd, FleetOpts, Queries, Setup};
use crate::inputs::Stream;
use crate::stats::{digest, failures, percentile};
use std::time::Instant;

/// Extra ticks an inline fleet may take after the last arrival before
/// the replay gives up waiting and finishes it.
const MAX_TAIL_TICKS: u64 = 1 << 20;

/// What one replay of the stream measured and checked.
#[derive(Debug, Clone)]
pub struct Round {
    /// Which of the workload's streams was replayed.
    pub stream: usize,
    /// Walks delivered.
    pub delivered: usize,
    /// Queries not delivered exactly once to their own tenant.
    pub failed: u64,
    /// Order-independent digest of the delivered walk multiset.
    pub digest: u64,
    /// Wall seconds from the first submit to the last delivery.
    pub wall_s: f64,
    /// Wall seconds from the first submit until `finish` returned.
    pub drive_s: f64,
    /// Median and 99th-percentile due-to-delivery wall latency, µs.
    pub latency_us: (f64, f64),
    /// Walks per arrival-to-delivery latency in ticks: `hist[t]` walks
    /// took `t` ticks.
    pub tick_hist: Vec<u64>,
    /// Every tick-denominated total — ticks issued, arrival-to-delivery,
    /// arrival-to-flush and flush-to-delivery ticks summed over walks —
    /// which one seed repeats exactly.
    pub tick_totals: [u64; 4],
    /// What the fleet's adapters recorded.
    pub end: FleetEnd,
}

impl Round {
    /// Delivered walks per wall second.
    pub fn walks_per_s(&self) -> f64 {
        self.delivered as f64 / self.wall_s
    }
}

/// Replays stream number `index`, `stream`, through a fresh fleet of
/// `setup` built with `opts`.
///
/// # Panics
///
/// Panics on an empty stream, or if no walk is delivered.
pub fn replay(
    setup: &Setup,
    index: usize,
    stream: &Stream,
    queries: &Queries,
    opts: FleetOpts,
) -> Round {
    let n = stream.arrivals.len();
    let last_tick = *stream.arrivals.last().expect("a non-empty stream");
    let mut fleet = setup.fleet(opts, n);
    let mut due_at: Vec<Instant> = Vec::with_capacity(last_tick as usize + 1);
    let mut out: Vec<Delivery> = Vec::with_capacity(n);
    let (mut next, mut now, mut accepted, mut delivered) = (0, 0u64, 0, 0);
    let mut first_submit = None;
    loop {
        if now <= last_tick {
            let due = Instant::now();
            due_at.push(due);
            let mut end = next;
            while end < n && stream.arrivals[end] <= now {
                end += 1;
            }
            // One submit per run of consecutive same-tenant arrivals. An
            // open loop never retries: a refused query stays undelivered
            // and the ledger counts it failed.
            while next < end {
                first_submit.get_or_insert(due);
                let tenant = stream.tenants[next];
                let mut hi = next + 1;
                while hi < end && stream.tenants[hi] == tenant {
                    hi += 1;
                }
                accepted += fleet.submit(queries, tenant, next..hi);
                next = hi;
            }
        } else if fleet.threaded() || delivered >= accepted || now > last_tick + MAX_TAIL_TICKS {
            // The threaded driver hands walks back asynchronously, so its
            // tick count stops at the schedule's end; `finish` is the
            // barrier that collects the rest.
            break;
        }
        delivered += fleet.tick(&mut out);
        now += 1;
    }
    let end = fleet.finish(&mut out);
    let finished = Instant::now();
    let first_submit = first_submit.expect("the stream submits at least once");
    let last_delivery = out
        .iter()
        .map(|d| d.at)
        .max()
        .expect("walks were delivered");

    // A delivery of an id outside the stream has no due instant; the
    // ledger below counts it failed.
    let mut wall_ns: Vec<u64> = out
        .iter()
        .filter_map(|d| {
            let tick = *stream.arrivals.get(d.query as usize)?;
            Some(
                d.at.saturating_duration_since(due_at[tick as usize])
                    .as_nanos() as u64,
            )
        })
        .collect();
    wall_ns.sort_unstable();
    let mut tick_hist = Vec::new();
    for d in &out {
        let t = (d.completed_tick - d.arrival_tick) as usize;
        if t >= tick_hist.len() {
            tick_hist.resize(t + 1, 0);
        }
        tick_hist[t] += 1;
    }
    let latency_ticks: u64 = out.iter().map(|d| d.completed_tick - d.arrival_tick).sum();
    let batch_wait: u64 = out.iter().map(|d| d.flushed_tick - d.arrival_tick).sum();
    let backend: u64 = out.iter().map(|d| d.completed_tick - d.flushed_tick).sum();
    let us = |p| percentile(&wall_ns, p).map_or(f64::NAN, |ns| ns as f64 / 1e3);
    Round {
        stream: index,
        delivered: out.len(),
        failed: failures(&stream.tenants, out.iter().map(|d| (d.query, d.tenant))),
        digest: digest(out.iter().map(|d| d.hash)),
        wall_s: last_delivery.duration_since(first_submit).as_secs_f64(),
        drive_s: finished.duration_since(first_submit).as_secs_f64(),
        latency_us: (us(50.0), us(99.0)),
        tick_hist,
        tick_totals: [now, latency_ticks, batch_wait, backend],
        end,
    }
}
