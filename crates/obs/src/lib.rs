//! # grw_obs — deterministic event tracing
//!
//! The serving stack's counts live once, in the report structs each
//! layer returns (`ServiceStats`, `SinkReport`, `RouteReport`). What they
//! cannot say is *when* and *in what order* things happened to each
//! query; this crate records that:
//!
//! * [`Journal`] / [`Event`] — a bounded ring of structured events
//!   (query admitted / flushed / delivered, micro-batch boundaries,
//!   router migrations, every scale verdict with the control-law inputs
//!   that produced it, sink spills, alias-cache epochs) stamped with
//!   the logical machine tick, never the wall clock — a fixed seed
//!   reproduces the identical trace.
//! * [`provenance`] — turns a trace into exact per-query phases
//!   (batch-wait, backend-service, sink-wait).
//! * `obsdump` (a bin in this crate) — renders a trace into per-tenant
//!   / per-shard timelines and a span-style phase breakdown in
//!   markdown.
//!
//! ## Recording topology
//!
//! [`Obs`] is the shared hub (cheap to clone — one `Arc`). Each
//! recording source — a `ShardRunner`, a worker's spill-delivery path —
//! holds a [`ShardObs`]: a *local* event buffer, so the hot path takes
//! no lock and worker threads never contend. Buffers flow back to the
//! hub at the same barriers the stats collectors already use (reports,
//! drains, retirement, `finish`), and the hub's journal sorts
//! canonically by `(tick, shard, seq)` — which is what makes the
//! exported trace identical across the deterministic and threaded
//! serving regimes for a fixed seed and schedule. A buffer holds at most
//! the journal's capacity however long a run goes between barriers:
//! older events could not survive the ring anyway, so it only counts
//! them (see [`ShardObs`]).
//!
//! Everything is `std`-only, like the rest of the workspace.

mod journal;
pub mod provenance;

pub use journal::{jsonl_field, jsonl_num, Event, EventKind, Journal, ScaleInputs, GLOBAL_SHARD};
pub use provenance::{parse_trace, PhaseSummary, QuerySpan, SpanSet, TraceDiff, PHASE_NAMES};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default hub journal capacity (events). Big enough that every smoke
/// bench fits untruncated; a figure-scale run that overflows it keeps
/// the *newest* events and reports the drop count.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 16;

/// Events a [`ShardObs`] local buffer is pre-faulted for at attach time
/// (it still grows past this, up to the journal's capacity, if a run
/// buffers more between barriers).
const SHARD_BUFFER_WARM: usize = 4096;

/// Sequence base for spill-delivery recorders ([`ShardObs::seq_base`]).
///
/// The canonical event order is `(tick, shard, seq)`, and a shard can
/// have *two* recording sources — its runner and its spill-delivery
/// path — plus hub-level events attributed to it. Giving each source
/// class a disjoint `seq` range makes the canonical order total (no two
/// events ever share a key), which is what keeps the sorted trace
/// string byte-identical across serving regimes.
pub const SEQ_BASE_SPILL: u64 = 1 << 48;

/// Sequence base for events recorded directly on the hub (router and
/// scale-policy events) — disjoint from runner (`0..`) and spill
/// ([`SEQ_BASE_SPILL`]) ranges; see [`SEQ_BASE_SPILL`].
pub const SEQ_BASE_HUB: u64 = 1 << 49;

#[derive(Debug)]
struct ObsInner {
    enabled: bool,
    journal: Mutex<Journal>,
    /// Sequence source for events recorded directly on the hub (router
    /// and policy events — coordinator-thread only, so deterministic).
    seq: AtomicU64,
}

/// The shared observability hub: one journal. Clone it freely — clones
/// share the same state.
#[derive(Debug, Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// A live hub with the [default journal capacity](DEFAULT_JOURNAL_CAPACITY).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A live hub holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Arc::new(ObsInner {
                enabled: true,
                journal: Mutex::new(Journal::new(capacity)),
                seq: AtomicU64::new(SEQ_BASE_HUB),
            }),
        }
    }

    /// A disabled hub: every recorder is a no-op and nothing is journaled
    /// — the baseline arm of the instrumentation-overhead comparison.
    pub fn disabled() -> Self {
        Self {
            inner: Arc::new(ObsInner {
                enabled: false,
                journal: Mutex::new(Journal::new(1)),
                seq: AtomicU64::new(SEQ_BASE_HUB),
            }),
        }
    }

    /// Whether this hub records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Records one event directly on the hub (sequence assigned here).
    /// Use [`ShardObs`] for per-shard hot paths instead.
    pub fn record(&self, tick: u64, shard: u32, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        self.inner
            .journal
            .lock()
            .expect("journal lock")
            .push(Event {
                tick,
                shard,
                seq,
                kind,
            });
    }

    /// Merges a batch of already-stamped events (a worker buffer, a
    /// runner buffer) into the hub journal.
    pub fn absorb(&self, events: impl IntoIterator<Item = Event>) {
        if !self.is_enabled() {
            return;
        }
        let mut journal = self.inner.journal.lock().expect("journal lock");
        for e in events {
            journal.push(e);
        }
    }

    /// Events dropped to the journal's capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.journal.lock().expect("journal lock").dropped()
    }

    /// The journal in canonical `(tick, shard, seq)` order.
    pub fn journal(&self) -> Vec<Event> {
        self.inner.journal.lock().expect("journal lock").sorted()
    }

    /// The canonical trace: one JSONL line per event, canonical order,
    /// trailing newline. Identical across runs for a fixed seed and
    /// schedule — the artifact the trace-determinism tests compare and
    /// `obsdump` renders.
    ///
    /// A journal that overflowed its ring leads the trace with one
    /// `{"ev": "journal_overflow", "dropped": N}` meta line, so a
    /// truncated trace is never mistaken for a complete one by any
    /// reader (`obsdump` turns it into a warning banner and marks phase
    /// breakdowns as lower bounds).
    pub fn trace_jsonl(&self) -> String {
        let (events, dropped) = {
            let journal = self.inner.journal.lock().expect("journal lock");
            (journal.sorted(), journal.dropped())
        };
        let mut out = String::with_capacity(events.len() * 96);
        if dropped > 0 {
            out.push_str(&format!(
                "{{\"ev\": \"journal_overflow\", \"dropped\": {dropped}}}\n"
            ));
        }
        for e in &events {
            out.push_str(&e.jsonl());
            out.push('\n');
        }
        out
    }

    /// A per-shard recording source bound to this hub: a local event
    /// buffer, so the hot path takes no lock.
    pub fn shard_obs(&self, shard: u32) -> ShardObs {
        // Pre-fault the local buffer for the same reason the hub ring
        // is pre-faulted in `Journal::new`: first-touch page faults
        // belong at attach time, not in the recording hot path.
        let buf = if self.is_enabled() {
            journal::prefaulted(SHARD_BUFFER_WARM, (0, EventKind::RetireBegun))
        } else {
            VecDeque::new()
        };
        let capacity = self.inner.journal.lock().expect("journal lock").capacity();
        ShardObs {
            hot: Hot {
                enabled: self.is_enabled(),
                keep: capacity,
                buf,
            },
            shard,
            seq: 0,
            dropped: 0,
            hub: Some(self.clone()),
            last_alias_epoch: None,
        }
    }
}

/// A per-shard (or per-source) recorder: the admission/delivery hot
/// path is a single local buffer push — no locks, no atomics. Ship the
/// buffer back to the hub with [`flush`](Self::flush) (same-thread) or
/// [`take_events`](Self::take_events) (across a report channel, merged
/// at the coordinator with [`Obs::absorb`]).
///
/// The buffer holds at most the hub journal's capacity, however long a
/// run goes between barriers. A push into a full buffer first drops the
/// oldest event, counting it as a journal drop at the next export.
/// Absorbing an unbounded buffer would have pushed at least a capacity's
/// worth of events after it, so the ring would have evicted it anyway:
/// the journal and its drop count come out exactly as without the bound.
#[derive(Debug)]
pub struct ShardObs {
    hot: Hot,
    shard: u32,
    /// Sequence number of the oldest buffered event, or of the next one
    /// recorded while the buffer is empty.
    seq: u64,
    /// Events dropped from the buffer since the last export.
    dropped: u64,
    hub: Option<Obs>,
    last_alias_epoch: Option<(u64, u64, u64)>,
}

/// The part of a [`ShardObs`] every recording reads and writes, on one
/// cache line. Recording sites sit between walk-kernel steps that evict
/// the recorder from the L1 cache, so a recording whose fields were
/// spread over the recorder would miss on several lines instead of one.
#[derive(Debug)]
#[repr(align(64))]
struct Hot {
    enabled: bool,
    /// The hub journal's capacity: only the newest `keep` events of a
    /// buffer can reach the journal. A disabled recorder never drops.
    keep: usize,
    /// Events recorded since the last export, oldest first, as `(tick,
    /// kind)`: the shard is the recorder's and the sequence numbers run
    /// consecutively from its `seq`, so an export restores both and the
    /// hot path stores neither.
    buf: VecDeque<(u64, EventKind)>,
}

impl Default for ShardObs {
    fn default() -> Self {
        Self::disabled()
    }
}

impl ShardObs {
    /// A recorder that records nothing — the default every runner
    /// starts with until a hub is attached.
    pub fn disabled() -> Self {
        Self {
            hot: Hot {
                enabled: false,
                keep: usize::MAX,
                buf: VecDeque::new(),
            },
            shard: GLOBAL_SHARD,
            seq: 0,
            dropped: 0,
            hub: None,
            last_alias_epoch: None,
        }
    }

    /// Whether this recorder records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.hot.enabled
    }

    /// Moves this recorder's sequence counter to `base` — used to give a
    /// second recording source for the same shard (the spill-delivery
    /// path, [`SEQ_BASE_SPILL`]) a seq range disjoint from its runner's,
    /// so the canonical `(tick, shard, seq)` order stays total.
    pub fn seq_base(mut self, base: u64) -> Self {
        self.seq = base;
        self
    }

    #[inline]
    fn push(&mut self, tick: u64, kind: EventKind) {
        if self.hot.buf.len() == self.hot.keep {
            self.drop_oldest();
        }
        self.hot.buf.push_back((tick, kind));
    }

    /// Drops the oldest buffered event, which the ring would evict on
    /// absorption anyway (see the type docs). Out of line so the push it
    /// guards stays small enough to inline into the recording sites.
    #[inline(never)]
    fn drop_oldest(&mut self) {
        self.hot.buf.pop_front();
        self.dropped += 1;
        self.seq += 1;
    }

    /// A query was accepted into the micro-batcher.
    #[inline]
    pub fn query_admitted(&mut self, tick: u64, tenant: u16, query: u64) {
        if !self.hot.enabled {
            return;
        }
        self.push(tick, EventKind::QueryAdmitted { tenant, query });
    }

    /// A micro-batch boundary.
    #[inline]
    pub fn batch_flushed(&mut self, tick: u64, batch: u64, taken: usize, reason: &'static str) {
        if !self.hot.enabled {
            return;
        }
        self.push(
            tick,
            EventKind::BatchFlushed {
                batch,
                taken: taken as u32,
                reason,
            },
        );
    }

    /// A walk was delivered at `tick`.
    #[inline]
    pub fn query_delivered(
        &mut self,
        tick: u64,
        tenant: u16,
        query: u64,
        arrival_tick: u64,
        flushed_tick: u64,
        steps: u32,
    ) {
        if !self.hot.enabled {
            return;
        }
        self.push(
            tick,
            EventKind::QueryDelivered {
                tenant,
                query,
                arrival_tick,
                flushed_tick,
                steps,
            },
        );
    }

    /// A downstream sink accepted the walk at `tick` — the delivery-side
    /// backpressure stamp. Recorded on the spill-delivery recorder (seq
    /// range [`SEQ_BASE_SPILL`]) so canonical ordering stays total.
    #[inline]
    pub fn sink_accepted(
        &mut self,
        tick: u64,
        tenant: u16,
        query: u64,
        arrival_tick: u64,
        completed_tick: u64,
    ) {
        if !self.hot.enabled {
            return;
        }
        self.push(
            tick,
            EventKind::SinkAccepted {
                tenant,
                query,
                arrival_tick,
                completed_tick,
            },
        );
    }

    /// A sink refused a walk; it was parked at spill depth `depth`.
    #[inline]
    pub fn sink_spilled(&mut self, tick: u64, depth: usize) {
        if !self.hot.enabled {
            return;
        }
        self.push(
            tick,
            EventKind::SinkSpilled {
                depth: depth as u32,
            },
        );
    }

    /// The spill bound forced a sink flush.
    #[inline]
    pub fn sink_forced_flush(&mut self, tick: u64) {
        if !self.hot.enabled {
            return;
        }
        self.push(tick, EventKind::SinkForcedFlush);
    }

    /// Records the shard's cumulative alias-cache telemetry at an
    /// observation epoch — deduplicated, so an unchanged cache (or a
    /// workload that never touches it) journals nothing.
    pub fn alias_cache_epoch(&mut self, tick: u64, hits: u64, builds: u64, evictions: u64) {
        if !self.hot.enabled {
            return;
        }
        let now = (hits, builds, evictions);
        if now == (0, 0, 0) || self.last_alias_epoch == Some(now) {
            return;
        }
        self.last_alias_epoch = Some(now);
        self.push(
            tick,
            EventKind::AliasCacheEpoch {
                hits,
                builds,
                evictions,
            },
        );
    }

    /// Empties the local buffer, counting the events it dropped at the
    /// hub's journal, and yields its events with their shard and
    /// sequence numbers restored.
    fn drain_events(&mut self) -> impl Iterator<Item = Event> {
        let dropped = std::mem::take(&mut self.dropped);
        if dropped > 0 {
            if let Some(hub) = &self.hub {
                let mut journal = hub.inner.journal.lock().expect("journal lock");
                journal.count_dropped(dropped);
            }
        }
        let shard = self.shard;
        let first = self.seq;
        self.seq += self.hot.buf.len() as u64;
        std::mem::take(&mut self.hot.buf)
            .into_iter()
            .zip(first..)
            .map(move |((tick, kind), seq)| Event {
                tick,
                shard,
                seq,
                kind,
            })
    }

    /// Drains the local buffer (for shipping across a report channel;
    /// merge at the coordinator with [`Obs::absorb`]).
    pub fn take_events(&mut self) -> Vec<Event> {
        self.drain_events().collect()
    }

    /// Pushes the local buffer into the hub (same-thread sources).
    pub fn flush(&mut self) {
        if self.hot.buf.is_empty() {
            return;
        }
        let events = self.drain_events();
        if let Some(hub) = &self.hub {
            hub.absorb(events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_obs_buffers_locally_and_flushes_to_the_hub() {
        let obs = Obs::new();
        let mut s0 = obs.shard_obs(0);
        let mut s1 = obs.shard_obs(1);
        s0.query_admitted(1, 7, 40);
        s1.query_admitted(1, 7, 41);
        s0.query_delivered(3, 7, 40, 1, 2, 8);
        assert!(obs.journal().is_empty(), "events buffer until a barrier");
        s0.flush();
        obs.absorb(s1.take_events());
        let journal = obs.journal();
        assert_eq!(journal.len(), 3);
        // Canonical order: tick, then shard, then per-source seq.
        assert_eq!(journal[0].key(), (1, 0, 0));
        assert_eq!(journal[1].key(), (1, 1, 0));
        assert_eq!(journal[2].key(), (3, 0, 1));
    }

    /// Two sources record through 60 ticks with export barriers at ticks
    /// 17 and 59, absorbing into `into`. Returns the largest buffer seen.
    fn record_schedule(obs: &Obs, into: &Obs) -> usize {
        let mut sources = [obs.shard_obs(0), obs.shard_obs(1)];
        let mut largest = 0;
        for t in 0..60u64 {
            for (q, s) in (t * 2..).zip(&mut sources) {
                let tenant = (t % 3) as u16;
                s.query_admitted(t, tenant, q);
                if t >= 2 {
                    s.query_delivered(t, tenant, q - 4, t - 2, t - 1, 3);
                    s.sink_accepted(t, tenant, q - 4, t - 2, t);
                }
                if t % 5 == 0 {
                    s.batch_flushed(t, t, 5, "size");
                }
                largest = largest.max(s.hot.buf.len());
            }
            if t == 17 || t == 59 {
                for s in &mut sources {
                    into.absorb(s.take_events());
                }
            }
        }
        largest
    }

    #[test]
    fn bounded_buffers_leave_the_hub_as_unbounded_ones_would() {
        const CAP: usize = 32;
        let bounded = Obs::with_capacity(CAP);
        let largest = record_schedule(&bounded, &bounded);
        assert!(largest <= CAP, "buffers hold at most the capacity");
        // The reference records into a hub large enough that its
        // buffers drop nothing, and hands every event to a hub of the
        // same capacity.
        let (unbounded, reference) = (Obs::with_capacity(1 << 12), Obs::with_capacity(CAP));
        assert!(record_schedule(&unbounded, &reference) > 2 * CAP);
        assert!(reference.dropped() > 0, "the schedule overflows the ring");
        assert_eq!(bounded.dropped(), reference.dropped());
        assert_eq!(bounded.trace_jsonl(), reference.trace_jsonl());
    }

    #[test]
    fn disabled_hub_records_nothing_anywhere() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let mut s = obs.shard_obs(0);
        s.query_admitted(1, 1, 0);
        s.query_delivered(2, 1, 0, 1, 1, 4);
        s.sink_accepted(3, 1, 0, 1, 2);
        s.sink_spilled(3, 5);
        s.flush();
        obs.record(4, GLOBAL_SHARD, EventKind::RetireBegun);
        assert!(obs.journal().is_empty());
        assert!(obs.trace_jsonl().is_empty());
    }

    #[test]
    fn alias_epochs_deduplicate() {
        let obs = Obs::new();
        let mut s = obs.shard_obs(2);
        s.alias_cache_epoch(1, 0, 0, 0); // all-zero: nothing to say
        s.alias_cache_epoch(2, 5, 1, 0);
        s.alias_cache_epoch(3, 5, 1, 0); // unchanged: deduped
        s.alias_cache_epoch(4, 9, 2, 1);
        s.flush();
        let kinds: Vec<u64> = obs.journal().iter().map(|e| e.tick).collect();
        assert_eq!(kinds, vec![2, 4]);
    }

    #[test]
    fn trace_jsonl_is_sorted_and_line_per_event() {
        let obs = Obs::new();
        obs.record(5, 1, EventKind::RetireBegun);
        obs.record(2, 0, EventKind::ShardAppended { reactivated: false });
        let trace = obs.trace_jsonl();
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("shard_appended"));
        assert!(lines[1].contains("retire_begun"));
    }
}
