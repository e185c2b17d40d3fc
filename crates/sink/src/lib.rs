//! # grw_sink — bounded streaming consumers for completed walks
//!
//! The serving tier used to end at the accelerator edge: `Driver`
//! handed growing `Vec<CompletedWalk>`s back to the caller, so every path
//! a sustained deployment produced stayed resident until someone disposed
//! of it. This crate is the consumer layer that closes the loop: concrete
//! [`WalkSink`] implementations that fold each walk into what downstream
//! applications actually want — with **bounded** internal buffering, so
//! the resident completed-path count is O(buffer capacity) regardless of
//! how many walks the run produces.
//!
//! Built-in sinks (the ThunderRW-style application mix):
//!
//! * [`CorpusSink`] — windows each path into skip-gram `(center, context)`
//!   training pairs (DeepWalk / Node2Vec corpora) inside a bounded pair
//!   buffer; full buffers push back, and `flush` emits the window to the
//!   downstream consumer.
//! * [`PprAggregator`] — folds terminal visits into per-vertex counts and
//!   an exact, incrementally maintained top-k ranking (the personalized
//!   recommendation query), memory O(distinct terminals), not O(walks).
//! * [`HistogramSink`] — step-count and end-to-end-latency distributions
//!   in fixed-size bins (the per-consumer statistics a runtime-adaptive
//!   pipeline reads), memory O(bins).
//! * [`SinkRouter`] — per-tenant fan-out: each walk is dispatched to the
//!   sink registered for its tenant (or the default route), preserving
//!   the service's conservation guarantee end to end.
//! * [`CollectingSink`] / [`CountingSink`] — the degenerate ends of the
//!   spectrum, for tests and for measuring the bounded-memory claim
//!   against the legacy drain-to-`Vec` behaviour.
//!
//! The [`WalkSink`] trait itself lives in `grw_service` (next to
//! [`CompletedWalk`], which it consumes) and is re-exported here; this
//! crate is the home of the sink *subsystem*.
//!
//! # Example
//!
//! ```
//! use grw_algo::{PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};
//! use grw_graph::CsrGraph;
//! use grw_service::{Driver, ServiceConfig, TenantId};
//! use grw_sink::{CorpusSink, WalkSink};
//! use std::sync::Arc;
//!
//! let g = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)], true);
//! let spec = WalkSpec::urw(6);
//! let prepared = Arc::new(PreparedGraph::new(g, &spec).unwrap());
//! let mut service = Driver::new(ServiceConfig::new(2), |shard| {
//!     ReferenceBackend::new(prepared.clone(), spec.clone(), 0xFEED ^ shard as u64).threads(2)
//! });
//!
//! let mut pairs = 0u64;
//! let mut corpus = CorpusSink::new(2, 256, |window: &[grw_sink::SkipGramPair]| {
//!     pairs += window.len() as u64;
//! });
//! let queries = QuerySet::random(8, 100, 1);
//! service.submit(TenantId(7), queries.queries());
//! let delivered = service.drain_into(&mut corpus);
//! assert_eq!(delivered, 100);
//! let report = corpus.report();
//! assert_eq!(report.accepted, 100);
//! drop(corpus);
//! assert!(pairs > 0);
//! ```

mod collect;
mod corpus;
mod histogram;
mod ppr;
mod router;

pub use collect::{CollectingSink, CountingSink};
pub use corpus::{CorpusSink, SkipGramPair};
pub use grw_service::{CompletedWalk, SinkAck, SinkReport, WalkSink};
pub use histogram::HistogramSink;
pub use ppr::PprAggregator;
pub use router::SinkRouter;
