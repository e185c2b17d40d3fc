//! Graph random walk algorithms: sampling methods, walk specifications and
//! the software walk executor.
//!
//! This crate is the *functional* layer of the reproduction — what a GRW
//! computes, independent of how hardware executes it:
//!
//! * [`WalkSpec`] — the five GRW algorithms of the paper (Table I): URW,
//!   PPR, DeepWalk, Node2Vec (rejection or reservoir) and MetaPath, each
//!   mapped to its sampling method and RP-entry width.
//! * [`sampler`] — the sampling algorithms themselves. Every sampler
//!   reports its *memory cost* ([`sampler::SampleOutcome`]): uniform trials,
//!   membership probes, sequential scans and alias reads — the quantities
//!   the cycle-level models charge against memory channels.
//! * [`strategy`] — runtime-adaptive kernel selection per vertex degree
//!   bucket ([`SamplerConfig`], [`StrategyTable`]) and the bounded
//!   second-order [`EdgeAliasCache`] threaded through every engine as a
//!   per-worker [`SamplerRuntime`].
//! * [`WalkBackend`] — the streaming execution interface (incremental
//!   submit / poll / drain with backpressure) every executor exposes;
//!   [`run_streamed`] runs a whole batch through one. See
//!   [`walk::backend`].
//! * [`ReferenceBackend`] — the software executor, on one or more worker
//!   threads: it executes queries exactly per Algorithm II.1 of the paper
//!   and defines the correct output distributions for every accelerator
//!   model to match.
//! * [`ppr_exact`] — power-iteration personalized PageRank used to validate
//!   the PPR walk estimator end-to-end.
//! * [`distribution`] — chi-square helpers for the statistical tests.
//!
//! # Example
//!
//! ```
//! use grw_algo::{run_streamed, PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};
//! use grw_graph::CsrGraph;
//!
//! let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], true);
//! let spec = WalkSpec::urw(8);
//! let prepared = PreparedGraph::new(g, &spec).unwrap();
//! let queries = QuerySet::random(prepared.graph().vertex_count(), 10, 42);
//! let mut backend = ReferenceBackend::new(&prepared, spec, 7);
//! let paths = run_streamed(&mut backend, queries.queries());
//! assert_eq!(paths.len(), 10);
//! ```

pub mod distribution;
pub mod ppr_exact;
mod prepared;
mod query;
pub mod sampler;
mod spec;
pub mod strategy;
pub mod walk;

pub use prepared::{PreparedGraph, StepDecision, TerminationReason};
pub use query::{QuerySet, WalkPath, WalkQuery};
pub use sampler::{EdgeAliasCache, SampleMethod, SampleOutcome};
pub use spec::{Node2VecMethod, WalkSpec};
pub use strategy::{
    SamplerConfig, SamplerMode, SamplerRuntime, SamplerStrategy, SamplingCounters, StrategyTable,
};
pub use walk::{
    run_streamed, BackendClass, BackendTelemetry, BatchFnBackend, ReferenceBackend, WalkBackend,
};
