//! # RidgeWalker: a cycle-level model of the perfectly pipelined GRW accelerator
//!
//! This crate is the paper's primary contribution, reproduced as a
//! cycle-accurate architectural simulator (no FPGA required — see
//! `DESIGN.md` for the substitution argument). It implements:
//!
//! * **Markov task decomposition** ([`Task`]): each walk hop is a stateless
//!   ≤512-bit tuple ⟨v_last, v_prev, query id, step⟩ that any pipeline can
//!   execute (Fig. 5a). A hop draws from `grw_rng::WalkKey`'s stream for
//!   `(seed, query id, step)`, so a task draws identical samples wherever
//!   it runs — and a query walks exactly the path the CPU kernel
//!   (`grw_algo::ReferenceBackend`) walks under the same seed.
//! * **Asynchronous memory-access engine** ([`AsyncAccessEngine`]): a
//!   non-blocking request/response proxy with a transaction-id slab and
//!   metadata queue, sustaining up to 128 outstanding requests per channel
//!   (Fig. 6). A blocking mode ([`MemoryMode::Blocking`]: a plain AXI
//!   master's 8-request window) provides the ablation baseline of Fig. 11.
//! * **Zero-bubble scheduler**, modelled by its timing: each cycle the
//!   merge stage takes recirculated tasks first, then fresh queries, up to
//!   N, into a `2·max(1, log2 N)`-cycle delay line in front of the
//!   Row-Access router. Pipeline FIFOs default to `1 + 4·log2(N)` entries,
//!   the Theorem VI.1 bound (`grw_queueing::ridgewalker_fifo_depth`), which
//!   `grw_queueing::simulate_feedback` checks. `DESIGN.md` ("Scheduler")
//!   says why no dispatcher, merger or butterfly balancer is modelled gate
//!   by gate: each task's pipeline is fixed by its vertex.
//! * **Data-aware task routing** ([`TaskRouter`]): a butterfly interconnect
//!   delivering each task to the memory channel owning its vertex.
//! * **The accelerator** ([`Accelerator`]): N asynchronous pipelines
//!   (Row Access → Sampling → Column Access) over per-pipeline HBM/DDR
//!   channel pairs, with dynamic per-hop reassignment — plus the static
//!   bulk-synchronous mode used as the Fig. 11 ablation baseline.
//! * **Streaming backend** ([`AcceleratorBackend`]): the accelerator
//!   behind the `grw_algo::WalkBackend` interface as one persistent
//!   machine. Submissions join the running pipeline at the next issue
//!   slot; each poll advances at most [`AcceleratorConfig::poll_quantum`]
//!   cycles. A bounded quantum keeps the pipeline full under sustained
//!   load; an unbounded one runs each micro-batch to quiescence, paying
//!   fill and drain per batch. Finished queries' slots are recycled, so
//!   the machine's memory follows the queries resident, not the queries
//!   served. The `grw_service` serving layer shards over it.
//! * **Resource & frequency model** ([`resource`]): the analytic cost table
//!   reproducing Table IV.
//!
//! # Example
//!
//! ```
//! use grw_algo::{PreparedGraph, QuerySet, WalkSpec};
//! use grw_graph::CsrGraph;
//! use ridgewalker::{Accelerator, AcceleratorConfig};
//!
//! let g = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 1)], false);
//! let spec = WalkSpec::urw(16);
//! let prepared = PreparedGraph::new(g, &spec).unwrap();
//! let queries = QuerySet::random(8, 32, 1);
//! let config = AcceleratorConfig::new().pipelines(4);
//! let report = Accelerator::new(config).run(&prepared, &spec, queries.queries());
//! assert_eq!(report.paths.len(), 32);
//! assert!(report.msteps_per_sec > 0.0);
//! ```

mod accelerator;
mod backend;
mod config;
mod engine;
pub mod report;
pub mod resource;
mod router;
mod task;

pub use accelerator::Accelerator;
pub use backend::AcceleratorBackend;
pub use config::{AcceleratorConfig, MemoryMode, ScheduleMode};
pub use engine::AsyncAccessEngine;
pub use report::{RunReport, TerminationBreakdown};
pub use router::TaskRouter;
pub use task::{Task, NO_PREV};
