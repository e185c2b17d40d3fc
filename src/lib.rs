//! # RidgeWalker reproduction suite
//!
//! This is the umbrella crate of the reproduction of *RidgeWalker: Perfectly
//! Pipelined Graph Random Walks on FPGAs* (HPCA 2026). It re-exports every
//! workspace crate so examples and downstream users can depend on a single
//! package:
//!
//! * [`graph`] — CSR graphs, generators, channel-aware layouts ([`grw_graph`]).
//! * [`rng`] — the per-hop walk stream every executor draws from, and
//!   scalar RNGs ([`grw_rng`]).
//! * [`algo`] — sampling + walk algorithms and the software walk executor
//!   ([`grw_algo`]).
//! * [`sim`] — cycle-level hardware simulation substrate ([`grw_sim`]).
//! * [`queueing`] — `M/M/1[N]` theory, arrival processes and the
//!   zero-bubble buffer bound ([`grw_queueing`]).
//! * [`accel`] — the RidgeWalker accelerator model itself ([`ridgewalker`]).
//! * [`baselines`] — FastRW / LightRW / Su et al. / gSampler models
//!   ([`grw_baselines`]).
//! * [`service`] — the sharded, multi-tenant walk-serving layer over the
//!   streaming `WalkBackend` interface ([`grw_service`]).
//! * [`route`] — the adaptive routing tier: load-aware tenant placement
//!   across mixed accelerator/CPU shard fleets ([`grw_route`]).
//! * [`sink`] — bounded streaming result consumers (skip-gram corpora,
//!   PPR aggregation, histograms, per-tenant fan-out) over the service's
//!   `WalkSink` delivery API ([`grw_sink`]).
//! * [`obs`] — the deterministic tick-stamped event journal, exact
//!   per-query phase provenance and the `obsdump` trace renderer
//!   ([`grw_obs`]).
//! * [`mod@bench`] — the experiment harness regenerating every paper
//!   figure and table, plus the serving and latency-vs-load benches
//!   ([`grw_bench`]).
//!
//! See `examples/quickstart.rs` for a five-minute tour,
//! `examples/serving.rs` for the serving layer end to end, and
//! `examples/serving_accel.rs` for the accelerator shards' two poll
//! policies (batch and incremental) under open-loop load.

pub use grw_algo as algo;
pub use grw_baselines as baselines;
pub use grw_bench as bench;
pub use grw_graph as graph;
pub use grw_obs as obs;
pub use grw_queueing as queueing;
pub use grw_rng as rng;
pub use grw_route as route;
pub use grw_service as service;
pub use grw_sim as sim;
pub use grw_sink as sink;
pub use ridgewalker as accel;
