//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment module produces an [`Experiment`] — a set of labelled
//! series plus the paper's reference numbers — and the `repro` binary
//! renders them as the tables the paper reports. The same modules back the
//! Criterion benches and the integration tests, so "the figure" is a
//! single piece of code everywhere.
//!
//! | id | paper artifact | module |
//! |---|---|---|
//! | `fig3` | FastRW bandwidth collapse (motivation) | [`experiments::fig03`] |
//! | `fig8a`–`fig8d` | FPGA baseline comparisons | [`experiments::fig08`] |
//! | `fig9a`–`fig9d` | gSampler GPU comparisons | [`experiments::fig09`] |
//! | `fig10` | RMAT balanced vs Graph500 | [`experiments::fig10`] |
//! | `fig11` | ablation breakdown | [`experiments::fig11`] |
//! | `table2` | dataset statistics | [`experiments::table02`] |
//! | `table3` | URW across FPGA platforms | [`experiments::table03`] |
//! | `table4` | resources & frequency | [`experiments::table04`] |
//! | `theorem` | Theorem VI.1 buffer bound | [`experiments::theorem`] |
//!
//! Beyond the paper artifacts, [`serving`] benches batch vs incremental
//! accelerator shards under one open-loop stream, [`load`] sweeps
//! latency-vs-load curves per workload from real arrival processes
//! (writing `BENCH_load_<workload>.json`), [`sinks`] measures bounded
//! sink-delivery residency against the legacy drain-to-`Vec` pattern
//! (writing `BENCH_sinks.json`), [`sampling`] compares the legacy and
//! runtime-adaptive sampler kernels across degree-skew settings (writing
//! `BENCH_sampling.json`), [`qps`] races the deterministic and threaded
//! serving drivers over one wall-clock stream (writing `BENCH_qps.json`),
//! [`autoscale`] replays a diurnal-plus-bursts multi-tenant stream
//! through an SLO-driven elastic fleet and two static controls (writing
//! `BENCH_autoscale.json`). [`json`] is the record format: the writer
//! that declares each gated metric where it writes it, and the parser
//! the `perf_gate` CI regression checker and `obsdiff` read records
//! with. The `report` binary renders every committed `BENCH_*.json`
//! baseline into one Table III-style markdown comparison
//! (`benchmarks/TABLE.md`).
//!
//! # Example
//!
//! ```
//! use grw_bench::{experiments::table04, HarnessConfig};
//!
//! let exp = table04::run(&HarnessConfig::tiny());
//! assert_eq!(exp.id, "table4");
//! println!("{exp}");
//! ```

pub mod autoscale;
pub mod experiments;
mod harness;
pub mod json;
pub mod load;
pub mod qps;
pub mod routing;
pub mod sampling;
pub mod serving;
pub mod sinks;
mod table;

pub use autoscale::{run_autoscale_bench, ArmOutcome, AutoscaleBenchConfig, AutoscaleBenchReport};
pub use harness::{run_accelerator_streamed, Experiment, HarnessConfig, Series};
pub use json::Json;
pub use load::{
    calibrate_saturation, run_latency_load, ArrivalShape, LoadConfig, LoadDelivery, LoadPoint,
    LoadWorkload, WorkloadLoadReport,
};
pub use qps::{run_qps_bench, DriverQps, QpsConfig, QpsReport};
pub use routing::{
    run_routing_bench, PolicyOutcome, RoutingBenchConfig, RoutingBenchReport, WorkloadRouting,
};
pub use sampling::{
    run_sampling_bench, SamplerArm, SamplingBenchConfig, SamplingBenchReport, SamplingCell,
    SamplingWorkload, SkewSetting,
};
pub use serving::{run_serving_comparison, ServingComparison, ServingWorkload};
pub use sinks::{run_sink_bench, DeliveryFootprint, SinkBenchConfig, SinkBenchReport};
pub use table::{fmt_msteps, fmt_percent, fmt_speedup, Table};
