//! Cycle-level hardware simulation substrate.
//!
//! RidgeWalker's claims — perfect pipelining, zero bubbles, near-peak
//! random-access bandwidth — are cycle-level properties, so the reproduction
//! simulates the microarchitecture at cycle granularity. This crate holds
//! the building blocks shared by the accelerator model and the FPGA
//! baselines:
//!
//! * [`Fifo`] — a bounded hardware FIFO with *two-phase commit*: values
//!   pushed during a cycle become visible only after [`Fifo::commit`], so
//!   intra-cycle evaluation order cannot leak data forward, exactly like a
//!   registered FIFO. The commit is O(1) and the FIFO keeps no statistics.
//! * [`MemoryChannel`] — a DRAM/HBM channel issuing random 64-bit
//!   transactions at the effective `f_mem / t_RRD` rate of Eq. (1), with a
//!   bounded outstanding window, fixed round-trip latency and bank-dependent
//!   return jitter. Its per-cycle rate is computed once, at construction.
//! * [`FpgaPlatform`] — presets for the five boards of the evaluation
//!   (U50, U250, U280, U55C, VCK5000), calibrated per `DESIGN.md`.
//! * [`stats`] — the utilization/bubble meter and sampler counters that
//!   engines report.

mod fifo;
mod memory;
mod platform;
pub mod stats;

pub use fifo::Fifo;
pub use memory::{ChannelStats, MemoryChannel, MemoryChannelSpec};
pub use platform::{FpgaPlatform, MemoryTech, PlatformSpec};

/// Simulation time, measured in core-clock cycles.
pub type Cycle = u64;
