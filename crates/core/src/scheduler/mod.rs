//! The Zero-Bubble Query Scheduler (§VI, Fig. 7).
//!
//! Three cooperating pieces, exactly as in the paper:
//!
//! * [`Dispatcher`] — Algorithm VI.1: routes one input stream onto two
//!   output channels, alternating by a one-bit *not-last-served* state and
//!   honouring backpressure; O(1) per decision, fully pipelined.
//! * [`Merger`] — Algorithm VI.2: merges two input streams into one output,
//!   same fairness discipline.
//! * [`ButterflyBalancer`] — `log2(N)` stages of dispatcher/merger pairs in
//!   a butterfly topology (Fig. 7b): local congestion propagates upstream
//!   and is averaged away, keeping earlier stages uniformly loaded even
//!   when a single downstream channel throttles.
//!
//! FIFO sizing between the scheduler and the pipelines comes from
//! Theorem VI.1 via [`grw_queueing::ridgewalker_fifo_depth`].

mod balancer;
mod dispatcher;
mod merger;

pub use balancer::ButterflyBalancer;
pub use dispatcher::Dispatcher;
pub use merger::Merger;
