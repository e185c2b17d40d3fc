//! Graph substrate for the RidgeWalker reproduction.
//!
//! Everything a graph-random-walk system needs from its graph lives here:
//!
//! * [`CsrGraph`] — compressed sparse row storage (Fig. 2 of the paper) with
//!   optional edge weights and vertex types, plus [`GraphBuilder`].
//! * [`generators`] — RMAT (balanced and Graph500 initiators, Fig. 10) and
//!   the scaled stand-ins for the paper's Table II datasets.
//! * [`AliasTables`] — per-vertex Walker alias tables for DeepWalk's O(1)
//!   weighted sampling (Table I, 256-bit RP entries).
//! * [`ChannelLayout`] — the degree-aware graph memory layout of Fig. 4b:
//!   row pointers partitioned across Row-Access channels, neighbor lists
//!   shuffled round-robin across Column-Access channels. It records which
//!   channel of each kind holds each vertex's data.
//! * [`GraphStats`] — degree/dead-end/diameter statistics (Table II).
//! * [`io`] — SNAP-style edge-list text.
//!
//! # Example
//!
//! ```
//! use grw_graph::{CsrGraph, ChannelLayout};
//!
//! let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)], true);
//! assert_eq!(g.degree(2), 2);
//! let layout = ChannelLayout::new(&g, 4, 4);
//! assert!(layout.rp_channel(3) < 4);
//! ```

mod alias;
mod csr;
pub mod generators;
pub mod io;
mod partition;
mod stats;
pub mod weights;

pub use alias::AliasTables;
pub use csr::{CsrGraph, GraphBuilder};
pub use partition::{ChannelLayout, RpEntryKind};
pub use stats::GraphStats;

/// Identifier of a vertex. Graphs in this suite hold fewer than 2^32
/// vertices, matching the 32-bit vertex indices of the hardware design.
pub type VertexId = u32;
