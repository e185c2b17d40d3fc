//! Degree-aware graph memory layout across memory channels (Fig. 4b).
//!
//! RidgeWalker distributes the CSR arrays over the HBM channels so every
//! pipeline owns private channels and no arbitration is needed:
//!
//! * the **row-pointer array** is randomly partitioned across the Row-Access
//!   channels (a multiplicative hash of the vertex id), and
//! * the **neighbor lists** are shuffled round-robin across the
//!   Column-Access channels.
//!
//! In hardware each row-pointer entry embeds the column-list channel id and
//! starting address, so a task leaving Row Access knows exactly which
//! channel its Sampling/Column-Access work must be routed to. The model
//! keeps only the two channel ids per vertex: the machine routes tasks by
//! them, and a read costs the same whatever its address.

use crate::{CsrGraph, VertexId};

/// Row-pointer entry width, selected by the walk algorithm (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RpEntryKind {
    /// 64-bit entry: address + degree (URW, PPR, unweighted Node2Vec).
    Compact64,
    /// 128-bit entry: adds the precomputed total weight (reservoir sampling
    /// for weighted Node2Vec and MetaPath).
    Weighted128,
    /// 256-bit entry: adds the alias-table pointer and size (DeepWalk).
    Alias256,
}

impl RpEntryKind {
    /// Entry size in bytes, as transferred from the Row-Access channel.
    pub fn bytes(self) -> u32 {
        match self {
            RpEntryKind::Compact64 => 8,
            RpEntryKind::Weighted128 => 16,
            RpEntryKind::Alias256 => 32,
        }
    }

    /// Number of 64-bit random transactions one entry read costs.
    pub fn transactions(self) -> u32 {
        self.bytes() / 8
    }
}

/// The channel assignment of a whole graph.
///
/// # Example
///
/// ```
/// use grw_graph::{ChannelLayout, CsrGraph};
///
/// let g = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3)], true);
/// let layout = ChannelLayout::new(&g, 4, 4);
/// assert!(layout.rp_channel(1) < 4 && layout.cl_channel(1) < 4);
/// // Every vertex has one RP entry; every edge one column-list element.
/// assert_eq!(layout.ra_entry_counts().iter().sum::<u64>(), 8);
/// assert_eq!(layout.ca_entry_counts().iter().sum::<u64>(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ChannelLayout {
    rp_channel: Vec<u8>,
    cl_channel: Vec<u8>,
    ra_entries: Vec<u64>,
    ca_entries: Vec<u64>,
}

impl ChannelLayout {
    /// Distributes `graph` over `n_ra` Row-Access and `n_ca` Column-Access
    /// channels.
    ///
    /// # Panics
    ///
    /// Panics if either channel count is zero or exceeds 256.
    pub fn new(graph: &CsrGraph, n_ra: u32, n_ca: u32) -> Self {
        assert!(n_ra > 0 && n_ca > 0, "channel counts must be positive");
        assert!(n_ra <= 256 && n_ca <= 256, "channel ids are 8-bit");
        let n = graph.vertex_count();
        let mut rp_channel = vec![0u8; n];
        let mut cl_channel = vec![0u8; n];
        let mut ra_entries = vec![0u64; n_ra as usize];
        let mut ca_entries = vec![0u64; n_ca as usize];
        for v in 0..n {
            // Random partition of the row pointers (multiplicative hash).
            let ra = (Self::hash(v as u64) % u64::from(n_ra)) as u8;
            rp_channel[v] = ra;
            ra_entries[ra as usize] += 1;
            // Shuffled distribution of the neighbor lists. The paper calls
            // this "round-robin"; on its datasets vertex ids are already
            // randomly ordered, so id order == random order. RMAT stand-ins
            // encode hubness in the id bits (hubs get low ids), so a plain
            // `v % n` would pile every hot list onto channel 0 — the hash
            // realises the same intent: lists spread independently of
            // graph structure.
            let ca = (Self::hash((v as u64) ^ 0xA5A5_5A5A) % u64::from(n_ca)) as u8;
            cl_channel[v] = ca;
            ca_entries[ca as usize] += u64::from(graph.degree(v as VertexId));
        }
        Self {
            rp_channel,
            cl_channel,
            ra_entries,
            ca_entries,
        }
    }

    fn hash(v: u64) -> u64 {
        // Fibonacci hashing: cheap and uniform enough for partitioning.
        v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
    }

    /// Row-Access channel owning `v`'s RP entry.
    pub fn rp_channel(&self, v: VertexId) -> u8 {
        self.rp_channel[v as usize]
    }

    /// Column-Access channel holding `v`'s neighbor list.
    pub fn cl_channel(&self, v: VertexId) -> u8 {
        self.cl_channel[v as usize]
    }

    /// RP entries stored per Row-Access channel (for balance diagnostics).
    pub fn ra_entry_counts(&self) -> &[u64] {
        &self.ra_entries
    }

    /// Column-list elements stored per Column-Access channel.
    pub fn ca_entry_counts(&self) -> &[u64] {
        &self.ca_entries
    }

    /// Max/mean load ratio over RA channels; 1.0 is perfectly balanced.
    pub fn ra_imbalance(&self) -> f64 {
        imbalance(&self.ra_entries)
    }

    /// Max/mean load ratio over CA channels.
    pub fn ca_imbalance(&self) -> f64 {
        imbalance(&self.ca_entries)
    }
}

fn imbalance(loads: &[u64]) -> f64 {
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rmat::RmatConfig;

    #[test]
    fn entry_kind_widths_match_table_i() {
        assert_eq!(RpEntryKind::Compact64.bytes(), 8);
        assert_eq!(RpEntryKind::Weighted128.bytes(), 16);
        assert_eq!(RpEntryKind::Alias256.bytes(), 32);
        assert_eq!(RpEntryKind::Alias256.transactions(), 4);
    }

    #[test]
    fn channels_are_in_range() {
        let g = CsrGraph::from_edges(100, &[(0, 1), (5, 9), (99, 0)], true);
        let layout = ChannelLayout::new(&g, 16, 16);
        for v in 0..100u32 {
            assert!(layout.rp_channel(v) < 16);
            assert!(layout.cl_channel(v) < 16);
        }
    }

    #[test]
    fn random_partition_is_roughly_balanced() {
        let g = RmatConfig::balanced(12, 8).seed(3).generate();
        let layout = ChannelLayout::new(&g, 8, 8);
        assert!(
            layout.ra_imbalance() < 1.2,
            "RA imbalance {}",
            layout.ra_imbalance()
        );
        // Column lists follow the degree distribution; RMAT is skewed, so we
        // only require boundedness here.
        assert!(layout.ca_imbalance() < 3.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_channels_panics() {
        let g = CsrGraph::from_edges(2, &[(0, 1)], true);
        let _ = ChannelLayout::new(&g, 0, 4);
    }
}
