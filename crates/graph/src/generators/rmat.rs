//! RMAT recursive-matrix graph generator (Chakrabarti et al., SDM'04).
//!
//! Each edge is placed by descending `scale` levels of a 2×2 partition of
//! the adjacency matrix, choosing a quadrant with probabilities
//! `(a, b, c, d)`. The paper evaluates two initiator configurations
//! (Fig. 10): *balanced undirected* `a=b=c=d=0.25` and the skewed
//! *Graph500* setting `a=0.57, b=c=0.19, d=0.05`.

use crate::{CsrGraph, GraphBuilder, VertexId};
use grw_rng::{RandomSource, SplitMix64};

/// Configuration for an RMAT graph.
///
/// Graphs are labelled `SCx-y` in the paper: scale factor `x` (2^x
/// vertices) and edge factor `y` (`y * 2^x` generated edges, before dedup).
///
/// # Example
///
/// ```
/// use grw_graph::generators::RmatConfig;
///
/// let g = RmatConfig::graph500(10, 8).seed(1).generate();
/// assert_eq!(g.vertex_count(), 1024);
/// assert!(g.edge_count() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatConfig {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Edges generated per vertex.
    pub edge_factor: u32,
    /// Quadrant probabilities; must sum to ~1.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Lower-right quadrant probability.
    pub d: f64,
    /// Whether the output graph keeps edge direction.
    pub directed: bool,
    /// RNG seed.
    pub rng_seed: u64,
}

impl RmatConfig {
    /// Balanced undirected initiator: `a=b=c=d=0.25` (Erdős–Rényi-like).
    pub fn balanced(scale: u32, edge_factor: u32) -> Self {
        Self {
            scale,
            edge_factor,
            a: 0.25,
            b: 0.25,
            c: 0.25,
            d: 0.25,
            directed: false,
            rng_seed: 0,
        }
    }

    /// Graph500 initiator: `a=0.57, b=c=0.19, d=0.05` (heavily skewed).
    pub fn graph500(scale: u32, edge_factor: u32) -> Self {
        Self {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            directed: true,
            rng_seed: 0,
        }
    }

    /// Custom initiator probabilities.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities do not sum to 1 within 1e-6.
    pub fn with_initiator(mut self, a: f64, b: f64, c: f64, d: f64) -> Self {
        assert!(
            ((a + b + c + d) - 1.0).abs() < 1e-6,
            "initiator probabilities must sum to 1"
        );
        self.a = a;
        self.b = b;
        self.c = c;
        self.d = d;
        self
    }

    /// Sets the RNG seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Sets directedness (builder style).
    pub fn directed(mut self, directed: bool) -> Self {
        self.directed = directed;
        self
    }

    /// Number of vertices the configuration will produce.
    pub fn vertex_count(&self) -> usize {
        1usize << self.scale
    }

    /// Number of edge placements attempted (duplicates merge on build).
    pub fn attempted_edges(&self) -> usize {
        self.vertex_count() * self.edge_factor as usize
    }

    /// Generates the graph.
    ///
    /// Every placement descends `scale` levels with one uniform draw `u`
    /// per level, most significant bit first. The quadrant is computed
    /// without branches: the row bit is `u ≥ a+b` and the column bit is
    /// `[u ≥ a] ^ [u ≥ a+b] ^ [u ≥ a+b+c]`, which is 0, 1, 0, 1 across the
    /// four quadrants in `(a, b, c, d)` order. Self-loops are discarded.
    pub fn generate(&self) -> CsrGraph {
        let n = self.vertex_count();
        let mut rng = SplitMix64::new(self.rng_seed ^ 0x524D_4154); // "RMAT"
        let mut builder = GraphBuilder::with_capacity(n, self.attempted_edges());
        builder.directed(self.directed);
        let a = self.a;
        let ab = self.a + self.b;
        let abc = ab + self.c;
        for _ in 0..self.attempted_edges() {
            let (mut row, mut col) = (0usize, 0usize);
            for _ in 0..self.scale {
                let u = rng.next_f64();
                row = row << 1 | usize::from(u >= ab);
                col = col << 1 | usize::from((u >= a) ^ (u >= ab) ^ (u >= abc));
            }
            if row != col {
                builder.add_edge(row as VertexId, col as VertexId);
            }
        }
        builder.build()
    }
}

/// Generates a fixed-degree-sequence graph by the configuration model:
/// every vertex `v` receives `degrees[v]` out-edges with uniformly chosen
/// targets. Used by tests that need exact degree control.
pub fn from_degree_sequence(degrees: &[u32], seed: u64) -> CsrGraph {
    let n = degrees.len();
    let mut rng = SplitMix64::new(seed);
    let edges = degrees.iter().map(|&d| d as usize).sum();
    let mut builder = GraphBuilder::with_capacity(n, edges);
    for (v, &d) in degrees.iter().enumerate() {
        for _ in 0..d {
            let mut t = rng.next_below(n as u64) as VertexId;
            if t as usize == v {
                t = (t + 1) % n as VertexId;
            }
            builder.add_edge(v as VertexId, t);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_vertex_count() {
        let g = RmatConfig::balanced(8, 4).generate();
        assert_eq!(g.vertex_count(), 256);
    }

    #[test]
    fn is_deterministic_per_seed() {
        let a = RmatConfig::graph500(8, 8).seed(5).generate();
        let b = RmatConfig::graph500(8, 8).seed(5).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_change_the_graph() {
        let a = RmatConfig::graph500(8, 8).seed(1).generate();
        let b = RmatConfig::graph500(8, 8).seed(2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn graph500_is_more_skewed_than_balanced() {
        let skewed = RmatConfig::graph500(10, 8).seed(7).generate();
        let flat = RmatConfig::balanced(10, 8).seed(7).generate();
        let max_deg = |g: &CsrGraph| {
            (0..g.vertex_count() as VertexId)
                .map(|v| g.degree(v))
                .max()
                .unwrap()
        };
        assert!(
            max_deg(&skewed) > 2 * max_deg(&flat),
            "skewed max {} vs balanced max {}",
            max_deg(&skewed),
            max_deg(&flat)
        );
    }

    #[test]
    fn balanced_undirected_has_no_dead_ends_at_reasonable_density() {
        let g = RmatConfig::balanced(10, 16).seed(3).generate();
        let frac = g.dead_end_count() as f64 / g.vertex_count() as f64;
        assert!(frac < 0.02, "dead-end fraction {frac}");
    }

    #[test]
    fn graph500_directed_has_dead_ends() {
        let g = RmatConfig::graph500(12, 8).seed(3).generate();
        assert!(
            g.dead_end_count() > 0,
            "skewed directed RMAT should produce dead ends"
        );
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_initiator_panics() {
        let _ = RmatConfig::balanced(4, 2).with_initiator(0.5, 0.5, 0.5, 0.5);
    }

    #[test]
    fn degree_sequence_is_respected_up_to_dedup() {
        let g = from_degree_sequence(&[3, 0, 2, 1], 9);
        assert!(g.degree(0) <= 3 && g.degree(0) >= 1);
        assert_eq!(g.degree(1), 0);
        assert!(g.degree(3) <= 1);
    }
}
