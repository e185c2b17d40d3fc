//! Compressed sparse row graph storage.
//!
//! CSR is the adjacency representation GRW workloads use (Fig. 2 of the
//! paper): a row-pointer array `RP` of length `V + 1` and a column list `CL`
//! of length `E`. `RP[v]` is the offset of vertex `v`'s neighbor list in
//! `CL`, so degree lookup and index-based neighbor sampling are both O(1).

use crate::VertexId;

/// An immutable graph in CSR form, optionally weighted and vertex-typed.
///
/// Neighbor lists are always sorted, which [`CsrGraph::has_edge`] exploits
/// for O(log deg) membership tests (the inner operation of Node2Vec
/// rejection sampling).
///
/// # Example
///
/// ```
/// use grw_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)], true);
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// assert!(g.has_edge(1, 2));
/// assert!(!g.has_edge(2, 1)); // directed
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    row_ptr: Vec<u64>,
    col: Vec<VertexId>,
    weights: Option<Vec<f32>>,
    vertex_types: Option<Vec<u8>>,
    directed: bool,
}

impl CsrGraph {
    /// Builds a graph from an edge list.
    ///
    /// Self-loops are dropped and duplicate edges are merged. When
    /// `directed` is `false` every edge is mirrored.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= vertex_count`.
    pub fn from_edges(vertex_count: usize, edges: &[(VertexId, VertexId)], directed: bool) -> Self {
        let mut b = GraphBuilder::with_capacity(vertex_count, edges.len());
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.directed(directed).build()
    }

    pub(crate) fn from_parts(
        row_ptr: Vec<u64>,
        col: Vec<VertexId>,
        weights: Option<Vec<f32>>,
        vertex_types: Option<Vec<u8>>,
        directed: bool,
    ) -> Self {
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(
            *row_ptr.last().expect("non-empty row_ptr") as usize,
            col.len()
        );
        Self {
            row_ptr,
            col,
            weights,
            vertex_types,
            directed,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of (directed) edges stored; an undirected input edge counts
    /// twice because both directions are materialised.
    pub fn edge_count(&self) -> usize {
        self.col.len()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> u32 {
        let v = v as usize;
        (self.row_ptr[v + 1] - self.row_ptr[v]) as u32
    }

    /// Offset of `v`'s neighbor list in the column array (`RP[v]`).
    pub fn row_offset(&self, v: VertexId) -> u64 {
        self.row_ptr[v as usize]
    }

    /// The sorted neighbor list of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.col[self.row_ptr[v] as usize..self.row_ptr[v + 1] as usize]
    }

    /// Weights aligned with [`CsrGraph::neighbors`], if the graph is weighted.
    pub fn neighbor_weights(&self, v: VertexId) -> Option<&[f32]> {
        let w = self.weights.as_ref()?;
        let v = v as usize;
        Some(&w[self.row_ptr[v] as usize..self.row_ptr[v + 1] as usize])
    }

    /// Whether the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Whether the graph was built as directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// The raw column array (all neighbor lists, concatenated).
    pub fn column_list(&self) -> &[VertexId] {
        &self.col
    }

    /// The raw row-pointer array (`V + 1` entries).
    pub fn row_pointers(&self) -> &[u64] {
        &self.row_ptr
    }

    /// O(log deg) edge membership test over the sorted neighbor list.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Type label of `v` when the graph is heterogeneous (MetaPath walks).
    pub fn vertex_type(&self, v: VertexId) -> Option<u8> {
        self.vertex_types.as_ref().map(|t| t[v as usize])
    }

    /// Whether vertex types are attached.
    pub fn is_typed(&self) -> bool {
        self.vertex_types.is_some()
    }

    /// Sum of `v`'s outgoing edge weights (0.0 for a dead end).
    ///
    /// The hardware stores this in the 128-bit weighted RP-entry format so
    /// reservoir sampling can normalise in one pass.
    pub fn total_weight(&self, v: VertexId) -> f32 {
        match self.neighbor_weights(v) {
            Some(ws) => ws.iter().sum(),
            None => self.degree(v) as f32,
        }
    }

    /// Number of vertices with no outgoing edge — the early-termination
    /// sources of Fig. 1b.
    pub fn dead_end_count(&self) -> usize {
        (0..self.vertex_count() as VertexId)
            .filter(|&v| self.degree(v) == 0)
            .count()
    }

    /// Attaches edge weights produced by `f(src, dst, edge_index)`.
    ///
    /// # Panics
    ///
    /// Panics if called on a graph that already has weights.
    pub fn with_weights<F: FnMut(VertexId, VertexId, usize) -> f32>(mut self, mut f: F) -> Self {
        assert!(self.weights.is_none(), "graph is already weighted");
        let mut w = Vec::with_capacity(self.col.len());
        for v in 0..self.vertex_count() as VertexId {
            let start = self.row_ptr[v as usize] as usize;
            for (i, &dst) in self.neighbors(v).iter().enumerate() {
                w.push(f(v, dst, start + i));
            }
        }
        self.weights = Some(w);
        self
    }

    /// Attaches vertex type labels produced by `f(v)`.
    pub fn with_vertex_types<F: FnMut(VertexId) -> u8>(mut self, mut f: F) -> Self {
        let types = (0..self.vertex_count() as VertexId).map(&mut f).collect();
        self.vertex_types = Some(types);
        self
    }
}

/// Incremental builder for [`CsrGraph`].
///
/// # Example
///
/// ```
/// use grw_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(2, 1);
/// let g = b.directed(false).build();
/// assert_eq!(g.degree(1), 2); // mirrored edges
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    vertex_count: usize,
    edges: Vec<(VertexId, VertexId)>,
    directed: bool,
    keep_self_loops: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `vertex_count` vertices.
    pub fn new(vertex_count: usize) -> Self {
        Self::with_capacity(vertex_count, 0)
    }

    /// A builder with room for `edges` edges, so a generator that knows
    /// its edge count up front grows the list once.
    pub(crate) fn with_capacity(vertex_count: usize, edges: usize) -> Self {
        Self {
            vertex_count,
            edges: Vec::with_capacity(edges),
            directed: true,
            keep_self_loops: false,
        }
    }

    /// Adds one edge.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        assert!(
            (u as usize) < self.vertex_count && (v as usize) < self.vertex_count,
            "edge ({u}, {v}) out of range for {} vertices",
            self.vertex_count
        );
        self.edges.push((u, v));
        self
    }

    /// Adds many edges at once.
    pub fn add_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(
        &mut self,
        edges: I,
    ) -> &mut Self {
        for (u, v) in edges {
            self.add_edge(u, v);
        }
        self
    }

    /// Sets directedness (default: directed). Undirected builds mirror every
    /// edge.
    pub fn directed(&mut self, directed: bool) -> &mut Self {
        self.directed = directed;
        self
    }

    /// Keeps self-loops instead of dropping them (default: drop).
    pub fn keep_self_loops(&mut self, keep: bool) -> &mut Self {
        self.keep_self_loops = keep;
        self
    }

    /// Number of edges added so far (before mirroring/dedup).
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Buckets the edges by source, sorts and dedups every row, and
    /// freezes the result into a [`CsrGraph`].
    ///
    /// A counting sort: one pass counts each row's entries (both directions
    /// of an undirected edge), a prefix sum turns the counts into row ends,
    /// and a second pass places every column at its row's end, moving the
    /// end down. Each row is then sorted and deduplicated in place and
    /// moved down over the duplicates dropped before it. There is no
    /// mirrored copy of the edge list and no global sort.
    ///
    /// Time is `O(V + E + Σ d·log d)` over the placed row lengths `d`.
    /// Besides the builder's own `8·E` bytes of edges, it allocates only the
    /// graph: `8·(V + 1)` bytes of row pointers and 4 bytes per placed
    /// column (twice per undirected edge), trimmed to the deduplicated
    /// count at the end. The LiveJournal stand-in at Standard scale
    /// (3.67M edge draws into 7.29M columns) peaks at about 2× its CSR.
    pub fn build(&self) -> CsrGraph {
        let n = self.vertex_count;
        let mirror = !self.directed;
        let kept = self
            .edges
            .iter()
            .filter(|&&(u, v)| u != v || self.keep_self_loops);
        // `row_ptr[u]` holds u's entry count, then u's end after the prefix
        // sum, then u's start once every entry is placed.
        let mut row_ptr = vec![0u64; n + 1];
        for &(u, v) in kept.clone() {
            row_ptr[u as usize] += 1;
            if mirror && u != v {
                row_ptr[v as usize] += 1;
            }
        }
        let mut total = 0;
        for p in &mut row_ptr {
            total += *p;
            *p = total;
        }
        let mut col = vec![0; total as usize];
        let mut place = |u: VertexId, v: VertexId| {
            let end = &mut row_ptr[u as usize];
            *end -= 1;
            col[*end as usize] = v;
        };
        for &(u, v) in kept {
            place(u, v);
            if mirror && u != v {
                place(v, u);
            }
        }

        let mut len = 0;
        for u in 0..n {
            let (start, end) = (row_ptr[u] as usize, row_ptr[u + 1] as usize);
            col[start..end].sort_unstable();
            row_ptr[u] = len as u64;
            let mut prev = None;
            for i in start..end {
                let c = col[i];
                if prev != Some(c) {
                    col[len] = c;
                    len += 1;
                    prev = Some(c);
                }
            }
        }
        row_ptr[n] = len as u64;
        col.truncate(len);
        col.shrink_to_fit();
        CsrGraph::from_parts(row_ptr, col, None, None, self.directed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], true)
    }

    #[test]
    fn basic_shape() {
        let g = diamond();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[VertexId]);
    }

    #[test]
    fn row_offsets_are_prefix_sums() {
        let g = diamond();
        assert_eq!(g.row_offset(0), 0);
        assert_eq!(g.row_offset(1), 2);
        assert_eq!(g.row_offset(2), 3);
        assert_eq!(g.row_offset(3), 4);
    }

    #[test]
    fn duplicate_edges_are_merged() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (0, 1), (0, 1)], true);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1)], true);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn self_loops_kept_on_request() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0).add_edge(0, 1);
        let g = b.keep_self_loops(true).build();
        assert!(g.has_edge(0, 0));
    }

    #[test]
    fn undirected_mirrors_edges() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], false);
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 1));
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.dead_end_count(), 0);
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let g = CsrGraph::from_edges(5, &[(0, 4), (0, 1), (0, 3), (0, 2)], true);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn has_edge_agrees_with_neighbors() {
        let g = diamond();
        for u in 0..4u32 {
            for v in 0..4u32 {
                assert_eq!(g.has_edge(u, v), g.neighbors(u).contains(&v));
            }
        }
    }

    #[test]
    fn dead_ends_counted() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2)], true);
        // vertices 2 and 3 have no out-edges
        assert_eq!(g.dead_end_count(), 2);
    }

    #[test]
    fn weights_align_with_neighbors() {
        let g = diamond().with_weights(|u, v, _| (u + v) as f32);
        assert!(g.is_weighted());
        assert_eq!(g.neighbor_weights(0), Some(&[1.0f32, 2.0][..]));
        assert_eq!(g.total_weight(0), 3.0);
        assert_eq!(g.total_weight(3), 0.0);
    }

    #[test]
    fn unweighted_total_weight_is_degree() {
        let g = diamond();
        assert_eq!(g.total_weight(0), 2.0);
    }

    #[test]
    fn vertex_types_attach() {
        let g = diamond().with_vertex_types(|v| (v % 3) as u8);
        assert!(g.is_typed());
        assert_eq!(g.vertex_type(0), Some(0));
        assert_eq!(g.vertex_type(2), Some(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    #[should_panic(expected = "already weighted")]
    fn double_weighting_panics() {
        let g = diamond().with_weights(|_, _, _| 1.0);
        let _ = g.with_weights(|_, _, _| 2.0);
    }

    #[test]
    fn empty_graph_is_legal() {
        let g = CsrGraph::from_edges(3, &[], true);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.dead_end_count(), 3);
    }
}
