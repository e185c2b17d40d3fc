//! Graph I/O: SNAP-style edge-list text.
//!
//! The parser accepts the format the paper's datasets ship in
//! (whitespace-separated endpoint pairs, `#`/`%` comment lines); build the
//! parsed edges into CSR with [`CsrGraph::from_edges`].

use crate::{CsrGraph, VertexId};
use std::error::Error;
use std::fmt;

/// Error parsing an edge-list text file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEdgeListError {
    line: usize,
    message: String,
}

impl fmt::Display for ParseEdgeListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "edge list line {}: {}", self.line, self.message)
    }
}

impl Error for ParseEdgeListError {}

/// Parses SNAP-style edge-list text into `(edges, vertex_count)`.
///
/// Vertex count is inferred as `max id + 1`. Comment lines starting with
/// `#` or `%` and blank lines are skipped.
///
/// # Errors
///
/// Returns an error naming the offending line if a line does not contain
/// two parseable vertex ids.
///
/// # Example
///
/// ```
/// use grw_graph::io::parse_edge_list;
///
/// let (edges, n) = parse_edge_list("# demo\n0 1\n1\t2\n").unwrap();
/// assert_eq!(edges, vec![(0, 1), (1, 2)]);
/// assert_eq!(n, 3);
/// ```
pub fn parse_edge_list(
    text: &str,
) -> Result<(Vec<(VertexId, VertexId)>, usize), ParseEdgeListError> {
    let mut edges = Vec::new();
    let mut max_id: u64 = 0;
    let mut any = false;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>, i: usize| -> Result<VertexId, ParseEdgeListError> {
            let tok = tok.ok_or_else(|| ParseEdgeListError {
                line: i + 1,
                message: "expected two vertex ids".into(),
            })?;
            tok.parse::<VertexId>().map_err(|e| ParseEdgeListError {
                line: i + 1,
                message: format!("bad vertex id {tok:?}: {e}"),
            })
        };
        let u = parse(it.next(), i)?;
        let v = parse(it.next(), i)?;
        max_id = max_id.max(u64::from(u)).max(u64::from(v));
        any = true;
        edges.push((u, v));
    }
    let n = if any { max_id as usize + 1 } else { 0 };
    Ok((edges, n))
}

/// Formats a graph as edge-list text (one `src dst` pair per line).
pub fn format_edge_list(graph: &CsrGraph) -> String {
    let mut out = String::with_capacity(graph.edge_count() * 12);
    for v in 0..graph.vertex_count() as VertexId {
        for &w in graph.neighbors(v) {
            out.push_str(&format!("{v} {w}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (3, 4), (4, 0)], true)
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let text = format_edge_list(&g);
        let (edges, n) = parse_edge_list(&text).unwrap();
        let g2 = CsrGraph::from_edges(n, &edges, true);
        assert_eq!(g, g2);
    }

    #[test]
    fn parser_skips_comments_and_blanks() {
        let (edges, n) = parse_edge_list("# c\n% c\n\n1 2\n").unwrap();
        assert_eq!(edges, vec![(1, 2)]);
        assert_eq!(n, 3);
    }

    #[test]
    fn parser_reports_line_numbers() {
        let e = parse_edge_list("0 1\nbogus\n").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    #[test]
    fn parser_handles_empty_input() {
        let (edges, n) = parse_edge_list("").unwrap();
        assert!(edges.is_empty());
        assert_eq!(n, 0);
    }
}
