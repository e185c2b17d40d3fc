//! Graph I/O: SNAP-style edge-list text and a compact binary format.
//!
//! The text parser accepts the format the paper's datasets ship in
//! (whitespace-separated endpoint pairs, `#`/`%` comment lines); build the
//! parsed edges into CSR with [`CsrGraph::from_edges`]. The binary format is
//! a little-endian dump of the CSR arrays, weights and vertex types that
//! [`read_binary`] validates on the way back in. Only the tests round-trip
//! it; every run regenerates the stand-ins rather than caching them.

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

const MAGIC: &[u8; 4] = b"GRWB";
const VERSION: u32 = 1;

/// Error decoding the binary graph format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryFormatError(String);

impl fmt::Display for BinaryFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binary graph format: {}", self.0)
    }
}

impl Error for BinaryFormatError {}

/// Serialises a graph to the compact binary format.
pub fn write_binary(graph: &CsrGraph) -> Vec<u8> {
    let n = graph.vertex_count();
    let e = graph.edge_count();
    let weighted = graph.is_weighted();
    let typed = graph.is_typed();
    let mut out = Vec::with_capacity(24 + (n + 1) * 8 + e * 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let flags: u32 =
        (graph.is_directed() as u32) | ((weighted as u32) << 1) | ((typed as u32) << 2);
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(e as u64).to_le_bytes());
    for &p in graph.row_pointers() {
        out.extend_from_slice(&p.to_le_bytes());
    }
    for &c in graph.column_list() {
        out.extend_from_slice(&c.to_le_bytes());
    }
    if weighted {
        for v in 0..n as VertexId {
            for &w in graph.neighbor_weights(v).expect("weighted") {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
    }
    if typed {
        for v in 0..n as VertexId {
            out.push(graph.vertex_type(v).expect("typed"));
        }
    }
    out
}

/// Decodes a graph from the compact binary format.
///
/// # Errors
///
/// Returns [`BinaryFormatError`] on magic/version mismatch or truncation.
pub fn read_binary(bytes: &[u8]) -> Result<CsrGraph, BinaryFormatError> {
    let err = |m: &str| BinaryFormatError(m.to_string());
    let mut pos = 0usize;
    let take = |pos: &mut usize, len: usize| -> Result<&[u8], BinaryFormatError> {
        let end = pos.checked_add(len).ok_or_else(|| err("overflow"))?;
        if end > bytes.len() {
            return Err(err("truncated input"));
        }
        let s = &bytes[*pos..end];
        *pos = end;
        Ok(s)
    };
    if take(&mut pos, 4)? != MAGIC {
        return Err(err("bad magic"));
    }
    let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
    if version != VERSION {
        return Err(err("unsupported version"));
    }
    let flags = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
    let directed = flags & 1 != 0;
    let weighted = flags & 2 != 0;
    let typed = flags & 4 != 0;
    let n = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
    let e = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
    let mut row_ptr = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        row_ptr.push(u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()));
    }
    if *row_ptr.last().ok_or_else(|| err("empty row pointers"))? as usize != e {
        return Err(err("row pointer / edge count mismatch"));
    }
    if !row_ptr.windows(2).all(|w| w[0] <= w[1]) {
        return Err(err("row pointers not monotonic"));
    }
    let mut col = Vec::with_capacity(e);
    for _ in 0..e {
        let c = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        if c as usize >= n {
            return Err(err("column index out of range"));
        }
        col.push(c);
    }
    let weights = if weighted {
        let mut w = Vec::with_capacity(e);
        for _ in 0..e {
            w.push(f32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()));
        }
        Some(w)
    } else {
        None
    };
    let types = if typed {
        Some(take(&mut pos, n)?.to_vec())
    } else {
        None
    };
    if pos != bytes.len() {
        return Err(err("trailing bytes"));
    }
    Ok(CsrGraph::from_parts(row_ptr, col, weights, types, directed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights;

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

    #[test]
    fn binary_roundtrip_plain() {
        let g = sample();
        let bytes = write_binary(&g);
        assert_eq!(read_binary(&bytes).unwrap(), g);
    }

    #[test]
    fn binary_roundtrip_weighted_typed() {
        let g = sample()
            .with_weights(weights::thunder_rw(3))
            .with_vertex_types(weights::round_robin_types(3));
        let bytes = write_binary(&g);
        assert_eq!(read_binary(&bytes).unwrap(), g);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut bytes = write_binary(&sample());
        bytes[0] = b'X';
        assert!(read_binary(&bytes)
            .unwrap_err()
            .to_string()
            .contains("magic"));
    }

    #[test]
    fn binary_rejects_truncation() {
        let bytes = write_binary(&sample());
        let e = read_binary(&bytes[..bytes.len() - 2]).unwrap_err();
        assert!(e.to_string().contains("truncated"));
    }

    #[test]
    fn binary_rejects_trailing_garbage() {
        let mut bytes = write_binary(&sample());
        bytes.push(0);
        let e = read_binary(&bytes).unwrap_err();
        assert!(e.to_string().contains("trailing"));
    }
}
