//! Property-based tests on the core data structures and invariants of the
//! suite.
//!
//! The container this reproduction builds in has no network and no vendored
//! registry, so `proptest` is unavailable; the same properties are checked
//! with a hand-rolled generator: many seeded random cases per property,
//! deterministic across runs (every case derives from a fixed master seed).

use ridgewalker_suite::algo::{run_streamed, PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};
use ridgewalker_suite::graph::{io, AliasTables, CsrGraph, GraphBuilder};
use ridgewalker_suite::rng::{RandomSource, SplitMix64};
use ridgewalker_suite::sim::Fifo;
use std::collections::VecDeque;

const CASES: u64 = 64;

/// A random small edge list over 2..24 vertices.
fn random_edges(rng: &mut SplitMix64) -> (usize, Vec<(u32, u32)>) {
    let n = 2 + rng.next_below(22) as usize;
    let m = rng.next_below(96) as usize;
    let edges = (0..m)
        .map(|_| {
            (
                rng.next_below(n as u64) as u32,
                rng.next_below(n as u64) as u32,
            )
        })
        .collect();
    (n, edges)
}

#[test]
fn csr_invariants_hold_for_any_edge_list() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC5A0 ^ case);
        let (n, edges) = random_edges(&mut rng);
        let directed = rng.next_bool(0.5);
        let g = CsrGraph::from_edges(n, &edges, directed);
        // Row pointers are a monotone prefix sum ending at |E|.
        let rp = g.row_pointers();
        assert!(rp.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*rp.last().unwrap() as usize, g.edge_count());
        for v in 0..n as u32 {
            let ns = g.neighbors(v);
            // Sorted, deduplicated, in range, no self loops.
            assert!(
                ns.windows(2).all(|w| w[0] < w[1]),
                "case {case}: vertex {v} list {ns:?}"
            );
            assert!(ns.iter().all(|&w| (w as usize) < n && w != v));
            // has_edge agrees with the list.
            for &w in ns {
                assert!(g.has_edge(v, w));
            }
        }
        if !directed {
            for v in 0..n as u32 {
                for &w in g.neighbors(v) {
                    assert!(g.has_edge(w, v), "case {case}: mirror edge {w}->{v}");
                }
            }
        }
    }
}

#[test]
fn binary_io_roundtrips_any_graph() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xB10 ^ case);
        let (n, edges) = random_edges(&mut rng);
        let directed = rng.next_bool(0.5);
        let g = CsrGraph::from_edges(n, &edges, directed);
        let bytes = io::write_binary(&g);
        assert_eq!(io::read_binary(&bytes).unwrap(), g);
    }
}

#[test]
fn alias_tables_preserve_total_probability() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xA11A5 ^ case);
        let k = 1 + rng.next_below(23) as usize;
        let weights: Vec<f32> = (0..k)
            .map(|_| 0.01 + rng.next_f64() as f32 * 99.99)
            .collect();
        let n = weights.len() as u32 + 1;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        let ws = weights.clone();
        let g = CsrGraph::from_edges(n as usize, &edges, true)
            .with_weights(move |_, dst, _| ws[(dst - 1) as usize]);
        let t = AliasTables::build(&g);
        let total: f64 = (0..weights.len() as u32)
            .map(|i| t.probability_of(&g, 0, i))
            .sum();
        assert!(
            (total - 1.0).abs() < 1e-4,
            "case {case}: total probability {total}"
        );
        // Each probability tracks its weight share.
        let wsum: f64 = weights.iter().map(|&w| f64::from(w)).sum();
        for (i, &w) in weights.iter().enumerate() {
            let expect = f64::from(w) / wsum;
            let got = t.probability_of(&g, 0, i as u32);
            assert!(
                (got - expect).abs() < 1e-4,
                "case {case}: index {i}: {got} vs {expect}"
            );
        }
    }
}

#[test]
fn lemire_bounded_sampling_stays_in_range() {
    for case in 0..CASES {
        let mut meta = SplitMix64::new(0x1E81 ^ case);
        let seed = meta.next_u64();
        let bound = 1 + meta.next_below(1_000_000);
        let mut g = SplitMix64::new(seed);
        for _ in 0..64 {
            assert!(g.next_below(bound) < bound);
        }
    }
}

#[test]
fn fifo_behaves_like_a_queue_with_one_cycle_delay() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xF1F0 ^ case);
        let capacity = 1 + rng.next_below(15) as usize;
        let ops = 1 + rng.next_below(199) as usize;
        let mut fifo: Fifo<u8> = Fifo::new(capacity);
        let mut model: VecDeque<u8> = VecDeque::new(); // committed content
        let mut staged: VecDeque<u8> = VecDeque::new();
        for _ in 0..ops {
            let is_push = rng.next_bool(0.5);
            let value = rng.next_u64() as u8;
            if is_push {
                let fits = model.len() + staged.len() < capacity;
                assert_eq!(fifo.push(value), fits, "case {case}");
                if fits {
                    staged.push_back(value);
                }
            } else {
                assert_eq!(fifo.pop(), model.pop_front(), "case {case}");
            }
            // Clock edge every operation keeps the model simple.
            fifo.commit();
            model.append(&mut staged);
            assert_eq!(fifo.len(), model.len(), "case {case}");
        }
    }
}

#[test]
fn walks_are_always_valid_paths() {
    for case in 0..16 {
        let mut meta = SplitMix64::new(0x3A1C ^ case);
        let seed = meta.next_u64();
        let scale = 4 + meta.next_below(4) as u32;
        let len = 1 + meta.next_below(23) as u32;
        let g = ridgewalker_suite::graph::generators::RmatConfig::graph500(scale, 6)
            .seed(seed)
            .generate();
        let spec = WalkSpec::urw(len);
        let n = g.vertex_count();
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::random(n, 16, seed);
        let paths = run_streamed(
            &mut ReferenceBackend::new(&p, spec.clone(), seed),
            qs.queries(),
        );
        for w in &paths {
            assert!(w.steps() <= u64::from(len));
            for pair in w.vertices.windows(2) {
                assert!(p.graph().has_edge(pair[0], pair[1]), "case {case}");
            }
        }
    }
}

#[test]
fn builder_is_order_insensitive() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xB01D ^ case);
        let (n, mut edges) = random_edges(&mut rng);
        let mut fwd = GraphBuilder::new(n);
        fwd.add_edges(edges.iter().copied());
        let a = fwd.build();
        edges.reverse();
        let mut rev = GraphBuilder::new(n);
        rev.add_edges(edges.iter().copied());
        assert_eq!(a, rev.build(), "case {case}");
    }
}

/// The CSR build the counting sort replaced, kept as its oracle: copy the
/// edge list with every undirected edge mirrored, sort the copy globally,
/// dedup it and cut it into rows. Returns `(row pointers, columns)`.
fn mirror_sort_dedup_build(
    n: usize,
    edges: &[(u32, u32)],
    directed: bool,
    keep_self_loops: bool,
) -> (Vec<u64>, Vec<u32>) {
    let mut all = Vec::with_capacity(edges.len() * if directed { 1 } else { 2 });
    for &(u, v) in edges {
        if u == v && !keep_self_loops {
            continue;
        }
        all.push((u, v));
        if !directed {
            all.push((v, u));
        }
    }
    all.sort_unstable();
    all.dedup();
    let mut row_ptr = vec![0u64; n + 1];
    for &(u, _) in &all {
        row_ptr[u as usize + 1] += 1;
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    (row_ptr, all.iter().map(|&(_, v)| v).collect())
}

/// A random edge list over 0..40 vertices that repeats earlier edges,
/// adds earlier edges reversed and adds self-loops. Its endpoints come from
/// a random pool of vertices, so the vertices outside the pool are
/// isolated; one list in ten is empty.
fn tangled_edges(rng: &mut SplitMix64) -> (usize, Vec<(u32, u32)>) {
    let n = rng.next_below(40) as usize;
    if n == 0 || rng.next_bool(0.1) {
        return (n, Vec::new());
    }
    let pool: Vec<u32> = (0..1 + rng.next_below(n as u64))
        .map(|_| rng.next_below(n as u64) as u32)
        .collect();
    let pick = |rng: &mut SplitMix64| pool[rng.next_below(pool.len() as u64) as usize];
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for _ in 0..rng.next_below(160) {
        let earlier =
            (!edges.is_empty()).then(|| edges[rng.next_below(edges.len() as u64) as usize]);
        let edge = match (rng.next_below(6), earlier) {
            (0, Some(e)) => e,
            (1, Some((u, v))) => (v, u),
            (2, _) => {
                let u = pick(rng);
                (u, u)
            }
            _ => (pick(rng), pick(rng)),
        };
        edges.push(edge);
    }
    (n, edges)
}

#[test]
fn build_matches_the_mirror_sort_dedup_oracle() {
    let mut covered = [false; 5]; // empty, isolated vertex, duplicate, both directions, self-loop
    for case in 0..256 {
        let mut rng = SplitMix64::new(0x0AC1E ^ case);
        let (n, edges) = tangled_edges(&mut rng);
        covered[0] |= edges.is_empty();
        covered[1] |= (0..n as u32).any(|v| edges.iter().all(|&(a, b)| a != v && b != v));
        covered[2] |= (1..edges.len()).any(|i| edges[..i].contains(&edges[i]));
        covered[3] |= edges
            .iter()
            .any(|&(u, v)| u != v && edges.contains(&(v, u)));
        covered[4] |= edges.iter().any(|&(u, v)| u == v);
        for directed in [true, false] {
            for keep_self_loops in [false, true] {
                let mut b = GraphBuilder::new(n);
                b.add_edges(edges.iter().copied())
                    .directed(directed)
                    .keep_self_loops(keep_self_loops);
                let g = b.build();
                let (row_ptr, col) = mirror_sort_dedup_build(n, &edges, directed, keep_self_loops);
                assert!(
                    g.row_pointers() == row_ptr && g.column_list() == col,
                    "case {case} (n={n}, directed={directed}, keep_self_loops={keep_self_loops}): \
                     {:?} / {:?} against the oracle's {row_ptr:?} / {col:?}",
                    g.row_pointers(),
                    g.column_list(),
                );
                assert_eq!(g.is_directed(), directed);
                assert!(!g.is_weighted() && !g.is_typed());
            }
        }
    }
    assert_eq!(covered, [true; 5], "the generator missed a shape");
}
