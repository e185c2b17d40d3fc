//! Golden digests of the graphs walks run on.
//!
//! Each case folds one generated graph into a `u64`: its directedness,
//! row pointers, columns, the bits of every edge weight and its vertex
//! types. The cases cover every dataset stand-in at Tiny and Small scale
//! (unweighted, weighted and typed), all six at Standard scale, the RMAT
//! presets and the configuration-model generator. A change to how graphs
//! are generated or built into CSR must leave every digest as it is.
//!
//! The digests come from the mirrored, globally sorted build that
//! `tests/properties.rs` keeps as an oracle, so they do not depend on the
//! build they check. On a mismatch the test prints the whole row of
//! actual digests.

use grw_graph::generators::{rmat, Dataset, RmatConfig, ScaleFactor};
use grw_graph::{CsrGraph, VertexId};

/// FNV-1a over the little-endian bytes of the graph's words: stable across
/// toolchains, unlike std's hashers.
fn digest(g: &CsrGraph) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325_u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    word(u64::from(g.is_directed()));
    for &p in g.row_pointers() {
        word(p);
    }
    for &c in g.column_list() {
        word(u64::from(c));
    }
    word(u64::from(g.is_weighted()));
    word(u64::from(g.is_typed()));
    for v in 0..g.vertex_count() as VertexId {
        for &w in g.neighbor_weights(v).unwrap_or_default() {
            word(u64::from(w.to_bits()));
        }
        if let Some(t) = g.vertex_type(v) {
            word(u64::from(t));
        }
    }
    h
}

fn assert_rows<const K: usize>(what: &str, actual: &[[u64; K]], expected: &[[u64; K]]) {
    assert!(
        actual == expected,
        "{what}: digests moved; actual rows: {actual:#018x?}"
    );
}

/// Unweighted, weighted and 3-typed digests of every dataset at `scale`,
/// one row per dataset in `Dataset::all()` order.
fn standin_variants(scale: ScaleFactor) -> Vec<[u64; 3]> {
    Dataset::all()
        .into_iter()
        .map(|d| {
            [
                digest(&d.generate(scale)),
                digest(&d.generate_weighted(scale)),
                digest(&d.generate_typed(scale, 3)),
            ]
        })
        .collect()
}

/// `[generate, generate_weighted, generate_typed(_, 3)]` per dataset.
const TINY: [[u64; 3]; 6] = [
    [0x91fc7818237a00ca, 0xfe481b76839af26a, 0xd7470c0528f0b56e], // WG
    [0x893bd1fff33a426d, 0x5db469a2093f7c4b, 0x6f35ac6bed56a469], // CP
    [0xcaa2f6deef23a1b8, 0x7094ed8f86444ccf, 0x027502d45e7a2abb], // AS
    [0x08d35d97b2967608, 0x1806d79d2c7ce32b, 0x591e26a220b52dfd], // LJ
    [0xc7a38840ed9622cf, 0x607ea99f7d61cbd5, 0x3c375b7519da5ec5], // AB
    [0x7e547517193bff01, 0x237f51cf69916623, 0x91228f929dd1ac7f], // UK
];

/// `[generate, generate_weighted, generate_typed(_, 3)]` per dataset.
const SMALL: [[u64; 3]; 6] = [
    [0x14767fca2c8fd09d, 0x79975c4f25a52201, 0x1a5a112b438c1263], // WG
    [0xa9bc3f901d2971af, 0x5f086bead419378b, 0xf6072c168811a323], // CP
    [0xecc135842436f95c, 0x705e117285d3eaca, 0x4343103fca559a40], // AS
    [0x92e8a935300dd3f5, 0xba982505daf86539, 0x7770a9b54bd9f1d1], // LJ
    [0xe6bc4b7043d402b3, 0xecd955425fdd33ed, 0x5c5774f9ae6996b3], // AB
    [0xcd14e9254d456b34, 0xcc069cfc88a4f173, 0x867dbbec468b7835], // UK
];

/// `generate` of WG, CP, AS, LJ, AB and UK.
const STANDARD: [u64; 6] = [
    0xed6ba714281b1e7f,
    0xb87937bd9e1bc94b,
    0xed71f1e9418ca290,
    0x213affc1b01aa6fa,
    0x409a5d58c19174b7,
    0x70bb07d5d093444f,
];

const RMAT_PRESETS: [u64; 3] = [0x86eea9535b68d750, 0xdbc9be9bc70111c8, 0xc0a36210d64e8cb3];

const DEGREE_SEQUENCE: [u64; 1] = [0xb0602506e70cd585];

#[test]
fn tiny_standins() {
    assert_rows("Tiny", &standin_variants(ScaleFactor::Tiny), &TINY);
}

#[test]
fn small_standins() {
    assert_rows("Small", &standin_variants(ScaleFactor::Small), &SMALL);
}

#[test]
fn standard_standins() {
    let actual = Dataset::all().map(|d| digest(&d.generate(ScaleFactor::Standard)));
    assert_rows("Standard", &[actual], &[STANDARD]);
}

#[test]
fn rmat_presets() {
    let actual = [
        RmatConfig::graph500(14, 16).seed(1),
        RmatConfig::balanced(14, 16).seed(1),
        RmatConfig::graph500(13, 8).seed(9).directed(false),
    ]
    .map(|cfg| digest(&cfg.generate()));
    assert_rows("RMAT presets", &[actual], &[RMAT_PRESETS]);
}

#[test]
fn degree_sequence() {
    let degrees: Vec<u32> = (0..4096u32)
        .map(|v| v.wrapping_mul(2_654_435_761) >> 26)
        .collect();
    let actual = [digest(&rmat::from_degree_sequence(&degrees, 11))];
    assert_rows("degree sequence", &[actual], &[DEGREE_SEQUENCE]);
}
