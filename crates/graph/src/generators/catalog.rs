//! Scaled stand-ins for the real-world datasets of Table II.
//!
//! The paper evaluates on six SNAP/WebGraph datasets up to 0.8 B edges.
//! Those graphs (and the machines that fit them) are not available here, so
//! each dataset is replaced by an RMAT-generated stand-in whose *category
//! shape* is preserved: degree skew, directedness and dead-end
//! availability. The size ordering is kept only in part: the paper's edge
//! counts rise WG < CP < AS < LJ < AB < UK, while `repro --scale <s>
//! table2` measures WG < CP < AS < AB < UK < LJ at every scale (the LJ
//! stand-in has the most edges). The substitution and the measured sizes
//! are recorded in `DESIGN.md`'s "Dataset stand-ins" tables; [`DatasetSpec`]
//! keeps the paper-reported numbers next to the stand-in parameters so
//! reports can show both.

use crate::generators::rmat::RmatConfig;
use crate::{weights, CsrGraph};

/// The six evaluation datasets of the paper (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// web-Google (WG): 0.9 M vertices, 5.1 M edges, web, δ=21.
    WebGoogle,
    /// cit-Patents (CP): 3.8 M vertices, 16.5 M edges, citation, δ=26.
    CitPatents,
    /// as-Skitter (AS): 1.7 M vertices, 22.2 M edges, network, δ=31.
    AsSkitter,
    /// soc-LiveJournal (LJ): 4.9 M vertices, 69 M edges, social, δ=28.
    LiveJournal,
    /// arabic-2005 (AB): 22.7 M vertices, 0.6 B edges, web, δ=133.
    Arabic2005,
    /// uk-2005 (UK): 39.6 M vertices, 0.8 B edges, web, δ=45.
    Uk2005,
}

/// How much the stand-in is shrunk relative to its standard size.
///
/// `Standard` is the default used by the `repro` harness; `Small` and
/// `Tiny` divide the vertex count by 8 and 64 for tests and Criterion runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScaleFactor {
    /// Full harness scale (largest stand-in, ~10 M edges for UK).
    #[default]
    Standard,
    /// 1/8 of standard vertices — integration tests.
    Small,
    /// 1/64 of standard vertices — unit tests and doc examples.
    Tiny,
}

impl ScaleFactor {
    fn scale_shift(self) -> u32 {
        match self {
            ScaleFactor::Standard => 0,
            ScaleFactor::Small => 3,
            ScaleFactor::Tiny => 6,
        }
    }
}

/// Static description of one dataset: paper-reported numbers plus the
/// stand-in generator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Full dataset name as in the paper.
    pub name: &'static str,
    /// Two-letter abbreviation used in every figure.
    pub abbrev: &'static str,
    /// Category column of Table II.
    pub category: &'static str,
    /// Vertex count reported in the paper.
    pub paper_vertices: u64,
    /// Edge count reported in the paper.
    pub paper_edges: u64,
    /// Diameter (δ) reported in the paper.
    pub paper_diameter: u32,
    /// Whether the stand-in is generated as a directed graph.
    pub directed: bool,
    /// RMAT initiator of the stand-in.
    pub initiator: (f64, f64, f64, f64),
    /// log2 vertex count of the standard-scale stand-in.
    pub standard_scale: u32,
    /// Edge factor of the stand-in.
    pub edge_factor: u32,
}

impl Dataset {
    /// All six datasets, in the paper's ascending-edge-count order.
    pub fn all() -> [Dataset; 6] {
        [
            Dataset::WebGoogle,
            Dataset::CitPatents,
            Dataset::AsSkitter,
            Dataset::LiveJournal,
            Dataset::Arabic2005,
            Dataset::Uk2005,
        ]
    }

    /// The four datasets FastRW reports (Fig. 8a).
    pub fn fastrw_set() -> [Dataset; 4] {
        [
            Dataset::WebGoogle,
            Dataset::CitPatents,
            Dataset::AsSkitter,
            Dataset::LiveJournal,
        ]
    }

    /// Static spec for this dataset.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::WebGoogle => DatasetSpec {
                name: "web-Google",
                abbrev: "WG",
                category: "Web",
                paper_vertices: 900_000,
                paper_edges: 5_100_000,
                paper_diameter: 21,
                directed: true,
                initiator: (0.63, 0.16, 0.16, 0.05),
                standard_scale: 17,
                edge_factor: 5,
            },
            Dataset::CitPatents => DatasetSpec {
                name: "cit-Patents",
                abbrev: "CP",
                category: "Citation",
                paper_vertices: 3_800_000,
                paper_edges: 16_500_000,
                paper_diameter: 26,
                directed: true,
                initiator: (0.55, 0.20, 0.17, 0.08),
                standard_scale: 18,
                edge_factor: 5,
            },
            Dataset::AsSkitter => DatasetSpec {
                name: "as-Skitter",
                abbrev: "AS",
                category: "Network",
                paper_vertices: 1_700_000,
                paper_edges: 22_200_000,
                paper_diameter: 31,
                directed: false,
                initiator: (0.57, 0.19, 0.19, 0.05),
                standard_scale: 17,
                edge_factor: 13,
            },
            Dataset::LiveJournal => DatasetSpec {
                name: "soc-LiveJournal",
                abbrev: "LJ",
                category: "Social",
                paper_vertices: 4_900_000,
                paper_edges: 69_000_000,
                paper_diameter: 28,
                // The paper attributes LJ's low early-termination rate to its
                // (effectively) undirected structure; the stand-in mirrors it.
                directed: false,
                initiator: (0.48, 0.21, 0.21, 0.10),
                standard_scale: 18,
                edge_factor: 14,
            },
            Dataset::Arabic2005 => DatasetSpec {
                name: "arabic-2005",
                abbrev: "AB",
                category: "Web",
                paper_vertices: 22_700_000,
                paper_edges: 600_000_000,
                paper_diameter: 133,
                directed: true,
                initiator: (0.66, 0.15, 0.14, 0.05),
                standard_scale: 19,
                edge_factor: 14,
            },
            Dataset::Uk2005 => DatasetSpec {
                name: "uk-2005",
                abbrev: "UK",
                category: "Web",
                paper_vertices: 39_600_000,
                paper_edges: 800_000_000,
                paper_diameter: 45,
                directed: true,
                initiator: (0.65, 0.16, 0.14, 0.05),
                standard_scale: 19,
                edge_factor: 16,
            },
        }
    }

    /// Generates the unweighted stand-in graph at the given scale.
    pub fn generate(self, scale: ScaleFactor) -> CsrGraph {
        let spec = self.spec();
        let (a, b, c, d) = spec.initiator;
        let sc = spec
            .standard_scale
            .saturating_sub(scale.scale_shift())
            .max(8);
        RmatConfig::balanced(sc, spec.edge_factor)
            .with_initiator(a, b, c, d)
            .directed(spec.directed)
            .seed(0x7A5E_ED00 ^ self as u64)
            .generate()
    }

    /// Generates the stand-in with ThunderRW-style edge weights attached
    /// (the weighted workloads: DeepWalk, weighted Node2Vec, MetaPath).
    pub fn generate_weighted(self, scale: ScaleFactor) -> CsrGraph {
        self.generate(scale)
            .with_weights(weights::thunder_rw(0x57E1_6874 ^ self as u64))
    }

    /// Generates the stand-in with `num_types` vertex labels for MetaPath.
    pub fn generate_typed(self, scale: ScaleFactor, num_types: u8) -> CsrGraph {
        assert!(num_types > 0, "need at least one vertex type");
        self.generate_weighted(scale)
            .with_vertex_types(weights::round_robin_types(num_types))
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().abbrev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_are_distinct() {
        let abbrevs: Vec<&str> = Dataset::all().iter().map(|d| d.spec().abbrev).collect();
        let mut sorted = abbrevs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
        assert_eq!(abbrevs, ["WG", "CP", "AS", "LJ", "AB", "UK"]);
    }

    #[test]
    fn paper_edge_counts_are_ascending() {
        let specs: Vec<u64> = Dataset::all()
            .iter()
            .map(|d| d.spec().paper_edges)
            .collect();
        assert!(specs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tiny_standins_generate_quickly_with_right_shape() {
        for d in Dataset::all() {
            let g = d.generate(ScaleFactor::Tiny);
            assert!(g.vertex_count() >= 256, "{d}: too few vertices");
            assert!(g.edge_count() > g.vertex_count(), "{d}: too sparse");
            assert_eq!(g.is_directed(), d.spec().directed, "{d}: directedness");
        }
    }

    #[test]
    fn directed_standins_have_dead_ends_undirected_do_not() {
        let wg = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        assert!(wg.dead_end_count() > 0, "web stand-in needs dead ends");
        let lj = Dataset::LiveJournal.generate(ScaleFactor::Tiny);
        let frac = lj.dead_end_count() as f64 / lj.vertex_count() as f64;
        assert!(frac < 0.35, "LJ stand-in dead-end fraction {frac}");
    }

    #[test]
    fn weighted_standin_has_weights() {
        let g = Dataset::CitPatents.generate_weighted(ScaleFactor::Tiny);
        assert!(g.is_weighted());
        let w = g
            .neighbor_weights(
                (0..g.vertex_count() as u32)
                    .find(|&v| g.degree(v) > 0)
                    .expect("some non-dead-end"),
            )
            .unwrap();
        assert!(w.iter().all(|&x| (1.0..5.0).contains(&x)));
    }

    #[test]
    fn typed_standin_covers_all_types() {
        let g = Dataset::AsSkitter.generate_typed(ScaleFactor::Tiny, 3);
        let mut seen = [false; 3];
        for v in 0..g.vertex_count() as u32 {
            seen[g.vertex_type(v).unwrap() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn scale_factors_shrink_the_graph() {
        let std = Dataset::WebGoogle.generate(ScaleFactor::Standard);
        let small = Dataset::WebGoogle.generate(ScaleFactor::Small);
        let tiny = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        assert!(std.vertex_count() > small.vertex_count());
        assert!(small.vertex_count() > tiny.vertex_count());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::Uk2005.generate(ScaleFactor::Tiny);
        let b = Dataset::Uk2005.generate(ScaleFactor::Tiny);
        assert_eq!(a, b);
    }
}
