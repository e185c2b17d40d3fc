//! Cross-engine functional equivalence: every execution back-end (software
//! reference on one and on several workers, simulated accelerator, GPU
//! model) must produce statistically identical walks for every algorithm.

use ridgewalker_suite::accel::{Accelerator, AcceleratorConfig};
use ridgewalker_suite::algo::{
    distribution, run_streamed, Node2VecMethod, PreparedGraph, QuerySet, ReferenceBackend,
    WalkPath, WalkSpec,
};
use ridgewalker_suite::baselines::GSampler;
use ridgewalker_suite::graph::generators::{Dataset, ScaleFactor};
use ridgewalker_suite::graph::CsrGraph;

fn all_specs() -> Vec<WalkSpec> {
    vec![
        WalkSpec::urw(12),
        WalkSpec::ppr(12),
        WalkSpec::deepwalk(12),
        WalkSpec::node2vec(12, Node2VecMethod::Rejection),
        WalkSpec::node2vec(12, Node2VecMethod::Reservoir),
        WalkSpec::metapath(12),
    ]
}

fn assert_paths_valid(paths: &[WalkPath], prepared: &PreparedGraph, spec: &WalkSpec, tag: &str) {
    for w in paths {
        assert!(
            w.steps() <= u64::from(spec.max_len()),
            "{tag}/{spec}: walk exceeds max length"
        );
        for pair in w.vertices.windows(2) {
            assert!(
                prepared.graph().has_edge(pair[0], pair[1]),
                "{tag}/{spec}: edge {} -> {} does not exist",
                pair[0],
                pair[1]
            );
        }
    }
}

#[test]
fn every_engine_emits_only_real_edges_for_every_algorithm() {
    let g = Dataset::AsSkitter.generate_typed(ScaleFactor::Tiny, 3);
    for spec in all_specs() {
        let p = PreparedGraph::new(g.clone(), &spec).unwrap();
        let qs = QuerySet::random(g.vertex_count(), 48, 3);
        let reference = run_streamed(
            &mut ReferenceBackend::new(&p, spec.clone(), 1),
            qs.queries(),
        );
        assert_paths_valid(&reference, &p, &spec, "reference");
        let parallel = run_streamed(
            &mut ReferenceBackend::new(&p, spec.clone(), 1).threads(3),
            qs.queries(),
        );
        assert_paths_valid(&parallel, &p, &spec, "parallel");
        let accel =
            Accelerator::new(AcceleratorConfig::new().pipelines(4)).run(&p, &spec, qs.queries());
        assert_paths_valid(&accel.paths, &p, &spec, "accelerator");
        let gpu = GSampler::new().run(&p, &spec, qs.queries());
        assert_paths_valid(&gpu.paths, &p, &spec, "gpu");
    }
}

#[test]
fn accelerator_matches_reference_hub_distribution() {
    // Out of a 6-way hub, all engines must sample uniformly (URW).
    let mut edges = vec![];
    for v in 1..=6u32 {
        edges.push((0, v));
        edges.push((v, 0));
    }
    let g = CsrGraph::from_edges(7, &edges, true);
    let spec = WalkSpec::urw(10);
    let p = PreparedGraph::new(g, &spec).unwrap();
    let qs = QuerySet::repeated(0, 2_000);
    let probs = vec![1.0 / 6.0; 6];

    for (tag, paths) in [
        (
            "reference",
            run_streamed(
                &mut ReferenceBackend::new(&p, spec.clone(), 2),
                qs.queries(),
            ),
        ),
        (
            "accelerator",
            Accelerator::new(AcceleratorConfig::new().pipelines(4))
                .run(&p, &spec, qs.queries())
                .paths,
        ),
        ("gpu", GSampler::new().run(&p, &spec, qs.queries()).paths),
    ] {
        let counts = distribution::next_hop_counts(&paths, 0);
        let bins = distribution::counts_for_neighbors(&counts, p.graph().neighbors(0));
        assert!(
            distribution::fits(&bins, &probs),
            "{tag}: hub distribution skewed: {bins:?}"
        );
    }
}

#[test]
fn ppr_termination_statistics_agree_across_engines() {
    let g = Dataset::LiveJournal.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::Ppr {
        alpha: 0.25,
        max_len: 1_000,
    };
    let p = PreparedGraph::new(g.clone(), &spec).unwrap();
    let qs = QuerySet::random(g.vertex_count(), 3_000, 5);
    let mean = |paths: &[WalkPath]| {
        paths.iter().map(|w| w.steps() as f64).sum::<f64>() / paths.len() as f64
    };
    let m_ref = mean(&run_streamed(
        &mut ReferenceBackend::new(&p, spec.clone(), 3),
        qs.queries(),
    ));
    let m_acc = mean(
        &Accelerator::new(AcceleratorConfig::new().pipelines(4))
            .run(&p, &spec, qs.queries())
            .paths,
    );
    // Both estimate E[len] = (1-α)/α = 3 (minus dead-end truncation).
    assert!(
        (m_ref - m_acc).abs() < 0.4,
        "reference mean {m_ref:.2} vs accelerator mean {m_acc:.2}"
    );
}

#[test]
fn metapath_walks_respect_the_type_pattern() {
    let g = Dataset::CitPatents.generate_typed(ScaleFactor::Tiny, 3);
    let spec = WalkSpec::MetaPath {
        pattern: vec![0, 1, 2],
        max_len: 9,
    };
    let p = PreparedGraph::new(g.clone(), &spec).unwrap();
    let qs = QuerySet::random(g.vertex_count(), 64, 9);
    let report =
        Accelerator::new(AcceleratorConfig::new().pipelines(4)).run(&p, &spec, qs.queries());
    for w in &report.paths {
        // Position k (after the start) must carry type pattern[k % 3].
        for (k, &v) in w.vertices.iter().enumerate().skip(1) {
            assert_eq!(
                g.vertex_type(v),
                Some((k % 3) as u8),
                "walk {} position {k}",
                w.query
            );
        }
    }
}
