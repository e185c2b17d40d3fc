//! Reproducibility: identical seeds give identical results everywhere, and
//! serialization round-trips preserve graphs exactly.

use ridgewalker_suite::accel::{Accelerator, AcceleratorConfig};
use ridgewalker_suite::algo::{run_streamed, PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};
use ridgewalker_suite::baselines::GSampler;
use ridgewalker_suite::graph::generators::{Dataset, ScaleFactor};
use ridgewalker_suite::graph::io;

#[test]
fn generators_are_reproducible() {
    let a = Dataset::WebGoogle.generate_weighted(ScaleFactor::Tiny);
    let b = Dataset::WebGoogle.generate_weighted(ScaleFactor::Tiny);
    assert_eq!(a, b);
}

#[test]
fn engines_are_seed_deterministic() {
    let g = Dataset::CitPatents.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(16);
    let p = PreparedGraph::new(g.clone(), &spec).unwrap();
    let qs = QuerySet::random(g.vertex_count(), 128, 7);

    let r1 = run_streamed(
        &mut ReferenceBackend::new(&p, spec.clone(), 9),
        qs.queries(),
    );
    let r2 = run_streamed(
        &mut ReferenceBackend::new(&p, spec.clone(), 9),
        qs.queries(),
    );
    assert_eq!(r1, r2);

    let p1 = run_streamed(
        &mut ReferenceBackend::new(&p, spec.clone(), 9).threads(4),
        qs.queries(),
    );
    assert_eq!(r1, p1, "four workers must equal one bitwise");

    let a1 = Accelerator::new(AcceleratorConfig::new().pipelines(4).seed(5)).run(
        &p,
        &spec,
        qs.queries(),
    );
    let a2 = Accelerator::new(AcceleratorConfig::new().pipelines(4).seed(5)).run(
        &p,
        &spec,
        qs.queries(),
    );
    assert_eq!(a1.paths, a2.paths);
    assert_eq!(a1.cycles, a2.cycles);
    assert_eq!(a1.random_txns, a2.random_txns);

    let g1 = GSampler::new().run(&p, &spec, qs.queries());
    let g2 = GSampler::new().run(&p, &spec, qs.queries());
    assert_eq!(g1.paths, g2.paths);
    assert_eq!(g1.time_ms, g2.time_ms);
}

#[test]
fn incremental_backend_is_schedule_invariant_but_seed_sensitive() {
    use ridgewalker_suite::algo::WalkBackend;

    let g = Dataset::CitPatents.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(16);
    let p = PreparedGraph::new(g.clone(), &spec).unwrap();
    let qs = QuerySet::random(g.vertex_count(), 200, 3);

    // One fixed seed, three very different submit/poll schedules: paths
    // must be bit-identical (only simulated timing may differ).
    let run_with_chunks = |seed: u64, submit_chunk: usize, quantum: u64| {
        let accel = Accelerator::new(
            AcceleratorConfig::new()
                .pipelines(4)
                .seed(seed)
                .poll_quantum(quantum),
        );
        let mut backend = accel.backend(&p, &spec).queue_capacity(4096);
        let mut got = Vec::new();
        for chunk in qs.queries().chunks(submit_chunk) {
            assert_eq!(backend.submit(chunk), chunk.len());
            got.extend(backend.poll());
        }
        got.extend(backend.drain());
        got.sort_by_key(|w| w.query);
        got
    };
    let a = run_with_chunks(5, 200, 1_000_000); // everything at once
    let b = run_with_chunks(5, 7, 32); // trickle, tiny quanta
    let c = run_with_chunks(5, 64, 512); // waves
    assert_eq!(a, b, "schedule must not change walks");
    assert_eq!(a, c, "schedule must not change walks");

    // And the seed still matters.
    let other = run_with_chunks(6, 64, 512);
    assert_ne!(a, other, "seeds must matter");
    assert_eq!(a.len(), other.len());
}

#[test]
fn different_seeds_change_walks_but_not_validity() {
    let g = Dataset::AsSkitter.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(16);
    let p = PreparedGraph::new(g.clone(), &spec).unwrap();
    let qs = QuerySet::random(g.vertex_count(), 64, 7);
    let a = Accelerator::new(AcceleratorConfig::new().pipelines(4).seed(1)).run(
        &p,
        &spec,
        qs.queries(),
    );
    let b = Accelerator::new(AcceleratorConfig::new().pipelines(4).seed(2)).run(
        &p,
        &spec,
        qs.queries(),
    );
    assert_ne!(a.paths, b.paths, "seeds must matter");
    assert_eq!(a.paths.len(), b.paths.len());
}

#[test]
fn edge_list_io_round_trips() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let text = io::format_edge_list(&g);
    let (edges, n) = io::parse_edge_list(&text).expect("parse");
    let back =
        ridgewalker_suite::graph::CsrGraph::from_edges(n.max(g.vertex_count()), &edges, true);
    for v in 0..g.vertex_count() as u32 {
        assert_eq!(g.neighbors(v), back.neighbors(v), "vertex {v}");
    }
}
