//! Cross-engine functional equivalence: every execution back-end (software
//! reference on one and on several workers, simulated accelerator in every
//! mode, GPU model) walks identical paths for every algorithm, since hop
//! `h` of query `q` draws from one stream keyed by `(seed, q, h)`.

use ridgewalker_suite::accel::{Accelerator, AcceleratorConfig, MemoryMode, ScheduleMode};
use ridgewalker_suite::algo::{
    distribution, run_streamed, Node2VecMethod, PreparedGraph, QuerySet, ReferenceBackend,
    SamplerConfig, SamplerStrategy, WalkBackend, WalkPath, WalkQuery, WalkSpec,
};
use ridgewalker_suite::baselines::GSampler;
use ridgewalker_suite::graph::generators::{Dataset, ScaleFactor};
use ridgewalker_suite::graph::CsrGraph;
use ridgewalker_suite::rng::{RandomSource, SplitMix64};

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

/// Legacy, auto and every forced kernel that supports `spec`, each with
/// an edge cache small enough that its rows evict one another.
fn sampler_configs(spec: &WalkSpec) -> Vec<SamplerConfig> {
    let forced = [
        SamplerStrategy::InverseTransform,
        SamplerStrategy::Alias,
        SamplerStrategy::Rejection,
        SamplerStrategy::Reservoir,
        SamplerStrategy::TypedReservoir,
        SamplerStrategy::SecondOrderAlias,
    ]
    .into_iter()
    .filter(|s| s.supports(spec))
    .map(SamplerConfig::forced);
    [SamplerConfig::legacy(), SamplerConfig::auto()]
        .into_iter()
        .chain(forced)
        .map(|c| c.cache_budget_bytes(16 << 10).segments(1))
        .collect()
}

/// Random queries, half from the graph's hubs: ids repeat, some with the
/// same start (twins), some from another start.
fn random_queries(p: &PreparedGraph, rng: &mut SplitMix64) -> Vec<WalkQuery> {
    let g = p.graph();
    let mut hubs: Vec<u32> = (0..g.vertex_count() as u32).collect();
    hubs.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    hubs.truncate(32);
    let n = 40 + rng.next_below(40);
    let mut queries: Vec<WalkQuery> = (0..n)
        .map(|_| WalkQuery {
            id: rng.next_below(n * 3 / 4),
            start: if rng.next_bool(0.5) {
                hubs[rng.next_below(hubs.len() as u64) as usize]
            } else {
                rng.next_below(g.vertex_count() as u64) as u32
            },
        })
        .collect();
    let twin = queries[rng.next_below(n) as usize];
    queries.push(twin);
    queries
}

/// Every path `backend` returns, feeding it `queries` in random prefixes
/// between random numbers of polls, then draining it.
fn interleaved(
    mut backend: impl WalkBackend,
    queries: &[WalkQuery],
    rng: &mut SplitMix64,
) -> Vec<WalkPath> {
    let mut out = Vec::new();
    let mut rest = queries;
    while !rest.is_empty() {
        let offer = 1 + rng.next_below(rest.len() as u64) as usize;
        let taken = backend.submit(&rest[..offer]);
        rest = &rest[taken..];
        for _ in 0..rng.next_below(4) {
            out.extend(backend.poll());
        }
    }
    out.extend(backend.drain());
    out
}

/// Paths sorted by (query id, vertices): equal for two runs exactly when
/// they gave every (id, start) query the same path, since queries equal
/// in both walk one path.
fn sorted(mut paths: Vec<WalkPath>) -> Vec<WalkPath> {
    paths.sort_by(|a, b| (a.query, &a.vertices).cmp(&(b.query, &b.vertices)));
    paths
}

/// The Markov task decomposition's promise, checked exactly: for every
/// spec and sampler kernel, every executor returns the reference
/// backend's path for every query — whatever the worker count, poll
/// chunk, poll quantum, submit/poll interleaving, pipeline count,
/// schedule or memory mode.
#[test]
fn every_executor_walks_identical_paths() {
    let g = Dataset::AsSkitter.generate_typed(ScaleFactor::Tiny, 3);
    let mut rng = SplitMix64::new(0x1D3A_7E57);
    for spec in all_specs() {
        for config in sampler_configs(&spec) {
            let p = PreparedGraph::with_sampler(g.clone(), &spec, config)
                .expect("the graph carries weights and types");
            let case = format!("{spec} {:?}", config.mode());
            let seed = rng.next_u64();
            let queries = random_queries(&p, &mut rng);
            let reference = ReferenceBackend::new(&p, spec.clone(), seed);
            let expected = run_streamed(&mut reference.clone(), &queries);
            assert!(
                expected.iter().any(|w| w.steps() > 1),
                "{case}: walks must move"
            );

            for threads in [1, 3] {
                for chunk in [1, 5, 64] {
                    let mut b = reference.clone().threads(threads).poll_chunk(chunk);
                    let got = run_streamed(&mut b, &queries);
                    assert_eq!(got, expected, "{case}: {threads} workers, chunk {chunk}");
                }
            }

            let want = sorted(expected.clone());
            let accel = AcceleratorConfig::new().pipelines(4).seed(seed);
            for quantum in [1, 64, u64::MAX] {
                let backend = Accelerator::new(accel.poll_quantum(quantum)).backend(&p, &spec);
                let got = sorted(interleaved(backend, &queries, &mut rng));
                assert_eq!(got, want, "{case}: backend, quantum {quantum}");
            }

            for pipelines in [1, 4, 16] {
                for schedule in [ScheduleMode::ZeroBubble, ScheduleMode::StaticBatched] {
                    for memory in [MemoryMode::Asynchronous, MemoryMode::Blocking] {
                        let cfg = AcceleratorConfig::new()
                            .pipelines(pipelines)
                            .schedule(schedule)
                            .memory(memory)
                            .seed(seed);
                        let got = Accelerator::new(cfg).run(&p, &spec, &queries).paths;
                        assert_eq!(
                            got, expected,
                            "{case}: run, {pipelines} pipelines, {schedule:?}, {memory:?}"
                        );
                    }
                }
            }

            let gpu = GSampler::new().seed(seed).run(&p, &spec, &queries).paths;
            assert_eq!(gpu, expected, "{case}: gpu");
        }
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
