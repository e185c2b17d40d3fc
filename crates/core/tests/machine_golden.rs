//! Golden digests of the cycle-level machine.
//!
//! Each of seven configurations runs the six walk specs on Tiny stand-ins and
//! folds every simulated output of each run into one `u64`: the paths,
//! every counter of the [`RunReport`] and the bits of its `f64` fields.
//! A change to how the machine is stepped on the host (its queues, skipped
//! stages, channel bookkeeping) must leave every digest as it is.
//!
//! On a mismatch the test prints the whole row of actual digests. Replace
//! a row only for a change that is meant to move simulated values, and
//! name the mechanism in the commit.

use grw_algo::{
    Node2VecMethod, PreparedGraph, QuerySet, SamplerConfig, WalkBackend, WalkPath, WalkSpec,
};
use grw_graph::generators::{Dataset, ScaleFactor};
use grw_sim::FpgaPlatform;
use ridgewalker::{Accelerator, AcceleratorConfig, MemoryMode, RunReport, ScheduleMode};

/// Queries per run.
const QUERIES: usize = 384;

/// FNV-1a over 64-bit words: a stable digest (std's hashers may change
/// between toolchains).
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn paths(&mut self, paths: &[WalkPath]) {
        self.word(paths.len() as u64);
        for p in paths {
            self.word(p.query);
            self.word(p.vertices.len() as u64);
            for &v in &p.vertices {
                self.word(u64::from(v));
            }
        }
    }

    /// Every field of the report. The exhaustive destructuring makes a new
    /// report field a compile error here until it is hashed too.
    fn report(&mut self, r: &RunReport) {
        let RunReport {
            paths,
            cycles,
            steps,
            clock_mhz,
            msteps_per_sec,
            bubble_ratio,
            pipeline_utilization,
            pipeline_cycles,
            random_txns,
            bytes_moved,
            effective_bandwidth_gbs,
            peak_bandwidth_gbs,
            bandwidth_utilization,
            terminations,
            sampling,
        } = r;
        self.paths(paths);
        for w in [
            *cycles,
            *steps,
            *random_txns,
            *bytes_moved,
            pipeline_cycles.busy(),
            pipeline_cycles.bubbles(),
            pipeline_cycles.drained(),
            terminations.max_length,
            terminations.dead_end,
            terminations.teleport,
            terminations.no_typed_neighbor,
            sampling.samples,
            sampling.rejection_trials,
            sampling.alias_builds,
            sampling.cache_hits,
            sampling.cache_evictions,
            sampling.scanned_words,
        ] {
            self.word(w);
        }
        for x in [
            *clock_mhz,
            *msteps_per_sec,
            *bubble_ratio,
            *pipeline_utilization,
            *effective_bandwidth_gbs,
            *peak_bandwidth_gbs,
            *bandwidth_utilization,
        ] {
            self.float(x);
        }
    }
}

/// The six specs, each prepared on its Tiny stand-in, in a fixed order.
fn workloads() -> Vec<(&'static str, PreparedGraph, WalkSpec)> {
    let plain = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let weighted = Dataset::WebGoogle.generate_weighted(ScaleFactor::Tiny);
    let typed = Dataset::AsSkitter.generate_typed(ScaleFactor::Tiny, 3);
    let prepare = |g: &grw_graph::CsrGraph, spec: &WalkSpec| {
        PreparedGraph::new(g.clone(), spec).expect("stand-in fits its spec")
    };
    let urw = WalkSpec::urw(24);
    let ppr = WalkSpec::ppr(24);
    let deepwalk = WalkSpec::deepwalk(16);
    let n2v_rejection = WalkSpec::node2vec(12, Node2VecMethod::Rejection);
    let n2v_reservoir = WalkSpec::node2vec(12, Node2VecMethod::Reservoir);
    let metapath = WalkSpec::metapath(12);
    vec![
        ("urw", prepare(&plain, &urw), urw),
        ("ppr", prepare(&plain, &ppr), ppr),
        ("deepwalk", prepare(&weighted, &deepwalk), deepwalk),
        (
            "node2vec-rejection",
            prepare(&weighted, &n2v_rejection),
            n2v_rejection,
        ),
        (
            "node2vec-reservoir-auto",
            PreparedGraph::with_sampler(weighted, &n2v_reservoir, SamplerConfig::auto())
                .expect("weighted stand-in fits Node2Vec"),
            n2v_reservoir,
        ),
        ("metapath", prepare(&typed, &metapath), metapath),
    ]
}

fn queries(p: &PreparedGraph) -> QuerySet {
    QuerySet::random(p.graph().vertex_count(), QUERIES, 17)
}

/// One-shot runs through [`Accelerator::run`].
fn batch_digests(cfg: AcceleratorConfig) -> Vec<(&'static str, u64)> {
    workloads()
        .into_iter()
        .map(|(name, p, spec)| {
            let report = Accelerator::new(cfg).run(&p, &spec, queries(&p).queries());
            let mut d = Digest::new();
            d.report(&report);
            (name, d.0)
        })
        .collect()
}

/// The streaming backend in 64-cycle polls, fed in waves: odd waves end
/// with a drain, even waves with a few polls, so finished queries' slots
/// are recycled both from an idle machine and from a running one.
fn streamed_digests(cfg: AcceleratorConfig) -> Vec<(&'static str, u64)> {
    workloads()
        .into_iter()
        .map(|(name, p, spec)| {
            let qs = queries(&p);
            let mut backend = Accelerator::new(cfg.poll_quantum(64)).backend(&p, &spec);
            let mut delivered = Vec::new();
            for (wave, chunk) in qs.queries().chunks(24).enumerate() {
                assert_eq!(backend.submit(chunk), chunk.len());
                if wave % 2 == 1 {
                    delivered.extend(backend.drain());
                } else {
                    for _ in 0..4 {
                        delivered.extend(backend.poll());
                    }
                }
            }
            delivered.extend(backend.drain());
            let mut d = Digest::new();
            d.paths(&delivered);
            d.report(&backend.cumulative_report());
            (name, d.0)
        })
        .collect()
}

fn check(config: &str, got: &[(&str, u64)], want: &[u64; 6]) {
    let moved: Vec<&str> = got
        .iter()
        .zip(want)
        .filter(|((_, g), w)| g != *w)
        .map(|((spec, _), _)| *spec)
        .collect();
    let row: Vec<String> = got.iter().map(|(_, d)| format!("{d:#018x}")).collect();
    assert!(
        moved.is_empty(),
        "{config}: machine digests moved for {moved:?}; actual row: [{}]",
        row.join(", ")
    );
}

fn small() -> AcceleratorConfig {
    AcceleratorConfig::new().pipelines(4)
}

#[test]
fn golden_default_u55c() {
    let got = batch_digests(AcceleratorConfig::new());
    check(
        "default U55C",
        &got,
        &[
            0x497d_ac8c_2273_62f4,
            0xb09e_9670_1cbf_635d,
            0x27d4_89d4_57d2_b8d8,
            0x1bd9_2cc5_e749_49ae,
            0xb00c_e5fd_a657_d37b,
            0xf442_e524_d33d_b119,
        ],
    );
}

#[test]
fn golden_static_batched() {
    let got = batch_digests(small().schedule(ScheduleMode::StaticBatched));
    check(
        "StaticBatched",
        &got,
        &[
            0x09c3_696e_9046_d67d,
            0x8def_1e52_262f_c87f,
            0xaf7e_9566_2fc5_beb0,
            0x3806_c9f0_f6ac_a539,
            0x2c17_b5e2_4aa0_7056,
            0x294e_49b3_0676_cbc6,
        ],
    );
}

#[test]
fn golden_blocking() {
    let got = batch_digests(small().memory(MemoryMode::Blocking));
    check(
        "Blocking",
        &got,
        &[
            0x523e_68cb_e61b_59e3,
            0x7700_3c68_5039_4c6f,
            0x5d26_f94f_df49_7f90,
            0x3835_00df_1a01_99fa,
            0x1ccb_8f86_efb0_260d,
            0xbaf5_d9e9_a99e_8588,
        ],
    );
}

#[test]
fn golden_u250() {
    let got = batch_digests(AcceleratorConfig::new().platform(FpgaPlatform::AlveoU250));
    check(
        "U250",
        &got,
        &[
            0xd151_f4cc_83ee_8d1f,
            0x51de_aa19_0fc4_9307,
            0x0ec4_f0d5_25e7_6d0a,
            0xfcd9_b558_3f77_4668,
            0x2764_7dc6_60a0_09d6,
            0x3e03_923c_14b1_eda9,
        ],
    );
}

#[test]
fn golden_fastrw_shape() {
    let got = batch_digests(
        small()
            .platform(FpgaPlatform::AlveoU50)
            .rp_cache(64)
            .rng_stream_tax(2)
            .ra_outstanding(2),
    );
    check(
        "FastRW shape",
        &got,
        &[
            0x385a_4903_b683_eda5,
            0xa889_79fc_4fa6_d3cd,
            0xd300_db65_810d_a389,
            0xf916_af17_2026_7e14,
            0x065a_81eb_b6d3_1721,
            0x79e5_a32c_1bec_6da7,
        ],
    );
}

#[test]
fn golden_incremental_64_cycle_polls() {
    let got = streamed_digests(small().max_inflight(64));
    check(
        "incremental",
        &got,
        &[
            0x97b5_8eff_bcfa_8779,
            0xe259_0f33_7319_0791,
            0x784b_0961_ca9e_b173,
            0xd8d1_b941_8682_1784,
            0xa4cd_1f74_057c_bc50,
            0x553b_ddd4_d675_b223,
        ],
    );
}

/// Static mode binds each query to a pipeline by its submission index, so
/// this row pins the timing of recycled slots as well as their paths.
#[test]
fn golden_static_batched_64_cycle_polls() {
    let got = streamed_digests(small().schedule(ScheduleMode::StaticBatched));
    check(
        "StaticBatched streamed",
        &got,
        &[
            0x0def_a988_9283_7b1a,
            0x4713_7848_dfa4_962e,
            0x2061_f9ac_cef3_97cc,
            0x29f0_c09d_e981_05b6,
            0xcbba_5364_b14e_845c,
            0x4382_2d08_3b2f_11e6,
        ],
    );
}
