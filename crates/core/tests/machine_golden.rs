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
            0x9871_366c_d9b2_6de5,
            0xf6eb_b611_223c_6488,
            0x95d6_bda7_c97b_84d9,
            0xe081_f628_5907_dec5,
            0xb6d6_99f9_e74a_e2d3,
            0x1839_0fe2_9ed6_a57e,
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
            0x64fc_c678_1bde_edb1,
            0xbf94_225e_11d9_2764,
            0xb8ca_4507_4f22_9338,
            0xa1ea_3652_7af6_550f,
            0x56b3_65a9_e1f6_5ee9,
            0x9fa9_6f21_1ae3_273e,
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
            0xdda1_a034_3744_a7b4,
            0x97a3_028b_d2a1_ec13,
            0x80a1_fea2_d4f1_32f3,
            0xa6eb_a783_8dff_4ae8,
            0xc799_8ac9_f7c7_2fcc,
            0xb5d3_0610_5824_9bd4,
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
            0x0d78_2ff5_d60c_2399,
            0x6ae9_29b8_d9f9_7da7,
            0x0d7e_7e58_a459_30ce,
            0x38ce_00d9_5c4d_06eb,
            0xfb9a_6b3d_c7ea_1105,
            0x28fc_6415_bc44_fb14,
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
            0x3e30_3d54_497f_effc,
            0xf41c_42df_3103_cfeb,
            0x234b_3483_4fc8_aef6,
            0x0dbe_d741_bb56_a8ec,
            0xe115_c336_c5b0_83f7,
            0x812e_c8a9_1b71_e63a,
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
            0x0064_a61c_fdc7_45c6,
            0xd7fb_81d6_b3e4_72cc,
            0xa4c5_3b9d_881d_9ed1,
            0x17be_a426_8e3d_38a2,
            0xc600_c1b4_72ea_e064,
            0xe58f_41ce_804c_50b2,
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
            0xd360_f5ac_f177_356b,
            0xda30_e4f6_e5f5_ab8d,
            0x1901_ecde_cd8c_740a,
            0x6720_ef6b_fa77_cd7e,
            0x4d1c_7cdc_e928_25fa,
            0xe189_b461_2836_b3ad,
        ],
    );
}
