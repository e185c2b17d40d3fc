//! gSampler GPU model (Gong et al., SOSP'23) — the Fig. 9 / Fig. 10
//! baseline.
//!
//! gSampler executes GRWs as super-batched SIMT kernels. The model runs
//! the *functional* walk exactly (same samplers and the same per-hop
//! [`WalkKey`] streams as everything else, so under one seed it walks the
//! paths every other executor walks), then
//! prices the execution with the three ceilings the paper's analysis
//! identifies:
//!
//! 1. **Random-access memory bandwidth** — measured 8-byte-granule random
//!    rate, degraded on ragged (high degree-variance) graphs where the
//!    vectorized gather kernels waste sectors and lanes:
//!    `R_eff = R_random / (1 + κ·cv)` with `cv` the coefficient of
//!    variation of visited-vertex degrees. Evenly distributed accesses
//!    (balanced RMAT) keep near-full efficiency (§VIII-C2).
//! 2. **Warp-lockstep issue** — every warp-round burns 32 lane-slots no
//!    matter how many threads still live, so early-terminating walks
//!    (PPR, dead ends, Graph500 skew) waste issue bandwidth; alias
//!    sampling doubles per-lane work (two PRNs per step, Fig. 9c).
//! 3. **Kernel rounds** — an optional per-round launch/epilogue charge
//!    (super-batching amortizes it; zero by default).
//!
//! Node2Vec's membership probes are binary searches over sorted neighbor
//! lists — structured accesses the GPU caches well, so they are charged at
//! a locality discount (the Fig. 9d effect).

use grw_algo::{PreparedGraph, SamplerRuntime, WalkPath, WalkQuery, WalkSpec};
use grw_graph::VertexId;
use grw_rng::WalkKey;

/// Width of a SIMT warp.
const WARP: usize = 32;

/// Hardware constants of the GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Device name.
    pub name: &'static str,
    /// Sequential HBM bandwidth, GB/s (context only).
    pub seq_bandwidth_gbs: f64,
    /// Measured 64-bit random transaction rate, millions/s.
    pub random_mtps: f64,
    /// Aggregate lane-issue rate, million lane-steps/s.
    pub lane_rate_msteps: f64,
    /// Raggedness sensitivity κ of the gather kernels.
    pub raggedness_kappa: f64,
    /// Per-round kernel launch/epilogue overhead in microseconds
    /// (0 = fully amortized by super-batching).
    pub launch_overhead_us: f64,
}

impl GpuSpec {
    /// NVIDIA H100 PCIe (the paper's GPU testbed).
    pub fn h100() -> Self {
        Self {
            name: "H100",
            seq_bandwidth_gbs: 2093.0,
            // Fig. 10 red line: ~9.5 GStep/s DeepWalk at 2 txns/step on
            // evenly distributed accesses → ~19 Gtxn/s.
            random_mtps: 19_000.0,
            lane_rate_msteps: 20_000.0,
            raggedness_kappa: 10.0,
            launch_overhead_us: 0.0,
        }
    }
}

/// Execution report of the GPU model.
#[derive(Debug, Clone)]
pub struct GpuReport {
    /// One path per query, in input order.
    pub paths: Vec<WalkPath>,
    /// Hops executed.
    pub steps: u64,
    /// Modelled execution time in milliseconds.
    pub time_ms: f64,
    /// Throughput in MStep/s.
    pub msteps_per_sec: f64,
    /// Random transactions issued by live lanes.
    pub mem_txns: f64,
    /// Warp-rounds executed (the lockstep cost driver).
    pub warp_rounds: u64,
    /// Mean fraction of live lanes per warp-round (divergence measure).
    pub live_lane_fraction: f64,
    /// Coefficient of variation of visited-vertex degrees.
    pub visited_degree_cv: f64,
    /// Which ceiling bound the run.
    pub bound: GpuBound,
}

/// The binding performance ceiling of a GPU run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuBound {
    /// Random-access bandwidth (possibly raggedness-degraded).
    Memory,
    /// Warp-lockstep lane issue.
    LockstepIssue,
    /// Kernel launch rounds.
    Launch,
}

/// The gSampler execution model.
///
/// # Example
///
/// ```
/// use grw_algo::{PreparedGraph, QuerySet, WalkSpec};
/// use grw_baselines::GSampler;
/// use grw_graph::generators::RmatConfig;
///
/// let g = RmatConfig::balanced(10, 8).seed(1).generate();
/// let spec = WalkSpec::urw(16);
/// let p = PreparedGraph::new(g, &spec).unwrap();
/// let qs = QuerySet::random(p.graph().vertex_count(), 256, 0);
/// let r = GSampler::new().run(&p, &spec, qs.queries());
/// assert_eq!(r.paths.len(), 256);
/// assert!(r.msteps_per_sec > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GSampler {
    /// Hardware constants.
    pub spec: GpuSpec,
    /// Walk seed of the functional walks ([`WalkKey::new`]).
    pub seed: u64,
}

impl GSampler {
    /// Creates the model on an H100.
    pub fn new() -> Self {
        Self {
            spec: GpuSpec::h100(),
            seed: 0x600D,
        }
    }

    /// Overrides the hardware spec.
    pub fn spec(mut self, spec: GpuSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Overrides the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Per-lane instruction weight of one step.
    fn lane_cost(spec: &WalkSpec) -> f64 {
        match spec {
            WalkSpec::Urw { .. } | WalkSpec::Ppr { .. } => 1.0,
            // Alias sampling doubles the PRNs and instruction count.
            WalkSpec::DeepWalk { .. } => 2.0,
            WalkSpec::Node2Vec { .. } | WalkSpec::MetaPath { .. } => 1.2,
        }
    }

    /// Streaming adapter over the native super-batched execution: queries
    /// buffered since the last poll run as one GPU batch (super-batching
    /// *is* gSampler's performance signature, so the adapter preserves it).
    pub fn backend<'a>(
        &self,
        prepared: &'a PreparedGraph,
        spec: &WalkSpec,
    ) -> grw_algo::BatchFnBackend<impl FnMut(&[WalkQuery]) -> Vec<grw_algo::WalkPath> + 'a> {
        let model = *self;
        let spec = spec.clone();
        grw_algo::BatchFnBackend::new(move |queries: &[WalkQuery]| {
            model.run(prepared, &spec, queries).paths
        })
    }

    /// Runs the model.
    pub fn run(
        &self,
        prepared: &PreparedGraph,
        spec: &WalkSpec,
        queries: &[WalkQuery],
    ) -> GpuReport {
        let graph = prepared.graph();
        // Functional replay, recording the per-hop transaction cost each
        // lane would issue.
        let mut rt = SamplerRuntime::disabled();
        let mut paths = Vec::with_capacity(queries.len());
        let mut hop_txns: Vec<Vec<f64>> = Vec::with_capacity(queries.len());
        let mut degree_sum = 0.0f64;
        let mut degree_sq = 0.0f64;
        let mut visits = 0u64;
        for q in queries {
            let key = WalkKey::new(self.seed, q.id);
            let mut vertices = vec![q.start];
            let mut txns = Vec::new();
            let mut cur = q.start;
            let mut prev: Option<VertexId> = None;
            let mut hop = 0u32;
            while let grw_algo::StepDecision::Advance { next, outcome } =
                prepared.next_step_with(&mut rt, spec, cur, prev, hop, key)
            {
                let d = f64::from(graph.degree(cur));
                degree_sum += d;
                degree_sq += d * d;
                visits += 1;
                // RP read + final column read, plus sampling costs.
                // Membership probes hit the previous hop's list,
                // which both platforms keep close (GPU cache / FPGA
                // on-chip buffer): no memory charge.
                let extra = match spec {
                    WalkSpec::DeepWalk { .. } => 1.0, // alias entry
                    WalkSpec::Node2Vec { .. } => {
                        f64::from(outcome.uniform_trials - 1)
                            + f64::from(outcome.scanned.div_ceil(8))
                    }
                    WalkSpec::MetaPath { .. } => f64::from(outcome.scanned.div_ceil(8)),
                    _ => 0.0,
                };
                txns.push(2.0 + extra);
                vertices.push(next);
                prev = Some(cur);
                cur = next;
                hop += 1;
            }
            paths.push(WalkPath::new(q.id, vertices));
            hop_txns.push(txns);
        }

        // Warp aggregation.
        let mut warp_rounds = 0u64;
        let mut live_lanes = 0u64;
        let mut mem_txns = 0.0f64;
        let mut global_rounds = 0u64;
        for warp in hop_txns.chunks(WARP) {
            let rounds = warp.iter().map(Vec::len).max().unwrap_or(0) as u64;
            global_rounds = global_rounds.max(rounds);
            warp_rounds += rounds;
            for r in 0..rounds as usize {
                for lane in warp {
                    if let Some(&t) = lane.get(r) {
                        live_lanes += 1;
                        mem_txns += t;
                    }
                }
            }
        }
        let steps: u64 = paths.iter().map(WalkPath::steps).sum();
        debug_assert_eq!(steps, live_lanes);

        // Raggedness: CV of visited out-degrees.
        let cv = if visits == 0 {
            0.0
        } else {
            let mean = degree_sum / visits as f64;
            let var = (degree_sq / visits as f64 - mean * mean).max(0.0);
            if mean == 0.0 {
                0.0
            } else {
                var.sqrt() / mean
            }
        };

        let s = &self.spec;
        // Raggedness degrades the vectorized gather kernels quadratically:
        // evenly distributed accesses (cv ≈ 0.2) keep near-full efficiency,
        // power-law degree streams (cv > 1) collapse toward scalar gathers.
        let mem_rate = s.random_mtps * 1e6 / (1.0 + s.raggedness_kappa * cv * cv);
        let t_mem = mem_txns / mem_rate;
        let lane_units = warp_rounds as f64 * WARP as f64 * Self::lane_cost(spec);
        let t_issue = lane_units / (s.lane_rate_msteps * 1e6);
        let t_launch = global_rounds as f64 * s.launch_overhead_us * 1e-6;
        let (time_s, bound) = [
            (t_mem, GpuBound::Memory),
            (t_issue, GpuBound::LockstepIssue),
            (t_launch, GpuBound::Launch),
        ]
        .into_iter()
        .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"))
        .expect("non-empty");

        let msteps = if time_s > 0.0 {
            steps as f64 / time_s / 1e6
        } else {
            0.0
        };
        GpuReport {
            paths,
            steps,
            time_ms: time_s * 1e3,
            msteps_per_sec: msteps,
            mem_txns,
            warp_rounds,
            live_lane_fraction: if warp_rounds == 0 {
                0.0
            } else {
                live_lanes as f64 / (warp_rounds as f64 * WARP as f64)
            },
            visited_degree_cv: cv,
            bound,
        }
    }
}

impl Default for GSampler {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_algo::QuerySet;
    use grw_graph::generators::{Dataset, RmatConfig, ScaleFactor};

    fn run(spec: &WalkSpec, g: grw_graph::CsrGraph, q: usize) -> GpuReport {
        let p = PreparedGraph::new(g, spec).unwrap();
        let qs = QuerySet::random(p.graph().vertex_count(), q, 3);
        GSampler::new().run(&p, spec, qs.queries())
    }

    #[test]
    fn balanced_rmat_is_memory_bound_near_peak() {
        let spec = WalkSpec::urw(40);
        let g = RmatConfig::balanced(12, 16).seed(1).generate();
        let r = run(&spec, g, 2048);
        assert_eq!(r.bound, GpuBound::Memory);
        assert!(
            r.live_lane_fraction > 0.95,
            "balanced walks should keep warps full, got {}",
            r.live_lane_fraction
        );
        // Near the 19 Gtxn/s ceiling at 2 txns/step → multi-GStep/s.
        assert!(
            r.msteps_per_sec > 4000.0,
            "balanced RMAT should run near peak, got {}",
            r.msteps_per_sec
        );
    }

    #[test]
    fn graph500_skew_collapses_throughput() {
        let spec = WalkSpec::urw(40);
        let balanced = run(&spec, RmatConfig::balanced(12, 16).seed(1).generate(), 2048);
        let skewed = run(&spec, RmatConfig::graph500(12, 16).seed(1).generate(), 2048);
        let drop = balanced.msteps_per_sec / skewed.msteps_per_sec;
        assert!(
            drop > 4.0,
            "Graph500 skew should collapse the GPU by an order, got {drop:.1}x"
        );
        assert!(
            skewed.live_lane_fraction < 0.7,
            "dead ends must divert warps, live fraction {}",
            skewed.live_lane_fraction
        );
        assert!(skewed.live_lane_fraction < balanced.live_lane_fraction);
    }

    #[test]
    fn alias_sampling_taxes_the_gpu() {
        let g = Dataset::WebGoogle.generate_weighted(ScaleFactor::Tiny);
        let urw = run(&WalkSpec::urw(40), g.clone(), 1024);
        let dw = run(&WalkSpec::deepwalk(40), g, 1024);
        assert!(
            dw.msteps_per_sec < urw.msteps_per_sec,
            "DeepWalk ({}) must be slower than URW ({}) on the GPU",
            dw.msteps_per_sec,
            urw.msteps_per_sec
        );
    }

    #[test]
    fn ppr_wastes_lanes() {
        let g = Dataset::LiveJournal.generate(ScaleFactor::Tiny);
        let urw = run(&WalkSpec::urw(80), g.clone(), 1024);
        let ppr = run(&WalkSpec::ppr(80), g, 1024);
        assert!(ppr.live_lane_fraction < 0.4, "{}", ppr.live_lane_fraction);
        assert!(
            ppr.live_lane_fraction < urw.live_lane_fraction,
            "geometric PPR lengths must diverge warps"
        );
    }

    #[test]
    fn walks_are_valid_and_deterministic() {
        let g = Dataset::CitPatents.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(16);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::random(p.graph().vertex_count(), 128, 1);
        let a = GSampler::new().run(&p, &spec, qs.queries());
        let b = GSampler::new().run(&p, &spec, qs.queries());
        assert_eq!(a.paths, b.paths);
        for w in &a.paths {
            for pair in w.vertices.windows(2) {
                assert!(p.graph().has_edge(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn launch_overhead_can_bind_tiny_runs() {
        let g = RmatConfig::balanced(8, 8).seed(0).generate();
        let spec = WalkSpec::urw(20);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::random(p.graph().vertex_count(), 32, 0);
        let mut model = GSampler::new();
        model.spec.launch_overhead_us = 1000.0;
        let r = model.run(&p, &spec, qs.queries());
        assert_eq!(r.bound, GpuBound::Launch);
    }
}
