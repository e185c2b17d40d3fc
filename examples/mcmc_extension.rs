//! Beyond GRWs: Metropolis–Hastings sampling on a graph — the paper's
//! discussion (§IX) argues the perfect-pipelining strategy generalizes to
//! MCMC workloads, whose runtime dependencies and random-access latency
//! look exactly like GRW hops.
//!
//! This example builds an MH chain over graph vertices targeting the
//! stationary distribution π(v) ∝ deg(v)^β using the suite's substrate
//! (CSR graph, uniform proposals, keyed per-step RNG), and checks the
//! empirical distribution against the target. Each MH step is the same
//! stateless tuple shape the accelerator executes: ⟨v_curr, chain id,
//! step⟩, drawing from the walk stream keyed by `(seed, chain, step)`.
//!
//! ```text
//! cargo run --release --example mcmc_extension
//! ```

use ridgewalker_suite::graph::generators::RmatConfig;
use ridgewalker_suite::graph::CsrGraph;
use ridgewalker_suite::rng::{RandomSource, WalkKey};

/// One Metropolis–Hastings hop with uniform neighbor proposals.
///
/// Proposal: uniform over N(cur); acceptance for target π(v) ∝ deg(v)^β
/// with uniform proposals q(v|u) = 1/deg(u):
/// `a = min(1, (deg(v)^β · deg(v)⁻¹·…))` — the Hastings correction makes
/// the ratio `(deg(v)/deg(u))^(β-1)`.
fn mh_step<G: RandomSource>(graph: &CsrGraph, cur: u32, beta: f64, rng: &mut G) -> u32 {
    let deg_u = graph.degree(cur);
    if deg_u == 0 {
        return cur;
    }
    let idx = rng.next_below(u64::from(deg_u)) as usize;
    let cand = graph.neighbors(cur)[idx];
    let deg_v = graph.degree(cand).max(1);
    let ratio = (f64::from(deg_v) / f64::from(deg_u)).powf(beta - 1.0);
    if rng.next_f64() < ratio.min(1.0) {
        cand
    } else {
        cur
    }
}

fn main() {
    // Connected undirected graph (MH needs reversible proposals).
    let graph = RmatConfig::balanced(9, 10).seed(5).generate();
    let n = graph.vertex_count();
    let beta = 2.0; // sample vertices proportional to squared degree

    // Many independent chains = many concurrent "queries", exactly the
    // parallelism the accelerator exploits. The walk stream keyed by
    // (seed, chain, step) keeps every step stateless.
    let chains = 512usize;
    let burn_in = 400u32;
    let samples_per_chain = 2_000u32;

    let mut counts = vec![0u64; n];
    for chain in 0..chains as u64 {
        let key = WalkKey::new(0x3C3C, chain);
        let mut cur = (chain as u32 * 2_654_435_761) % n as u32;
        for step in 0..burn_in + samples_per_chain {
            let mut rng = key.hop(step);
            cur = mh_step(&graph, cur, beta, &mut rng);
            if step >= burn_in {
                counts[cur as usize] += 1;
            }
        }
    }

    // Compare empirical vs target distribution.
    let target: Vec<f64> = (0..n as u32)
        .map(|v| f64::from(graph.degree(v)).powf(beta))
        .collect();
    let z: f64 = target.iter().sum();
    let total: u64 = counts.iter().sum();
    let l1: f64 = counts
        .iter()
        .zip(&target)
        .map(|(&c, &t)| (c as f64 / total as f64 - t / z).abs())
        .sum();

    let mut top: Vec<usize> = (0..n).collect();
    top.sort_by_key(|&v| std::cmp::Reverse(counts[v]));
    println!("Metropolis-Hastings over {} vertices, beta = {beta}", n);
    println!("vertex   empirical   target    degree");
    for &v in top.iter().take(8) {
        println!(
            "{v:>6}   {:>9.5}   {:.5}   {:>6}",
            counts[v] as f64 / total as f64,
            target[v] / z,
            graph.degree(v as u32)
        );
    }
    println!("\nL1 distance empirical vs target: {l1:.4}");
    println!(
        "({} chains x {} samples, stateless keyed steps)",
        chains, samples_per_chain
    );
    assert!(l1 < 0.15, "MH chain failed to converge (L1 = {l1:.3})");
}
