//! The repository benchmark: seeded open-loop workloads replayed through
//! `Router` → driver → `WalkBackend` shards → delivery.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced rounds; `--trace
//! 1` alternates untraced and traced rounds (timing adapters on every
//! public layer boundary) and prints the per-layer metrics. The run is
//! split over child processes (`parts.rs`). Every round is checked for
//! exactly-once delivery and for the walk digest and tick totals of its
//! stream's first round; the output is a human-readable table ending in
//! one JSON line. See `README.md` beside this crate.

mod adapter;
mod inputs;
mod parts;
mod replay;
mod report;
mod stats;
mod workloads;

use adapter::{FleetOpts, Layers, Queries, Setup, SetupTimes};
use inputs::{Starts, Stream};
use parts::{Part, RoundFigures, PARTS};
use replay::{replay, Round};
use report::{peak_rss_mb, ratio, result_json, Machine, Metric};
use stats::{digest, hist_percentile, median, merge_hist, self_ns};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <urw-lj-threaded|ppr-tenants-inline|\
n2v-mixed-routed> --seed <u64> --seconds <1..=3600> --trace <0|1>";

/// The parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child process: which part of how many it runs.
    part: Option<(u32, u32)>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut part = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected a u64"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("expected whole seconds"))?;
                if !(1..=3600).contains(&s) {
                    return Err(bad("expected 1..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--part" => {
                let (i, k) = value.split_once('/').ok_or_else(|| bad("expected i/k"))?;
                match (i.parse(), k.parse()) {
                    (Ok(i), Ok(k)) if (1..=k).contains(&i) => part = Some((i, k)),
                    _ => return Err(bad("expected i/k with 1 <= i <= k")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        part,
    })
}

/// One workload's inputs and the checks every round passes through.
struct Bench {
    workload: Workload,
    setup: Setup,
    setups: Vec<SetupTimes>,
    streams: Vec<(Stream, Queries)>,
    attempted: u64,
    failed: u64,
    /// Digest and tick totals of each stream's first round; every later
    /// round of the stream must repeat them, whatever driver, hub or
    /// adapters it ran with.
    reference: Vec<Option<(u64, [u64; 4])>>,
    violations: Vec<String>,
}

impl Bench {
    /// Sets the workload up `workload.setups()` times (timing each) and
    /// generates its streams from `seed`.
    fn new(workload: Workload, seed: u64) -> Self {
        let mut setup = None;
        let mut setups = Vec::new();
        for _ in 0..workload.setups() {
            // Drop the previous set-up first, so two graphs never coexist.
            drop(setup.take());
            let s = Setup::new(workload, seed);
            setups.push(s.times);
            setup = Some(s);
        }
        let setup = setup.expect("at least one set-up");
        let starts = match workload.hub_starts() {
            Some(k) => Starts::Among(setup.top_degree(k)),
            None => Starts::Uniform {
                vertices: setup.vertex_count(),
            },
        };
        let streams: Vec<(Stream, Queries)> = (0..workload.streams())
            .map(|k| {
                let stream = inputs::stream(
                    seed,
                    k as u64,
                    workload.round_queries(),
                    &starts,
                    workload.tenants(),
                    workload.arrivals(),
                );
                let queries = setup.queries(&stream.starts);
                (stream, queries)
            })
            .collect();
        Self {
            workload,
            setup,
            setups,
            reference: vec![None; streams.len()],
            streams,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
        }
    }

    /// Replays stream `k` once and checks the round.
    fn round(&mut self, k: usize, opts: FleetOpts) -> Round {
        let (stream, queries) = &self.streams[k];
        let r = replay(&self.setup, k, stream, queries, opts);
        self.attempted += stream.arrivals.len() as u64;
        self.failed += r.failed;
        let seen = (r.digest, r.tick_totals);
        match self.reference[k] {
            None => self.reference[k] = Some(seen),
            Some(want) if want != seen => self.violations.push(format!(
                "stream {k} {opts:?}: digest {:#018x} tick totals {:?}, \
                 its first round had {:#018x} {:?}",
                seen.0, seen.1, want.0, want.1
            )),
            Some(_) => {}
        }
        r
    }

    /// Rounds of `kinds` in turn on each stream in turn — every stream
    /// at least once, then as many more as fit in `budget` at the pace of
    /// the last cycle. Returns the rounds of each kind.
    fn cycles(&mut self, kinds: &[FleetOpts], budget: Duration) -> Vec<Vec<Round>> {
        let mut rounds: Vec<Vec<Round>> = kinds.iter().map(|_| Vec::new()).collect();
        let start = Instant::now();
        let mut last = Duration::ZERO;
        for i in 0.. {
            let k = i % self.streams.len();
            if i >= self.streams.len() && start.elapsed() + last > budget {
                break;
            }
            let cycle = Instant::now();
            for (kind, out) in kinds.iter().zip(&mut rounds) {
                out.push(self.round(k, *kind));
            }
            last = cycle.elapsed();
        }
        rounds
    }

    /// Digests and tick totals of every stream, for comparison across
    /// processes.
    fn deterministic(&self) -> String {
        let refs: Vec<(u64, [u64; 4])> = self.reference.iter().flatten().copied().collect();
        let sum = |i: usize| refs.iter().map(|r| r.1[i]).sum::<u64>();
        format!(
            "digest={:#018x} ticks={} latency_ticks_sum={} batch_wait_ticks_sum={} \
             backend_ticks_sum={}",
            digest(
                refs.iter()
                    .enumerate()
                    .map(|(k, r)| r.0.rotate_left(k as u32))
            ),
            sum(0),
            sum(1),
            sum(2),
            sum(3)
        )
    }
}

/// Median over rounds of one per-round figure.
fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// The per-layer metrics of a traced run from its `untraced`, `traced`
/// and `extra` rounds, one of each per cycle on one stream; `extra` is the
/// inline replay of the threaded workload or the hub-free replay of the
/// hub workload. Counts are summed over the first traced round of each
/// stream, so they repeat exactly for a seed; times are medians over
/// every traced round.
fn per_layer(bench: &Bench, untraced: &[Round], traced: &[Round], extra: &[Round]) -> Vec<Metric> {
    let w = bench.workload;
    let setup = |f: fn(&SetupTimes) -> f64| median(&bench.setups.iter().map(f).collect::<Vec<_>>());
    let layers = |r: &Round| r.end.layers.expect("a traced round");
    // The first round of each stream (cycles visit every stream in order).
    let pass = |rounds: &[Round]| rounds[..bench.streams.len()].to_vec();
    let first_traced = pass(traced);
    let sum = |f: fn(&Round, &Layers) -> u64| -> f64 {
        first_traced.iter().map(|r| f(r, &layers(r))).sum::<u64>() as f64
    };
    let per_round = |f: fn(&Round, &Layers) -> f64| med(traced, |r| f(r, &layers(r)));
    // Rounds of one cycle replay the same stream back to back, so their
    // ratios compare like with like under the same machine load.
    let paired = |a: &[Round], b: &[Round], f: fn(&Round, &Round) -> f64| {
        median(&a.iter().zip(b).map(|(x, y)| f(x, y)).collect::<Vec<_>>())
    };
    // Threads hosting shards: one per shard under the threaded driver,
    // the driving thread alone under the inline one.
    fn share(r: &Round, ns: u64) -> f64 {
        let l = r.end.layers.expect("a traced round");
        let hosts = if r.end.threaded {
            (l.cpu.shards + l.accel.shards) as f64
        } else {
            1.0
        };
        ratio(ns as f64, hosts * r.drive_s * 1e9)
    }
    // Driving-thread time in `Router` calls.
    fn calls_ns(r: &Round) -> u64 {
        let c = r.end.calls;
        c.submit_ns + c.tick_ns + c.finish_ns
    }
    let threaded_vs_inline = match w {
        Workload::UrwLjThreaded => paired(untraced, extra, |u, e| {
            ratio(u.walks_per_s(), e.walks_per_s())
        }),
        _ => 0.0,
    };
    let obs_overhead = match w {
        Workload::PprTenantsInline => paired(untraced, extra, |u, e| {
            1.0 - ratio(u.walks_per_s(), e.walks_per_s())
        }),
        _ => 0.0,
    };
    let obs_dropped: u64 = pass(untraced)
        .iter()
        .map(|r| r.end.obs_dropped.unwrap_or(0))
        .sum();
    let walks = sum(|r, _| r.delivered as u64);
    vec![
        Metric::new("graph.generate_s", setup(|t| t.generate_s), "s"),
        Metric::new("algo.prepare_s", setup(|t| t.prepare_s), "s"),
        Metric::new("service.build_s", setup(|t| t.build_s), "s"),
        Metric::new(
            "route.submit_ns_per_query",
            per_round(|r, _| ratio(r.end.calls.submit_ns as f64, r.end.calls.accepted as f64)),
            "ns/query",
        ),
        Metric::new(
            "route.policy_ns_per_call",
            per_round(|_, l| ratio(l.place_ns as f64, l.place_calls as f64)),
            "ns/call",
        ),
        Metric::new(
            "route.submit_calls",
            sum(|r, _| r.end.calls.submits),
            "count",
        ),
        Metric::new(
            "route.partial_submits",
            sum(|r, _| r.end.calls.partial_submits),
            "count",
        ),
        Metric::new("route.migrations", sum(|_, l| l.migrations), "count"),
        Metric::new(
            "route.accel_share",
            ratio(
                sum(|_, l| l.accel.accepted),
                sum(|_, l| l.accel.accepted + l.cpu.accepted),
            ),
            "fraction",
        ),
        Metric::new(
            "service.coordinator_wait_frac",
            per_round(|r, l| {
                if r.end.threaded {
                    ratio(self_ns(calls_ns(r), &[l.place_ns]) as f64, r.drive_s * 1e9)
                } else {
                    0.0
                }
            }),
            "fraction",
        ),
        Metric::new(
            "service.worker_busy_frac",
            per_round(|r, l| share(r, l.cpu.busy_ns() + l.accel.busy_ns())),
            "fraction",
        ),
        Metric::new("service.threaded_vs_inline", threaded_vs_inline, "ratio"),
        Metric::new(
            "service.self_ns_per_query",
            per_round(|r, l| {
                let same_thread_backends = if r.end.threaded {
                    0
                } else {
                    l.cpu.busy_ns() + l.accel.busy_ns()
                };
                let nested = [l.place_ns, same_thread_backends, l.sink_accept_ns];
                ratio(self_ns(calls_ns(r), &nested) as f64, r.delivered as f64)
            }),
            "ns/query",
        ),
        Metric::new(
            "service.tick_ns_per_tick",
            per_round(|r, _| ratio(r.end.calls.tick_ns as f64, r.end.calls.ticks as f64)),
            "ns/tick",
        ),
        Metric::new(
            "service.finish_s",
            per_round(|r, _| r.end.calls.finish_ns as f64 / 1e9),
            "s",
        ),
        Metric::new("service.ticks", sum(|r, _| r.tick_totals[0]), "count"),
        Metric::new(
            "service.batch_wait_ticks_mean",
            ratio(sum(|r, _| r.tick_totals[2]), walks),
            "ticks",
        ),
        Metric::new(
            "service.backend_ticks_mean",
            ratio(sum(|r, _| r.tick_totals[3]), walks),
            "ticks",
        ),
        Metric::new("algo.steps", sum(|_, l| l.cpu.steps), "count"),
        Metric::new(
            "algo.steps_per_walk",
            ratio(sum(|_, l| l.cpu.steps), sum(|_, l| l.cpu.paths)),
            "steps/walk",
        ),
        Metric::new(
            "algo.ns_per_step",
            per_round(|_, l| ratio(l.cpu.busy_ns() as f64, l.cpu.steps as f64)),
            "ns/step",
        ),
        Metric::new(
            "algo.ns_per_walk",
            per_round(|_, l| ratio(l.cpu.busy_ns() as f64, l.cpu.paths as f64)),
            "ns/walk",
        ),
        Metric::new(
            "algo.ns_per_poll",
            per_round(|_, l| ratio(l.cpu.poll_ns as f64, l.cpu.polls as f64)),
            "ns/poll",
        ),
        Metric::new(
            "algo.empty_poll_frac",
            ratio(sum(|_, l| l.cpu.empty_polls), sum(|_, l| l.cpu.polls)),
            "fraction",
        ),
        Metric::new(
            "algo.alias_cache_hit_ratio",
            ratio(
                sum(|_, l| l.cpu.cache_hits),
                sum(|_, l| l.cpu.cache_hits + l.cpu.alias_builds),
            ),
            "fraction",
        ),
        Metric::new(
            "algo.wall_frac",
            per_round(|r, l| share(r, l.cpu.busy_ns())),
            "fraction",
        ),
        Metric::new(
            "ridgewalker.sim_cycles",
            sum(|_, l| l.accel.cycles),
            "cycles",
        ),
        Metric::new(
            "ridgewalker.bubble_ratio",
            ratio(
                sum(|_, l| l.accel.bubble_cycles),
                sum(|_, l| l.accel.busy_cycles + l.accel.bubble_cycles),
            ),
            "fraction",
        ),
        Metric::new(
            "ridgewalker.sim_mcycles_per_s",
            per_round(|_, l| ratio(l.accel.cycles as f64 * 1e3, l.accel.busy_ns() as f64)),
            "Mcycles/s",
        ),
        Metric::new(
            "ridgewalker.host_ns_per_sim_step",
            per_round(|_, l| ratio(l.accel.busy_ns() as f64, l.accel.steps as f64)),
            "ns/step",
        ),
        Metric::new(
            "ridgewalker.wall_frac",
            per_round(|r, l| share(r, l.accel.busy_ns())),
            "fraction",
        ),
        Metric::new("sink.accepted", sum(|_, l| l.sink_accepted), "count"),
        Metric::new(
            "sink.backpressured",
            sum(|_, l| l.sink_backpressured),
            "count",
        ),
        Metric::new(
            "sink.ns_per_accept",
            per_round(|_, l| {
                ratio(
                    l.sink_accept_ns as f64,
                    (l.sink_accepted + l.sink_backpressured) as f64,
                )
            }),
            "ns/walk",
        ),
        Metric::new(
            "sink.wall_frac",
            per_round(|r, l| share(r, l.sink_accept_ns)),
            "fraction",
        ),
        Metric::new("obs.overhead_frac", obs_overhead, "fraction"),
        Metric::new("obs.dropped_events", obs_dropped as f64, "count"),
        Metric::new(
            "trace.overhead_frac",
            paired(traced, untraced, |t, u| t.wall_s / u.wall_s - 1.0),
            "fraction",
        ),
        Metric::new(
            "failed_frac",
            ratio(bench.failed as f64, bench.attempted as f64),
            "fraction",
        ),
    ]
}

/// Runs one part in this process and prints it for the parent.
fn run_part(args: &Args, parts: u32) -> ExitCode {
    let budget = Duration::from_secs_f64(args.seconds as f64 / f64::from(parts));
    let mut bench = Bench::new(args.workload, args.seed);
    let mut part = Part::default();
    let untraced = if args.trace {
        let extra = match args.workload {
            Workload::UrwLjThreaded => Some(FleetOpts {
                inline: true,
                ..FleetOpts::default()
            }),
            Workload::PprTenantsInline => Some(FleetOpts {
                no_obs: true,
                ..FleetOpts::default()
            }),
            Workload::N2vMixedRouted => None,
        };
        let traced = FleetOpts {
            traced: true,
            ..FleetOpts::default()
        };
        let kinds: Vec<FleetOpts> = [Some(FleetOpts::default()), Some(traced), extra]
            .into_iter()
            .flatten()
            .collect();
        let mut rounds = bench.cycles(&kinds, budget);
        let extra: &[Round] = rounds.get(2).map_or(&[], Vec::as_slice);
        part.metrics = per_layer(&bench, &rounds[0], &rounds[1], extra);
        part.delivered = rounds.iter().flatten().map(|r| r.delivered as u64).sum();
        rounds.swap_remove(0)
    } else {
        let mut rounds = bench.cycles(&[FleetOpts::default()], budget);
        part.delivered = rounds[0].iter().map(|r| r.delivered as u64).sum();
        rounds.swap_remove(0)
    };
    let mut finite = |name: &str, x: f64| {
        if x.is_finite() {
            x
        } else {
            bench
                .violations
                .push(format!("{name} is not a finite number"));
            0.0
        }
    };
    part.rounds = untraced
        .iter()
        .map(|r| RoundFigures {
            stream: r.stream,
            walks_per_s: finite("walks_per_s", r.walks_per_s()),
            p50_us: finite("latency_p50_us", r.latency_us.0),
            p99_us: finite("latency_p99_us", r.latency_us.1),
        })
        .collect();
    for m in &mut part.metrics {
        m.value = finite(&m.name, m.value);
    }
    // Tick latencies over every stream's walks, from each stream's first
    // untraced round (all its rounds agree).
    let mut hist = Vec::new();
    for k in 0..bench.streams.len() {
        if let Some(r) = untraced.iter().find(|r| r.stream == k) {
            merge_hist(&mut hist, &r.tick_hist);
        }
    }
    part.ticks = (
        hist_percentile(&hist, 50.0).unwrap_or(0),
        hist_percentile(&hist, 99.0).unwrap_or(0),
    );
    part.setups = bench.setups.iter().map(SetupTimes::total_s).collect();
    part.peak_rss_mb = peak_rss_mb();
    if bench.failed > 0 {
        bench.violations.push(format!(
            "{} of {} queries not delivered exactly once to their own tenant",
            bench.failed, bench.attempted
        ));
    }
    part.deterministic = bench.deterministic();
    part.attempted = bench.attempted;
    part.failed = bench.failed;
    part.correct = bench.violations.is_empty();
    part.violations = bench.violations;
    print!("{}", part.render());
    if part.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every part as a child process, one after another, and prints the
/// combined result.
fn run_parts(args: &Args) -> ExitCode {
    let machine = Machine::read();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} parallelism={} cpu=\"{}\" l2={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        machine.parallelism,
        machine.cpu,
        machine.l2,
    );
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut parts = Vec::new();
    for i in 1..=PARTS {
        let seed = args.seed.to_string();
        let seconds = args.seconds.to_string();
        let part = format!("{i}/{PARTS}");
        let trace = if args.trace { "1" } else { "0" };
        // `output` waits for the child to exit.
        let child = Command::new(&exe)
            .args(["--workload", args.workload.name(), "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", trace, "--part", &part])
            .stderr(Stdio::inherit())
            .output();
        let parsed = child
            .map_err(|e| e.to_string())
            .and_then(|out| Part::parse(&String::from_utf8_lossy(&out.stdout)));
        match parsed {
            Ok(p) => {
                println!(
                    "# part {part}: {} queries, {} walks, {} rounds, {} failed, peak {:.1} MiB",
                    p.attempted,
                    p.delivered,
                    p.rounds.len(),
                    p.failed,
                    p.peak_rss_mb
                );
                parts.push(p);
            }
            Err(e) => {
                eprintln!("perfbench: part {part} gave no result: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut violations: Vec<String> = parts.iter().flat_map(|p| p.violations.clone()).collect();
    if parts
        .iter()
        .any(|p| p.deterministic != parts[0].deterministic)
    {
        violations.push("parts with one seed disagree on walks or tick totals".into());
    }
    let attempted = parts.iter().map(|p| p.attempted).sum();
    let failed = parts.iter().map(|p| p.failed).sum();
    let delivered: u64 = parts.iter().map(|p| p.delivered).sum();
    let rounds: usize = parts.iter().map(|p| p.rounds.len()).sum();
    let metrics = if args.trace {
        parts::per_layer(&parts)
    } else {
        parts::end_to_end(&parts)
    };
    println!("# deterministic: {}", parts[0].deterministic);
    println!(
        "# {delivered} walks delivered; latency percentiles are per round over its walks; \
         {rounds} untraced rounds over {} streams and {PARTS} processes",
        args.workload.streams()
    );
    for m in &metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for v in &violations {
        println!("# VIOLATION {v}");
    }
    let correct = violations.is_empty() && parts.iter().all(|p| p.correct);
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.part {
        Some((_, parts)) => run_part(&args, parts),
        None => run_parts(&args),
    }
}
