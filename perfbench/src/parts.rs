//! A run is split over [`PARTS`] child processes run one after another.
//! Each sets the workload up, measures its share of `--seconds` and
//! reports a [`Part`]; the parent combines them. One process's luck —
//! where its pages land in the physically indexed caches, say — then
//! moves a run's figures less, and the parts check each other: one seed
//! must give every process the same walks.

use crate::report::Metric;
use crate::stats::{median, quantile};
use std::fmt::Write as _;

/// Child processes per run.
pub const PARTS: u32 = 4;

/// Share of rounds the wall-clock figures are taken beyond. Other tenants
/// of the machine only ever slow a round down, so each stream's figures
/// come from its least-disturbed tenth of rounds: the 90th percentile of
/// throughput and the 10th of latency.
pub const UNDISTURBED: f64 = 0.1;

/// The wall-clock figures of one untraced round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundFigures {
    /// Which stream the round replayed.
    pub stream: usize,
    /// Delivered walks per second.
    pub walks_per_s: f64,
    /// Median due-to-delivery latency of its walks, µs.
    pub p50_us: f64,
    /// 99th-percentile due-to-delivery latency of its walks, µs.
    pub p99_us: f64,
}

/// What one part measured and checked.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Part {
    /// Whether every check of the part passed.
    pub correct: bool,
    /// Queries the part replayed.
    pub attempted: u64,
    /// Of those, queries not delivered exactly once to their own tenant.
    pub failed: u64,
    /// Walks the part delivered.
    pub delivered: u64,
    /// Digests and tick totals of its streams: equal for equal seeds.
    pub deterministic: String,
    /// Wall seconds of each complete set-up.
    pub setups: Vec<f64>,
    /// Peak resident memory of the process, MiB.
    pub peak_rss_mb: f64,
    /// Median and 99th-percentile arrival-to-delivery ticks over every
    /// stream's walks.
    pub ticks: (u64, u64),
    /// Untraced rounds.
    pub rounds: Vec<RoundFigures>,
    /// Per-layer metrics of a traced part.
    pub metrics: Vec<Metric>,
    /// Failed checks, one line each.
    pub violations: Vec<String>,
}

impl Part {
    /// The part as lines for its parent process to [`parse`](Self::parse).
    /// `{:?}` prints every digit of an f64.
    pub fn render(&self) -> String {
        let mut s = format!(
            "part-check {} {} {} {} {:?} {} {} {}\n",
            u8::from(self.correct),
            self.attempted,
            self.failed,
            self.delivered,
            self.peak_rss_mb,
            self.ticks.0,
            self.ticks.1,
            self.deterministic
        );
        for t in &self.setups {
            let _ = writeln!(s, "part-setup {t:?}");
        }
        for r in &self.rounds {
            let _ = writeln!(
                s,
                "part-round {} {:?} {:?} {:?}",
                r.stream, r.walks_per_s, r.p50_us, r.p99_us
            );
        }
        for m in &self.metrics {
            let _ = writeln!(s, "part-metric {} {:?} {}", m.name, m.value, m.unit);
        }
        for v in &self.violations {
            let _ = writeln!(s, "part-violation {v}");
        }
        s
    }

    /// Reads a part back from its rendered lines.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut part = Part::default();
        let mut checked = false;
        for line in text.lines() {
            let bad = || format!("bad line '{line}'");
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            let f: Vec<&str> = rest.split(' ').collect();
            let num = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).ok_or_else(bad);
            let int = |i: usize| f.get(i).and_then(|x| x.parse::<u64>().ok()).ok_or_else(bad);
            match kind {
                "part-check" => {
                    part.correct = int(0)? == 1;
                    part.attempted = int(1)?;
                    part.failed = int(2)?;
                    part.delivered = int(3)?;
                    part.peak_rss_mb = num(4)?;
                    part.ticks = (int(5)?, int(6)?);
                    part.deterministic = rest.splitn(8, ' ').nth(7).ok_or_else(bad)?.into();
                    checked = true;
                }
                "part-setup" => part.setups.push(num(0)?),
                "part-round" => part.rounds.push(RoundFigures {
                    stream: int(0)? as usize,
                    walks_per_s: num(1)?,
                    p50_us: num(2)?,
                    p99_us: num(3)?,
                }),
                "part-metric" if f.len() == 3 => {
                    part.metrics.push(Metric::new(f[0], num(1)?, f[2]))
                }
                "part-violation" => part.violations.push(rest.into()),
                _ => return Err(bad()),
            }
        }
        if checked {
            Ok(part)
        } else {
            Err("no check line".into())
        }
    }
}

/// The end-to-end metrics of untraced parts. Per stream, each wall-clock
/// figure is taken from the least-disturbed rounds of every part (see
/// [`UNDISTURBED`]) and the streams are averaged; the tick latencies are
/// deterministic, set-up time is the median over every set-up, and the
/// memory peak is the median over the parts' processes.
///
/// # Panics
///
/// Panics if `parts` is empty or no part has a round.
pub fn end_to_end(parts: &[Part]) -> Vec<Metric> {
    let rounds: Vec<&RoundFigures> = parts.iter().flat_map(|p| &p.rounds).collect();
    let streams = 1 + rounds.iter().map(|r| r.stream).max().expect("rounds ran");
    let per_stream = |q: f64, f: fn(&RoundFigures) -> f64| {
        let sum: f64 = (0..streams)
            .map(|k| {
                let v: Vec<f64> = rounds
                    .iter()
                    .filter(|r| r.stream == k)
                    .map(|r| f(r))
                    .collect();
                quantile(&v, q)
            })
            .sum();
        sum / streams as f64
    };
    let setups: Vec<f64> = parts
        .iter()
        .flat_map(|p| p.setups.iter().copied())
        .collect();
    let ticks = parts[0].ticks;
    vec![
        Metric::new(
            "walks_per_s",
            per_stream(1.0 - UNDISTURBED, |r| r.walks_per_s),
            "1/s",
        ),
        Metric::new(
            "latency_p50_us",
            per_stream(UNDISTURBED, |r| r.p50_us),
            "us",
        ),
        Metric::new(
            "latency_p99_us",
            per_stream(UNDISTURBED, |r| r.p99_us),
            "us",
        ),
        Metric::new("latency_p50_ticks", ticks.0 as f64, "ticks"),
        Metric::new("latency_p99_ticks", ticks.1 as f64, "ticks"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new(
            "peak_rss_mb",
            median(&parts.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()),
            "MiB",
        ),
    ]
}

/// Per-layer metrics of traced parts: each the median over parts, in the
/// first part's order.
///
/// # Panics
///
/// Panics if `parts` is empty or a part lacks a metric of the first.
pub fn per_layer(parts: &[Part]) -> Vec<Metric> {
    parts[0]
        .metrics
        .iter()
        .map(|m| {
            let values: Vec<f64> = parts
                .iter()
                .map(|p| {
                    p.metrics
                        .iter()
                        .find(|x| x.name == m.name)
                        .expect("every part reports every metric")
                        .value
                })
                .collect();
            Metric::new(&m.name, median(&values), &m.unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(stream: usize, walks_per_s: f64, p50_us: f64) -> RoundFigures {
        RoundFigures {
            stream,
            walks_per_s,
            p50_us,
            p99_us: p50_us * 4.0,
        }
    }

    fn part(rounds: Vec<RoundFigures>, rss: f64) -> Part {
        Part {
            correct: true,
            attempted: 100,
            failed: 0,
            delivered: 100,
            deterministic: "digest=0x1 ticks=7".into(),
            setups: vec![0.5, 0.25],
            peak_rss_mb: rss,
            ticks: (1, 3),
            rounds,
            metrics: vec![Metric::new("algo.steps", rss, "count")],
            violations: vec!["one check failed".into()],
        }
    }

    #[test]
    fn parts_round_trip_through_their_lines() {
        let p = part(vec![round(0, 1_234.567_890_123, 0.1 + 0.2)], 12.5);
        assert_eq!(Part::parse(&p.render()), Ok(p));
        assert!(Part::parse("part-setup 1.0").is_err());
        assert!(Part::parse("part-check 1 2 3 4 5.0 1 1 x\npart-metric x 1").is_err());
    }

    #[test]
    fn end_to_end_takes_undisturbed_rounds_per_stream() {
        // Stream 0's eleven rounds: throughput 100..=110, latency 10..=20.
        let s0: Vec<RoundFigures> = (0..=10)
            .map(|i| round(0, 100.0 + f64::from(i), 20.0 - f64::from(i)))
            .collect();
        let parts = [
            part(s0[..6].to_vec(), 30.0),
            part([&s0[6..], &[round(1, 300.0, 5.0)]].concat(), 40.0),
        ];
        let m = end_to_end(&parts);
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        // 90th percentile of 100..=110 is 109; stream 1 has one round.
        assert_eq!(get("walks_per_s"), (109.0 + 300.0) / 2.0);
        assert_eq!(get("latency_p50_us"), (11.0 + 5.0) / 2.0);
        assert_eq!(get("latency_p50_ticks"), 1.0);
        assert_eq!(get("setup_s"), (0.25 + 0.5) / 2.0);
        assert_eq!(get("peak_rss_mb"), 35.0);
    }

    #[test]
    fn per_layer_takes_medians_over_parts() {
        let parts = [part(vec![], 3.0), part(vec![], 1.0), part(vec![], 2.0)];
        assert_eq!(per_layer(&parts)[0].value, 2.0);
    }
}
