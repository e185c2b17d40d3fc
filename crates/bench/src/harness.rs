//! Shared experiment plumbing: configuration, execution, series, rendering.

use crate::table::{fmt_speedup, Table};
use grw_algo::{run_streamed, PreparedGraph, WalkQuery, WalkSpec};
use grw_graph::generators::ScaleFactor;
use ridgewalker::{Accelerator, RunReport};
use std::fmt;

/// Executes queries on an accelerator through the streaming
/// [`grw_algo::WalkBackend`] interface — the same code path the
/// `grw_service` serving layer drives — and returns the familiar
/// [`RunReport`] with the completed paths attached in query order.
///
/// The whole workload is submitted before the first poll, so the machine
/// runs it as one stream and the report is bit-identical to
/// `Accelerator::run`; the figures measure the serving-layer execution
/// path without changing what they measure.
pub fn run_accelerator_streamed(
    accel: &Accelerator,
    prepared: &PreparedGraph,
    spec: &WalkSpec,
    queries: &[WalkQuery],
) -> RunReport {
    // Size the backend queue to the workload: a workload larger than the
    // default capacity would otherwise be polled in before it is all
    // submitted and measure a different execution than `Accelerator::run`.
    let mut backend = accel
        .backend(prepared, spec)
        .queue_capacity(queries.len().max(1));
    let paths = run_streamed(&mut backend, queries);
    let mut report = backend.cumulative_report();
    report.paths = paths;
    report
}

/// Workload sizing for a harness run.
///
/// The paper's evaluation uses query length 80 and streams of queries; the
/// harness keeps the length and scales the query count with the dataset
/// stand-ins so every figure runs on a laptop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessConfig {
    /// Dataset stand-in scale.
    pub scale: ScaleFactor,
    /// Number of queries per run.
    pub queries: usize,
    /// Maximum walk length (the paper uses 80).
    pub walk_len: u32,
    /// Seed for query generation.
    pub seed: u64,
}

impl HarnessConfig {
    /// Unit-test scale: tiny graphs, small query batches.
    pub fn tiny() -> Self {
        Self {
            scale: ScaleFactor::Tiny,
            queries: 1_024,
            walk_len: 40,
            seed: 0xE0,
        }
    }

    /// Integration scale: the `repro` default.
    pub fn small() -> Self {
        Self {
            scale: ScaleFactor::Small,
            queries: 4_096,
            walk_len: 80,
            seed: 0xE0,
        }
    }

    /// Full harness scale: closest to the paper's setup.
    pub fn standard() -> Self {
        Self {
            scale: ScaleFactor::Standard,
            queries: 16_384,
            walk_len: 80,
            seed: 0xE0,
        }
    }

    /// Query count adjusted per algorithm. The paper issues queries as a
    /// continuous stream, so short-walk algorithms (PPR's geometric
    /// lengths, MetaPath's early terminations) see proportionally more
    /// queries per unit time; a fixed batch would leave the machine
    /// straggler-bound instead of throughput-bound. Scaling the batch by
    /// the expected length ratio reproduces the sustained-load regime.
    pub fn queries_for(&self, spec: &grw_algo::WalkSpec) -> usize {
        use grw_algo::WalkSpec;
        match spec {
            WalkSpec::Ppr { .. } => self.queries * 8,
            WalkSpec::MetaPath { .. } => self.queries * 4,
            _ => self.queries,
        }
    }
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// One labelled series of (x, value) points — one bar group of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label ("RidgeWalker", "gSampler", …).
    pub label: String,
    /// Points in x order; x is the category label (dataset, config, …).
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new<S: Into<String>>(label: S) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push<S: Into<String>>(&mut self, x: S, value: f64) -> &mut Self {
        self.points.push((x.into(), value));
        self
    }

    /// Value at category `x`, if present.
    pub fn value(&self, x: &str) -> Option<f64> {
        self.points.iter().find(|(k, _)| k == x).map(|&(_, v)| v)
    }
}

/// A regenerated table/figure: measured series, paper reference values,
/// and free-form notes.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Short id ("fig8a", "table3", …).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Unit of the series values ("MStep/s", "speedup", "%").
    pub unit: &'static str,
    /// Measured series.
    pub series: Vec<Series>,
    /// The paper's reported numbers for the same cells, where applicable.
    pub paper: Vec<Series>,
    /// Observations recorded alongside (used by EXPERIMENTS.md).
    pub notes: Vec<String>,
}

impl Experiment {
    /// Creates an empty experiment.
    pub fn new(id: &'static str, title: impl Into<String>, unit: &'static str) -> Self {
        Self {
            id,
            title: title.into(),
            unit,
            series: Vec::new(),
            paper: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Finds a measured series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Speedup of series `a` over series `b` at category `x`.
    ///
    /// # Panics
    ///
    /// Panics if either value is missing or the denominator is zero.
    pub fn speedup(&self, a: &str, b: &str, x: &str) -> f64 {
        let num = self
            .series(a)
            .and_then(|s| s.value(x))
            .unwrap_or_else(|| panic!("missing {a}/{x}"));
        let den = self
            .series(b)
            .and_then(|s| s.value(x))
            .unwrap_or_else(|| panic!("missing {b}/{x}"));
        assert!(den > 0.0, "zero denominator for {b}/{x}");
        num / den
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} — {} [{}]", self.id, self.title, self.unit)?;
        if self.series.is_empty() {
            return writeln!(f, "(no data)");
        }
        // One row per category of any series, in first-seen order: series
        // may cover different points (the theorem sweep's depths per N).
        let mut categories: Vec<String> = Vec::new();
        for (x, _) in self.series.iter().flat_map(|s| &s.points) {
            if !categories.contains(x) {
                categories.push(x.clone());
            }
        }
        let mut headers = vec!["".to_string()];
        headers.extend(self.series.iter().map(|s| s.label.clone()));
        // Per-category speedup column when exactly two series of the same
        // quantity share the same categories (comparison figures); mixed-
        // metric tables (e.g. throughput next to utilization) get none.
        let comparable = self.series.len() == 2
            && self.unit == "MStep/s"
            && categories
                .iter()
                .all(|x| self.series.iter().all(|s| s.value(x).is_some()));
        let speedup_pair = comparable.then(|| {
            headers.push("speedup".into());
            (self.series[1].label.clone(), self.series[0].label.clone())
        });
        for p in &self.paper {
            headers.push(format!("paper:{}", p.label));
        }
        let mut t = Table::new(headers);
        // Ratios and fractions need more precision than throughputs.
        let fmt = |v: f64| {
            if v.abs() < 10.0 {
                format!("{v:.3}")
            } else {
                format!("{v:.1}")
            }
        };
        for x in &categories {
            let mut row = vec![x.clone()];
            for s in &self.series {
                row.push(match s.value(x) {
                    Some(v) => fmt(v),
                    None => "-".into(),
                });
            }
            if let Some((ref fast, ref slow)) = speedup_pair {
                row.push(fmt_speedup(self.speedup(fast, slow, x)));
            }
            for p in &self.paper {
                row.push(match p.value(x) {
                    Some(v) => fmt(v),
                    None => "-".into(),
                });
            }
            t.row(row);
        }
        write!(f, "{t}")?;
        for n in &self.notes {
            writeln!(f, "note: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Experiment {
        let mut e = Experiment::new("figX", "demo", "MStep/s");
        let mut slow = Series::new("baseline");
        slow.push("WG", 100.0).push("LJ", 20.0);
        let mut fast = Series::new("ridgewalker");
        fast.push("WG", 220.0).push("LJ", 1400.0);
        e.series = vec![slow, fast];
        e
    }

    #[test]
    fn speedup_math() {
        let e = sample();
        assert!((e.speedup("ridgewalker", "baseline", "WG") - 2.2).abs() < 1e-9);
        assert!((e.speedup("ridgewalker", "baseline", "LJ") - 70.0).abs() < 1e-9);
    }

    #[test]
    fn display_contains_speedups() {
        let s = sample().to_string();
        assert!(s.contains("2.2x"), "{s}");
        assert!(s.contains("70.0x"), "{s}");
    }

    #[test]
    fn display_renders_the_union_of_series_labels() {
        let mut e = Experiment::new("thm", "depth sweep", "bubble ratio");
        let mut n4 = Series::new("N=4");
        n4.push("D=1", 0.5).push("D=9", 0.0);
        let mut n16 = Series::new("N=16");
        n16.push("D=1", 0.75).push("D=8", 0.125).push("D=17", 0.0);
        e.series = vec![n4, n16];
        let s = e.to_string();
        let rows: Vec<Vec<&str>> = s
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .filter(|cells| cells.first().is_some_and(|c| c.starts_with("D=")))
            .collect();
        assert_eq!(
            rows,
            vec![
                vec!["D=1", "0.500", "0.750"],
                vec!["D=9", "0.000", "-"],
                vec!["D=8", "-", "0.125"],
                vec!["D=17", "-", "0.000"],
            ],
            "{s}"
        );
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn missing_cell_panics() {
        let _ = sample().speedup("ridgewalker", "baseline", "XX");
    }

    #[test]
    fn configs_are_ordered_by_scale() {
        assert!(HarnessConfig::tiny().queries < HarnessConfig::small().queries);
        assert!(HarnessConfig::small().queries < HarnessConfig::standard().queries);
    }

    #[test]
    fn streamed_execution_reproduces_batch_run_exactly() {
        use grw_algo::QuerySet;
        use grw_graph::generators::{Dataset, ScaleFactor};
        use ridgewalker::AcceleratorConfig;

        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(10);
        let p = PreparedGraph::new(g, &spec).unwrap();
        let qs = QuerySet::random(p.graph().vertex_count(), 96, 2);
        let accel = Accelerator::new(AcceleratorConfig::new().pipelines(4));
        let batch = accel.run(&p, &spec, qs.queries());
        let streamed = run_accelerator_streamed(&accel, &p, &spec, qs.queries());
        assert_eq!(batch.paths, streamed.paths);
        assert_eq!(batch.cycles, streamed.cycles);
        assert_eq!(batch.steps, streamed.steps);
        assert!((batch.msteps_per_sec - streamed.msteps_per_sec).abs() < 1e-9);
    }
}
