//! Quickstart: simulate RidgeWalker executing DeepWalk on a small graph,
//! through the streaming submit/poll/drain interface: one persistent
//! cycle-level machine that later submissions join while it runs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ridgewalker_suite::accel::{Accelerator, AcceleratorConfig};
use ridgewalker_suite::algo::{PreparedGraph, QuerySet, WalkBackend, WalkSpec};
use ridgewalker_suite::graph::{weights, CsrGraph};

fn main() {
    // A toy social network: two communities bridged by vertex 4.
    let edges = [
        (0, 1),
        (0, 2),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (6, 7),
        (7, 5),
        (4, 0),
    ];
    let graph = CsrGraph::from_edges(8, &edges, false).with_weights(weights::thunder_rw(42));
    println!(
        "graph: {} vertices, {} directed edges",
        graph.vertex_count(),
        graph.edge_count()
    );

    // DeepWalk: weighted first-order walks via alias sampling, length 10.
    let spec = WalkSpec::deepwalk(10);
    let prepared = PreparedGraph::new(graph, &spec).expect("weighted graph");

    // One walk per vertex, like an embedding corpus pass.
    let queries = QuerySet::one_per_vertex(prepared.graph().vertex_count());

    // Open a streaming backend on an accelerator with 4 asynchronous
    // pipelines: queries go in incrementally (here: two waves, as a
    // serving front-end would submit them), paths come back from poll()
    // and drain().
    let config = AcceleratorConfig::new().pipelines(4).seed(7);
    let mut backend = Accelerator::new(config).backend(&prepared, &spec);

    let (first, second) = queries.queries().split_at(queries.len() / 2);
    let mut paths = Vec::new();
    assert_eq!(backend.submit(first), first.len());
    paths.extend(backend.poll()); // the machine runs one poll quantum here
    assert_eq!(backend.submit(second), second.len()); // joins the running machine
    paths.extend(backend.drain()); // runs until every walk is done
    paths.sort_by_key(|p| p.query);

    println!("\nwalks:");
    for path in &paths {
        println!("  q{}: {:?}", path.query, path.vertices);
    }

    // One machine ran both waves: one continuous report.
    let report = backend.cumulative_report();
    println!(
        "\nsimulated {} steps in {} cycles -> {:.1} MStep/s at {:.0} MHz",
        report.steps, report.cycles, report.msteps_per_sec, report.clock_mhz
    );
    println!(
        "pipeline utilization {:.1}%, bubble ratio {:.2}%",
        100.0 * report.pipeline_utilization,
        100.0 * report.bubble_ratio
    );
}
