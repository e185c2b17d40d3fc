//! Serving quickstart: a sharded, multi-tenant walk service under a
//! 10k-query mixed-tenant workload.
//!
//! Three tenants (a PPR-style recommender, an embedding-corpus builder
//! and an ad-hoc analytics client) stream queries into one `Driver`
//! backed by four two-worker `ReferenceBackend` shards over a shared
//! prepared graph.
//! Queries coalesce into size/deadline-bounded micro-batches, results
//! route back to the tenant that asked, and the service prints its
//! `ServiceStats` at the end.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use ridgewalker_suite::algo::{PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};
use ridgewalker_suite::graph::generators::{Dataset, ScaleFactor};
use ridgewalker_suite::service::{Driver, ServiceConfig, TenantId};
use std::collections::HashMap;
use std::sync::Arc;

fn main() {
    let graph = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(20);
    let vertex_count = graph.vertex_count();
    let prepared = Arc::new(PreparedGraph::new(graph, &spec).expect("unweighted graph"));
    println!(
        "graph: {} vertices, {} edges",
        vertex_count,
        prepared.graph().edge_count()
    );

    // Four shards, each a 2-worker in-memory walker over the shared graph.
    let cfg = ServiceConfig::new(4).max_batch(128).max_delay_ticks(2);
    let backend_graph = prepared.clone();
    let backend_spec = spec.clone();
    let mut service = Driver::new(cfg, move |shard| {
        ReferenceBackend::new(
            backend_graph.clone(),
            backend_spec.clone(),
            0x5EED ^ shard as u64,
        )
        .threads(2)
    });

    // A mixed-tenant workload: 10k queries across three tenants, arriving
    // interleaved in waves like traffic at a serving front-end.
    let tenants = [
        (TenantId(1), QuerySet::random(vertex_count, 5_000, 11)),
        (TenantId(2), QuerySet::random(vertex_count, 3_000, 22)),
        (TenantId(3), QuerySet::random(vertex_count, 2_000, 33)),
    ];
    let mut offsets = [0usize; 3];
    let mut delivered: HashMap<TenantId, u64> = HashMap::new();
    let wave = 256;

    loop {
        let mut any = false;
        for (i, (tenant, qs)) in tenants.iter().enumerate() {
            let queries = qs.queries();
            if offsets[i] >= queries.len() {
                continue;
            }
            let end = (offsets[i] + wave).min(queries.len());
            let mut part = &queries[offsets[i]..end];
            while !part.is_empty() {
                let taken = service.submit(*tenant, part);
                part = &part[taken..];
                if taken == 0 {
                    // Backpressure: let the service work a tick.
                    for walk in service.tick() {
                        *delivered.entry(walk.tenant).or_default() += 1;
                    }
                }
            }
            offsets[i] = end;
            any = true;
        }
        for walk in service.tick() {
            *delivered.entry(walk.tenant).or_default() += 1;
        }
        if !any {
            break;
        }
    }
    for walk in service.drain() {
        *delivered.entry(walk.tenant).or_default() += 1;
    }

    println!("\ndeliveries per tenant:");
    let mut tenants_seen: Vec<_> = delivered.iter().collect();
    tenants_seen.sort();
    for (tenant, count) in tenants_seen {
        println!("  {tenant}: {count} walks");
    }
    let expected: u64 = tenants.iter().map(|(_, qs)| qs.len() as u64).sum();
    let got: u64 = delivered.values().sum();
    assert_eq!(got, expected, "every query answered exactly once");

    println!("\n{}", service.stats());
}
