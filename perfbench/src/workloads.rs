//! The three workloads: their names, why each exists, and the
//! benchmark-side shape of their traffic. The fleet each one runs on is
//! built in `adapter.rs`.

use crate::inputs::Arrivals;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// URW-80 on the LiveJournal stand-in, threaded driver.
    UrwLjThreaded,
    /// PPR on Tiny WebGoogle, 16 tenants into per-tenant sinks, live hub.
    PprTenantsInline,
    /// Weighted Node2Vec on a mixed accelerator/CPU fleet, adaptive routing.
    N2vMixedRouted,
}

impl Workload {
    /// Every workload, in the order the doc lists them.
    pub const ALL: [Workload; 3] = [
        Workload::UrwLjThreaded,
        Workload::PprTenantsInline,
        Workload::N2vMixedRouted,
    ];

    /// The name given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UrwLjThreaded => "urw-lj-threaded",
            Workload::PprTenantsInline => "ppr-tenants-inline",
            Workload::N2vMixedRouted => "n2v-mixed-routed",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Queries in one stream; one round replays one stream.
    pub fn round_queries(self) -> usize {
        match self {
            Workload::UrwLjThreaded => 4_096,
            Workload::PprTenantsInline => 262_144,
            Workload::N2vMixedRouted => 16_384,
        }
    }

    /// Distinct streams a run replays in turn. Bursty traffic needs
    /// several: how a seed's bursts fall moves one stream's tail latency
    /// far more than any code change should.
    pub fn streams(self) -> usize {
        match self {
            Workload::N2vMixedRouted => 16,
            _ => 1,
        }
    }

    /// Tenants sharing the stream, assigned round-robin.
    pub fn tenants(self) -> u16 {
        match self {
            Workload::UrwLjThreaded => 1,
            Workload::PprTenantsInline => 16,
            Workload::N2vMixedRouted => 8,
        }
    }

    /// The arrival process, in queries per logical tick.
    pub fn arrivals(self) -> Arrivals {
        match self {
            Workload::UrwLjThreaded | Workload::PprTenantsInline => {
                Arrivals::Poisson { per_tick: 256.0 }
            }
            Workload::N2vMixedRouted => Arrivals::Bursty {
                per_tick: 4.0,
                burstiness: 8.0,
            },
        }
    }

    /// Starts drawn from this many highest-degree vertices (`None`:
    /// uniform over all vertices).
    pub fn hub_starts(self) -> Option<usize> {
        match self {
            Workload::N2vMixedRouted => Some(128),
            _ => None,
        }
    }

    /// Complete set-ups per part of a run; `setup_s` is their median.
    pub fn setups(self) -> usize {
        match self {
            Workload::UrwLjThreaded => 1,
            Workload::PprTenantsInline | Workload::N2vMixedRouted => 13,
        }
    }
}
