//! Personalized-PageRank aggregation over streaming walk terminals.

use grw_service::{CompletedWalk, SinkAck, SinkReport, WalkSink};
use std::collections::HashMap;

/// Folds walk terminals into the Monte-Carlo PPR estimate, incrementally.
///
/// The estimator: the fraction of PPR walks from a source that terminate
/// at `v` converges to `PPR(v)`. This sink keeps one count per *distinct*
/// terminal vertex plus an exact top-k ranking maintained on every
/// accept, so memory is O(distinct terminals + k) — independent of how
/// many walks stream through — and the ranking is available at any point
/// of the run, not only after a batch dump.
///
/// The incremental top-k is exact because counts only ever increase: the
/// sole vertex whose rank can change on an accept is the one just
/// incremented, so comparing it against the current k-th count is a
/// complete update.
///
/// It never backpressures ([`flush`](WalkSink::flush) is a no-op): the
/// fold *is* the downstream.
#[derive(Debug, Clone)]
pub struct PprAggregator {
    k: usize,
    counts: HashMap<u32, u64>,
    /// The k highest-counted vertices with their counts, descending
    /// (count, then vertex id ascending for determinism). Keeping each
    /// count beside its vertex lets a reposition compare without reading
    /// `counts`.
    top: Vec<(u32, u64)>,
    walks: u64,
    flushes: u64,
}

impl PprAggregator {
    /// Creates an aggregator maintaining a top-`k` ranking.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k needs k > 0");
        Self {
            k,
            counts: HashMap::new(),
            top: Vec::new(),
            walks: 0,
            flushes: 0,
        }
    }

    /// Walks folded so far.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Distinct terminal vertices observed.
    pub fn distinct_terminals(&self) -> usize {
        self.counts.len()
    }

    /// Terminal-visit count of `v`.
    pub fn count(&self, v: u32) -> u64 {
        self.counts.get(&v).copied().unwrap_or(0)
    }

    /// The PPR estimate for `v`: terminal visits over walks folded.
    pub fn estimate(&self, v: u32) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.count(v) as f64 / self.walks as f64
        }
    }

    /// The dense estimate vector over vertices `0..n` (for L1 comparison
    /// against an exact solver).
    pub fn estimates(&self, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        if self.walks == 0 {
            return out;
        }
        for (&v, &c) in &self.counts {
            if (v as usize) < n {
                out[v as usize] = c as f64 / self.walks as f64;
            }
        }
        out
    }

    /// The current top-k ranking as `(vertex, count, estimate)`,
    /// highest first. Ties break toward the smaller vertex id, so the
    /// ranking is deterministic for a fixed walk stream.
    pub fn top_k(&self) -> Vec<(u32, u64, f64)> {
        self.top
            .iter()
            .map(|&(v, c)| (v, c, self.estimate(v)))
            .collect()
    }

    /// Restores the ranking after `v`'s count was incremented to `count`.
    fn reposition(&mut self, v: u32, count: u64) {
        // Rank ordering: count descending, vertex id ascending.
        let ranks_before =
            |(a, ca): (u32, u64), (b, cb): (u32, u64)| ca > cb || (ca == cb && a < b);
        let mut i = match self.top.iter().position(|&(t, _)| t == v) {
            Some(i) => {
                self.top[i].1 = count;
                i
            }
            None if self.top.len() < self.k => {
                self.top.push((v, count));
                self.top.len() - 1
            }
            None => {
                let last = self.top.last_mut().expect("top is non-empty at capacity");
                if !ranks_before((v, count), *last) {
                    return;
                }
                *last = (v, count);
                self.top.len() - 1
            }
        };
        // Bubble the incremented vertex toward the front.
        while i > 0 && ranks_before(self.top[i], self.top[i - 1]) {
            self.top.swap(i, i - 1);
            i -= 1;
        }
    }
}

impl WalkSink for PprAggregator {
    fn accept(&mut self, walk: &CompletedWalk) -> SinkAck {
        let terminal = walk.path.last();
        let count = self.counts.entry(terminal).or_insert(0);
        *count += 1;
        let count = *count;
        self.walks += 1;
        self.reposition(terminal, count);
        SinkAck::Accepted
    }

    fn flush(&mut self) {
        self.flushes += 1;
    }

    fn report(&self) -> SinkReport {
        SinkReport {
            accepted: self.walks,
            refused: 0,
            flushes: self.flushes,
            emitted: self.walks,
            buffered: self.counts.len() + self.top.len(),
            peak_buffered: self.counts.len() + self.top.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_algo::WalkPath;
    use grw_service::TenantId;

    fn walk_ending(id: u64, terminal: u32) -> CompletedWalk {
        CompletedWalk {
            tenant: TenantId(0),
            path: WalkPath::new(id, vec![0, terminal]),
            arrival_tick: 0,
            flushed_tick: 0,
            completed_tick: 1,
        }
    }

    #[test]
    fn estimates_are_terminal_fractions() {
        let mut agg = PprAggregator::new(3);
        for (i, t) in [5u32, 5, 5, 2, 2, 9].iter().enumerate() {
            agg.accept(&walk_ending(i as u64, *t));
        }
        assert_eq!(agg.walks(), 6);
        assert_eq!(agg.distinct_terminals(), 3);
        assert!((agg.estimate(5) - 0.5).abs() < 1e-12);
        assert!((agg.estimate(2) - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(agg.estimates(10)[9], 1.0 / 6.0);
        assert_eq!(agg.estimates(10)[0], 0.0);
    }

    #[test]
    fn incremental_top_k_matches_a_full_sort_at_every_step() {
        // Deterministic pseudo-random stream of terminals.
        let mut agg = PprAggregator::new(4);
        let mut state = 0x12345u64;
        let mut reference: HashMap<u32, u64> = HashMap::new();
        for i in 0..2000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = ((state >> 33) % 23) as u32;
            *reference.entry(t).or_insert(0) += 1;
            agg.accept(&walk_ending(i, t));

            // Full-sort ground truth under the same tie-break.
            let mut all: Vec<(u32, u64)> = reference.iter().map(|(&v, &c)| (v, c)).collect();
            all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let want: Vec<u32> = all.iter().take(4).map(|&(v, _)| v).collect();
            let got: Vec<u32> = agg.top_k().iter().map(|&(v, _, _)| v).collect();
            assert_eq!(got, want, "after {} walks", i + 1);
        }
    }

    #[test]
    fn top_k_is_bounded_and_never_backpressures() {
        let mut agg = PprAggregator::new(2);
        for i in 0..100u64 {
            assert_eq!(
                agg.accept(&walk_ending(i, (i % 7) as u32)),
                SinkAck::Accepted
            );
        }
        assert_eq!(agg.top_k().len(), 2);
        assert_eq!(agg.report().accepted, 100);
        assert!(agg.report().buffered <= 7 + 2);
    }
}
