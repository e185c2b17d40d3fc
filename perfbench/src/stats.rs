//! The benchmark's own arithmetic: percentiles, medians, the walk digest,
//! the exactly-once ledger and span self time. Nothing here calls into the
//! serving stack, so every rule is unit-tested on plain numbers.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending `sorted`
/// sample, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond the
/// reported one — a tail that thin is noise, not a percentile.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// [`percentile`] of a histogram: `hist[v]` samples have value `v`.
pub fn hist_percentile(hist: &[u64], p: f64) -> Option<u64> {
    let n: u64 = hist.iter().sum();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
    if n - rank < MIN_BEYOND as u64 {
        return None;
    }
    let mut seen = 0;
    hist.iter()
        .position(|&c| {
            seen += c;
            seen >= rank
        })
        .map(|v| v as u64)
}

/// Adds histogram `other` into `into`.
pub fn merge_hist(into: &mut Vec<u64>, other: &[u64]) {
    if other.len() > into.len() {
        into.resize(other.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(other) {
        *a += b;
    }
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measured values"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile (0 ≤ q ≤ 1) of `values`: the value with a
/// share `q` of the others at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measured values"));
    let rank = (q.clamp(0.0, 1.0) * (v.len() - 1) as f64).round() as usize;
    v[rank]
}

/// SplitMix64 finalizer: the mixing step behind [`walk_hash`].
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of one delivered walk: its query id, its tenant and every vertex
/// of its path — nothing wall-clock and no tick stamp, so the same walk
/// hashes the same under either driver.
pub fn walk_hash(query: u64, tenant: u16, vertices: &[u32]) -> u64 {
    let mut h = mix64(query ^ (u64::from(tenant) << 48));
    for &v in vertices {
        h = mix64(h ^ u64::from(v));
    }
    h
}

/// Order-independent digest of a walk multiset: the wrapping sum of the
/// walks' hashes.
pub fn digest(hashes: impl IntoIterator<Item = u64>) -> u64 {
    hashes.into_iter().fold(0, u64::wrapping_add)
}

/// Queries of a stream *not* delivered exactly once to their own tenant.
///
/// `owners[q]` is the tenant that submitted query `q`; `delivered` yields
/// `(query, tenant it reached)` per delivery. A query counts once however
/// it failed (missing, duplicated, misrouted); a delivery of a query id
/// outside the stream counts on its own.
pub fn failures(owners: &[u16], delivered: impl IntoIterator<Item = (u64, u16)>) -> u64 {
    let mut seen = vec![0u32; owners.len()];
    let mut misrouted = vec![false; owners.len()];
    let mut unknown = 0;
    for (query, tenant) in delivered {
        match usize::try_from(query).ok().filter(|&q| q < owners.len()) {
            Some(q) => {
                seen[q] += 1;
                misrouted[q] |= owners[q] != tenant;
            }
            None => unknown += 1,
        }
    }
    let bad = seen
        .iter()
        .zip(&misrouted)
        .filter(|&(&n, &wrong)| n != 1 || wrong)
        .count();
    bad as u64 + unknown
}

/// Self time of a boundary: its own span total minus the totals of the
/// boundaries nested inside it on the same thread.
pub fn self_ns(total: u64, nested: &[u64]) -> u64 {
    total.saturating_sub(nested.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        let sample: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sample, 50.0), Some(500));
        // p99 of 1000 sits at rank 990: exactly ten samples beyond.
        assert_eq!(percentile(&sample, 99.0), Some(990));
        // One sample fewer leaves only nine beyond rank 990.
        assert_eq!(percentile(&sample[..999], 99.0), None);
        assert_eq!(percentile(&sample[..20], 50.0), Some(10));
        assert_eq!(percentile(&sample[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn histogram_percentiles_match_sorted_ones() {
        let sample: Vec<u64> = (0..1000).map(|i| i % 7 + (i % 3) * 10).collect();
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        let mut hist = Vec::new();
        for chunk in sample.chunks(300) {
            let mut part = Vec::new();
            for &v in chunk {
                let mut one = vec![0; v as usize + 1];
                one[v as usize] = 1;
                merge_hist(&mut part, &one);
            }
            merge_hist(&mut hist, &part);
        }
        for p in [1.0, 50.0, 98.0, 99.0] {
            assert_eq!(hist_percentile(&hist, p), percentile(&sorted, p), "p{p}");
        }
        assert_eq!(hist_percentile(&[5, 5], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.1), 1.0);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn digest_ignores_delivery_order() {
        let walks = [
            (7u64, 1u16, vec![1u32, 2, 3]),
            (8, 1, vec![4, 5]),
            (9, 2, vec![6]),
        ];
        let forward = digest(walks.iter().map(|(q, t, v)| walk_hash(*q, *t, v)));
        let backward = digest(walks.iter().rev().map(|(q, t, v)| walk_hash(*q, *t, v)));
        assert_eq!(forward, backward);
        // ...but not the walks themselves.
        assert_ne!(walk_hash(7, 1, &[1, 2, 3]), walk_hash(7, 1, &[1, 2, 4]));
        assert_ne!(walk_hash(7, 1, &[1, 2, 3]), walk_hash(7, 2, &[1, 2, 3]));
        assert_ne!(walk_hash(7, 1, &[1, 2, 3]), walk_hash(8, 1, &[1, 2, 3]));
    }

    #[test]
    fn duplicates_and_losses_each_count() {
        let owners = [0u16, 1, 0, 1];
        let clean = [(0, 0), (1, 1), (2, 0), (3, 1)];
        assert_eq!(failures(&owners, clean), 0);
        // Query 2 delivered twice.
        assert_eq!(
            failures(&owners, [(0, 0), (1, 1), (2, 0), (2, 0), (3, 1)]),
            1
        );
        // Query 3 never delivered.
        assert_eq!(failures(&owners, [(0, 0), (1, 1), (2, 0)]), 1);
        // One duplicate plus one loss: two failed queries.
        assert_eq!(failures(&owners, [(0, 0), (0, 0), (1, 1), (2, 0)]), 2);
        // Delivered to the wrong tenant, and an id outside the stream.
        assert_eq!(
            failures(&owners, [(0, 0), (1, 0), (2, 0), (3, 1), (9, 1)]),
            2
        );
    }

    #[test]
    fn self_time_subtracts_nested_boundaries() {
        assert_eq!(self_ns(1_000, &[200, 300]), 500);
        assert_eq!(self_ns(1_000, &[]), 1_000);
        // Clock granularity can make children sum past the parent.
        assert_eq!(self_ns(100, &[60, 50]), 0);
    }
}
