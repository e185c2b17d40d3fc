//! Bounded per-edge alias-table cache for second-order sampling.
//!
//! A Node2Vec transition distribution depends on the *edge* `(prev, cur)`,
//! not the vertex, so precomputing all of them is O(Σ deg(cur)) per edge —
//! quadratic in hub degree and far beyond memory for real graphs. But walk
//! traffic is extremely skewed: hub edges are traversed thousands of times.
//! [`EdgeAliasCache`] keeps the hot per-edge alias rows under a byte
//! budget, turning the common second-order step into two array reads.
//!
//! The cache is deliberately *unshared*: each engine worker owns one
//! exclusively (`&mut` access, no locks), so `Driver` shards never
//! contend on it. Internally it is hash-partitioned into segments with
//! independent budgets, which keeps eviction scans short and makes the
//! layout mirror a per-pipeline on-chip SRAM split.
//!
//! # Layout: set-associative, like the hardware it models
//!
//! A hit must be cheaper than the rejection trials it replaces, and on a
//! large graph that is a memory-latency question, not an instruction
//! count: every dependent pointer chase is a potential DRAM miss. A
//! hash-map-of-boxed-rows layout costs four chases per hit (bucket →
//! entry → prob array → alt array). This cache instead uses the layout a
//! hardware cache would: [`WAYS`]-way sets in two flat arrays. The key
//! probe scans one 64-byte line of packed keys; the payload slot holds
//! short rows *inline* (≤ [`INLINE_SLOTS`]) and spills long hub rows to a
//! heap allocation — two dependent line fetches for the common hit, three
//! for a hub row.
//!
//! Replacement is second-chance within the set, plus a global clock hand
//! that walks the ways array to enforce the byte budget.
//!
//! Correctness note: the cache only ever changes *where a row comes from*,
//! never its contents — a hit returns exactly the row a rebuild would
//! produce, so walk paths are bit-identical under any budget, eviction
//! pressure, associativity or segment count.

/// One interleaved alias-row slot: the acceptance probability and the
/// alternative index live side by side, so the hot-path draw (`prob[slot]`
/// then maybe `alt[slot]`) touches a single row location instead of two
/// separately allocated arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct AliasSlot {
    /// Probability of keeping the slot's own index.
    pub prob: f32,
    /// Local index sampled when the coin exceeds `prob`.
    pub alt: u32,
}

/// Associativity: keys of one set fill exactly one 64-byte line.
const WAYS: usize = 8;

/// Rows up to this many slots are stored inline in the way, saving the
/// heap dereference on a hit.
const INLINE_SLOTS: usize = 6;

/// Sentinel for an empty way. The one edge that hashes to this packed key
/// (`prev = cur = u32::MAX`) is simply never cached — vertex ids that
/// large do not occur in practice, and missing the cache is always
/// correct.
const EMPTY_KEY: u64 = u64::MAX;

/// Assumed average resident bytes per entry when sizing the ways array
/// from the byte budget.
const SIZING_BYTES_PER_ENTRY: usize = 128;

/// splitmix64 finalizer: full avalanche so segment and set selection stay
/// uncorrelated with vertex-id locality.
fn mix(key: u64) -> u64 {
    let mut z = key;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Row payload of one way: inline for short rows, heap for hub rows.
#[derive(Debug, Clone)]
enum RowData {
    Inline {
        len: u8,
        data: [AliasSlot; INLINE_SLOTS],
    },
    Heap(Box<[AliasSlot]>),
}

impl RowData {
    fn new(row: Box<[AliasSlot]>) -> Self {
        if row.len() <= INLINE_SLOTS {
            let mut data = [AliasSlot { prob: 0.0, alt: 0 }; INLINE_SLOTS];
            data[..row.len()].copy_from_slice(&row);
            RowData::Inline {
                len: row.len() as u8,
                data,
            }
        } else {
            RowData::Heap(row)
        }
    }

    fn as_slice(&self) -> &[AliasSlot] {
        match self {
            RowData::Inline { len, data } => &data[..*len as usize],
            RowData::Heap(row) => row,
        }
    }
}

/// Payload of one way; the matching key lives in the segment's packed
/// key array.
#[derive(Debug, Clone)]
struct WaySlot {
    /// Second-chance bit: set on hit, cleared (then spared once) by the
    /// clock hand.
    referenced: bool,
    row: RowData,
}

/// Resident bytes charged for a row: payload (8 bytes per slot) plus a
/// fixed per-entry overhead for key and headers.
fn entry_bytes(len: usize) -> usize {
    32 + 8 * len
}

/// One independently budgeted cache segment: `sets × WAYS` ways in two
/// flat arrays, with its own budget clock hand.
#[derive(Debug, Clone)]
struct Segment {
    /// Packed keys, `EMPTY_KEY` marking free ways; `keys[s * WAYS..]` is
    /// set `s`, one 64-byte line.
    keys: Vec<u64>,
    ways: Vec<Option<WaySlot>>,
    set_mask: u64,
    hand: usize,
    resident: usize,
    len: usize,
    budget: usize,
    evictions: u64,
}

impl Segment {
    fn new(budget: usize) -> Self {
        let sets = (budget / SIZING_BYTES_PER_ENTRY / WAYS)
            .next_power_of_two()
            .max(1);
        Self {
            keys: vec![EMPTY_KEY; sets * WAYS],
            ways: vec![None; sets * WAYS],
            set_mask: sets as u64 - 1,
            hand: 0,
            resident: 0,
            len: 0,
            budget,
            evictions: 0,
        }
    }

    fn base(&self, hashed: u64) -> usize {
        (hashed & self.set_mask) as usize * WAYS
    }

    fn lookup(&mut self, key: u64, hashed: u64) -> Option<&[AliasSlot]> {
        let base = self.base(hashed);
        let way = self.keys[base..base + WAYS]
            .iter()
            .position(|&k| k == key)?;
        let slot = self.ways[base + way].as_mut().expect("keyed way is filled");
        slot.referenced = true;
        Some(slot.row.as_slice())
    }

    fn evict_way(&mut self, way: usize) {
        let slot = self.ways[way].take().expect("evicting a filled way");
        self.resident -= entry_bytes(slot.row.as_slice().len());
        self.keys[way] = EMPTY_KEY;
        self.len -= 1;
        self.evictions += 1;
    }

    /// Second-chance victim selection within one set: spare each
    /// referenced way once, evict the first cold one.
    fn evict_in_set(&mut self, base: usize) -> usize {
        loop {
            for way in base..base + WAYS {
                match self.ways[way].as_mut() {
                    Some(slot) if slot.referenced => slot.referenced = false,
                    Some(_) => {
                        self.evict_way(way);
                        return way;
                    }
                    None => return way,
                }
            }
        }
    }

    /// Global budget clock: walk the ways array, sparing referenced
    /// entries once, until one eviction frees space.
    fn evict_for_budget(&mut self) {
        debug_assert!(self.len > 0, "budget eviction on an empty segment");
        loop {
            if self.hand >= self.ways.len() {
                self.hand = 0;
            }
            let way = self.hand;
            self.hand += 1;
            match self.ways[way].as_mut() {
                Some(slot) if slot.referenced => slot.referenced = false,
                Some(_) => {
                    self.evict_way(way);
                    return;
                }
                None => {}
            }
        }
    }

    fn insert(&mut self, key: u64, hashed: u64, row: Box<[AliasSlot]>) -> bool {
        let need = entry_bytes(row.len());
        if need > self.budget || key == EMPTY_KEY {
            return false;
        }
        let base = self.base(hashed);
        if self.keys[base..base + WAYS].contains(&key) {
            return false;
        }
        let way = match self.keys[base..base + WAYS]
            .iter()
            .position(|&k| k == EMPTY_KEY)
        {
            Some(free) => base + free,
            None => self.evict_in_set(base),
        };
        while self.resident + need > self.budget {
            self.evict_for_budget();
        }
        self.keys[way] = key;
        self.ways[way] = Some(WaySlot {
            referenced: false,
            row: RowData::new(row),
        });
        self.resident += need;
        self.len += 1;
        true
    }
}

/// A bounded, segmented, set-associative cache of second-order alias rows
/// keyed by the walk edge `(prev, cur)`.
///
/// # Example
///
/// ```
/// use grw_algo::sampler::{AliasSlot, EdgeAliasCache};
///
/// let mut cache = EdgeAliasCache::new(4096, 2);
/// assert!(cache.lookup(3, 7).is_none());
/// cache.insert(3, 7, vec![AliasSlot { prob: 1.0, alt: 0 }].into());
/// let row = cache.lookup(3, 7).unwrap();
/// assert_eq!((row[0].prob, row[0].alt), (1.0, 0));
/// ```
#[derive(Debug, Clone)]
pub struct EdgeAliasCache {
    /// Fixed at construction: a boxed slice, one word smaller than a
    /// `Vec`, keeps [`crate::SamplerRuntime`] small.
    segments: Box<[Segment]>,
}

impl EdgeAliasCache {
    /// Creates a cache holding at most `budget_bytes` across `segments`
    /// hash partitions (each gets an equal share).
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0`.
    pub fn new(budget_bytes: usize, segments: usize) -> Self {
        assert!(segments > 0, "need at least one cache segment");
        let per = budget_bytes / segments;
        Self {
            segments: (0..segments).map(|_| Segment::new(per)).collect(),
        }
    }

    fn key(prev: u32, cur: u32) -> u64 {
        (u64::from(prev) << 32) | u64::from(cur)
    }

    /// One hash serves both levels: the low bits pick the set inside a
    /// segment, the high bits pick the segment.
    fn route(&self, key: u64) -> (usize, u64) {
        let hashed = mix(key);
        let seg = ((hashed >> 32) % self.segments.len() as u64) as usize;
        (seg, hashed)
    }

    /// Returns the cached alias row for the edge, marking it recently
    /// used.
    pub fn lookup(&mut self, prev: u32, cur: u32) -> Option<&[AliasSlot]> {
        let key = Self::key(prev, cur);
        if key == EMPTY_KEY {
            // insert() refuses the sentinel edge, so it can never be
            // resident — and probing for it would false-hit a free way.
            return None;
        }
        let (seg, hashed) = self.route(key);
        self.segments[seg].lookup(key, hashed)
    }

    /// Inserts a freshly built row, evicting cold entries as needed.
    /// Rows larger than a whole segment budget are not cached (the build
    /// already produced the sample; nothing is lost but reuse).
    pub fn insert(&mut self, prev: u32, cur: u32, row: Box<[AliasSlot]>) {
        let key = Self::key(prev, cur);
        let (seg, hashed) = self.route(key);
        self.segments[seg].insert(key, hashed, row);
    }

    /// Cached rows currently resident.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes across all segments.
    pub fn resident_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.resident).sum()
    }

    /// Total byte budget across all segments.
    pub fn budget_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.budget).sum()
    }

    /// Entries evicted since creation.
    pub fn evictions(&self) -> u64 {
        self.segments.iter().map(|s| s.evictions).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: usize, tag: f32) -> Box<[AliasSlot]> {
        vec![AliasSlot { prob: tag, alt: 0 }; n].into()
    }

    #[test]
    fn hit_returns_the_inserted_row() {
        let mut c = EdgeAliasCache::new(1 << 16, 4);
        c.insert(1, 2, row(3, 0.5));
        let r = c.lookup(1, 2).expect("cached");
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|s| s.prob == 0.5 && s.alt == 0));
        assert!(c.lookup(2, 1).is_none(), "keys are directional");
        assert_eq!(c.len(), 1);
        assert!(c.resident_bytes() > 0);
    }

    #[test]
    fn long_rows_round_trip_through_the_heap_spill() {
        let mut c = EdgeAliasCache::new(1 << 16, 1);
        c.insert(4, 4, row(INLINE_SLOTS + 10, 0.25));
        let r = c.lookup(4, 4).expect("cached");
        assert_eq!(r.len(), INLINE_SLOTS + 10);
        assert!(r.iter().all(|s| s.prob == 0.25));
    }

    #[test]
    fn budget_forces_eviction() {
        // One segment, room for ~4 rows of 8 slots (32 + 64 bytes each).
        let mut c = EdgeAliasCache::new(4 * 96, 1);
        for i in 0..16u32 {
            c.insert(i, i, row(8, i as f32));
        }
        assert!(c.evictions() >= 12, "evictions: {}", c.evictions());
        assert!(c.resident_bytes() <= c.budget_bytes());
        assert!(c.len() <= 4);
    }

    #[test]
    fn second_chance_protects_hot_entries() {
        let mut c = EdgeAliasCache::new(3 * 96, 1);
        for i in 0..3u32 {
            c.insert(i, i, row(8, i as f32));
        }
        // Touch entry 0 so both clocks spare it on the next eviction pass.
        assert!(c.lookup(0, 0).is_some());
        c.insert(9, 9, row(8, 9.0));
        assert!(c.lookup(0, 0).is_some(), "referenced entry survives");
        assert!(c.lookup(9, 9).is_some(), "new entry resident");
    }

    #[test]
    fn set_conflicts_evict_within_the_set() {
        // Budget far above need: only way-conflicts can evict. A segment
        // sized for one set has every key colliding.
        let mut c = EdgeAliasCache::new(1 << 9, 1);
        for i in 0..(WAYS as u32 + 4) {
            c.insert(i, i, row(1, i as f32));
        }
        assert!(c.len() <= WAYS);
        assert!(c.evictions() >= 4, "evictions: {}", c.evictions());
    }

    #[test]
    fn sentinel_edge_is_a_clean_miss() {
        // (u32::MAX, u32::MAX) packs to the free-way sentinel: both
        // insert and lookup must treat it as uncacheable, not match an
        // empty way.
        let mut c = EdgeAliasCache::new(1 << 12, 1);
        assert!(c.lookup(u32::MAX, u32::MAX).is_none());
        c.insert(u32::MAX, u32::MAX, row(2, 1.0));
        assert!(c.lookup(u32::MAX, u32::MAX).is_none());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn oversized_rows_are_not_cached() {
        let mut c = EdgeAliasCache::new(64, 1);
        c.insert(5, 5, row(100, 1.0));
        assert!(c.lookup(5, 5).is_none());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let mut c = EdgeAliasCache::new(1 << 12, 1);
        c.insert(1, 1, row(2, 1.0));
        let before = c.resident_bytes();
        c.insert(1, 1, row(2, 2.0));
        assert_eq!(c.resident_bytes(), before);
        assert_eq!(c.lookup(1, 1).unwrap()[0].prob, 1.0, "first row wins");
    }

    #[test]
    #[should_panic(expected = "at least one cache segment")]
    fn zero_segments_panics() {
        let _ = EdgeAliasCache::new(1024, 0);
    }
}
