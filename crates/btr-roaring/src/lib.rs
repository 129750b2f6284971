//! A from-scratch Roaring bitmap implementation.
//!
//! Roaring (Lemire et al., "Roaring Bitmaps: Implementation of an Optimized
//! Software Library") partitions the 32-bit universe into 2^16 chunks keyed by
//! the high 16 bits of each value. Each chunk is stored in whichever of three
//! container types suits its local density:
//!
//! * **Array** — a sorted `Vec<u16>` of the low bits, for sparse chunks
//!   (≤ 4096 entries),
//! * **Bitmap** — a 1024-word (`u64`) bitset, for dense chunks,
//! * **Run** — sorted `(start, length-1)` pairs, for runs of consecutive
//!   values (what [`RoaringBitmap::run_optimize`] converts to when smaller).
//!
//! BtrBlocks uses Roaring bitmaps for per-column NULL tracking and for the
//! exception positions of Frequency and Pseudodecimal encoding, and btr-expr
//! for selection vectors, so this crate provides exactly the operations
//! those call sites need: building from sorted positions or packed bits,
//! membership tests, iteration, rank, intersection, and a compact
//! serialization. There is no union: OR is evaluated on boolean vectors,
//! never on bitmaps.
//!
//! [`RoaringBitmap::intersection`] is the workspace's one bitmap AND; like
//! CRoaring's, it works one container pair at a time
//! ([`Container::intersection`]).

mod container;
mod serialize;

pub use container::Container;

use container::ARRAY_MAX;

/// A compressed bitmap over `u32` values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoaringBitmap {
    /// Chunks sorted by key (the high 16 bits); invariant: no empty containers.
    chunks: Vec<(u16, Container)>,
}

impl RoaringBitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a bitmap from an iterator of strictly increasing values.
    ///
    /// This is the hot path when compressing: exception/NULL positions are
    /// discovered in order. Containers are appended without per-value binary
    /// searches.
    pub fn from_sorted_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut bm = Self::new();
        let mut cur_key: Option<u16> = None;
        let mut lows: Vec<u16> = Vec::new();
        for v in iter {
            // lint: allow(cast) high half of a u32 fits u16
            let key = (v >> 16) as u16;
            // lint: allow(cast) masked to 16 bits
            let low = (v & 0xFFFF) as u16;
            match cur_key {
                Some(k) if k == key => lows.push(low),
                Some(k) => {
                    bm.chunks.push((k, Container::from_sorted_lows(&lows)));
                    lows.clear();
                    lows.push(low);
                    cur_key = Some(key);
                }
                None => {
                    lows.push(low);
                    cur_key = Some(key);
                }
            }
        }
        if let Some(k) = cur_key {
            bm.chunks.push((k, Container::from_sorted_lows(&lows)));
        }
        // lint: allow(indexing) windows(2) yields exactly 2 elements
        debug_assert!(bm.chunks.windows(2).all(|w| w[0].0 < w[1].0));
        bm
    }

    /// Builds a bitmap from packed bits: bit `i % 64` of `words[i / 64]` set
    /// means value `i` is present. Yields exactly the Array and Bitmap
    /// containers [`RoaringBitmap::from_sorted_iter`] builds over the same
    /// values, one 1,024-word chunk at a time, without listing them first.
    /// Bits past `u32::MAX` are ignored.
    pub fn from_words(words: &[u64]) -> Self {
        let chunks = (0..=u16::MAX).zip(words.chunks(container::BITMAP_WORDS));
        let chunks = chunks.filter_map(|(key, chunk)| {
            let card = chunk.iter().map(|w| w.count_ones() as usize).sum();
            Some((key, Container::from_words(chunk, card)?))
        });
        RoaringBitmap {
            chunks: chunks.collect(),
        }
    }

    /// Builds a bitmap from non-overlapping, strictly increasing,
    /// non-adjacent-after-merge ranges, in O(ranges) using run containers.
    ///
    /// This is the natural constructor for RLE-shaped position sets (e.g.
    /// predicate matches expanded from runs): cost is proportional to the
    /// number of runs, not the number of set bits.
    pub fn from_sorted_ranges<I: IntoIterator<Item = std::ops::Range<u32>>>(iter: I) -> Self {
        let mut chunks: Vec<(u16, Container)> = Vec::new();
        let mut push_run = |key: u16, start_low: u16, end_low: u16| {
            // end_low is inclusive.
            let len = end_low - start_low;
            match chunks.last_mut() {
                Some((k, Container::Run(runs))) if *k == key => {
                    if let Some(last) = runs.last_mut() {
                        // Merge adjacency within the chunk.
                        let last_end = u32::from(last.0) + u32::from(last.1);
                        if last_end + 1 == u32::from(start_low) {
                            last.1 += len + 1;
                            return;
                        }
                        debug_assert!(last_end + 1 < u32::from(start_low), "ranges must ascend");
                    }
                    runs.push((start_low, len));
                }
                _ => {
                    chunks.push((key, Container::Run(vec![(start_low, len)])));
                }
            }
        };
        for range in iter {
            if range.is_empty() {
                continue;
            }
            let (mut start, end) = (range.start, range.end - 1); // inclusive
            loop {
                // lint: allow(cast) high half of a u32 fits u16
                let key = (start >> 16) as u16;
                let chunk_end = (u32::from(key) << 16) | 0xFFFF;
                let run_end = end.min(chunk_end);
                // lint: allow(cast) masked to 16 bits
                push_run(key, (start & 0xFFFF) as u16, (run_end & 0xFFFF) as u16);
                if run_end == end {
                    break;
                }
                start = run_end + 1;
            }
        }
        // lint: allow(indexing) windows(2) yields exactly 2 elements
        debug_assert!(chunks.windows(2).all(|w| w[0].0 <= w[1].0));
        RoaringBitmap { chunks }
    }

    /// Inserts `value`; returns `true` if it was not already present.
    pub fn insert(&mut self, value: u32) -> bool {
        // lint: allow(cast) high half of a u32 fits u16
        let key = (value >> 16) as u16;
        // lint: allow(cast) masked to 16 bits
        let low = (value & 0xFFFF) as u16;
        match self.chunks.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => {
                // lint: allow(indexing) binary_search returned Ok(i), an in-bounds index
                let inserted = self.chunks[i].1.insert(low);
                if inserted {
                    // lint: allow(indexing) binary_search returned Ok(i), an in-bounds index
                    self.chunks[i].1.maybe_convert_on_insert();
                }
                inserted
            }
            Err(i) => {
                self.chunks.insert(i, (key, Container::Array(vec![low])));
                true
            }
        }
    }

    /// Removes `value`; returns `true` if it was present.
    pub fn remove(&mut self, value: u32) -> bool {
        // lint: allow(cast) high half of a u32 fits u16
        let key = (value >> 16) as u16;
        // lint: allow(cast) masked to 16 bits
        let low = (value & 0xFFFF) as u16;
        if let Ok(i) = self.chunks.binary_search_by_key(&key, |(k, _)| *k) {
            // lint: allow(indexing) binary_search returned Ok(i), an in-bounds index
            let removed = self.chunks[i].1.remove(low);
            // lint: allow(indexing) binary_search returned Ok(i), an in-bounds index
            if removed && self.chunks[i].1.cardinality() == 0 {
                self.chunks.remove(i);
            }
            removed
        } else {
            false
        }
    }

    /// Membership test.
    pub fn contains(&self, value: u32) -> bool {
        // lint: allow(cast) high half of a u32 fits u16
        let key = (value >> 16) as u16;
        // lint: allow(cast) masked to 16 bits
        let low = (value & 0xFFFF) as u16;
        match self.chunks.binary_search_by_key(&key, |(k, _)| *k) {
            // lint: allow(indexing) binary_search returned Ok(i), an in-bounds index
            Ok(i) => self.chunks[i].1.contains(low),
            Err(_) => false,
        }
    }

    /// Number of set bits.
    pub fn cardinality(&self) -> u64 {
        self.chunks.iter().map(|(_, c)| c.cardinality() as u64).sum()
    }

    /// Returns `true` if no bits are set.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Number of set bits strictly below `value`.
    pub fn rank(&self, value: u32) -> u64 {
        // lint: allow(cast) high half of a u32 fits u16
        let key = (value >> 16) as u16;
        // lint: allow(cast) masked to 16 bits
        let low = (value & 0xFFFF) as u16;
        let mut total = 0u64;
        for (k, c) in &self.chunks {
            if *k < key {
                total += c.cardinality() as u64;
            } else if *k == key {
                total += c.rank(low) as u64;
            } else {
                break;
            }
        }
        total
    }

    /// Iterates set values in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.chunks.iter().flat_map(|(k, c)| {
            let base = u32::from(*k) << 16;
            c.iter().map(move |low| base | u32::from(low))
        })
    }

    /// Appends every set value to `out` in ascending order, reading each
    /// container's array, words or runs directly rather than through
    /// [`RoaringBitmap::iter`].
    pub fn append_to(&self, out: &mut Vec<u32>) {
        for (k, c) in &self.chunks {
            c.extend_values(u32::from(*k) << 16, out);
        }
    }

    /// Converts containers to run containers where that is smaller.
    pub fn run_optimize(&mut self) {
        for (_, c) in &mut self.chunks {
            c.run_optimize();
        }
    }

    /// Returns true if any value in `[start, start + len)` is set.
    ///
    /// BtrBlocks' Pseudodecimal decompression probes 4-value vectorization
    /// windows with this to decide between the SIMD and scalar paths.
    pub fn intersects_range(&self, start: u32, len: u32) -> bool {
        // Windows are tiny (4 values) so a membership loop beats anything fancier.
        (start..start.saturating_add(len)).any(|v| self.contains(v))
    }

    /// Set intersection, one container pair at a time.
    pub fn intersection(&self, other: &Self) -> Self {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            // lint: allow(indexing) i < chunks.len() by the loop condition
            let (ka, ca) = &self.chunks[i];
            // lint: allow(indexing) j < chunks.len() by the loop condition
            let (kb, cb) = &other.chunks[j];
            match ka.cmp(kb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if let Some(c) = ca.intersection(cb) {
                        out.push((*ka, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        RoaringBitmap { chunks: out }
    }

    /// Serializes to a compact byte buffer; see the `serialize` module docs
    /// for the layout.
    pub fn serialize(&self) -> Vec<u8> {
        serialize::serialize(self)
    }

    /// Deserializes a buffer produced by [`RoaringBitmap::serialize`].
    pub fn deserialize(bytes: &[u8]) -> Result<Self, RoaringError> {
        serialize::deserialize(bytes)
    }

    /// Serialized footprint in bytes (used by compressed-size accounting).
    pub fn serialized_size(&self) -> usize {
        serialize::serialized_size(self)
    }

    pub(crate) fn chunks(&self) -> &[(u16, Container)] {
        &self.chunks
    }

    pub(crate) fn from_chunks(chunks: Vec<(u16, Container)>) -> Self {
        RoaringBitmap { chunks }
    }
}

impl FromIterator<u32> for RoaringBitmap {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut bm = RoaringBitmap::new();
        for v in iter {
            bm.insert(v);
        }
        bm
    }
}

/// Errors from Roaring deserialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoaringError {
    /// The buffer ended before the structure was complete.
    UnexpectedEnd,
    /// The buffer is structurally invalid.
    Corrupt(&'static str),
}

impl std::fmt::Display for RoaringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoaringError::UnexpectedEnd => write!(f, "roaring buffer ended unexpectedly"),
            RoaringError::Corrupt(m) => write!(f, "corrupt roaring buffer: {m}"),
        }
    }
}

impl std::error::Error for RoaringError {}

/// Largest array container before conversion to a bitmap container.
pub const ARRAY_CONTAINER_MAX: usize = ARRAY_MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut bm = RoaringBitmap::new();
        assert!(bm.insert(5));
        assert!(!bm.insert(5));
        assert!(bm.insert(100_000));
        assert!(bm.contains(5));
        assert!(bm.contains(100_000));
        assert!(!bm.contains(6));
        assert_eq!(bm.cardinality(), 2);
        assert!(bm.remove(5));
        assert!(!bm.remove(5));
        assert_eq!(bm.cardinality(), 1);
    }

    #[test]
    fn from_sorted_matches_inserts() {
        let values: Vec<u32> = (0..100_000).step_by(7).collect();
        let a = RoaringBitmap::from_sorted_iter(values.iter().copied());
        let b: RoaringBitmap = values.iter().copied().collect();
        assert_eq!(a, b);
        assert_eq!(a.iter().collect::<Vec<_>>(), values);
    }

    #[test]
    fn from_words_builds_the_containers_from_sorted_iter_builds() {
        // Per chunk: empty, one value, 4,096 (the last Array), 4,097 (the
        // first Bitmap), full, and a partial last word.
        let chunk = |k: u32| k << 16;
        let values: Vec<u32> = std::iter::empty()
            .chain([chunk(1) + 65_535])
            .chain((0..4_096).map(|i| chunk(2) + i * 16))
            .chain((0..4_097).map(|i| chunk(3) + i * 15))
            .chain((0..65_536).map(|i| chunk(4) + i))
            .chain([chunk(5), chunk(5) + 63, chunk(5) + 64, chunk(5) + 70])
            .collect();
        let mut words = vec![0u64; (chunk(5) as usize + 71).div_ceil(64)];
        for &v in &values {
            words[v as usize / 64] |= 1 << (v % 64);
        }
        let got = RoaringBitmap::from_words(&words);
        assert_eq!(got, RoaringBitmap::from_sorted_iter(values.iter().copied()));
        let bitmaps = got.chunks().iter().map(|(k, c)| (*k, matches!(c, Container::Bitmap(_))));
        let bitmaps: Vec<_> = bitmaps.collect();
        assert_eq!(bitmaps, [(1, false), (2, false), (3, true), (4, true), (5, false)]);
        assert_eq!(RoaringBitmap::from_words(&[]), RoaringBitmap::new());
        assert_eq!(RoaringBitmap::from_words(&[0; 3_000]), RoaringBitmap::new());
    }

    #[test]
    fn dense_chunk_becomes_bitmap() {
        let bm = RoaringBitmap::from_sorted_iter(0..10_000);
        assert_eq!(bm.cardinality(), 10_000);
        assert!(bm.contains(9_999));
        assert!(!bm.contains(10_000));
        assert!(matches!(bm.chunks()[0].1, Container::Bitmap(_)));
    }

    #[test]
    fn rank_counts_below() {
        let bm = RoaringBitmap::from_sorted_iter([1u32, 5, 70_000, 70_001]);
        assert_eq!(bm.rank(0), 0);
        assert_eq!(bm.rank(1), 0);
        assert_eq!(bm.rank(2), 1);
        assert_eq!(bm.rank(70_001), 3);
        assert_eq!(bm.rank(u32::MAX), 4);
    }

    #[test]
    fn intersection_across_chunks() {
        let a = RoaringBitmap::from_sorted_iter([1u32, 2, 3, 100_000]);
        let b = RoaringBitmap::from_sorted_iter([2u32, 3, 4, 200_000]);
        let i = a.intersection(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn append_to_matches_iter() {
        // An Array, a Bitmap and a Run chunk, appended after existing values.
        let mut bm = RoaringBitmap::from_sorted_iter(
            (0..300)
                .step_by(3)
                .chain((70_000..90_000).step_by(2))
                .chain(200_000..200_010)
                .chain(200_100..200_101),
        );
        bm.run_optimize();
        let kinds = bm.chunks().iter().map(|(_, c)| c);
        assert!(matches!(
            kinds.collect::<Vec<_>>()[..],
            [Container::Array(_), Container::Bitmap(_), Container::Run(_)]
        ));
        let mut out = vec![7];
        bm.append_to(&mut out);
        assert_eq!(out[1..], bm.iter().collect::<Vec<_>>()[..]);
        assert_eq!(out.len(), 1 + 100 + 10_000 + 11);
    }

    #[test]
    fn intersects_range_windows() {
        let bm = RoaringBitmap::from_sorted_iter([10u32, 65_540]);
        assert!(bm.intersects_range(8, 4));
        assert!(!bm.intersects_range(11, 4));
        assert!(bm.intersects_range(65_537, 4));
    }

    #[test]
    fn run_optimize_preserves_contents() {
        let mut bm = RoaringBitmap::from_sorted_iter(0..5_000);
        let before: Vec<u32> = bm.iter().collect();
        bm.run_optimize();
        assert!(matches!(bm.chunks()[0].1, Container::Run(_)));
        assert_eq!(bm.iter().collect::<Vec<_>>(), before);
        assert!(bm.contains(4_999));
        assert!(!bm.contains(5_000));
    }

    #[test]
    fn empty_bitmap() {
        let bm = RoaringBitmap::new();
        assert!(bm.is_empty());
        assert_eq!(bm.cardinality(), 0);
        assert_eq!(bm.iter().count(), 0);
        assert!(!bm.contains(0));
    }

    #[test]
    fn from_sorted_ranges_matches_from_sorted_iter() {
        let ranges = vec![5u32..10, 10..12, 100..100, 65_530..65_550, 200_000..200_001];
        let a = RoaringBitmap::from_sorted_ranges(ranges.clone());
        let b = RoaringBitmap::from_sorted_iter(ranges.into_iter().flatten());
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        assert_eq!(a.cardinality(), b.cardinality());
        assert!(a.contains(65_536));
        assert!(!a.contains(12));
    }

    #[test]
    fn from_sorted_ranges_huge_range_is_cheap() {
        // One 10M-wide range: must build run containers, not 10M bits.
        let bm = RoaringBitmap::from_sorted_ranges(std::iter::once(0u32..10_000_000));
        assert_eq!(bm.cardinality(), 10_000_000);
        assert!(bm.contains(9_999_999));
        assert!(!bm.contains(10_000_000));
        assert!(bm.serialized_size() < 4096, "run containers expected");
    }

    #[test]
    fn remove_last_value_drops_chunk() {
        let mut bm = RoaringBitmap::new();
        bm.insert(70_000);
        assert!(bm.remove(70_000));
        assert!(bm.is_empty());
    }

    #[test]
    fn values_across_many_chunks() {
        let values: Vec<u32> = (0..20u32).map(|i| i * 65_536 + 3).collect();
        let bm = RoaringBitmap::from_sorted_iter(values.iter().copied());
        assert_eq!(bm.iter().collect::<Vec<_>>(), values);
        assert_eq!(bm.chunks().len(), 20);
    }
}
