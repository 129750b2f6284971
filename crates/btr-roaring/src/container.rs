//! The three Roaring container kinds and their operations.

use std::borrow::Cow;

/// Maximum cardinality of an array container; beyond this a bitmap is denser.
/// 4096 × 2 bytes = 8 KiB, the break-even point against a 8 KiB bitset.
pub(crate) const ARRAY_MAX: usize = 4096;

pub(crate) const BITMAP_WORDS: usize = 1024;

/// One 2^16-value chunk of a Roaring bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Container {
    /// Sorted, deduplicated low 16-bit values.
    Array(Vec<u16>),
    /// 65536-bit bitset (1024 × u64).
    Bitmap(Box<[u64; BITMAP_WORDS]>),
    /// Sorted, non-overlapping, non-adjacent runs as `(start, length - 1)`.
    Run(Vec<(u16, u16)>),
}

impl Container {
    /// Builds the best container for a sorted, deduplicated slice of lows.
    pub fn from_sorted_lows(lows: &[u16]) -> Container {
        // lint: allow(indexing) windows(2) yields exactly 2 elements
        debug_assert!(lows.windows(2).all(|w| w[0] < w[1]));
        if lows.len() <= ARRAY_MAX {
            Container::Array(lows.to_vec())
        } else {
            let mut words = Box::new([0u64; BITMAP_WORDS]);
            for &low in lows {
                // lint: allow(indexing) low / 64 < 1024 for any u16 low
                words[usize::from(low) / 64] |= 1u64 << (low % 64);
            }
            Container::Bitmap(words)
        }
    }

    /// Cardinality of this container.
    pub fn cardinality(&self) -> usize {
        match self {
            Container::Array(a) => a.len(),
            Container::Bitmap(b) => b.iter().map(|w| w.count_ones() as usize).sum(),
            Container::Run(runs) => runs.iter().map(|&(_, l)| usize::from(l) + 1).sum(),
        }
    }

    /// Membership test for a low 16-bit value.
    pub fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(a) => a.binary_search(&low).is_ok(),
            // lint: allow(indexing) low / 64 < 1024 for any u16 low
            Container::Bitmap(b) => b[usize::from(low) / 64] & (1u64 << (low % 64)) != 0,
            Container::Run(runs) => match runs.binary_search_by_key(&low, |&(s, _)| s) {
                Ok(_) => true,
                Err(0) => false,
                Err(i) => {
                    // lint: allow(indexing) binary_search returned Err(i) with i > 0
                    let (start, len) = runs[i - 1];
                    u32::from(low) <= u32::from(start) + u32::from(len)
                }
            },
        }
    }

    /// Inserts `low`; returns true if newly inserted. Run containers are
    /// converted back to arrays/bitmaps first (runs are a read-mostly form).
    pub fn insert(&mut self, low: u16) -> bool {
        if let Container::Run(_) = self {
            *self = self.to_array_or_bitmap();
        }
        match self {
            Container::Array(a) => match a.binary_search(&low) {
                Ok(_) => false,
                Err(i) => {
                    a.insert(i, low);
                    true
                }
            },
            Container::Bitmap(b) => {
                // lint: allow(indexing) low / 64 < 1024 for any u16 low
                let word = &mut b[usize::from(low) / 64];
                let bit = 1u64 << (low % 64);
                let was = *word & bit != 0;
                *word |= bit;
                !was
            }
            Container::Run(_) => unreachable!("converted above"),
        }
    }

    /// Removes `low`; returns true if it was present.
    pub fn remove(&mut self, low: u16) -> bool {
        if let Container::Run(_) = self {
            *self = self.to_array_or_bitmap();
        }
        match self {
            Container::Array(a) => match a.binary_search(&low) {
                Ok(i) => {
                    a.remove(i);
                    true
                }
                Err(_) => false,
            },
            Container::Bitmap(b) => {
                // lint: allow(indexing) low / 64 < 1024 for any u16 low
                let word = &mut b[usize::from(low) / 64];
                let bit = 1u64 << (low % 64);
                let was = *word & bit != 0;
                *word &= !bit;
                was
            }
            Container::Run(_) => unreachable!("converted above"),
        }
    }

    /// Converts an over-full array to a bitmap after an insert.
    pub fn maybe_convert_on_insert(&mut self) {
        if let Container::Array(a) = self {
            if a.len() > ARRAY_MAX {
                let mut words = Box::new([0u64; BITMAP_WORDS]);
                for &low in a.iter() {
                    // lint: allow(indexing) low / 64 < 1024 for any u16 low
                    words[usize::from(low) / 64] |= 1u64 << (low % 64);
                }
                *self = Container::Bitmap(words);
            }
        }
    }

    /// Number of values strictly below `low`.
    pub fn rank(&self, low: u16) -> usize {
        match self {
            Container::Array(a) => match a.binary_search(&low) {
                Ok(i) | Err(i) => i,
            },
            Container::Bitmap(b) => {
                let word_idx = usize::from(low) / 64;
                // lint: allow(indexing) low / 64 < 1024 for any u16 low
                let mut count: usize = b[..word_idx].iter().map(|w| w.count_ones() as usize).sum();
                let rem = low % 64;
                if rem > 0 {
                    // lint: allow(indexing) low / 64 < 1024 for any u16 low
                    count += (b[word_idx] & ((1u64 << rem) - 1)).count_ones() as usize;
                }
                count
            }
            Container::Run(runs) => {
                let mut count = 0usize;
                for &(start, len) in runs {
                    if low <= start {
                        break;
                    }
                    let end = u32::from(start) + u32::from(len);
                    if u32::from(low) > end {
                        count += usize::from(len) + 1;
                    } else {
                        count += (u32::from(low) - u32::from(start)) as usize;
                        break;
                    }
                }
                count
            }
        }
    }

    /// Iterates values in ascending order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = u16> + '_> {
        match self {
            Container::Array(a) => Box::new(a.iter().copied()),
            Container::Bitmap(b) => Box::new(set_bits(b.as_slice())),
            Container::Run(runs) => Box::new(runs.iter().flat_map(|&(start, len)| {
                // lint: allow(cast) start + len <= u16::MAX by the run invariant
                (u32::from(start)..=u32::from(start) + u32::from(len)).map(|v| v as u16)
            })),
        }
    }

    /// Converts to a run container when that is strictly smaller.
    pub fn run_optimize(&mut self) {
        let runs = self.collect_runs();
        let run_size = 4 + runs.len() * 4;
        if run_size < self.size_bytes() {
            *self = Container::Run(runs);
        }
    }

    fn collect_runs(&self) -> Vec<(u16, u16)> {
        let mut runs: Vec<(u16, u16)> = Vec::new();
        for v in self.iter() {
            match runs.last_mut() {
                Some((start, len)) if u32::from(*start) + u32::from(*len) + 1 == u32::from(v) => {
                    *len += 1;
                }
                _ => runs.push((v, 0)),
            }
        }
        runs
    }

    fn to_array_or_bitmap(&self) -> Container {
        let lows: Vec<u16> = self.iter().collect();
        Container::from_sorted_lows(&lows)
    }

    /// In-memory footprint of the container payload in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            Container::Array(a) => 2 * a.len(),
            Container::Bitmap(_) => 8 * BITMAP_WORDS,
            Container::Run(runs) => 4 * runs.len(),
        }
    }

    /// Intersection of two containers of the same key, `None` when empty.
    ///
    /// An Array probes the other container, so its result is an Array.
    /// Any other pair is one pass over 1,024 words that ANDs and counts
    /// together (a Run side ANDs as word masks); the result is an Array at
    /// 4,096 values or fewer and a Bitmap above.
    pub fn intersection(&self, other: &Container) -> Option<Container> {
        match (self, other) {
            (Container::Array(lows), c) | (c, Container::Array(lows)) => {
                let out: Vec<u16> = lows.iter().copied().filter(|&low| c.contains(low)).collect();
                (!out.is_empty()).then_some(Container::Array(out))
            }
            (a, b) => {
                let (wa, wb) = (a.words(), b.words());
                let mut words = [0u64; BITMAP_WORDS];
                let mut card = 0usize;
                for ((w, x), y) in words.iter_mut().zip(wa.iter()).zip(wb.iter()) {
                    *w = x & y;
                    card += w.count_ones() as usize;
                }
                Container::from_words(&words, card)
            }
        }
    }

    /// The container of one chunk given as up to 1,024 words (missing words
    /// read as zero) holding `card` set bits, `None` when empty: an Array at
    /// 4,096 values or fewer and a Bitmap above, as
    /// [`Container::from_sorted_lows`] decides.
    pub(crate) fn from_words(words: &[u64], card: usize) -> Option<Container> {
        match card {
            0 => None,
            1..=ARRAY_MAX => {
                let mut lows = Vec::with_capacity(card);
                lows.extend(set_bits(words));
                Some(Container::Array(lows))
            }
            _ => {
                let mut bitmap = Box::new([0u64; BITMAP_WORDS]);
                bitmap.iter_mut().zip(words).for_each(|(w, &x)| *w = x);
                Some(Container::Bitmap(bitmap))
            }
        }
    }

    /// The container as 1,024 words: a Bitmap's own; an Array's values and
    /// a Run's runs set as word masks.
    fn words(&self) -> Cow<'_, [u64]> {
        let (lows, runs): (&[u16], &[(u16, u16)]) = match self {
            Container::Bitmap(b) => return Cow::Borrowed(b.as_slice()),
            Container::Array(lows) => (lows, &[]),
            Container::Run(runs) => (&[], runs),
        };
        let mut words = vec![0u64; BITMAP_WORDS];
        for (start, len) in lows.iter().map(|&low| (low, 0)).chain(runs.iter().copied()) {
            let (s, e) = (usize::from(start), usize::from(start) + usize::from(len));
            for (i, w) in words.iter_mut().enumerate().take(e / 64 + 1).skip(s / 64) {
                // The run's bits within word i, lo..=hi.
                let (lo, hi) = (s.max(i * 64) - i * 64, e.min(i * 64 + 63) - i * 64);
                *w |= (u64::MAX >> (63 - (hi - lo))) << lo;
            }
        }
        Cow::Owned(words)
    }

    /// Appends the container's values, each OR-ed onto `base`, to `out` in
    /// ascending order.
    pub(crate) fn extend_values(&self, base: u32, out: &mut Vec<u32>) {
        match self {
            Container::Array(a) => out.extend(a.iter().map(|&low| base | u32::from(low))),
            Container::Bitmap(b) => {
                out.extend(set_bits(b.as_slice()).map(|low| base | u32::from(low)));
            }
            Container::Run(runs) => {
                for &(start, len) in runs {
                    let start = u32::from(start);
                    out.extend((start..=start + u32::from(len)).map(|low| base | low));
                }
            }
        }
    }
}

/// The set bits of up to 1,024 words, ascending, as chunk-relative lows.
fn set_bits(words: &[u64]) -> impl Iterator<Item = u16> + '_ {
    words.iter().enumerate().flat_map(|(wi, &word)| BitIter {
        word,
        // lint: allow(cast) wi < 1024, so wi * 64 < 65536
        base: (wi * 64) as u32,
    })
}

/// Iterator over the set bits of a single u64 word.
struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = u16;

    #[inline]
    fn next(&mut self) -> Option<u16> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        // lint: allow(cast) base + tz < 65536 for a 1024-word bitmap
        Some((self.base + tz) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_to_bitmap_conversion_threshold() {
        let lows: Vec<u16> = (0..(ARRAY_MAX as u16)).collect();
        assert!(matches!(Container::from_sorted_lows(&lows), Container::Array(_)));
        let lows: Vec<u16> = (0..=(ARRAY_MAX as u16)).collect();
        assert!(matches!(Container::from_sorted_lows(&lows), Container::Bitmap(_)));
    }

    #[test]
    fn run_container_contains_and_rank() {
        let c = Container::Run(vec![(10, 4), (100, 0)]); // {10..=14, 100}
        assert!(c.contains(10));
        assert!(c.contains(14));
        assert!(!c.contains(15));
        assert!(c.contains(100));
        assert_eq!(c.cardinality(), 6);
        assert_eq!(c.rank(12), 2);
        assert_eq!(c.rank(200), 6);
        assert_eq!(c.rank(5), 0);
    }

    #[test]
    fn run_at_u16_max_boundary() {
        let lows = vec![65_534u16, 65_535];
        let mut c = Container::from_sorted_lows(&lows);
        c.run_optimize();
        assert!(c.contains(65_535));
        assert_eq!(c.iter().collect::<Vec<_>>(), lows);
    }

    #[test]
    fn insert_into_run_container_converts() {
        let mut c = Container::Run(vec![(0, 9)]);
        assert!(c.insert(20));
        assert!(c.contains(20));
        assert!(c.contains(5));
        assert_eq!(c.cardinality(), 11);
    }

    #[test]
    fn bitmap_rank_mid_word() {
        let lows: Vec<u16> = (0..5000).collect();
        let c = Container::from_sorted_lows(&lows);
        assert_eq!(c.rank(70), 70);
        assert_eq!(c.rank(4999), 4999);
        assert_eq!(c.rank(5000), 5000);
        assert_eq!(c.rank(6000), 5000);
    }

    #[test]
    fn intersection_mixed_kinds() {
        let a = Container::from_sorted_lows(&(0..5000).collect::<Vec<u16>>()); // bitmap
        let b = Container::from_sorted_lows(&[3u16, 4999, 6000]); // array
        let i = a.intersection(&b).expect("non-empty");
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3, 4999]);
    }
}
