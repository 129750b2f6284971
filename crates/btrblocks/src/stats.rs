//! Per-block statistics from one distinct-value pass (`Pass`) shared by
//! integer, double and string blocks: every value is hashed once into a
//! leased probe table of first-occurrence ids, and those ids are the
//! block's dictionary codes.
//!
//! The selection algorithm uses these to filter out non-viable schemes before
//! any sample compression happens (paper §3, step 1–2): e.g. RLE is excluded
//! when the average run length is below 2 and Frequency when more than half
//! the values are unique.

use btr_fsst::FxHasher;
use crate::scheme::fixed::Value;
use crate::scratch::{Lease, Scratch};
use crate::types::StringArena;
use std::hash::{Hash, Hasher};

/// Statistics over a block of integers or doubles. Values are keyed by
/// [`Value::to_bits`]: for doubles `-0.0` and `0.0` count as distinct and
/// every NaN payload is distinct — matching the bitwise-lossless contract of
/// the format.
#[derive(Debug, Clone)]
pub struct NumericStats<V: Value> {
    /// Number of values.
    pub count: usize,
    /// Number of distinct values.
    pub unique_count: usize,
    /// Average length of equal-value runs.
    pub average_run_length: f64,
    /// Most frequent value (the type's default for empty blocks).
    pub top_value: V,
    /// Occurrences of `top_value`.
    pub top_count: usize,
}

/// [`NumericStats`] over an integer block.
pub type IntegerStats = NumericStats<i32>;
/// [`NumericStats`] over a double block.
pub type DoubleStats = NumericStats<f64>;

impl<V: Value> NumericStats<V> {
    /// Collects statistics over `values`: the encode path's `Pass` over a
    /// fresh [`Scratch`], its codes discarded.
    pub fn collect(values: &[V]) -> Self {
        Pass::collect(values, &Scratch::new()).stats
    }

    /// Fraction of values that are distinct (0.0 for empty blocks).
    pub fn unique_fraction(&self) -> f64 {
        fraction(self.unique_count, self.count)
    }
}

/// Statistics over a block of strings.
#[derive(Debug, Clone)]
pub struct StringStats {
    /// Number of strings.
    pub count: usize,
    /// Number of distinct strings.
    pub unique_count: usize,
    /// Average length of equal-string runs.
    pub average_run_length: f64,
    /// Total payload bytes.
    pub total_bytes: usize,
    /// Total payload bytes of the distinct strings only.
    pub unique_bytes: usize,
    /// Index of the most frequent string.
    pub top_index: usize,
    /// Occurrences of the most frequent string.
    pub top_count: usize,
}

impl StringStats {
    /// Collects statistics over `arena`: the encode path's `Pass` over a
    /// fresh [`Scratch`], its dictionary discarded.
    pub fn collect(arena: &StringArena) -> Self {
        Pass::collect(arena, &Scratch::new()).stats
    }

    /// Fraction of strings that are distinct (0.0 for empty blocks).
    pub fn unique_fraction(&self) -> f64 {
        fraction(self.unique_count, self.count)
    }
}

/// A block the [`Pass`] can key by row: the pass's only type-specific part.
pub(crate) trait Keyed {
    /// A row's identity: [`Value::to_bits`] for numbers, the bytes for
    /// strings.
    type Key<'k>: Hash + PartialEq
    where
        Self: 'k;
    /// The statistics selection reads.
    type Stats;
    /// Number of rows.
    fn rows(&self) -> usize;
    /// The key of `row` (below [`Keyed::rows`]).
    fn key(&self, row: usize) -> Self::Key<'_>;
    /// The block's statistics from the pass's run count and per-id first
    /// rows and counts.
    fn stats(&self, runs: usize, first_rows: &[u32], counts: &[u32]) -> Self::Stats;
}

impl<V: Value> Keyed for [V] {
    type Key<'k> = V::Bits;
    type Stats = NumericStats<V>;

    fn rows(&self) -> usize {
        self.len()
    }

    #[inline]
    fn key(&self, row: usize) -> V::Bits {
        // lint: allow(indexing) the pass asks only for rows below rows()
        self[row].to_bits()
    }

    fn stats(&self, runs: usize, first_rows: &[u32], counts: &[u32]) -> NumericStats<V> {
        // Ties on count break toward the larger `Bits` (the larger integer,
        // the larger bit pattern), so the winner never depends on the
        // table's layout.
        let (top_count, top_bits) = first_rows
            .iter()
            .zip(counts)
            .map(|(&row, &c)| (c as usize, self.key(row as usize)))
            .max()
            .unwrap_or_default();
        NumericStats {
            count: self.len(),
            unique_count: first_rows.len(),
            average_run_length: avg_run(self.len(), runs),
            top_value: V::from_bits(top_bits),
            top_count,
        }
    }
}

impl Keyed for StringArena {
    type Key<'k> = &'k [u8];
    type Stats = StringStats;

    fn rows(&self) -> usize {
        self.len()
    }

    #[inline]
    fn key(&self, row: usize) -> &[u8] {
        self.get(row)
    }

    fn stats(&self, runs: usize, first_rows: &[u32], counts: &[u32]) -> StringStats {
        // Ties break toward the earliest first occurrence, the smallest id.
        let (top_id, top_count) = counts
            .iter()
            .enumerate()
            .fold((0, 0), |best, (id, &c)| if c as usize > best.1 { (id, c as usize) } else { best });
        StringStats {
            count: self.len(),
            unique_count: first_rows.len(),
            average_run_length: avg_run(self.len(), runs),
            total_bytes: self.total_bytes(),
            unique_bytes: first_rows.iter().map(|&r| self.get(r as usize).len()).sum(),
            top_index: first_rows.get(top_id).map_or(0, |&r| r as usize),
            top_count,
        }
    }
}

/// Marks an empty slot of the [`Pass`] probe table.
const EMPTY: u32 = u32::MAX;

/// A block's one statistics pass, which is also its dictionary builder:
/// every value is hashed once, into a linear-probing table of `u32`
/// first-occurrence ids that compares a row against the id's first row (so
/// no key borrows the block, and every buffer is leased).
///
/// Ids are assigned in first-occurrence order, which makes `codes` exactly
/// the code sequence the dictionary schemes write and the first rows their
/// dictionary. The block's encoder keeps the pass through selection, so
/// Dict and Dict+FSST hash nothing again.
pub(crate) struct Pass<'a, B: Keyed + ?Sized> {
    /// The block's statistics.
    pub stats: B::Stats,
    /// Per row: the id (dictionary code) of its value.
    pub codes: Lease<'a, Vec<i32>>,
    /// Per id: the row where its value first occurs.
    first_rows: Lease<'a, Vec<u32>>,
    /// Per id: how many rows hold its value.
    counts: Lease<'a, Vec<u32>>,
    /// Number of equal-value runs.
    runs: usize,
    block: &'a B,
}

impl<'a, B: Keyed + ?Sized> Pass<'a, B> {
    /// Runs the pass over `block`, leasing the table and side arrays.
    pub fn collect(block: &'a B, scratch: &'a Scratch) -> Self {
        let n = block.rows();
        // At most half full: every id is a distinct value, and there are at
        // most `n` of them.
        let slots = (2 * n).next_power_of_two().max(16);
        let mask = slots - 1;
        let mut table = scratch.lease::<Vec<u32>>(slots);
        table.resize(slots, EMPTY);
        let mut codes = scratch.lease::<Vec<i32>>(n);
        let mut first_rows = scratch.lease::<Vec<u32>>(n);
        let mut counts = scratch.lease::<Vec<u32>>(n);
        let (mut runs, mut prev) = (0usize, EMPTY);
        for row in 0..n {
            let key = block.key(row);
            let mut hasher = FxHasher::default();
            key.hash(&mut hasher);
            // lint: allow(cast) the mask keeps the slot below the table's length
            let mut slot = hasher.finish() as usize & mask;
            let id = loop {
                // lint: allow(indexing) slot is masked to the table's power-of-two length
                let id = table[slot];
                if id == EMPTY {
                    // lint: allow(cast) encode side: block rows and ids fit u32
                    let id = first_rows.len() as u32;
                    // lint: allow(indexing) slot is masked to the table's power-of-two length
                    table[slot] = id;
                    // lint: allow(cast) encode side: block rows fit u32
                    first_rows.push(row as u32);
                    counts.push(0);
                    break id;
                }
                // lint: allow(indexing) ids in the table index first_rows by construction
                if block.key(first_rows[id as usize] as usize) == key {
                    break id;
                }
                slot = (slot + 1) & mask;
            };
            // lint: allow(indexing) counts grows with first_rows, one entry per id
            counts[id as usize] += 1;
            runs += usize::from(id != prev);
            prev = id;
            // lint: allow(cast) encode side: dictionary sizes fit i32
            codes.push(id as i32);
        }
        let stats = block.stats(runs, &first_rows, &counts);
        Pass { stats, codes, first_rows, counts, runs, block }
    }

    /// The distinct keys in code order: the block's dictionary.
    pub fn dictionary(&self) -> impl Iterator<Item = B::Key<'a>> + Clone + '_ {
        let block = self.block;
        self.first_rows.iter().map(move |&row| block.key(row as usize))
    }

    /// The code sequence's [`IntegerStats`], derived without hashing a code:
    /// equal codes are equal values, so the count, distinct count and runs
    /// carry over, and the top code breaks ties toward the larger code, as
    /// [`NumericStats::collect`] does.
    pub fn code_stats(&self) -> IntegerStats {
        let (top_id, top_count) = self
            .counts
            .iter()
            .enumerate()
            .fold((0, 0), |best, (id, &c)| if c as usize >= best.1 { (id, c as usize) } else { best });
        let count = self.codes.len();
        NumericStats {
            count,
            unique_count: self.first_rows.len(),
            average_run_length: avg_run(count, self.runs),
            // lint: allow(cast) encode side: dictionary sizes fit i32
            top_value: top_id as i32,
            top_count,
        }
    }
}

fn avg_run(count: usize, runs: usize) -> f64 {
    if runs == 0 {
        0.0
    } else {
        count as f64 / runs as f64
    }
}

fn fraction(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_stats_basic() {
        let s = IntegerStats::collect(&[5, 5, 5, 1, 1, 9]);
        assert_eq!(s.count, 6);
        assert_eq!(s.unique_count, 3);
        assert_eq!(s.top_value, 5);
        assert_eq!(s.top_count, 3);
        assert!((s.average_run_length - 2.0).abs() < 1e-12);
    }

    #[test]
    fn integer_stats_empty() {
        let s = IntegerStats::collect(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.unique_count, 0);
        assert_eq!(s.average_run_length, 0.0);
        assert_eq!(s.unique_fraction(), 0.0);
    }

    #[test]
    fn double_stats_bitwise_uniqueness() {
        let s = DoubleStats::collect(&[0.0, -0.0, f64::NAN, f64::NAN]);
        // -0.0 differs from 0.0 bitwise; equal-payload NaNs are one value.
        assert_eq!(s.unique_count, 3);
        assert_eq!(s.top_count, 2);
    }

    #[test]
    fn string_stats_basic() {
        let arena = StringArena::from_strs(&["x", "x", "yy", "x", "zzz"]);
        let s = StringStats::collect(&arena);
        assert_eq!(s.unique_count, 3);
        assert_eq!(s.top_count, 3);
        assert_eq!(arena.get(s.top_index), b"x");
        assert_eq!(s.total_bytes, 8);
        assert_eq!(s.unique_bytes, 6);
    }

    #[test]
    fn top_value_ties_break_deterministically() {
        // 3 and 7 both appear twice: the larger value wins.
        let s = IntegerStats::collect(&[7, 3, 3, 7, 1]);
        assert_eq!((s.top_value, s.top_count), (7, 2));
        let d = DoubleStats::collect(&[2.0, 8.0, 8.0, 2.0]);
        assert_eq!((d.top_value, d.top_count), (8.0, 2));
        let arena = StringArena::from_strs(&["b", "a", "a", "b"]);
        let st = StringStats::collect(&arena);
        // Equal counts: earliest first occurrence wins.
        assert_eq!((st.top_index, st.top_count), (0, 2));
    }

    /// A seeded generator of values below `bound`.
    fn lcg(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |bound| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        }
    }

    /// The naive reference for [`Pass`]: a `BTreeMap` keyed by the keys,
    /// ids in first-occurrence order. Returns the codes, first rows, per-id
    /// counts and the number of runs.
    fn naive<K: Ord>(keys: impl Iterator<Item = K>) -> (Vec<i32>, Vec<u32>, Vec<usize>, usize) {
        let mut ids = std::collections::BTreeMap::new();
        let (mut codes, mut first_rows, mut counts) = (Vec::new(), Vec::new(), Vec::<usize>::new());
        for (row, key) in keys.enumerate() {
            let id = *ids.entry(key).or_insert_with(|| {
                first_rows.push(row as u32);
                counts.push(0);
                first_rows.len() - 1
            });
            counts[id] += 1;
            codes.push(id as i32);
        }
        let runs = codes.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!codes.is_empty());
        (codes, first_rows, counts, runs)
    }

    fn string_reference(arena: &StringArena) -> (StringStats, Vec<i32>, Vec<u32>) {
        let (codes, first_rows, counts, runs) = naive(arena.iter());
        let top = (0..counts.len()).rev().max_by_key(|&id| counts[id]);
        let stats = StringStats {
            count: arena.len(),
            unique_count: first_rows.len(),
            average_run_length: avg_run(arena.len(), runs),
            total_bytes: arena.iter().map(<[u8]>::len).sum(),
            unique_bytes: first_rows.iter().map(|&r| arena.get(r as usize).len()).sum(),
            top_index: top.map_or(0, |id| first_rows[id] as usize),
            top_count: top.map_or(0, |id| counts[id]),
        };
        (stats, codes, first_rows)
    }

    fn numeric_reference<V: Value>(values: &[V]) -> (NumericStats<V>, Vec<i32>, Vec<u32>) {
        let (codes, first_rows, counts, runs) = naive(values.iter().map(|v| v.to_bits()));
        let first = |id: usize| values[first_rows[id] as usize];
        // Equal counts: the larger bits win.
        let top = (0..counts.len()).max_by_key(|&id| (counts[id], first(id).to_bits()));
        let stats = NumericStats {
            count: values.len(),
            unique_count: first_rows.len(),
            average_run_length: avg_run(values.len(), runs),
            top_value: top.map_or(V::default(), first),
            top_count: top.map_or(0, |id| counts[id]),
        };
        (stats, codes, first_rows)
    }

    fn numeric_fields<V: Value>(s: &NumericStats<V>) -> (usize, usize, u64, V::Bits, usize) {
        let run = s.average_run_length.to_bits();
        (s.count, s.unique_count, run, s.top_value.to_bits(), s.top_count)
    }

    /// The code sequence's derived stats equal both the pass and the naive
    /// reference over the codes.
    fn check_code_stats<B: Keyed + ?Sized>(pass: &Pass<'_, B>, codes: &[i32]) {
        let derived = numeric_fields(&pass.code_stats());
        assert_eq!(derived, numeric_fields(&IntegerStats::collect(codes)));
        assert_eq!(derived, numeric_fields(&numeric_reference(codes).0));
    }

    #[test]
    fn string_pass_matches_a_naive_reference() {
        let long = |tail: &str| format!("prefix08{tail}");
        let mut next = lcg(7);
        let shapes: Vec<Vec<String>> = vec![
            vec![],
            vec!["".into(); 5],
            ["", "a", "", "", "a"].map(String::from).to_vec(),
            ["a", "a\0", "a\0\0", "a", "\0", "", "a\0"].map(String::from).to_vec(),
            [long(""), long("x"), long("y"), long("x"), long("xy"), long("x\0"), "prefix0".into()].to_vec(),
            vec!["same".into(); 1_000],
            (0..1_000).map(|i| format!("distinct-{i}")).collect(),
            // Top-count ties: "b" is first, "a" has the larger code.
            ["b", "a", "a", "b", "c"].map(String::from).to_vec(),
            (0..5_000).map(|_| long(&"z".repeat(next(40) as usize))).collect(),
            (0..5_000).map(|_| format!("{}", next(300))).collect(),
        ];
        for strings in &shapes {
            let arena = StringArena::from_strs(strings);
            let scratch = Scratch::new();
            let pass = Pass::collect(&arena, &scratch);
            let (want, codes, first_rows) = string_reference(&arena);
            let fields = |s: &StringStats| {
                let run = s.average_run_length.to_bits();
                (s.count, s.unique_count, run, s.total_bytes, s.unique_bytes, s.top_index, s.top_count)
            };
            assert_eq!(fields(&pass.stats), fields(&want), "{strings:?}");
            assert_eq!(fields(&StringStats::collect(&arena)), fields(&want));
            assert_eq!(*pass.codes, codes);
            assert_eq!(*pass.first_rows, first_rows);
            let dict: Vec<&[u8]> = first_rows.iter().map(|&r| arena.get(r as usize)).collect();
            assert_eq!(pass.dictionary().collect::<Vec<_>>(), dict);
            check_code_stats(&pass, &codes);
        }
    }

    fn numeric_pass_matches<V: Value>(values: &[V]) {
        let scratch = Scratch::new();
        let pass = Pass::collect(values, &scratch);
        let (want, codes, first_rows) = numeric_reference(values);
        let head = &values[..values.len().min(8)];
        assert_eq!(numeric_fields(&pass.stats), numeric_fields(&want), "{} values from {head:?}", values.len());
        assert_eq!(numeric_fields(&NumericStats::collect(values)), numeric_fields(&want));
        assert_eq!(*pass.codes, codes);
        assert_eq!(*pass.first_rows, first_rows);
        let dict: Vec<V::Bits> = first_rows.iter().map(|&r| values[r as usize].to_bits()).collect();
        assert_eq!(pass.dictionary().collect::<Vec<_>>(), dict);
        check_code_stats(&pass, &codes);
    }

    #[test]
    fn numeric_pass_matches_a_naive_reference() {
        let mut next = lcg(11);
        let ints: Vec<Vec<i32>> = vec![
            vec![],
            vec![-5; 1_000],
            (0..1_000).rev().collect(),
            vec![i32::MIN, i32::MAX, 0, i32::MIN, -1, i32::MAX, i32::MAX],
            // Top-count ties: 7 and 3 appear twice, the larger value wins.
            vec![7, 3, 3, 7, 1],
            (0..5_000).map(|_| next(300) as i32 - 150).collect(),
            (0..5_000)
                .map(|_| match next(4) {
                    0 => i32::MIN,
                    1 => i32::MAX,
                    _ => (next(1 << 16) << 16 | next(1 << 16)) as u32 as i32,
                })
                .collect(),
        ];
        for values in &ints {
            numeric_pass_matches(values);
        }
        let nan = |payload: u64| f64::from_bits(0x7FF8_0000_0000_0000 | payload);
        let doubles: Vec<Vec<f64>> = vec![
            vec![],
            vec![2.5; 1_000],
            (0..1_000).map(|i| f64::from(i) * 0.5).collect(),
            vec![0.0, -0.0, nan(1), nan(0xDEAD), nan(0xDEAD), -0.0, 0.0, nan(0xDEAD)],
            // Top-count ties: 2.0 and 8.0 appear twice, the larger bits win.
            vec![2.0, 8.0, 8.0, 2.0],
            (0..5_000).map(|_| next(200) as f64 * 0.25).collect(),
            (0..5_000).map(|_| f64::from_bits(next(1 << 31) << 33 | next(4))).collect(),
        ];
        for values in &doubles {
            numeric_pass_matches(values);
        }
    }

    #[test]
    fn run_length_of_constant_column() {
        let s = IntegerStats::collect(&[7; 1000]);
        assert_eq!(s.average_run_length, 1000.0);
        assert_eq!(s.unique_count, 1);
    }
}
