//! Per-block statistics, collected in a single pass: numeric blocks count
//! into a leased hash map, string blocks into a leased probe table that is
//! also the block's dictionary (`StringPass`).
//!
//! The selection algorithm uses these to filter out non-viable schemes before
//! any sample compression happens (paper §3, step 1–2): e.g. RLE is excluded
//! when the average run length is below 2 and Frequency when more than half
//! the values are unique.

use crate::fxhash::{FxHashMap, FxHasher};
use crate::scheme::fixed::Value;
use crate::scratch::{Lease, Scratch};
use crate::types::StringArena;
use std::hash::Hasher;

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
    /// Collects statistics over `values`.
    pub fn collect(values: &[V]) -> Self {
        let mut counts =
            FxHashMap::with_capacity_and_hasher(values.len() / 4 + 1, Default::default());
        Self::collect_with_map(values, &mut counts)
    }

    /// [`collect`](Self::collect) reusing a caller-owned count map (cleared
    /// first) so the encode scratch arena can pool it across blocks.
    pub fn collect_with_map(values: &[V], counts: &mut FxHashMap<V::Bits, usize>) -> Self {
        counts.clear();
        let mut runs = 0usize;
        let mut prev: Option<V::Bits> = None;
        for &v in values {
            let bits = v.to_bits();
            *counts.entry(bits).or_insert(0) += 1;
            if prev != Some(bits) {
                runs += 1;
            }
            prev = Some(bits);
        }
        // Ties on count break toward the larger `Bits` (the larger integer,
        // the larger bit pattern): the winner must not depend on hash-map
        // iteration order (and hence map capacity), or pooled maps would make
        // serial and parallel output diverge.
        let (top_bits, top_count) = counts
            .iter()
            .max_by_key(|&(&v, &c)| (c, v))
            .map(|(&v, &c)| (v, c))
            .unwrap_or_default();
        NumericStats {
            count: values.len(),
            unique_count: counts.len(),
            average_run_length: avg_run(values.len(), runs),
            top_value: V::from_bits(top_bits),
            top_count,
        }
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
    /// Collects statistics over `arena`: the encode path's `StringPass`
    /// over a fresh [`Scratch`], its dictionary discarded.
    pub fn collect(arena: &StringArena) -> Self {
        StringPass::collect(arena, &Scratch::new()).stats
    }

    /// Fraction of strings that are distinct (0.0 for empty blocks).
    pub fn unique_fraction(&self) -> f64 {
        fraction(self.unique_count, self.count)
    }
}

/// Marks an empty slot of the [`StringPass`] probe table.
const EMPTY: u32 = u32::MAX;

/// A string block's one statistics pass, which is also its dictionary
/// builder: every string is hashed once, into a linear-probing table of
/// `u32` first-occurrence ids that compares a row against the id's first
/// row (so no key borrows the block, and every buffer is leased).
///
/// Ids are assigned in first-occurrence order, which makes `codes` exactly
/// the code sequence the dictionary schemes write and `first_rows` their
/// dictionary. The block's encoder keeps the pass through selection, so
/// Dict and Dict+FSST hash nothing again.
pub(crate) struct StringPass<'a> {
    /// The block's statistics.
    pub stats: StringStats,
    /// Per row: the id (dictionary code) of its string.
    pub codes: Lease<'a, Vec<i32>>,
    /// Per id: the row where its string first occurs.
    first_rows: Lease<'a, Vec<u32>>,
    /// Per id: how many rows hold its string.
    counts: Lease<'a, Vec<u32>>,
    arena: &'a StringArena,
}

impl<'a> StringPass<'a> {
    /// Runs the pass over `arena`, leasing the table and side arrays.
    pub fn collect(arena: &'a StringArena, scratch: &'a Scratch) -> Self {
        let n = arena.len();
        // At most half full: every id is a distinct string, and there are at
        // most `n` of them.
        let slots = (2 * n).next_power_of_two().max(16);
        let mask = slots - 1;
        let mut table = scratch.lease::<Vec<u32>>(slots);
        table.resize(slots, EMPTY);
        let mut codes = scratch.lease::<Vec<i32>>(n);
        let mut first_rows = scratch.lease::<Vec<u32>>(n);
        let mut counts = scratch.lease::<Vec<u32>>(n);
        let (mut runs, mut unique_bytes, mut prev) = (0usize, 0usize, EMPTY);
        for (row, s) in arena.iter().enumerate() {
            let mut hasher = FxHasher::default();
            hasher.write(s);
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
                    unique_bytes += s.len();
                    break id;
                }
                // lint: allow(indexing) ids in the table index first_rows by construction
                if arena.get(first_rows[id as usize] as usize) == s {
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
        // Deterministic tie-break toward the earliest first occurrence, the
        // smallest id (see NumericStats for why iteration order must not
        // decide).
        let (top_id, top_count) = counts
            .iter()
            .enumerate()
            .fold((0, 0), |best, (id, &c)| if c as usize > best.1 { (id, c as usize) } else { best });
        let stats = StringStats {
            count: n,
            unique_count: first_rows.len(),
            average_run_length: avg_run(n, runs),
            total_bytes: arena.total_bytes(),
            unique_bytes,
            top_index: first_rows.get(top_id).map_or(0, |&r| r as usize),
            top_count,
        };
        StringPass { stats, codes, first_rows, counts, arena }
    }

    /// The distinct strings in code order: the block's dictionary.
    pub fn dictionary(&self) -> impl Iterator<Item = &'a [u8]> + Clone + '_ {
        let arena = self.arena;
        self.first_rows.iter().map(move |&row| arena.get(row as usize))
    }

    /// The code sequence's [`IntegerStats`], derived without hashing a code:
    /// equal codes are equal strings, so the count, distinct count and runs
    /// carry over, and the top code breaks ties toward the larger code, as
    /// [`NumericStats::collect`] does.
    pub fn code_stats(&self) -> IntegerStats {
        let (top_id, top_count) = self
            .counts
            .iter()
            .enumerate()
            .fold((0, 0), |best, (id, &c)| if c as usize >= best.1 { (id, c as usize) } else { best });
        NumericStats {
            count: self.stats.count,
            unique_count: self.stats.unique_count,
            average_run_length: self.stats.average_run_length,
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
        // 3 and 7 both appear twice; the larger value must win regardless of
        // the count map's capacity (and hence iteration order).
        let values = [7, 3, 3, 7, 1];
        for extra_capacity in [0usize, 16, 1024] {
            let mut map =
                FxHashMap::with_capacity_and_hasher(extra_capacity, Default::default());
            let s = IntegerStats::collect_with_map(&values, &mut map);
            assert_eq!((s.top_value, s.top_count), (7, 2));
        }
        let d = DoubleStats::collect(&[2.0, 8.0, 8.0, 2.0]);
        assert_eq!((d.top_value, d.top_count), (8.0, 2));
        let arena = StringArena::from_strs(&["b", "a", "a", "b"]);
        let st = StringStats::collect(&arena);
        // Equal counts: earliest first occurrence wins.
        assert_eq!((st.top_index, st.top_count), (0, 2));
    }

    #[test]
    fn collect_with_map_matches_collect() {
        let values: Vec<i32> = (0..500).map(|i| i % 37).collect();
        let fresh = IntegerStats::collect(&values);
        let mut map = FxHashMap::default();
        map.insert(999, 999); // dirty map must be cleared
        let pooled = IntegerStats::collect_with_map(&values, &mut map);
        assert_eq!(
            (fresh.unique_count, fresh.top_value, fresh.top_count),
            (pooled.unique_count, pooled.top_value, pooled.top_count)
        );
    }

    /// The naive reference for [`StringPass`]: a `BTreeMap` keyed by the
    /// strings, ids in first-occurrence order.
    fn reference(arena: &StringArena) -> (StringStats, Vec<i32>, Vec<u32>) {
        let mut ids: std::collections::BTreeMap<&[u8], usize> = Default::default();
        let (mut codes, mut first_rows, mut counts) = (Vec::new(), Vec::new(), Vec::<usize>::new());
        for (row, s) in arena.iter().enumerate() {
            let id = *ids.entry(s).or_insert_with(|| {
                first_rows.push(row as u32);
                counts.push(0);
                first_rows.len() - 1
            });
            counts[id] += 1;
            codes.push(id as i32);
        }
        let runs = codes.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!codes.is_empty());
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

    #[test]
    fn string_pass_matches_a_naive_reference() {
        let long = |tail: &str| format!("prefix08{tail}");
        let mut lcg = 7u64;
        let mut next = |bound: u64| {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (lcg >> 33) % bound
        };
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
            let pass = StringPass::collect(&arena, &scratch);
            let (want, codes, first_rows) = reference(&arena);
            let got = &pass.stats;
            let fields = |s: &StringStats| {
                let run = s.average_run_length.to_bits();
                (s.count, s.unique_count, run, s.total_bytes, s.unique_bytes, s.top_index, s.top_count)
            };
            assert_eq!(fields(got), fields(&want), "{strings:?}");
            assert_eq!(fields(&StringStats::collect(&arena)), fields(&want));
            assert_eq!(*pass.codes, codes);
            assert_eq!(*pass.first_rows, first_rows);
            let dict: Vec<&[u8]> = first_rows.iter().map(|&r| arena.get(r as usize)).collect();
            assert_eq!(pass.dictionary().collect::<Vec<_>>(), dict);

            let (derived, hashed) = (pass.code_stats(), IntegerStats::collect(&codes));
            let fields = |s: &IntegerStats| {
                let run = s.average_run_length.to_bits();
                (s.count, s.unique_count, run, s.top_value, s.top_count)
            };
            assert_eq!(fields(&derived), fields(&hashed), "{strings:?}");
        }
    }

    #[test]
    fn run_length_of_constant_column() {
        let s = IntegerStats::collect(&[7; 1000]);
        assert_eq!(s.average_run_length, 1000.0);
        assert_eq!(s.unique_count, 1);
    }
}
