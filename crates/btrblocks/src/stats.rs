//! Per-block statistics, collected in a single pass (plus one hash map).
//!
//! The selection algorithm uses these to filter out non-viable schemes before
//! any sample compression happens (paper §3, step 1–2): e.g. RLE is excluded
//! when the average run length is below 2 and Frequency when more than half
//! the values are unique.

use crate::fxhash::FxHashMap;
use crate::scheme::fixed::Value;
use crate::types::StringArena;

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
    /// Collects statistics over `arena`.
    pub fn collect(arena: &StringArena) -> Self {
        let mut counts: FxHashMap<&[u8], (usize, usize)> =
            FxHashMap::with_capacity_and_hasher(arena.len() / 4 + 1, Default::default());
        let mut runs = 0usize;
        let mut prev: Option<&[u8]> = None;
        let mut unique_bytes = 0usize;
        for i in 0..arena.len() {
            let s = arena.get(i);
            let entry = counts.entry(s).or_insert_with(|| {
                unique_bytes += s.len();
                (0, i)
            });
            entry.0 += 1;
            if prev != Some(s) {
                runs += 1;
            }
            prev = Some(s);
        }
        // Deterministic tie-break toward the earliest first occurrence
        // (see NumericStats for why iteration order must not decide).
        let (top_index, top_count) = counts
            .values()
            .max_by_key(|&&(c, i)| (c, std::cmp::Reverse(i)))
            .map(|&(c, i)| (i, c))
            .unwrap_or((0, 0));
        StringStats {
            count: arena.len(),
            unique_count: counts.len(),
            average_run_length: avg_run(arena.len(), runs),
            total_bytes: arena.total_bytes(),
            unique_bytes,
            top_index,
            top_count,
        }
    }

    /// Fraction of strings that are distinct (0.0 for empty blocks).
    pub fn unique_fraction(&self) -> f64 {
        fraction(self.unique_count, self.count)
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

    #[test]
    fn run_length_of_constant_column() {
        let s = IntegerStats::collect(&[7; 1000]);
        assert_eq!(s.average_run_length, 1000.0);
        assert_eq!(s.unique_count, 1);
    }
}
