//! Sampling for compression-ratio estimation (paper §3.1, Figure 2).
//!
//! The sample must balance two needs: preserving *spatial locality* (so RLE
//! and FSST see realistic runs/substrings) and covering the *whole value
//! range* of the block (so dictionaries and Frequency see true cardinality).
//! BtrBlocks therefore draws several short runs from non-overlapping parts of
//! the block: the block is divided into `runs` equal parts and one
//! `run_len`-value window is taken from a pseudo-random position inside each
//! part.
//!
//! Randomness is a small deterministic xorshift seeded per block, keeping
//! compression reproducible without a RNG dependency.

use crate::types::StringArena;

/// A deterministic xorshift64* generator.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Creates a generator; a zero seed is replaced with a fixed constant.
    pub fn new(seed: u64) -> Self {
        XorShift(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    /// Next pseudo-random u64.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `0..bound` (`0` when `bound == 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            0
        } else {
            (self.next_u64() % bound as u64) as usize
        }
    }
}

/// Writes `(start, len)` windows for a sample of `runs` runs of `run_len`
/// values over a block of `n` values into `out` (cleared first), so the
/// selection loop can reuse one ranges buffer across candidate trials and
/// cascade levels.
///
/// The block is split into `runs` non-overlapping parts; each part
/// contributes one window at a pseudo-random offset. Small blocks degrade
/// gracefully: if `n` is at most the total sample size, the entire block is
/// returned as a single window (sampling would not save any work).
pub fn sample_ranges_into(
    n: usize,
    runs: usize,
    run_len: usize,
    seed: u64,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    let total = runs * run_len;
    if n == 0 {
        return;
    }
    if n <= total || runs == 0 || run_len == 0 {
        out.push((0, n));
        return;
    }
    let part = n / runs;
    let mut rng = XorShift::new(seed ^ n as u64);
    for r in 0..runs {
        let part_start = r * part;
        let part_len = if r == runs - 1 { n - part_start } else { part };
        let max_off = part_len.saturating_sub(run_len);
        let off = rng.below(max_off + 1);
        out.push((part_start + off, run_len));
    }
}

/// Gathers the sampled values of a fixed-width block into a caller-owned
/// buffer (cleared first).
pub fn gather_into<T: Copy>(values: &[T], ranges: &[(usize, usize)], out: &mut Vec<T>) {
    out.clear();
    for &(start, len) in ranges {
        // lint: allow(indexing) sample_ranges_into only yields in-bounds ranges
        out.extend_from_slice(&values[start..start + len]);
    }
}

/// Gathers sampled strings into a caller-owned arena (cleared first), one
/// run copy per window — the encode path leases one arena per worker instead
/// of allocating a fresh [`StringArena`] for every block's sample.
pub fn gather_str_into(arena: &StringArena, ranges: &[(usize, usize)], out: &mut StringArena) {
    out.clear();
    for &(start, len) in ranges {
        out.extend_from_range(arena, start..start + len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ranges(n: usize, runs: usize, run_len: usize, seed: u64) -> Vec<(usize, usize)> {
        let mut out = vec![(9, 9)]; // dirty: `_into` must clear, not append
        sample_ranges_into(n, runs, run_len, seed, &mut out);
        out
    }

    #[test]
    fn default_sampling_is_one_percent() {
        let ranges = sample_ranges(64_000, 10, 64, 42);
        assert_eq!(ranges.len(), 10);
        let total: usize = ranges.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 640);
    }

    #[test]
    fn ranges_are_non_overlapping_and_in_bounds() {
        let n = 64_000;
        let ranges = sample_ranges(n, 10, 64, 7);
        for w in ranges.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {w:?}");
        }
        for &(s, l) in &ranges {
            assert!(s + l <= n);
        }
    }

    #[test]
    fn small_blocks_return_everything() {
        assert_eq!(sample_ranges(100, 10, 64, 1), vec![(0, 100)]);
        assert_eq!(sample_ranges(640, 10, 64, 1), vec![(0, 640)]);
        assert!(sample_ranges(0, 10, 64, 1).is_empty());
    }

    #[test]
    fn deterministic_for_same_seed() {
        assert_eq!(sample_ranges(64_000, 10, 64, 5), sample_ranges(64_000, 10, 64, 5));
        assert_ne!(sample_ranges(64_000, 10, 64, 5), sample_ranges(64_000, 10, 64, 6));
    }

    #[test]
    fn gather_pulls_correct_values() {
        let values: Vec<i32> = (0..1000).collect();
        let ranges = vec![(10, 3), (500, 2)];
        let mut ints = vec![-1]; // dirty: `_into` must clear, not append
        gather_into(&values, &ranges, &mut ints);
        assert_eq!(ints, vec![10, 11, 12, 500, 501]);
        let doubles: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let mut sampled = Vec::new();
        gather_into(&doubles, &ranges, &mut sampled);
        assert_eq!(sampled, vec![10.0, 11.0, 12.0, 500.0, 501.0]);
    }

    #[test]
    fn gather_strings() {
        let arena = StringArena::from_strs(&["a", "b", "c", "d", "e"]);
        let mut sampled = StringArena::from_strs(&["stale"]);
        gather_str_into(&arena, &[(1, 2), (4, 1)], &mut sampled);
        assert_eq!(sampled.len(), 3);
        assert_eq!(sampled.get(0), b"b");
        assert_eq!(sampled.get(1), b"c");
        assert_eq!(sampled.get(2), b"e");
    }

    #[test]
    fn extreme_strategies_from_figure5() {
        // 640 single-tuple runs.
        let singles = sample_ranges(64_000, 640, 1, 3);
        assert_eq!(singles.len(), 640);
        assert!(singles.iter().all(|&(_, l)| l == 1));
        // One contiguous 640-tuple range.
        let single_range = sample_ranges(64_000, 1, 640, 3);
        assert_eq!(single_range.len(), 1);
        assert_eq!(single_range[0].1, 640);
    }
}
