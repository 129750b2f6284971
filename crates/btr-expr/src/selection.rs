//! Selection vectors: which rows of a block survive the filter so far.
//!
//! A [`Selection`] is the block's row count plus one [`RoaringBitmap`] of
//! the selected rows. Roaring's per-chunk container choice (an Array at
//! 4,096 values or fewer, a Bitmap above, Runs for ranges) is the only
//! density rule, so a sparse selection iterates in O(selected) and a dense
//! one ANDs 1,024 words per chunk. Two selections intersect through
//! [`RoaringBitmap::intersection`], one container pair at a time; a full
//! side makes the intersection free. The selected-row count is taken on
//! first read and kept, so an AND's result is popcounted by the AND and at
//! most once more, however many columns read it.
//!
//! The scan pipeline spells "every row" as `Option<Selection>::None`;
//! [`Selection::all`] builds the full-range bitmap a candidate set needs.

use btr_roaring::RoaringBitmap;
use std::sync::OnceLock;

/// The set of selected rows within one block of `rows` rows.
#[derive(Debug, Clone)]
pub struct Selection {
    rows: u32,
    bitmap: RoaringBitmap,
    /// The number of selected rows, once something has read it.
    card: OnceLock<u32>,
}

impl Selection {
    /// Every row of a `rows`-row block selected (one run per chunk).
    pub fn all(rows: u32) -> Selection {
        let bitmap = RoaringBitmap::from_sorted_ranges(std::iter::once(0..rows));
        Selection::counted(rows, bitmap, rows)
    }

    /// No row selected.
    pub fn none(rows: u32) -> Selection {
        Selection::counted(rows, RoaringBitmap::new(), 0)
    }

    /// Builds from a bitmap of selected positions, all below `rows`. The
    /// bitmap is not counted until [`Selection::cardinality`] asks.
    pub fn from_bitmap(rows: u32, bitmap: RoaringBitmap) -> Selection {
        Selection {
            rows,
            bitmap,
            card: OnceLock::new(),
        }
    }

    /// Builds from a sorted, duplicate-free list of positions below `rows`.
    pub fn from_sorted_indices(rows: u32, indices: Vec<u32>) -> Selection {
        let card = u32::try_from(indices.len()).unwrap_or(u32::MAX);
        Selection::counted(rows, RoaringBitmap::from_sorted_iter(indices), card)
    }

    fn counted(rows: u32, bitmap: RoaringBitmap, card: u32) -> Selection {
        Selection {
            rows,
            bitmap,
            card: OnceLock::from(card),
        }
    }

    /// Number of rows in the block this selection describes.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of selected rows, counted on the first call.
    pub fn cardinality(&self) -> u32 {
        *self
            .card
            .get_or_init(|| u32::try_from(self.bitmap.cardinality()).unwrap_or(u32::MAX))
    }

    /// Whether no row is selected.
    pub fn is_empty(&self) -> bool {
        self.bitmap.is_empty()
    }

    /// Whether every row is selected.
    pub fn is_all(&self) -> bool {
        self.cardinality() == self.rows
    }

    /// Whether `row` is selected.
    pub fn contains(&self, row: u32) -> bool {
        self.bitmap.contains(row)
    }

    /// Iterates selected rows in ascending order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = u32> + '_> {
        Box::new(self.bitmap.iter())
    }

    /// Appends the selected rows to `out` in ascending order, container by
    /// container rather than through [`Self::iter`]'s boxed iterator.
    pub fn append_to(&self, out: &mut Vec<u32>) {
        self.bitmap.append_to(out);
    }

    /// Set intersection. Both selections must describe the same block; the
    /// result keeps `self.rows`.
    pub fn intersect(&self, other: &Selection) -> Selection {
        if self.is_all() {
            return Selection {
                rows: self.rows,
                ..other.clone()
            };
        }
        if other.is_all() {
            return self.clone();
        }
        Selection::from_bitmap(self.rows, self.bitmap.intersection(&other.bitmap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_block_edge_cases() {
        let s = Selection::all(0);
        assert!(s.is_empty());
        assert!(s.is_all());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
    }

    #[test]
    fn bitmap_intersect_matches_a_set_model() {
        // Bitmap-built selections whose intersection is full, half, sparse,
        // and strided across the 65,536-row chunk boundary.
        let cases: [(u32, Vec<u32>, Vec<u32>); 4] = [
            (256, (0..256).collect(), (0..256).collect()),
            (256, (0..128).collect(), (64..192).collect()),
            (256, (0..256).step_by(2).collect(), (0..40).collect()),
            (
                200_000,
                (0..200_000).step_by(3).collect(),
                (0..200_000).step_by(2).collect(),
            ),
        ];
        for (rows, av, bv) in cases {
            let model: BTreeSet<u32> = av.iter().copied().collect();
            let expect: Vec<u32> = bv.iter().copied().filter(|v| model.contains(v)).collect();
            let [sa, sb] =
                [av, bv].map(|v| Selection::from_bitmap(rows, RoaringBitmap::from_sorted_iter(v)));
            let got = sa.intersect(&sb);
            assert_eq!(got.rows(), rows);
            assert_eq!(got.iter().collect::<Vec<_>>(), expect, "rows {rows}");
            assert_eq!(got.cardinality() as usize, expect.len());
        }
    }

    /// Selections of `rows` rows at every density the model test covers:
    /// a scattered shape (hash order) and a clustered one (one range, so
    /// Run containers), each with its `BTreeSet` model.
    fn model_cases(rows: u32) -> Vec<(Selection, BTreeSet<u32>)> {
        let (eighth, last) = (rows / 8, rows.saturating_sub(1));
        let mut densities = vec![0, 1, 4_096, 4_097, eighth, eighth + 1, last, rows];
        densities.retain(|&d| d <= rows);
        densities.sort_unstable();
        densities.dedup();
        let mut scattered: Vec<u32> = (0..rows).collect();
        scattered.sort_by_key(|&r| r.wrapping_mul(0x9E37_79B9).rotate_left(13) ^ 0x5bd1_e995);
        let mut out = Vec::new();
        for (i, &d) in densities.iter().enumerate() {
            let mut picked = scattered[..d as usize].to_vec();
            picked.sort_unstable();
            let model: BTreeSet<u32> = picked.iter().copied().collect();
            let sel = match d {
                0 => Selection::none(rows),
                _ if d == rows => Selection::all(rows),
                _ if i % 2 == 0 => Selection::from_sorted_indices(rows, picked),
                _ => Selection::from_bitmap(rows, RoaringBitmap::from_sorted_iter(picked)),
            };
            out.push((sel, model));
            let start = (rows - d) / 2;
            let model: BTreeSet<u32> = (start..start + d).collect();
            let sel = match d {
                0 => Selection::from_sorted_indices(rows, Vec::new()),
                _ => Selection::from_bitmap(
                    rows,
                    RoaringBitmap::from_sorted_ranges(std::iter::once(start..start + d)),
                ),
            };
            out.push((sel, model));
        }
        out
    }

    fn check(sel: &Selection, model: &BTreeSet<u32>, rows: u32, what: &str) {
        assert_eq!(sel.rows(), rows, "{what}");
        assert!(sel.iter().eq(model.iter().copied()), "{what}: iter");
        assert_eq!(sel.cardinality() as usize, model.len(), "{what}: cardinality");
        assert_eq!(sel.is_all(), model.len() == rows as usize, "{what}: is_all");
        assert_eq!(sel.is_empty(), model.is_empty(), "{what}: is_empty");
        let probes = (0..rows + 2).step_by(331).chain(model.iter().copied().step_by(97));
        for row in probes.chain(model.last().copied()) {
            assert_eq!(sel.contains(row), model.contains(&row), "{what}: contains({row})");
        }
    }

    #[test]
    fn selection_matches_a_set_model() {
        // Densities 0, 1, 4,096, 4,097, rows/8, rows/8 + 1, rows - 1 and
        // rows; 200,000 rows cross the 65,536-row chunk boundary.
        for rows in [0u32, 100, 64_000, 200_000] {
            let cases = model_cases(rows);
            for (i, (sel, model)) in cases.iter().enumerate() {
                check(sel, model, rows, &format!("rows {rows} case {i}"));
            }
            for (i, (a, ma)) in cases.iter().enumerate() {
                for (j, (b, mb)) in cases.iter().enumerate() {
                    let what = format!("rows {rows}: {i} & {j}");
                    let mab: BTreeSet<u32> = ma.intersection(mb).copied().collect();
                    let ab = a.intersect(b);
                    check(&ab, &mab, rows, &what);
                    if (i + j) % 3 != 0 {
                        continue;
                    }
                    // Chained: (a & b) & c and c & (b & a).
                    let (c, mc) = &cases[(i + 2 * j) % cases.len()];
                    let mabc: BTreeSet<u32> = mab.intersection(mc).copied().collect();
                    check(&ab.intersect(c), &mabc, rows, &format!("{what} & c"));
                    check(&c.intersect(&b.intersect(a)), &mabc, rows, &format!("c & {what}"));
                }
            }
        }
    }

    #[test]
    fn iter_matches_contains() {
        let s = Selection::from_bitmap(32, RoaringBitmap::from_sorted_iter((0..32).step_by(3)));
        let via_iter: Vec<u32> = s.iter().collect();
        let via_contains: Vec<u32> = (0..32).filter(|&r| s.contains(r)).collect();
        assert_eq!(via_iter, via_contains);
    }
}
