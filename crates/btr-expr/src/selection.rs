//! Selection vectors: which rows of a block survive the filter so far.
//!
//! Three representations, chosen by a density crossover rule so the engine
//! pays for what the selection actually is:
//!
//! * [`SelectionRepr::All`] — a dense range: every row selected. The common
//!   case for scans without a filter and for conjuncts proven always-true by
//!   zone maps; intersecting with it is free.
//! * [`SelectionRepr::Indices`] — a sorted index list. Used when fewer than
//!   1/8 of the rows survive: iteration and intersection are then O(selected)
//!   instead of O(rows).
//! * [`SelectionRepr::Bitmap`] — a Roaring bitmap for everything in between
//!   (also what the compressed-domain filter kernels hand back natively).
//!   Two bitmaps intersect through [`RoaringBitmap::intersection`], one
//!   container pair at a time; there is no second bitmap AND here.
//!
//! Every constructor normalizes: full cardinality collapses to `All`, sparse
//! results collapse to `Indices` (read straight from the containers with
//! [`RoaringBitmap::append_to`]). The crossover constant is
//! [`Selection::SPARSE_FRACTION`] (documented in DESIGN.md §16).

use btr_roaring::RoaringBitmap;

/// How a [`Selection`] stores its selected rows.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectionRepr {
    /// Every row in `0..rows` is selected (dense range).
    All,
    /// Selected rows as a Roaring bitmap.
    Bitmap(RoaringBitmap),
    /// Selected rows as a sorted, duplicate-free index list.
    Indices(Vec<u32>),
}

/// The set of selected rows within one block of `rows` rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    rows: u32,
    repr: SelectionRepr,
}

impl Selection {
    /// Indices win over a bitmap when `cardinality * SPARSE_FRACTION <= rows`.
    pub const SPARSE_FRACTION: u32 = 8;

    /// Every row of a `rows`-row block selected.
    pub fn all(rows: u32) -> Selection {
        Selection {
            rows,
            repr: SelectionRepr::All,
        }
    }

    /// No row selected.
    pub fn none(rows: u32) -> Selection {
        Selection {
            rows,
            repr: SelectionRepr::Indices(Vec::new()),
        }
    }

    /// Builds from a bitmap of selected positions, normalizing the
    /// representation by the crossover rule.
    pub fn from_bitmap(rows: u32, bitmap: RoaringBitmap) -> Selection {
        let card = clamp_card(bitmap.cardinality(), rows);
        if card == rows {
            return Selection::all(rows);
        }
        if sparse(card, rows) {
            let mut indices = Vec::with_capacity(card as usize);
            bitmap.append_to(&mut indices);
            return Selection {
                rows,
                repr: SelectionRepr::Indices(indices),
            };
        }
        Selection {
            rows,
            repr: SelectionRepr::Bitmap(bitmap),
        }
    }

    /// Builds from a sorted, duplicate-free index list, normalizing the
    /// representation by the crossover rule.
    pub fn from_sorted_indices(rows: u32, indices: Vec<u32>) -> Selection {
        let card = clamp_card(indices.len() as u64, rows);
        if card == rows {
            return Selection::all(rows);
        }
        if sparse(card, rows) {
            return Selection {
                rows,
                repr: SelectionRepr::Indices(indices),
            };
        }
        Selection {
            rows,
            repr: SelectionRepr::Bitmap(RoaringBitmap::from_sorted_iter(indices)),
        }
    }

    /// Number of rows in the block this selection describes.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The representation currently in use.
    pub fn repr(&self) -> &SelectionRepr {
        &self.repr
    }

    /// Number of selected rows.
    pub fn cardinality(&self) -> u32 {
        match &self.repr {
            SelectionRepr::All => self.rows,
            SelectionRepr::Bitmap(b) => clamp_card(b.cardinality(), self.rows),
            SelectionRepr::Indices(v) => clamp_card(v.len() as u64, self.rows),
        }
    }

    /// Whether no row is selected.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            SelectionRepr::All => self.rows == 0,
            SelectionRepr::Bitmap(b) => b.is_empty(),
            SelectionRepr::Indices(v) => v.is_empty(),
        }
    }

    /// Whether every row is selected.
    pub fn is_all(&self) -> bool {
        self.cardinality() == self.rows
    }

    /// Whether `row` is selected.
    pub fn contains(&self, row: u32) -> bool {
        match &self.repr {
            SelectionRepr::All => row < self.rows,
            SelectionRepr::Bitmap(b) => b.contains(row),
            SelectionRepr::Indices(v) => v.binary_search(&row).is_ok(),
        }
    }

    /// Iterates selected rows in ascending order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = u32> + '_> {
        match &self.repr {
            SelectionRepr::All => Box::new(0..self.rows),
            SelectionRepr::Bitmap(b) => Box::new(b.iter()),
            SelectionRepr::Indices(v) => Box::new(v.iter().copied()),
        }
    }

    /// Materializes as a Roaring bitmap (regardless of representation).
    pub fn to_bitmap(&self) -> RoaringBitmap {
        match &self.repr {
            SelectionRepr::All => RoaringBitmap::from_sorted_iter(0..self.rows),
            SelectionRepr::Bitmap(b) => b.clone(),
            SelectionRepr::Indices(v) => RoaringBitmap::from_sorted_iter(v.iter().copied()),
        }
    }

    /// Set intersection. Both selections must describe the same block; the
    /// result keeps `self.rows`.
    pub fn intersect(&self, other: &Selection) -> Selection {
        match (&self.repr, &other.repr) {
            (SelectionRepr::All, _) => {
                let mut out = other.clone();
                out.rows = self.rows;
                out
            }
            (_, SelectionRepr::All) => self.clone(),
            // With an index list on either side, filtering the (sorted) list
            // through the other side is O(selected · lookup).
            (SelectionRepr::Indices(v), _) => Selection::from_sorted_indices(
                self.rows,
                v.iter().copied().filter(|&r| other.contains(r)).collect(),
            ),
            (_, SelectionRepr::Indices(v)) => Selection::from_sorted_indices(
                self.rows,
                v.iter().copied().filter(|&r| self.contains(r)).collect(),
            ),
            // Roaring ANDs container by container; the crossover rule then
            // picks the result's representation.
            (SelectionRepr::Bitmap(a), SelectionRepr::Bitmap(b)) => {
                Selection::from_bitmap(self.rows, a.intersection(b))
            }
        }
    }

    /// Set union. Both selections must describe the same block; the result
    /// keeps `self.rows`.
    pub fn union(&self, other: &Selection) -> Selection {
        match (&self.repr, &other.repr) {
            (SelectionRepr::All, _) | (_, SelectionRepr::All) => Selection::all(self.rows),
            _ => Selection::from_bitmap(self.rows, self.to_bitmap().union(&other.to_bitmap())),
        }
    }

    /// The rows *not* selected.
    pub fn complement(&self) -> Selection {
        match &self.repr {
            SelectionRepr::All => Selection::none(self.rows),
            _ => Selection::from_sorted_indices(
                self.rows,
                (0..self.rows).filter(|&r| !self.contains(r)).collect(),
            ),
        }
    }
}

/// A bitmap built from block-relative positions can never exceed the block's
/// row count; clamp defensively instead of trusting the narrowing conversion.
fn clamp_card(card: u64, rows: u32) -> u32 {
    u32::try_from(card).unwrap_or(rows).min(rows)
}

fn sparse(card: u32, rows: u32) -> bool {
    u64::from(card) * u64::from(Selection::SPARSE_FRACTION) <= u64::from(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn crossover_rule_picks_representations() {
        // Full cardinality collapses to All.
        let s = Selection::from_bitmap(100, RoaringBitmap::from_sorted_iter(0..100));
        assert_eq!(s.repr(), &SelectionRepr::All);
        assert!(s.is_all());

        // <= 1/8 of rows selected: index list.
        let s = Selection::from_bitmap(100, RoaringBitmap::from_sorted_iter([3, 50, 97]));
        assert!(matches!(s.repr(), SelectionRepr::Indices(v) if v == &[3, 50, 97]));

        // In between: bitmap.
        let s = Selection::from_bitmap(100, RoaringBitmap::from_sorted_iter(0..50));
        assert!(matches!(s.repr(), SelectionRepr::Bitmap(_)));
        assert_eq!(s.cardinality(), 50);
    }

    #[test]
    fn intersect_across_representations() {
        let all = Selection::all(64);
        let sparse = Selection::from_sorted_indices(64, vec![1, 5, 9]);
        let dense = Selection::from_bitmap(64, RoaringBitmap::from_sorted_iter(0..32));

        assert_eq!(all.intersect(&sparse), sparse);
        assert_eq!(sparse.intersect(&all), sparse);
        let got = sparse.intersect(&dense);
        assert_eq!(got.iter().collect::<Vec<_>>(), vec![1, 5, 9]);
        let got = dense.intersect(&sparse);
        assert_eq!(got.iter().collect::<Vec<_>>(), vec![1, 5, 9]);
        let got = dense.intersect(&dense);
        assert_eq!(got.cardinality(), 32);
    }

    #[test]
    fn union_and_complement() {
        let a = Selection::from_sorted_indices(64, vec![1, 2]);
        let b = Selection::from_sorted_indices(64, vec![2, 3]);
        assert_eq!(a.union(&b).iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(a.union(&Selection::all(64)), Selection::all(64));

        let c = Selection::from_sorted_indices(4, vec![0, 2]);
        assert_eq!(c.complement().iter().collect::<Vec<_>>(), vec![1, 3]);
        assert!(Selection::all(4).complement().is_empty());
        assert!(Selection::none(4).complement().is_all());
    }

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
        // Bitmap × Bitmap across densities that land the result in each
        // representation (All / Bitmap / Indices) and across the 65,536-row
        // chunk boundary.
        let cases: [(u32, Vec<u32>, Vec<u32>); 4] = [
            (256, (0..256).collect(), (0..256).collect()),          // -> All
            (256, (0..128).collect(), (64..192).collect()),         // -> Bitmap
            (256, (0..256).step_by(2).collect(), (0..40).collect()), // -> Indices
            (
                200_000,
                (0..200_000).step_by(3).collect(),
                (0..200_000).step_by(2).collect(),
            ),
        ];
        for (rows, av, bv) in cases {
            let model: BTreeSet<u32> = av.iter().copied().collect();
            let expect: Vec<u32> = bv.iter().copied().filter(|v| model.contains(v)).collect();
            let [sa, sb] = [av, bv].map(|v| Selection {
                rows,
                repr: SelectionRepr::Bitmap(RoaringBitmap::from_sorted_iter(v)),
            });
            let got = sa.intersect(&sb);
            assert_eq!(got.rows(), rows);
            assert_eq!(got.iter().collect::<Vec<_>>(), expect, "rows {rows}");
            assert_eq!(got.cardinality() as usize, expect.len());
            assert_eq!(got, Selection::from_sorted_indices(rows, expect));
        }
    }

    #[test]
    fn iter_matches_contains() {
        let s = Selection::from_bitmap(32, RoaringBitmap::from_sorted_iter((0..32).step_by(3)));
        let via_iter: Vec<u32> = s.iter().collect();
        let via_contains: Vec<u32> = (0..32).filter(|&r| s.contains(r)).collect();
        assert_eq!(via_iter, via_contains);
        assert_eq!(s.to_bitmap().iter().collect::<Vec<_>>(), via_iter);
    }
}
