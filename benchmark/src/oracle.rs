//! The correctness oracle: a naive row-wise evaluation of a [`Query`] over
//! the original, never-compressed columns, and the digest both sides are
//! compared by. It shares no code with the scan path: plain Rust
//! comparisons, one row at a time.

use crate::data::{column, Query};
use btr_expr::{AggKind, AggValue};
use btr_scan::RecordBatch;
use btrblocks::{CmpOp, ColumnData, Literal, Relation};

/// Row count plus an order-independent checksum of the projected values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub checksum: u64,
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    // FNV-1a
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Hash of row `i` of `data`, salted with the projection slot so swapped
/// columns do not cancel.
fn cell(data: &ColumnData, i: usize, slot: usize) -> u64 {
    let v = match data {
        ColumnData::Int(v) => v[i] as u32 as u64,
        ColumnData::Double(v) => v[i].to_bits(),
        ColumnData::Str(a) => hash_bytes(a.get(i)),
    };
    mix(v ^ mix(slot as u64 + 1))
}

impl Digest {
    /// Folds every row of every column of `batch` in.
    pub fn add_batch(&mut self, batch: &RecordBatch) {
        self.rows += batch.rows() as u64;
        for (slot, (_, data)) in batch.columns.iter().enumerate() {
            for i in 0..data.len() {
                self.checksum = self.checksum.wrapping_add(cell(data, i, slot));
            }
        }
    }

    /// Digest of a drained scan.
    pub fn of_batches(batches: &[RecordBatch]) -> Digest {
        let mut d = Digest::default();
        batches.iter().for_each(|b| d.add_batch(b));
        d
    }
}

fn matches(data: &ColumnData, i: usize, op: CmpOp, literal: &Literal) -> bool {
    match (data, literal) {
        (ColumnData::Int(v), Literal::Int(l)) => op.matches(&v[i], l),
        (ColumnData::Double(v), Literal::Double(l)) => op.matches(&v[i], l),
        (ColumnData::Str(a), Literal::Str(l)) => op.matches(&a.get(i), &l.as_slice()),
        _ => panic!("literal type does not match the column"),
    }
}

/// What the naive evaluation of a query yields.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub digest: Digest,
    pub aggs: Vec<AggValue>,
}

/// Evaluates `query` row by row over `rel`.
pub fn evaluate(rel: &Relation, query: &Query) -> Expected {
    let leaves: Vec<_> = query
        .leaves
        .iter()
        .map(|(name, op, lit)| (column(rel, name), *op, lit))
        .collect();
    let project: Vec<_> = query.project.iter().map(|name| column(rel, name)).collect();
    let agg_cols: Vec<_> = query.aggs.iter().map(|a| column(rel, &a.column)).collect();
    let mut digest = Digest::default();
    let mut count = vec![0u64; agg_cols.len()];
    let mut sum = vec![0f64; agg_cols.len()];
    for i in 0..rel.rows() {
        if !leaves
            .iter()
            .all(|(data, op, lit)| matches(data, i, *op, lit))
        {
            continue;
        }
        digest.rows += 1;
        for (slot, data) in project.iter().enumerate() {
            digest.checksum = digest.checksum.wrapping_add(cell(data, i, slot));
        }
        for (k, data) in agg_cols.iter().enumerate() {
            count[k] += 1;
            if let ColumnData::Double(v) = data {
                sum[k] += v[i]; // ascending row order, like the engine's fold
            }
        }
    }
    let aggs = query
        .aggs
        .iter()
        .enumerate()
        .map(|(k, a)| match (a.kind, agg_cols[k]) {
            (AggKind::Count, _) => AggValue::Count(count[k]),
            (AggKind::Sum, ColumnData::Double(_)) => AggValue::SumDouble(sum[k]),
            other => panic!("the oracle does not model aggregate {other:?}"),
        })
        .collect();
    Expected { digest, aggs }
}

/// Bit-exact equality of aggregate results (a double sum must match to the
/// last bit: the engine promises the naive fold order).
pub fn aggs_equal(a: &[AggValue], b: &[AggValue]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (AggValue::SumDouble(x), AggValue::SumDouble(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        })
}

/// Bit-exact equality of two relations: names, NULL bitmaps, and values, with
/// doubles compared by bit pattern (`==` would equate `0.0` and `-0.0` and
/// reject equal NaNs).
pub fn relations_identical(a: &Relation, b: &Relation) -> bool {
    a.columns.len() == b.columns.len()
        && a.columns.iter().zip(&b.columns).all(|(x, y)| {
            x.name == y.name
                && x.nulls == y.nulls
                && match (&x.data, &y.data) {
                    (ColumnData::Double(p), ColumnData::Double(q)) => {
                        p.len() == q.len()
                            && p.iter().zip(q).all(|(u, v)| u.to_bits() == v.to_bits())
                    }
                    (p, q) => p == q,
                }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrblocks::Column;

    #[test]
    fn relations_identical_is_bitwise_on_doubles() {
        let rel = |v: f64| Relation::new(vec![Column::new("d", ColumnData::Double(vec![v]))]);
        assert!(relations_identical(&rel(f64::NAN), &rel(f64::NAN)));
        assert!(!relations_identical(&rel(0.0), &rel(-0.0)));
    }

    #[test]
    fn digest_ignores_row_order_but_not_column_order() {
        let batch = |a: Vec<i32>, b: Vec<i32>| RecordBatch {
            columns: vec![
                ("a".into(), ColumnData::Int(a)),
                ("b".into(), ColumnData::Int(b)),
            ],
        };
        let d = |x: &RecordBatch| Digest::of_batches(std::slice::from_ref(x));
        assert_eq!(
            d(&batch(vec![1, 2], vec![3, 4])),
            d(&batch(vec![2, 1], vec![4, 3]))
        );
        assert_ne!(
            d(&batch(vec![1, 2], vec![3, 4])),
            d(&batch(vec![3, 4], vec![1, 2]))
        );
    }
}
