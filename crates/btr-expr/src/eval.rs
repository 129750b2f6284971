//! Vectorized evaluation: leaf kernels and the general row-wise kernel.
//!
//! [`filter_leaves`] is the *single* fast-path ladder for `column op
//! literal` conjuncts: it evaluates the AND of one column's leaves in one
//! kernel call, and [`filter_leaf`] is its one-leaf case. Every caller — the
//! scan pipeline's worker loop, the scan service, benches — goes through it,
//! so the decision "compressed-domain fast path vs decode-then-filter"
//! cannot drift between layers:
//!
//! * decoded input → `filter_decoded` (the cache-hit path), one walk over
//!   the block for all the leaves;
//! * compressed input → `filter_compressed`, the kernels, which evaluate
//!   without materializing the block;
//! * a block they have no kernel for → [`LeafVerdict::NeedsDecode`]: the
//!   caller decodes (and typically caches) the block, then calls back with
//!   the decoded column, so the block is decoded once.
//!
//! [`eval_predicate`] handles general conjuncts: it gathers the candidate
//! rows (the selection produced by the conjuncts evaluated so far — late
//! materialization applies to predicate work too), evaluates the bound tree
//! column-at-a-time over those rows, and returns the narrowed selection,
//! built from verdict words like every leaf kernel's answer.
//! Semantics are pinned: `i32` arithmetic wraps, doubles are IEEE 754, NaN
//! never satisfies any comparison, boolean logic is two-valued.

use crate::plan::{ArithOp, BoundExpr, ExprError, ValueType};
use crate::selection::Selection;
use btrblocks::{
    filter_compressed, filter_decoded, CmpOp, ColumnType, Config, DecodedColumn, Literal, Scratch,
    StringViews,
};
use btr_roaring::RoaringBitmap;

/// What a leaf conjunct evaluates over.
pub enum LeafInput<'a> {
    /// An already-decoded block (cache hit or prior decode).
    Decoded(&'a DecodedColumn),
    /// A compressed block as fetched.
    Compressed {
        /// The block's bytes.
        bytes: &'a [u8],
        /// The column's type.
        ty: ColumnType,
        /// Decode configuration.
        config: &'a Config,
    },
}

/// Outcome of [`filter_leaf`].
#[derive(Debug, Clone, PartialEq)]
pub enum LeafVerdict {
    /// The conjunct was evaluated; these rows match.
    Selected {
        /// Matching block-relative row positions.
        rows: RoaringBitmap,
        /// Whether evaluation ran in the compressed domain (scheme fast
        /// path) rather than over decoded values.
        compressed_domain: bool,
    },
    /// No fast path for this scheme: decode the block and call again with
    /// [`LeafInput::Decoded`].
    NeedsDecode,
}

/// Evaluates a `column op literal` leaf over one block: [`filter_leaves`]
/// with one leaf and a scratch of its own.
pub fn filter_leaf(
    input: LeafInput<'_>,
    op: CmpOp,
    literal: &Literal,
) -> btrblocks::Result<LeafVerdict> {
    filter_leaves(input, &[(op, literal.clone())], &Scratch::new())
}

/// Evaluates the AND of one column's leaves over one block in one kernel
/// call, leasing temporaries from `scratch`. See the module docs for the
/// ladder this collapses.
pub fn filter_leaves(
    input: LeafInput<'_>,
    leaves: &[(CmpOp, Literal)],
    scratch: &Scratch,
) -> btrblocks::Result<LeafVerdict> {
    match input {
        LeafInput::Decoded(col) => Ok(LeafVerdict::Selected {
            rows: filter_decoded(col, leaves, scratch)?,
            compressed_domain: false,
        }),
        LeafInput::Compressed { bytes, ty, config } => {
            Ok(match filter_compressed(bytes, ty, leaves, config, scratch)? {
                Some(rows) => LeafVerdict::Selected {
                    rows,
                    compressed_domain: true,
                },
                None => LeafVerdict::NeedsDecode,
            })
        }
    }
}

/// Provides decoded columns (by source index) to the general-conjunct
/// evaluator. The scan pipeline implements this over its per-group decode
/// context; a plain slice works for tests and standalone use.
pub trait ColumnAccess {
    /// The decoded block of source column `index`, if available.
    fn column(&self, index: usize) -> Option<&DecodedColumn>;
}

impl ColumnAccess for [DecodedColumn] {
    fn column(&self, index: usize) -> Option<&DecodedColumn> {
        self.get(index)
    }
}

impl ColumnAccess for Vec<DecodedColumn> {
    fn column(&self, index: usize) -> Option<&DecodedColumn> {
        self.get(index)
    }
}

/// Evaluates a boolean [`BoundExpr`] over the candidate rows of one block,
/// returning the narrowed selection. Every column the expression references
/// must be available through `cols` (decoded), and `candidates` carries the
/// block's row count.
pub fn eval_predicate(
    expr: &BoundExpr,
    cols: &dyn ColumnAccess,
    candidates: &Selection,
) -> Result<Selection, ExprError> {
    let mut rows = Vec::with_capacity(candidates.cardinality() as usize);
    candidates.append_to(&mut rows);
    let Vals::Bool(verdicts) = eval_vals(expr, cols, &rows)? else {
        return Err(ExprError::NotBoolean);
    };
    let mut words = vec![0u64; candidates.rows().div_ceil(64) as usize];
    for (&r, keep) in rows.iter().zip(verdicts) {
        if let Some(w) = words.get_mut(r as usize / 64) {
            *w |= u64::from(keep) << (r % 64);
        }
    }
    let bitmap = RoaringBitmap::from_words(&words);
    Ok(Selection::from_bitmap(candidates.rows(), bitmap))
}

/// Column-at-a-time values for the gathered candidate rows.
enum Vals {
    Int(Vec<i32>),
    Double(Vec<f64>),
    Bool(Vec<bool>),
}

fn eval_vals(expr: &BoundExpr, cols: &dyn ColumnAccess, rows: &[u32]) -> Result<Vals, ExprError> {
    match expr {
        BoundExpr::Col { index, .. } => {
            let col = cols
                .column(*index)
                .ok_or(ExprError::ColumnNotDecoded(*index))?;
            match col {
                DecodedColumn::Int(v) => gather_num(v, rows).map(Vals::Int),
                DecodedColumn::Double(v) => gather_num(v, rows).map(Vals::Double),
                // String columns only appear inside comparisons, which are
                // special-cased below to avoid materializing per-row copies.
                DecodedColumn::Str(_) => Err(ExprError::TypeMismatch(
                    "string column outside a comparison",
                )),
            }
        }
        BoundExpr::Lit(Literal::Int(l)) => Ok(Vals::Int(vec![*l; rows.len()])),
        BoundExpr::Lit(Literal::Double(l)) => Ok(Vals::Double(vec![*l; rows.len()])),
        BoundExpr::Lit(Literal::Str(_)) => Err(ExprError::TypeMismatch(
            "string literal outside a comparison",
        )),
        BoundExpr::Cmp { op, lhs, rhs } => {
            if lhs.value_type() == ValueType::Str {
                return eval_str_cmp(*op, lhs, rhs, cols, rows);
            }
            let a = eval_vals(lhs, cols, rows)?;
            let b = eval_vals(rhs, cols, rows)?;
            match (a, b) {
                (Vals::Int(a), Vals::Int(b)) => Ok(Vals::Bool(
                    a.iter().zip(&b).map(|(x, y)| op.matches(x, y)).collect(),
                )),
                (Vals::Double(a), Vals::Double(b)) => Ok(Vals::Bool(
                    a.iter().zip(&b).map(|(x, y)| op.matches(x, y)).collect(),
                )),
                _ => Err(ExprError::TypeMismatch("comparison operand types differ")),
            }
        }
        BoundExpr::And(a, b) => {
            let (a, b) = (eval_bool(a, cols, rows)?, eval_bool(b, cols, rows)?);
            Ok(Vals::Bool(a.iter().zip(&b).map(|(x, y)| *x && *y).collect()))
        }
        BoundExpr::Or(a, b) => {
            let (a, b) = (eval_bool(a, cols, rows)?, eval_bool(b, cols, rows)?);
            Ok(Vals::Bool(a.iter().zip(&b).map(|(x, y)| *x || *y).collect()))
        }
        BoundExpr::Not(a) => {
            let a = eval_bool(a, cols, rows)?;
            Ok(Vals::Bool(a.iter().map(|x| !x).collect()))
        }
        BoundExpr::Arith { op, lhs, rhs } => {
            let a = eval_vals(lhs, cols, rows)?;
            let b = eval_vals(rhs, cols, rows)?;
            match (a, b) {
                (Vals::Int(a), Vals::Int(b)) => {
                    let f = match op {
                        ArithOp::Add => i32::wrapping_add,
                        ArithOp::Sub => i32::wrapping_sub,
                        ArithOp::Mul => i32::wrapping_mul,
                    };
                    Ok(Vals::Int(a.iter().zip(&b).map(|(x, y)| f(*x, *y)).collect()))
                }
                (Vals::Double(a), Vals::Double(b)) => {
                    let f = match op {
                        ArithOp::Add => |x: f64, y: f64| x + y,
                        ArithOp::Sub => |x: f64, y: f64| x - y,
                        ArithOp::Mul => |x: f64, y: f64| x * y,
                    };
                    Ok(Vals::Double(
                        a.iter().zip(&b).map(|(x, y)| f(*x, *y)).collect(),
                    ))
                }
                _ => Err(ExprError::TypeMismatch("arithmetic operand types differ")),
            }
        }
    }
}

fn eval_bool(
    expr: &BoundExpr,
    cols: &dyn ColumnAccess,
    rows: &[u32],
) -> Result<Vec<bool>, ExprError> {
    match eval_vals(expr, cols, rows)? {
        Vals::Bool(v) => Ok(v),
        _ => Err(ExprError::TypeMismatch("expected a boolean subexpression")),
    }
}

fn gather_num<T: Copy>(values: &[T], rows: &[u32]) -> Result<Vec<T>, ExprError> {
    rows.iter()
        .map(|&r| {
            values
                .get(r as usize)
                .copied()
                .ok_or(ExprError::RowOutOfRange)
        })
        .collect()
}

/// String comparisons evaluate directly over views and literal bytes —
/// no per-row string materialization.
fn eval_str_cmp(
    op: CmpOp,
    lhs: &BoundExpr,
    rhs: &BoundExpr,
    cols: &dyn ColumnAccess,
    rows: &[u32],
) -> Result<Vals, ExprError> {
    enum Side<'a> {
        Views(&'a StringViews),
        Lit(&'a [u8]),
    }
    fn side<'a>(e: &'a BoundExpr, cols: &'a dyn ColumnAccess) -> Result<Side<'a>, ExprError> {
        match e {
            BoundExpr::Col { index, .. } => match cols.column(*index) {
                Some(DecodedColumn::Str(views)) => Ok(Side::Views(views)),
                Some(_) => Err(ExprError::TypeMismatch("expected a string column")),
                None => Err(ExprError::ColumnNotDecoded(*index)),
            },
            BoundExpr::Lit(Literal::Str(l)) => Ok(Side::Lit(l.as_slice())),
            // Binding guarantees string operands are columns or literals
            // (no operator produces strings), so this is unreachable on a
            // well-formed plan — keep it a typed error regardless.
            _ => Err(ExprError::TypeMismatch(
                "string comparison operands must be columns or literals",
            )),
        }
    }
    let (a, b) = (side(lhs, cols)?, side(rhs, cols)?);
    let mut out = Vec::with_capacity(rows.len());
    for &r in rows {
        let av: &[u8] = match &a {
            Side::Views(v) => {
                if (r as usize) < v.len() {
                    v.get(r as usize)
                } else {
                    return Err(ExprError::RowOutOfRange);
                }
            }
            Side::Lit(l) => l,
        };
        let bv: &[u8] = match &b {
            Side::Views(v) => {
                if (r as usize) < v.len() {
                    v.get(r as usize)
                } else {
                    return Err(ExprError::RowOutOfRange);
                }
            }
            Side::Lit(l) => l,
        };
        out.push(op.matches(&av, &bv));
    }
    Ok(Vals::Bool(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::plan::ExprPlan;
    use btrblocks::block::compress_block_with;
    use btrblocks::{BlockRef, SchemeCode};

    fn schema(name: &str) -> Option<(usize, ColumnType)> {
        match name {
            "a" => Some((0, ColumnType::Integer)),
            "b" => Some((1, ColumnType::Double)),
            "s" => Some((2, ColumnType::String)),
            _ => None,
        }
    }

    fn cols() -> Vec<DecodedColumn> {
        let arena = btrblocks::StringArena::from_strs(&["x", "y", "x", "z"]);
        vec![
            DecodedColumn::Int(vec![1, 2, 3, 4]),
            DecodedColumn::Double(vec![0.5, f64::NAN, 2.5, 3.5]),
            DecodedColumn::Str(StringViews::from_arena(&arena)),
        ]
    }

    fn run(e: &crate::Expr) -> Vec<u32> {
        let plan = ExprPlan::compile(e, schema).unwrap();
        let cols = cols();
        let mut sel = Selection::all(4);
        for c in &plan.conjuncts {
            let block = match &c.kind {
                crate::plan::ConjunctKind::General(b) => {
                    eval_predicate(b, &cols, &sel).unwrap()
                }
                crate::plan::ConjunctKind::Leaf {
                    column, op, literal, ..
                } => {
                    let decoded = &cols[*column];
                    let LeafVerdict::Selected { rows, .. } =
                        filter_leaf(LeafInput::Decoded(decoded), *op, literal).unwrap()
                    else {
                        panic!("decoded input always evaluates");
                    };
                    Selection::from_bitmap(4, rows)
                }
            };
            sel = sel.intersect(&block);
        }
        sel.iter().collect()
    }

    #[test]
    fn general_kernel_arithmetic_and_logic() {
        // (a + 1) * 2 > 6  ⇒  a > 2  ⇒ rows 2, 3
        assert_eq!(run(&col("a").add(lit(1)).mul(lit(2)).gt(lit(6))), vec![2, 3]);
        // NOT / OR over mixed conjuncts.
        assert_eq!(
            run(&col("a").eq(lit(1)).or(col("s").eq(lit("z")))),
            vec![0, 3]
        );
        assert_eq!(run(&col("a").lt(lit(3)).not().or(col("a").eq(lit(1)))), vec![0, 2, 3]);
    }

    #[test]
    fn nan_never_matches_in_general_kernel() {
        // Row 1 is NaN: fails b <= 100 and fails NOT(b > -100) alike.
        assert_eq!(run(&col("b").le(lit(100.0)).or(col("b").ge(lit(-100.0)))), vec![0, 2, 3]);
    }

    #[test]
    fn string_comparisons_including_col_vs_col() {
        assert_eq!(run(&col("s").eq(lit("x"))), vec![0, 2]);
        assert_eq!(run(&col("s").eq(col("s"))), vec![0, 1, 2, 3]);
        assert_eq!(run(&col("s").gt(lit("x"))), vec![1, 3]);
    }

    #[test]
    fn candidates_narrow_evaluation() {
        let plan = ExprPlan::compile(&col("a").ge(lit(2)), schema).unwrap();
        let crate::plan::ConjunctKind::Leaf { .. } = &plan.conjuncts[0].kind else {
            panic!("leaf expected");
        };
        // Drive the general path with a pre-narrowed candidate set.
        let bound = BoundExpr::Cmp {
            op: CmpOp::Ge,
            lhs: Box::new(BoundExpr::Col {
                index: 0,
                ty: ColumnType::Integer,
            }),
            rhs: Box::new(BoundExpr::Lit(Literal::Int(2))),
        };
        let candidates = Selection::from_bitmap(4, RoaringBitmap::from_sorted_iter([0, 3]));
        let got = eval_predicate(&bound, &cols(), &candidates).unwrap();
        assert_eq!(got.iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn filter_leaf_ladder() {
        let cfg = Config::default();
        let values = vec![7i32; 500];
        // Fast-path scheme: evaluated in the compressed domain.
        let bytes = compress_block_with(SchemeCode::OneValue, BlockRef::Int(&values), &cfg);
        let got = filter_leaf(
            LeafInput::Compressed {
                bytes: &bytes,
                ty: ColumnType::Integer,
                config: &cfg,
            },
            CmpOp::Eq,
            &Literal::Int(7),
        )
        .unwrap();
        assert!(matches!(
            got,
            LeafVerdict::Selected {
                compressed_domain: true,
                ..
            }
        ));

        // No fast path: the ladder reports NeedsDecode...
        let bytes = compress_block_with(SchemeCode::FastBp128, BlockRef::Int(&values), &cfg);
        let got = filter_leaf(
            LeafInput::Compressed {
                bytes: &bytes,
                ty: ColumnType::Integer,
                config: &cfg,
            },
            CmpOp::Eq,
            &Literal::Int(7),
        )
        .unwrap();
        assert_eq!(got, LeafVerdict::NeedsDecode);

        // ...and the decoded round answers with the same rows.
        let decoded = btrblocks::decompress_block(&bytes, ColumnType::Integer, &cfg).unwrap();
        let got = filter_leaf(LeafInput::Decoded(&decoded), CmpOp::Eq, &Literal::Int(7)).unwrap();
        let LeafVerdict::Selected {
            rows,
            compressed_domain,
        } = got
        else {
            panic!("decoded input always evaluates");
        };
        assert!(!compressed_domain);
        assert_eq!(rows.cardinality(), 500);

        // A string dictionary has no kernel either: it decodes to views.
        let arena = btrblocks::StringArena::from_strs(&["a", "b", "a", "c"]);
        let bytes = compress_block_with(SchemeCode::Dict, BlockRef::Str(&arena), &cfg);
        assert_eq!(bytes[0], SchemeCode::Dict.as_u8());
        let got = filter_leaf(
            LeafInput::Compressed {
                bytes: &bytes,
                ty: ColumnType::String,
                config: &cfg,
            },
            CmpOp::Eq,
            &Literal::Str(b"a".to_vec()),
        )
        .unwrap();
        assert_eq!(got, LeafVerdict::NeedsDecode);
    }

    #[test]
    fn missing_column_is_typed_error() {
        let bound = BoundExpr::Col {
            index: 9,
            ty: ColumnType::Integer,
        };
        let bound = BoundExpr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(bound),
            rhs: Box::new(BoundExpr::Lit(Literal::Int(0))),
        };
        assert!(matches!(
            eval_predicate(&bound, &cols(), &Selection::all(4)),
            Err(ExprError::ColumnNotDecoded(9))
        ));
    }
}
