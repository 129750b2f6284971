//! Compiling an [`Expr`] into a per-row-group evaluation plan.
//!
//! Compilation does three things:
//!
//! 1. **Bind** — column names resolve to `(index, ColumnType)` against the
//!    caller's schema, and the tree is type-checked (comparisons need equal
//!    operand types, arithmetic needs numerics, connectives need booleans,
//!    the root must be boolean).
//! 2. **Split** — the bound tree is split on top-level `AND` into
//!    *conjuncts*. Each conjunct is classified: a [`ConjunctKind::Leaf`]
//!    (`column op literal`, in either operand order) is eligible for
//!    zone-map pruning and compressed-domain evaluation; everything else is
//!    [`ConjunctKind::General`] and runs the vectorized row-wise kernel.
//! 3. **Prune** — per block, [`Conjunct::zone_verdict`] consults the zone
//!    map: `AlwaysFalse` short-circuits the whole block (it is never
//!    fetched), `AlwaysTrue` drops the conjunct from that block's residual
//!    work, `Unknown` means evaluate. NaN and empty-domain blocks are
//!    handled conservatively: a NaN literal matches nothing, a NaN-bearing
//!    double zone can veto `AlwaysFalse` claims but never supports
//!    `AlwaysTrue`, and string zones carry no order statistics so string
//!    conjuncts never prune.

use crate::expr::Expr;
use btrblocks::{BlockZone, CmpOp, ColumnType, Literal};
use std::fmt;

/// The value type an expression node produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueType {
    /// 32-bit integer.
    Int,
    /// 64-bit double.
    Double,
    /// Byte string.
    Str,
    /// Boolean (comparisons and connectives).
    Bool,
}

impl ValueType {
    /// The value type of a column of `ty`.
    pub fn of(ty: ColumnType) -> ValueType {
        match ty {
            ColumnType::Integer => ValueType::Int,
            ColumnType::Double => ValueType::Double,
            ColumnType::String => ValueType::Str,
        }
    }
}

/// Typed errors from expression compilation and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprError {
    /// A referenced column does not exist in the schema.
    UnknownColumn(String),
    /// Operand types don't line up (context says where).
    TypeMismatch(&'static str),
    /// The root of a filter expression must be boolean.
    NotBoolean,
    /// A column needed by evaluation was not provided.
    ColumnNotDecoded(usize),
    /// A selected row index exceeds the decoded block's length — the plan
    /// and the block disagree about the row count.
    RowOutOfRange,
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::UnknownColumn(name) => write!(f, "unknown column {name:?}"),
            ExprError::TypeMismatch(ctx) => write!(f, "type mismatch: {ctx}"),
            ExprError::NotBoolean => write!(f, "filter expression must be boolean"),
            ExprError::ColumnNotDecoded(idx) => {
                write!(f, "column {idx} not available to the evaluator")
            }
            ExprError::RowOutOfRange => write!(f, "selected row exceeds block length"),
        }
    }
}

impl std::error::Error for ExprError {}

/// Arithmetic operator of a bound numeric node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition (`i32` wrapping).
    Add,
    /// Subtraction (`i32` wrapping).
    Sub,
    /// Multiplication (`i32` wrapping).
    Mul,
}

/// An [`Expr`] with columns resolved to indices and types checked.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// A resolved column reference.
    Col {
        /// Source column index.
        index: usize,
        /// The column's type.
        ty: ColumnType,
    },
    /// A literal value.
    Lit(Literal),
    /// A comparison (both operands share a value type).
    Cmp {
        /// The comparison operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<BoundExpr>,
        /// Right operand.
        rhs: Box<BoundExpr>,
    },
    /// Logical conjunction.
    And(Box<BoundExpr>, Box<BoundExpr>),
    /// Logical disjunction.
    Or(Box<BoundExpr>, Box<BoundExpr>),
    /// Logical negation.
    Not(Box<BoundExpr>),
    /// Numeric arithmetic.
    Arith {
        /// The arithmetic operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<BoundExpr>,
        /// Right operand.
        rhs: Box<BoundExpr>,
    },
}

impl BoundExpr {
    /// The value type this node produces (well-defined after binding).
    pub fn value_type(&self) -> ValueType {
        match self {
            BoundExpr::Col { ty, .. } => ValueType::of(*ty),
            BoundExpr::Lit(Literal::Int(_)) => ValueType::Int,
            BoundExpr::Lit(Literal::Double(_)) => ValueType::Double,
            BoundExpr::Lit(Literal::Str(_)) => ValueType::Str,
            BoundExpr::Cmp { .. } | BoundExpr::And(..) | BoundExpr::Or(..) | BoundExpr::Not(_) => {
                ValueType::Bool
            }
            BoundExpr::Arith { lhs, .. } => lhs.value_type(),
        }
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            BoundExpr::Col { index, .. } => out.push(*index),
            BoundExpr::Lit(_) => {}
            BoundExpr::Cmp { lhs, rhs, .. } | BoundExpr::Arith { lhs, rhs, .. } => {
                lhs.collect_columns(out);
                rhs.collect_columns(out);
            }
            BoundExpr::And(a, b) | BoundExpr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            BoundExpr::Not(a) => a.collect_columns(out),
        }
    }
}

/// What one conjunct is, structurally.
#[derive(Debug, Clone, PartialEq)]
pub enum ConjunctKind {
    /// `column op literal` — eligible for zone pruning and compressed-domain
    /// evaluation through the per-scheme fast paths.
    Leaf {
        /// Source column index.
        column: usize,
        /// The column's type.
        ty: ColumnType,
        /// The comparison operator (normalized to column-on-the-left).
        op: CmpOp,
        /// The literal operand.
        literal: Literal,
    },
    /// Anything else: runs the vectorized row-wise kernel over the candidate
    /// selection.
    General(BoundExpr),
}

/// One top-level `AND` factor of the compiled filter.
#[derive(Debug, Clone, PartialEq)]
pub struct Conjunct {
    /// Structure of this conjunct.
    pub kind: ConjunctKind,
    /// Source columns this conjunct reads (sorted, deduplicated).
    pub columns: Vec<usize>,
}

/// Whether a zone map decides a conjunct for a whole block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneVerdict {
    /// No row of the block can satisfy the conjunct — skip the block.
    AlwaysFalse,
    /// Every row of the block satisfies the conjunct — drop the conjunct
    /// from this block's residual work.
    AlwaysTrue,
    /// The zone map cannot decide; evaluate the conjunct.
    Unknown,
}

impl Conjunct {
    /// Consults a zone map for this conjunct over a `rows`-row block.
    ///
    /// Conservative by construction: `AlwaysFalse` is exactly
    /// `!BlockZone::may_match` (NaN literals match nothing; string zones and
    /// general conjuncts never prune), and `AlwaysTrue` additionally
    /// requires a double zone to be NaN-free — a NaN row fails every
    /// comparison, so a NaN-bearing block is never fully selected by a
    /// comparison conjunct.
    pub fn zone_verdict(&self, zone: &BlockZone) -> ZoneVerdict {
        let ConjunctKind::Leaf { op, literal, .. } = &self.kind else {
            return ZoneVerdict::Unknown;
        };
        if !zone.may_match(*op, literal) {
            return ZoneVerdict::AlwaysFalse;
        }
        let always = match (zone, literal) {
            (BlockZone::Int { min, max }, Literal::Int(l)) => range_always(min, max, *op, l),
            (BlockZone::Double { min, max, has_nan }, Literal::Double(l)) => {
                !has_nan && !l.is_nan() && range_always(min, max, *op, l)
            }
            // String zones carry no order statistics; type mismatches were
            // already conservative in may_match.
            _ => false,
        };
        if always {
            ZoneVerdict::AlwaysTrue
        } else {
            ZoneVerdict::Unknown
        }
    }
}

/// Whether `v op lit` holds for *every* v in `[min, max]`.
fn range_always<T: PartialOrd>(min: &T, max: &T, op: CmpOp, lit: &T) -> bool {
    match op {
        CmpOp::Eq => min == lit && max == lit,
        CmpOp::Lt => max < lit,
        CmpOp::Le => max <= lit,
        CmpOp::Gt => min > lit,
        CmpOp::Ge => min >= lit,
    }
}

/// A compiled filter: bound, type-checked, split into conjuncts.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprPlan {
    /// Top-level `AND` factors, in evaluation order.
    pub conjuncts: Vec<Conjunct>,
    /// Every source column the filter reads (sorted, deduplicated).
    pub columns: Vec<usize>,
}

impl ExprPlan {
    /// Compiles `expr` against a schema. `resolve` maps a column name to its
    /// `(source index, type)`; returning `None` yields
    /// [`ExprError::UnknownColumn`].
    pub fn compile<F>(expr: &Expr, mut resolve: F) -> Result<ExprPlan, ExprError>
    where
        F: FnMut(&str) -> Option<(usize, ColumnType)>,
    {
        let bound = bind(expr, &mut resolve)?;
        if bound.value_type() != ValueType::Bool {
            return Err(ExprError::NotBoolean);
        }
        let mut factors = Vec::new();
        split_and(bound, &mut factors);
        let conjuncts: Vec<Conjunct> = factors.into_iter().map(classify).collect();
        let mut columns: Vec<usize> = conjuncts.iter().flat_map(|c| c.columns.clone()).collect();
        columns.sort_unstable();
        columns.dedup();
        Ok(ExprPlan { conjuncts, columns })
    }
}

fn bind<F>(expr: &Expr, resolve: &mut F) -> Result<BoundExpr, ExprError>
where
    F: FnMut(&str) -> Option<(usize, ColumnType)>,
{
    match expr {
        Expr::Col(name) => {
            let (index, ty) =
                resolve(name).ok_or_else(|| ExprError::UnknownColumn(name.clone()))?;
            Ok(BoundExpr::Col { index, ty })
        }
        Expr::Lit(l) => Ok(BoundExpr::Lit(l.clone())),
        Expr::Cmp(op, a, b) => {
            let lhs = bind(a, resolve)?;
            let rhs = bind(b, resolve)?;
            let (lt, rt) = (lhs.value_type(), rhs.value_type());
            if lt != rt || lt == ValueType::Bool {
                return Err(ExprError::TypeMismatch(
                    "comparison operands must share an int/double/string type",
                ));
            }
            Ok(BoundExpr::Cmp {
                op: *op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            })
        }
        Expr::And(a, b) => bind_bool2(a, b, resolve, BoundExpr::And),
        Expr::Or(a, b) => bind_bool2(a, b, resolve, BoundExpr::Or),
        Expr::Not(a) => {
            let inner = bind(a, resolve)?;
            if inner.value_type() != ValueType::Bool {
                return Err(ExprError::TypeMismatch("NOT needs a boolean operand"));
            }
            Ok(BoundExpr::Not(Box::new(inner)))
        }
        Expr::Add(a, b) => bind_arith(ArithOp::Add, a, b, resolve),
        Expr::Sub(a, b) => bind_arith(ArithOp::Sub, a, b, resolve),
        Expr::Mul(a, b) => bind_arith(ArithOp::Mul, a, b, resolve),
    }
}

fn bind_bool2<F>(
    a: &Expr,
    b: &Expr,
    resolve: &mut F,
    make: fn(Box<BoundExpr>, Box<BoundExpr>) -> BoundExpr,
) -> Result<BoundExpr, ExprError>
where
    F: FnMut(&str) -> Option<(usize, ColumnType)>,
{
    let lhs = bind(a, resolve)?;
    let rhs = bind(b, resolve)?;
    if lhs.value_type() != ValueType::Bool || rhs.value_type() != ValueType::Bool {
        return Err(ExprError::TypeMismatch("AND/OR need boolean operands"));
    }
    Ok(make(Box::new(lhs), Box::new(rhs)))
}

fn bind_arith<F>(op: ArithOp, a: &Expr, b: &Expr, resolve: &mut F) -> Result<BoundExpr, ExprError>
where
    F: FnMut(&str) -> Option<(usize, ColumnType)>,
{
    let lhs = bind(a, resolve)?;
    let rhs = bind(b, resolve)?;
    let (lt, rt) = (lhs.value_type(), rhs.value_type());
    if lt != rt || !matches!(lt, ValueType::Int | ValueType::Double) {
        return Err(ExprError::TypeMismatch(
            "arithmetic needs matching numeric operands",
        ));
    }
    Ok(BoundExpr::Arith {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    })
}

fn split_and(expr: BoundExpr, out: &mut Vec<BoundExpr>) {
    match expr {
        BoundExpr::And(a, b) => {
            split_and(*a, out);
            split_and(*b, out);
        }
        other => out.push(other),
    }
}

fn classify(bound: BoundExpr) -> Conjunct {
    let mut columns = Vec::new();
    bound.collect_columns(&mut columns);
    columns.sort_unstable();
    columns.dedup();
    // Leaf shapes: `col op lit` and `lit op col` (normalized by flipping).
    if let BoundExpr::Cmp { op, lhs, rhs } = &bound {
        match (lhs.as_ref(), rhs.as_ref()) {
            (BoundExpr::Col { index, ty }, BoundExpr::Lit(l)) => {
                return Conjunct {
                    kind: ConjunctKind::Leaf {
                        column: *index,
                        ty: *ty,
                        op: *op,
                        literal: l.clone(),
                    },
                    columns,
                };
            }
            (BoundExpr::Lit(l), BoundExpr::Col { index, ty }) => {
                return Conjunct {
                    kind: ConjunctKind::Leaf {
                        column: *index,
                        ty: *ty,
                        op: op.flip(),
                        literal: l.clone(),
                    },
                    columns,
                };
            }
            _ => {}
        }
    }
    Conjunct {
        kind: ConjunctKind::General(bound),
        columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    fn schema(name: &str) -> Option<(usize, ColumnType)> {
        match name {
            "id" => Some((0, ColumnType::Integer)),
            "val" => Some((1, ColumnType::Double)),
            "tag" => Some((2, ColumnType::String)),
            _ => None,
        }
    }

    #[test]
    fn compile_splits_conjuncts_and_classifies_leaves() {
        let e = col("id")
            .lt(lit(10))
            .and(lit(0.5).le(col("val")))
            .and(col("id").add(lit(1)).gt(lit(0)));
        let plan = ExprPlan::compile(&e, schema).unwrap();
        assert_eq!(plan.conjuncts.len(), 3);
        assert_eq!(plan.columns, vec![0, 1]);
        assert!(matches!(
            &plan.conjuncts[0].kind,
            ConjunctKind::Leaf { column: 0, op: CmpOp::Lt, .. }
        ));
        // `lit <= col` normalizes to `col >= lit`.
        assert!(matches!(
            &plan.conjuncts[1].kind,
            ConjunctKind::Leaf { column: 1, op: CmpOp::Ge, .. }
        ));
        assert!(matches!(&plan.conjuncts[2].kind, ConjunctKind::General(_)));
        // A lone string comparison is one leaf carrying its literal.
        let plan = ExprPlan::compile(&col("tag").eq(lit("x")), schema).unwrap();
        assert!(matches!(
            plan.conjuncts.as_slice(),
            [Conjunct { kind: ConjunctKind::Leaf { column: 2, op: CmpOp::Eq, literal, .. }, .. }]
                if *literal == Literal::from("x")
        ));
    }

    #[test]
    fn type_errors_are_typed() {
        assert_eq!(
            ExprPlan::compile(&col("nope").eq(lit(1)), schema),
            Err(ExprError::UnknownColumn("nope".into()))
        );
        assert!(matches!(
            ExprPlan::compile(&col("id").eq(lit(1.0)), schema),
            Err(ExprError::TypeMismatch(_))
        ));
        assert!(matches!(
            ExprPlan::compile(&col("tag").add(lit(1)), schema),
            Err(ExprError::TypeMismatch(_))
        ));
        assert_eq!(
            ExprPlan::compile(&col("id").add(lit(1)), schema),
            Err(ExprError::NotBoolean)
        );
        assert!(matches!(
            ExprPlan::compile(&col("id").eq(lit(1)).and(col("val")), schema),
            Err(ExprError::TypeMismatch(_))
        ));
    }

    fn leaf(op: CmpOp, literal: Literal) -> Conjunct {
        let ty = literal.column_type();
        Conjunct {
            kind: ConjunctKind::Leaf {
                column: 0,
                ty,
                op,
                literal,
            },
            columns: vec![0],
        }
    }

    #[test]
    fn zone_verdicts_int() {
        let zone = BlockZone::Int { min: 10, max: 20 };
        assert_eq!(
            leaf(CmpOp::Lt, Literal::Int(10)).zone_verdict(&zone),
            ZoneVerdict::AlwaysFalse
        );
        assert_eq!(
            leaf(CmpOp::Lt, Literal::Int(21)).zone_verdict(&zone),
            ZoneVerdict::AlwaysTrue
        );
        assert_eq!(
            leaf(CmpOp::Lt, Literal::Int(15)).zone_verdict(&zone),
            ZoneVerdict::Unknown
        );
        assert_eq!(
            leaf(CmpOp::Ge, Literal::Int(10)).zone_verdict(&zone),
            ZoneVerdict::AlwaysTrue
        );
        let one = BlockZone::Int { min: 7, max: 7 };
        assert_eq!(
            leaf(CmpOp::Eq, Literal::Int(7)).zone_verdict(&one),
            ZoneVerdict::AlwaysTrue
        );
        assert_eq!(
            leaf(CmpOp::Eq, Literal::Int(8)).zone_verdict(&one),
            ZoneVerdict::AlwaysFalse
        );
    }

    #[test]
    fn zone_nan_literal_prunes_everything() {
        // NaN satisfies no comparison: a NaN literal makes every conjunct
        // always-false, never always-true.
        let zone = BlockZone::Double {
            min: 0.0,
            max: 1.0,
            has_nan: false,
        };
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(
                leaf(op, Literal::Double(f64::NAN)).zone_verdict(&zone),
                ZoneVerdict::AlwaysFalse,
                "op {op:?}"
            );
        }
    }

    #[test]
    fn zone_nan_rows_veto_always_true() {
        // A NaN-bearing block can still prune (no non-NaN row in range ⇒
        // nothing matches), but can never be fully selected: the NaN rows
        // fail every comparison.
        let nan_zone = BlockZone::Double {
            min: 1.0,
            max: 2.0,
            has_nan: true,
        };
        assert_eq!(
            leaf(CmpOp::Le, Literal::Double(5.0)).zone_verdict(&nan_zone),
            ZoneVerdict::Unknown
        );
        assert_eq!(
            leaf(CmpOp::Gt, Literal::Double(5.0)).zone_verdict(&nan_zone),
            ZoneVerdict::AlwaysFalse
        );
        let clean = BlockZone::Double {
            min: 1.0,
            max: 2.0,
            has_nan: false,
        };
        assert_eq!(
            leaf(CmpOp::Le, Literal::Double(5.0)).zone_verdict(&clean),
            ZoneVerdict::AlwaysTrue
        );
    }

    #[test]
    fn zone_empty_domain_blocks_are_harmless() {
        // All-NaN / empty double blocks collapse to (0.0, 0.0) + has_nan in
        // zone_of; the NaN flag keeps them out of AlwaysTrue. Empty int
        // blocks collapse to (0, 0): any verdict is vacuous over zero rows,
        // but the verdicts must still be internally consistent.
        let all_nan = BlockZone::Double {
            min: 0.0,
            max: 0.0,
            has_nan: true,
        };
        assert_eq!(
            leaf(CmpOp::Le, Literal::Double(0.0)).zone_verdict(&all_nan),
            ZoneVerdict::Unknown
        );
        assert_eq!(
            leaf(CmpOp::Gt, Literal::Double(0.0)).zone_verdict(&all_nan),
            ZoneVerdict::AlwaysFalse
        );
        let empty_int = BlockZone::Int { min: 0, max: 0 };
        assert_eq!(
            leaf(CmpOp::Eq, Literal::Int(0)).zone_verdict(&empty_int),
            ZoneVerdict::AlwaysTrue
        );
    }

    #[test]
    fn string_and_general_conjuncts_never_always_true() {
        assert_eq!(
            leaf(CmpOp::Eq, Literal::from("x")).zone_verdict(&BlockZone::Str),
            ZoneVerdict::Unknown
        );
        let plan = ExprPlan::compile(&col("id").add(lit(0)).ge(lit(0)), schema).unwrap();
        assert_eq!(
            plan.conjuncts[0].zone_verdict(&BlockZone::Int { min: 5, max: 9 }),
            ZoneVerdict::Unknown
        );
    }

    #[test]
    fn zone_type_mismatch_is_conservative() {
        // A leaf whose literal type doesn't match the zone (corrupt sidecar
        // or schema drift) must not prune.
        let zone = BlockZone::Int { min: 0, max: 1 };
        assert_eq!(
            leaf(CmpOp::Eq, Literal::Double(0.5)).zone_verdict(&zone),
            ZoneVerdict::Unknown
        );
    }
}
