//! Vectorized expression engine over compressed BtrBlocks columns.
//!
//! The paper's premise is that decompression runs at wire speed — which makes
//! the *query* layer the next bottleneck. This crate grows the original
//! single-predicate pushdown into a small vectorized engine, following the
//! composable-columnar-operator model ("A computational model for analytic
//! column stores"): selection vectors are the carrier between operators, and
//! every operator is free to exploit the compressed representation when the
//! scheme supports it.
//!
//! The pieces, bottom-up:
//!
//! * [`Selection`] — the selection vector: a block's row count plus one
//!   Roaring bitmap, whose per-chunk Array/Bitmap/Run choice keeps sparse
//!   selections cheap to iterate and dense ones cheap to AND (btr-roaring's
//!   container-pair intersection).
//! * [`Expr`] — a typed expression tree (`Col`, `Lit`, comparisons, boolean
//!   connectives, `Add`/`Sub`/`Mul` on numerics) with a builder API.
//! * [`ExprPlan`] — the compiled per-row-group evaluation plan: the tree is
//!   bound against a schema, split into top-level conjuncts, and each
//!   conjunct classified as a *leaf* (single `column op literal`, eligible
//!   for zone pruning and compressed-domain evaluation) or *general*
//!   (vectorized row-wise kernel over the candidate selection).
//! * [`filter_leaf`] — the one fast-path ladder shared by every caller:
//!   decoded input runs `filter_decoded`, compressed input runs
//!   `filter_compressed`, and a block it has no kernel for reports
//!   [`LeafVerdict::NeedsDecode`].
//! * [`AggState`] — aggregate pushdown: `COUNT`/`MIN`/`MAX` answered from
//!   zone maps, `SUM` from one-value/RLE compressed domains, everything
//!   falling back to a vectorized fold over selected rows.
//!
//! Evaluation semantics are pinned by the oracle tests: `i32` arithmetic
//! wraps, doubles are IEEE 754 (NaN never satisfies any comparison), boolean
//! logic is two-valued, and every pushdown path must be row- and
//! value-identical to naive decode-then-evaluate.

pub mod agg;
pub mod eval;
pub mod expr;
pub mod plan;
pub mod selection;

pub use agg::{AggKind, AggState, AggValue, Aggregate};
pub use eval::{eval_predicate, filter_leaf, ColumnAccess, LeafInput, LeafVerdict};
pub use expr::{col, lit, Expr};
pub use plan::{
    ArithOp, BoundExpr, Conjunct, ConjunctKind, ExprError, ExprPlan, ValueType, ZoneVerdict,
};
pub use selection::Selection;

// Re-export the predicate vocabulary so downstream crates can depend on
// btr-expr alone for expression building.
pub use btrblocks::{CmpOp, Literal};
