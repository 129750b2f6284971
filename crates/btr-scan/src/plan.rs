//! Scan planning: resolve names, validate block structure, prune row groups.
//!
//! Every column of a relation is chunked with the same `block_size`, so block
//! `i` of each column covers the same row range — a row group. The planner
//! resolves the projection and filter against the source schema, checks
//! that the involved columns agree on that structure, and consults the
//! zone-map sidecar ([`btrblocks::Sidecar`]) to drop row groups whose
//! predicate-column zones cannot match. Pruned groups are never fetched; the
//! paper's "prune before accessing a file through a high-latency network"
//! (§2.1) happens here.

use crate::retry::{RetryBudgetConfig, Tolerance};
use crate::source::BlockSource;
use crate::{Result, ScanError};
use btr_expr::{Aggregate, ConjunctKind, Expr, ExprError, ExprPlan, ZoneVerdict};
use btrblocks::Sidecar;

/// What to scan: a projection, an optional filter, optional aggregates, and
/// the scan's fault-tolerance posture.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScanSpec {
    /// Columns to return, in output order.
    pub projection: Vec<String>,
    /// Optional filter expression.
    pub expr: Option<Expr>,
    /// Aggregates to compute (driven by
    /// [`ScanEngine::aggregate`](crate::ScanEngine::aggregate)).
    pub aggregates: Vec<Aggregate>,
    /// Deadline and retry-budget knobs; the default tolerates everything.
    pub tolerance: Tolerance,
}

impl ScanSpec {
    /// A spec projecting the given columns.
    pub fn project<I>(columns: I) -> ScanSpec
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        ScanSpec {
            projection: columns.into_iter().map(Into::into).collect(),
            ..ScanSpec::default()
        }
    }

    /// A spec computing the given aggregates (no projection required).
    pub fn aggregate<I>(aggregates: I) -> ScanSpec
    where
        I: IntoIterator<Item = Aggregate>,
    {
        ScanSpec {
            aggregates: aggregates.into_iter().collect(),
            ..ScanSpec::default()
        }
    }

    /// Sets the filter expression, e.g. `col("id").lt(lit(1_500))`.
    pub fn with_expr(mut self, expr: Expr) -> ScanSpec {
        self.expr = Some(expr);
        self
    }

    /// Appends an aggregate.
    pub fn with_aggregate(mut self, aggregate: Aggregate) -> ScanSpec {
        self.aggregates.push(aggregate);
        self
    }

    /// Bounds the scan to `seconds` of simulated time; once elapsed, fetches
    /// stop retrying and the scan surfaces
    /// [`ScanError::DeadlineExceeded`].
    pub fn with_deadline(mut self, seconds: f64) -> ScanSpec {
        self.tolerance.deadline_seconds = Some(seconds);
        self
    }

    /// Caps total retries across every fetch of the scan with a token bucket
    /// of `capacity` tokens refilling at `refill_per_second`.
    pub fn with_retry_budget(mut self, capacity: f64, refill_per_second: f64) -> ScanSpec {
        self.tolerance.retry_budget = Some(RetryBudgetConfig {
            capacity,
            refill_per_second,
        });
        self
    }
}

/// One surviving row group: a block index plus its row extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowGroup {
    /// Block index (same across all involved columns).
    pub block: u32,
    /// Rows in this group.
    pub rows: u32,
    /// Absolute row offset of the group's first row.
    pub base_row: u64,
}

/// A validated, pruned plan ready for execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPlan {
    /// Source column indices to project, in output order.
    pub projection: Vec<usize>,
    /// The compiled filter, if the spec carries one.
    pub filter: Option<ExprPlan>,
    /// Per surviving row group (parallel to `row_groups`): bit `i` set means
    /// zone maps proved conjunct `i` always-true for that group, so residual
    /// evaluation skips it. Conjuncts beyond 64 never set bits.
    pub group_masks: Vec<u64>,
    /// Source column indices of the spec's aggregates, in aggregate order.
    pub agg_columns: Vec<usize>,
    /// Row groups that survived pruning, in block order.
    pub row_groups: Vec<RowGroup>,
    /// Row groups before pruning.
    pub blocks_total: usize,
    /// Row groups the sidecar eliminated.
    pub blocks_pruned: usize,
    /// Total rows in the relation.
    pub rows_total: u64,
}

impl ScanPlan {
    /// Every source column the filter reads (empty without a filter).
    pub fn filter_columns(&self) -> &[usize] {
        self.filter.as_ref().map_or(&[], |f| &f.columns)
    }

    /// Whether surviving group `i` needs no residual filter work: either the
    /// scan has no filter, or zone maps proved every conjunct always-true
    /// for this group.
    pub fn group_fully_selected(&self, i: usize) -> bool {
        match &self.filter {
            None => true,
            Some(plan) => {
                let n = plan.conjuncts.len();
                n <= 64 && {
                    let mask = self.group_masks.get(i).copied().unwrap_or(0);
                    (0..n).all(|b| mask & (1u64 << b) != 0)
                }
            }
        }
    }
}

/// Plans a scan of `spec` over `source`, pruning with `sidecar`.
pub fn plan_scan(
    source: &dyn BlockSource,
    sidecar: &Sidecar,
    spec: &ScanSpec,
) -> Result<ScanPlan> {
    if spec.projection.is_empty() && spec.aggregates.is_empty() {
        return Err(ScanError::EmptyProjection);
    }
    let columns = source.columns();
    let resolve = |name: &str| -> Result<usize> {
        columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| ScanError::UnknownColumn(name.to_string()))
    };
    let projection: Vec<usize> = spec
        .projection
        .iter()
        .map(|name| resolve(name))
        .collect::<Result<_>>()?;
    let agg_columns: Vec<usize> = spec
        .aggregates
        .iter()
        .map(|a| resolve(&a.column))
        .collect::<Result<_>>()?;
    let filter = match &spec.expr {
        Some(expr) => Some(
            ExprPlan::compile(expr, |name| {
                columns
                    .iter()
                    .enumerate()
                    .find(|(_, c)| c.name == name)
                    .map(|(i, c)| (i, c.column_type))
            })
            .map_err(|e| match e {
                ExprError::UnknownColumn(name) => ScanError::UnknownColumn(name),
                other => ScanError::Expr(other),
            })?,
        ),
        None => None,
    };
    // All involved columns must agree on block count, or there is no row
    // group structure to iterate.
    let mut involved: Vec<usize> = projection.clone();
    for &idx in filter.iter().flat_map(|f| f.columns.iter()).chain(&agg_columns) {
        if !involved.contains(&idx) {
            involved.push(idx);
        }
    }
    // lint: allow(indexing) a projection, filter, or aggregate exists, so involved is non-empty; indices came from resolve
    let first = &columns[involved[0]];
    for &idx in &involved {
        // lint: allow(indexing) involved indices came from resolve
        let col = &columns[idx];
        if col.blocks != first.blocks {
            return Err(ScanError::RaggedBlocks {
                column: col.name.clone(),
                expected: first.blocks,
                got: col.blocks,
            });
        }
    }

    // Row counts per group come from the sidecar; any involved column's meta
    // works since they all chunk identically. Validate it describes this
    // relation before trusting it.
    // lint: allow(indexing) involved is non-empty (checked above); indices came from resolve
    let meta_col = &columns[involved[0]];
    if meta_col.blocks == 0 {
        // Empty columns compress to zero blocks while `Sidecar::build` emits
        // one empty zone; accept the mismatch iff the relation is empty.
        if source.rows() != 0 {
            return Err(ScanError::SidecarMismatch("relation has rows but no blocks"));
        }
        return Ok(ScanPlan {
            projection,
            filter,
            group_masks: Vec::new(),
            agg_columns,
            row_groups: Vec::new(),
            blocks_total: 0,
            blocks_pruned: 0,
            rows_total: 0,
        });
    }
    let meta = sidecar
        .column(&meta_col.name)
        .ok_or(ScanError::SidecarMismatch("column missing from sidecar"))?;
    if meta.block_rows.len() != meta_col.blocks {
        return Err(ScanError::SidecarMismatch(
            "sidecar block count disagrees with source",
        ));
    }
    let sidecar_rows: u64 = meta.block_rows.iter().map(|&r| u64::from(r)).sum();
    if sidecar_rows != source.rows() {
        return Err(ScanError::SidecarMismatch(
            "sidecar row count disagrees with source",
        ));
    }

    // Per-conjunct sidecar metadata: leaf conjuncts consult their column's
    // zone maps; general conjuncts carry no zone entry and never prune.
    let mut conjunct_metas = Vec::new();
    for conjunct in filter.iter().flat_map(|f| f.conjuncts.iter()) {
        conjunct_metas.push(match &conjunct.kind {
            ConjunctKind::Leaf { column, .. } => Some(
                sidecar
                    // lint: allow(indexing) leaf column index came from resolve
                    .column(&columns[*column].name)
                    .ok_or(ScanError::SidecarMismatch("column missing from sidecar"))?,
            ),
            ConjunctKind::General(_) => None,
        });
    }

    let blocks_total = meta_col.blocks;
    let mut row_groups = Vec::with_capacity(blocks_total);
    let mut group_masks = Vec::with_capacity(blocks_total);
    let mut base_row = 0u64;
    for block in 0..blocks_total {
        // lint: allow(indexing) block < blocks_total == block_rows.len() (validated above)
        let rows = meta.block_rows[block];
        let mut mask = 0u64;
        let mut pruned = false;
        let conjuncts = filter.iter().flat_map(|f| f.conjuncts.iter());
        for (ci, (conjunct, cmeta)) in conjuncts.zip(&conjunct_metas).enumerate() {
            let verdict = cmeta
                .and_then(|m| m.zones.get(block))
                .map_or(ZoneVerdict::Unknown, |zone| conjunct.zone_verdict(zone));
            match verdict {
                // One impossible conjunct sinks the whole group: it is never
                // fetched, let alone decoded.
                ZoneVerdict::AlwaysFalse => {
                    pruned = true;
                    break;
                }
                // Proven conjuncts drop out of this group's residual work.
                ZoneVerdict::AlwaysTrue => {
                    if ci < 64 {
                        mask |= 1u64 << ci;
                    }
                }
                ZoneVerdict::Unknown => {}
            }
        }
        if !pruned {
            row_groups.push(RowGroup {
                // lint: allow(cast) block count is far smaller than 4 GiB
                block: block as u32,
                rows,
                base_row,
            });
            group_masks.push(mask);
        }
        base_row += u64::from(rows);
    }
    let blocks_pruned = blocks_total - row_groups.len();
    Ok(ScanPlan {
        projection,
        filter,
        group_masks,
        agg_columns,
        row_groups,
        blocks_total,
        blocks_pruned,
        rows_total: source.rows(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemorySource;
    use btr_expr::{col, lit};
    use btrblocks::{Column, ColumnData, Config, Relation, StringArena};
    use std::sync::Arc;

    fn setup() -> (MemorySource, Sidecar) {
        let cfg = Config {
            block_size: 1_000,
            ..Config::default()
        };
        let strings: Vec<String> = (0..4_500).map(|i| format!("s{}", i % 11)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        let rel = Relation::new(vec![
            Column::new("id", ColumnData::Int((0..4_500).collect())),
            Column::new("val", ColumnData::Double((0..4_500).map(f64::from).collect())),
            Column::new("tag", ColumnData::Str(StringArena::from_strs(&refs))),
        ]);
        let sidecar = Sidecar::build(&rel, cfg.block_size);
        let compressed = Arc::new(btrblocks::compress(&rel, &cfg).unwrap());
        (MemorySource::new("rel", compressed), sidecar)
    }

    #[test]
    fn prunes_non_matching_groups_and_keeps_row_offsets() {
        let (source, sidecar) = setup();
        let spec = ScanSpec::project(["id", "tag"]).with_expr(col("id").lt(lit(1_500)));
        let plan = plan_scan(&source, &sidecar, &spec).unwrap();
        assert_eq!(plan.projection, vec![0, 2]);
        assert_eq!(plan.filter_columns(), &[0]);
        assert_eq!(plan.blocks_total, 5);
        assert_eq!(plan.blocks_pruned, 3);
        assert_eq!(
            plan.row_groups,
            vec![
                RowGroup { block: 0, rows: 1_000, base_row: 0 },
                RowGroup { block: 1, rows: 1_000, base_row: 1_000 },
            ]
        );
        assert_eq!(plan.rows_total, 4_500);
    }

    #[test]
    fn no_predicate_keeps_every_group() {
        let (source, sidecar) = setup();
        let plan = plan_scan(&source, &sidecar, &ScanSpec::project(["val"])).unwrap();
        assert_eq!(plan.blocks_pruned, 0);
        assert_eq!(plan.row_groups.len(), 5);
        // Last group is the 500-row remainder.
        assert_eq!(plan.row_groups[4].rows, 500);
        assert_eq!(plan.row_groups[4].base_row, 4_000);
    }

    #[test]
    fn string_predicates_never_prune() {
        let (source, sidecar) = setup();
        let spec = ScanSpec::project(["id"]).with_expr(col("tag").eq(lit("s3")));
        let plan = plan_scan(&source, &sidecar, &spec).unwrap();
        assert_eq!(plan.blocks_pruned, 0);
        assert_eq!(plan.filter_columns(), &[2]);
    }

    #[test]
    fn expr_conjuncts_prune_and_mask_independently() {
        // id >= 1000 AND val < 2000.0 over blocks of 1000 rows: only block 1
        // satisfies both zone ranges, and both conjuncts are proven there.
        let (source, sidecar) = setup();
        let spec = ScanSpec::project(["id"])
            .with_expr(col("id").ge(lit(1_000)).and(col("val").lt(lit(2_000.0))));
        let plan = plan_scan(&source, &sidecar, &spec).unwrap();
        assert_eq!(plan.blocks_pruned, 4);
        assert_eq!(plan.row_groups.len(), 1);
        assert_eq!(plan.row_groups[0].block, 1);
        assert_eq!(plan.group_masks, vec![0b11]);
        assert!(plan.group_fully_selected(0));
        assert_eq!(plan.filter_columns(), &[0, 1]);
    }

    #[test]
    fn general_conjuncts_never_prune_or_mask() {
        let (source, sidecar) = setup();
        let spec = ScanSpec::project(["id"]).with_expr(col("id").add(lit(0)).ge(lit(1_000)));
        let plan = plan_scan(&source, &sidecar, &spec).unwrap();
        assert_eq!(plan.blocks_pruned, 0);
        assert_eq!(plan.group_masks, vec![0; 5]);
        assert!(!plan.group_fully_selected(0));
    }

    #[test]
    fn aggregate_only_spec_needs_no_projection() {
        use btr_expr::Aggregate;
        let (source, sidecar) = setup();
        let spec = ScanSpec::aggregate([Aggregate::sum("id"), Aggregate::count("val")]);
        let plan = plan_scan(&source, &sidecar, &spec).unwrap();
        assert_eq!(plan.projection, Vec::<usize>::new());
        assert_eq!(plan.agg_columns, vec![0, 1]);
        assert_eq!(plan.row_groups.len(), 5);
    }

    #[test]
    fn ill_typed_expr_is_rejected() {
        let (source, sidecar) = setup();
        let spec = ScanSpec::project(["id"]).with_expr(col("id").eq(lit("nope")));
        assert!(matches!(
            plan_scan(&source, &sidecar, &spec).unwrap_err(),
            ScanError::Expr(_)
        ));
        let spec = ScanSpec::project(["id"]).with_expr(col("ghost").eq(lit(1)));
        assert_eq!(
            plan_scan(&source, &sidecar, &spec).unwrap_err(),
            ScanError::UnknownColumn("ghost".into())
        );
    }

    #[test]
    fn validation_errors() {
        let (source, sidecar) = setup();
        assert_eq!(
            plan_scan(&source, &sidecar, &ScanSpec::default()).unwrap_err(),
            ScanError::EmptyProjection
        );
        assert_eq!(
            plan_scan(&source, &sidecar, &ScanSpec::project(["ghost"])).unwrap_err(),
            ScanError::UnknownColumn("ghost".into())
        );
    }

    #[test]
    fn sidecar_mismatches_are_rejected() {
        let (source, sidecar) = setup();
        let mut missing = sidecar.clone();
        missing.columns.remove(0);
        assert!(matches!(
            plan_scan(&source, &missing, &ScanSpec::project(["id"])).unwrap_err(),
            ScanError::SidecarMismatch(_)
        ));

        let mut short = sidecar.clone();
        short.columns[0].block_rows.pop();
        short.columns[0].zones.pop();
        assert!(matches!(
            plan_scan(&source, &short, &ScanSpec::project(["id"])).unwrap_err(),
            ScanError::SidecarMismatch(_)
        ));

        let mut wrong_rows = sidecar;
        wrong_rows.columns[0].block_rows[0] -= 1;
        assert!(matches!(
            plan_scan(&source, &wrong_rows, &ScanSpec::project(["id"])).unwrap_err(),
            ScanError::SidecarMismatch(_)
        ));
    }
}
