//! The scan engine: the [`crate::executor`] with one anonymous tenant.
//!
//! [`ScanEngine`] owns a worker pool ([`Executor`], spawned in
//! [`ScanEngine::new`], joined on drop) and a decoded-block cache, and runs
//! every scan handed to it on that pool: the shared scan [`crate::driver`]
//! plans the scan, the executor dispatches its row groups within a bounded
//! look-ahead window (`EngineOptions::prefetch`) past the consumer — fetches
//! and decodes for group `i + k` overlap with the consumer draining group
//! `i`, while the window bounds how much decoded data can pile up ahead of
//! it. There are no admission limits and no GET coalescing; the scan
//! service (btr-server) adds those on the same executor.
//! [`ScanEngine::aggregate`] runs on the same pool, window and deadline
//! path: workers resolve each row group's aggregate inputs and the caller
//! folds them in block order.
//!
//! NULL positions hold neutral values: the planner's zone-map pruning
//! ([`crate::plan::plan_scan`]) and the leaf kernels
//! ([`btr_expr::filter_leaf`]) treat them like any other value (SQL
//! three-valued logic is future work).
//!
//! Each scan carries a [`crate::retry::Tolerance`] (deadline + retry
//! budget) threaded to the source through [`crate::retry::FetchCtl`];
//! workers check the deadline before starting a row group, and under stress
//! a scan degrades before it fails (cache bypass, then a shrinking window:
//! [`BlockPipeline::refresh_window`], DESIGN.md §13.4).

use crate::cache::BlockCache;
use crate::driver::prepare;
use crate::executor::{Executor, Scan, ScanJob};
use crate::pipeline::{agg_reads, AggSourceCounts, BlockPipeline, PipelineCounters};
use crate::plan::{ScanPlan, ScanSpec};
use crate::source::BlockSource;
use crate::{Result, ScanError};
use btr_expr::{AggState, AggValue};
use btrblocks::{BlockZone, Config, Scratch, Sidecar};
use std::sync::Arc;

/// Tuning knobs for [`ScanEngine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads of the engine's pool, shared by its scans.
    pub workers: usize,
    /// Bounded look-ahead: how many row groups may be in flight past the
    /// consumer's position.
    pub prefetch: usize,
    /// Rows per emitted [`crate::RecordBatch`].
    pub batch_rows: usize,
    /// Byte budget of the decoded-block cache (used by
    /// [`ScanEngine::new`]; ignored when a cache is shared via
    /// [`ScanEngine::with_cache`]).
    pub cache_bytes: usize,
    /// Codec configuration; `block_size` must match how relations were
    /// compressed.
    pub config: Config,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            workers: 4,
            prefetch: 8,
            batch_rows: 4096,
            cache_bytes: 64 << 20,
            config: Config::default(),
        }
    }
}

/// Executes scans on its own worker pool; owns (or shares) the decoded-block
/// cache so repeated scans benefit from each other. Dropping the engine ends
/// scans still running on it with [`ScanError::Shutdown`].
pub struct ScanEngine {
    options: EngineOptions,
    cache: Arc<BlockCache>,
    executor: Executor,
    /// The one tenant every scan of this engine runs as.
    tenant: Arc<str>,
}

impl ScanEngine {
    /// An engine with its own cache of `options.cache_bytes` bytes.
    pub fn new(options: EngineOptions) -> ScanEngine {
        let cache = Arc::new(BlockCache::new(options.cache_bytes));
        ScanEngine::with_cache(options, cache)
    }

    /// An engine sharing an existing cache (e.g. across engines or tests).
    pub fn with_cache(options: EngineOptions, cache: Arc<BlockCache>) -> ScanEngine {
        // One tenant: the quantum only has to cover any single task.
        let executor = Executor::new(options.workers, u64::MAX);
        ScanEngine { options, cache, executor, tenant: Arc::from("") }
    }

    /// The engine's decoded-block cache.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    /// Plans and starts a scan. Workers begin prefetching immediately; pull
    /// batches from the returned [`Scan`] to drain it.
    pub fn scan(
        &self,
        source: Arc<dyn BlockSource>,
        sidecar: &Sidecar,
        spec: &ScanSpec,
    ) -> Result<Scan> {
        let (plan, pipeline) = self.prepare(&source, sidecar, spec, self.options.prefetch)?;
        let job = ScanJob::new(self.tenant.clone(), plan, pipeline);
        self.executor.handle().start(job, spec.projection.clone(), self.options.batch_rows)
    }

    /// The shared driver's plan + pipeline over this engine's cache and
    /// codec configuration. Gateless: one engine's scans do share its cache,
    /// but a duplicate decode only costs time, and the source's in-flight
    /// table already dedups the GET.
    fn prepare(
        &self,
        source: &Arc<dyn BlockSource>,
        sidecar: &Sidecar,
        spec: &ScanSpec,
        window: usize,
    ) -> Result<(ScanPlan, BlockPipeline)> {
        prepare(
            source.clone(),
            sidecar,
            spec,
            self.cache.clone(),
            &self.options.config,
            window,
            None,
            None,
        )
    }

    /// Computes `spec.aggregates` over the relation, answering each row
    /// group from the cheapest sufficient representation: zone maps (no
    /// fetch), the compressed domain (no decode), or a vectorized fold over
    /// decoded values — restricted to rows surviving `spec`'s filter.
    ///
    /// The aggregate runs as a job on the engine's executor, like a scan:
    /// workers fetch, decode and filter row groups within the look-ahead
    /// window ([`BlockPipeline::resolve_aggregates`]), and this thread folds
    /// their results in block order ([`BlockPipeline::fold_aggregates`]),
    /// so double `SUM`s accumulate in one deterministic order
    /// (floating-point addition is not associative); the result is
    /// bit-identical to a naive decode-everything row loop.
    pub fn aggregate(
        &self,
        source: Arc<dyn BlockSource>,
        sidecar: &Sidecar,
        spec: &ScanSpec,
    ) -> Result<AggReport> {
        if spec.aggregates.is_empty() {
            return Err(ScanError::EmptyProjection);
        }
        let (plan, pipeline) = self.prepare(&source, sidecar, spec, self.options.prefetch)?;
        let columns = source.columns();
        let mut aggs = Vec::with_capacity(spec.aggregates.len());
        for (agg, &c) in spec.aggregates.iter().zip(&plan.agg_columns) {
            // lint: allow(indexing) aggregate indices were resolved against these columns
            let state = AggState::new(agg.kind, columns[c].column_type).map_err(ScanError::Expr)?;
            aggs.push((c, state));
        }
        let metas: Vec<_> = plan
            .agg_columns
            .iter()
            // lint: allow(indexing) aggregate indices were resolved against these columns
            .map(|&c| sidecar.column(&columns[c].name))
            .collect();
        // Per row group, each aggregate's zone; and whether it reads values
        // there, which the workers need before the fold runs.
        let zones: Vec<Vec<Option<&BlockZone>>> = plan
            .row_groups
            .iter()
            .map(|group| {
                metas
                    .iter()
                    .map(|m| m.and_then(|m| m.zones.get(group.block as usize)))
                    .collect()
            })
            .collect();
        let needs = zones
            .iter()
            .zip(&plan.row_groups)
            .enumerate()
            .map(|(i, (zones, &group))| agg_reads(&aggs, zones, group, plan.group_fully_selected(i)))
            .collect();
        let (blocks_total, blocks_pruned, rows_total) =
            (plan.blocks_total as u64, plan.blocks_pruned as u64, plan.rows_total);
        let job = ScanJob::aggregate(self.tenant.clone(), plan, pipeline, needs);
        let run = self.executor.handle().start_fold(job)?;
        let scratch = Scratch::new();
        let mut agg_sources = AggSourceCounts::default();
        let mut groups = zones.iter();
        let counters = run.fold(|pipeline, input| {
            let zones = groups.next().map(Vec::as_slice).unwrap_or_default();
            agg_sources.add(pipeline.fold_aggregates(input, &mut aggs, zones, &scratch)?);
            Ok(())
        })?;
        Ok(AggReport {
            values: aggs.into_iter().map(|(_, state)| state.value()).collect(),
            blocks_total,
            blocks_pruned,
            rows_total,
            agg_sources,
            counters,
        })
    }
}

/// Result of [`ScanEngine::aggregate`]: one value per requested aggregate,
/// plus which rung of the pushdown lattice answered each group and the
/// pipeline's fetch/decode activity.
#[derive(Debug, Clone, PartialEq)]
pub struct AggReport {
    /// One value per `ScanSpec::aggregates` entry, in spec order.
    pub values: Vec<AggValue>,
    /// Row groups in the relation.
    pub blocks_total: u64,
    /// Row groups the zone maps eliminated before any fetch.
    pub blocks_pruned: u64,
    /// Rows in the relation.
    pub rows_total: u64,
    /// Per-aggregate-per-group counts of zone / compressed / decoded answers.
    pub agg_sources: AggSourceCounts,
    /// Fetch/decode/cache activity of the aggregate pass.
    pub counters: PipelineCounters,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::fixtures::{attempts, stored};
    use crate::source::MemorySource;
    use btr_expr::{col, lit};
    use btr_sync::SimClock;
    use btrblocks::{Column, ColumnData, Relation, StringArena};

    fn options(block_size: usize, batch_rows: usize) -> EngineOptions {
        EngineOptions {
            batch_rows,
            config: Config {
                block_size,
                ..Config::default()
            },
            ..EngineOptions::default()
        }
    }

    /// A one-column relation `id = 0..n`.
    fn ids(n: i32) -> Relation {
        Relation::new(vec![Column::new("id", ColumnData::Int((0..n).collect()))])
    }

    /// `rel` compressed with the engine's codec config behind a memory
    /// source named `id`, plus its zone maps.
    fn open(engine: &ScanEngine, rel: &Relation, id: &str) -> (Arc<MemorySource>, Sidecar) {
        let cfg = &engine.options.config;
        let compressed = Arc::new(btrblocks::compress(rel, cfg).unwrap());
        let source = Arc::new(MemorySource::new(id.to_string(), compressed));
        (source, Sidecar::build(rel, cfg.block_size))
    }

    /// Drains `scan`, concatenating its projected `id` column.
    fn drain_ids(scan: &mut Scan) -> Vec<i32> {
        let column = |b: Result<crate::RecordBatch>| match b.unwrap().column("id").unwrap() {
            ColumnData::Int(v) => v.clone(),
            _ => unreachable!("projected an int column"),
        };
        scan.flat_map(column).collect()
    }

    #[test]
    fn pushdown_fast_path_skips_decoding_filtered_out_blocks() {
        let engine = ScanEngine::new(options(1_000, 4_096));
        // Low-cardinality ints compress to Dict/RLE/OneValue — all fast-path
        // schemes — and the value 7 never occurs.
        let rel = Relation::new(vec![Column::new(
            "k",
            ColumnData::Int((0..4_000).map(|i| i % 3).collect()),
        )]);
        let (source, sidecar) = open(&engine, &rel, "pushdown");
        let spec = ScanSpec::project(["k"]).with_expr(col("k").eq(lit(7)));
        let mut scan = engine.scan(source, &sidecar, &spec).unwrap();
        assert_eq!(scan.by_ref().count(), 0);
        let report = scan.report();
        // Zones are (0,2) so Eq(7) prunes everything before any fetch...
        assert_eq!(report.blocks_pruned, 4);
        assert_eq!(report.blocks_fetched, 0);

        // ...so force fetches with a predicate inside the zone range but
        // absent from the data (i % 3 != 1 on even-only values).
        let rel = Relation::new(vec![Column::new(
            "k",
            ColumnData::Int((0..4_000).map(|i| (i % 3) * 2).collect()),
        )]);
        let (source, sidecar) = open(&engine, &rel, "pushdown2");
        let spec = ScanSpec::project(["k"]).with_expr(col("k").eq(lit(3)));
        let mut scan = engine.scan(source, &sidecar, &spec).unwrap();
        assert_eq!(scan.by_ref().count(), 0);
        let report = scan.report();
        assert_eq!(report.blocks_pruned, 0);
        assert_eq!(report.blocks_pushdown_fast_path, 4);
        assert_eq!(report.blocks_decoded, 0, "no rows matched, nothing decoded");
        assert_eq!(report.rows_matched, 0);
    }

    #[test]
    fn filter_column_decode_is_reused_for_projection() {
        let engine = ScanEngine::new(options(1_000, 4_096));
        let (source, sidecar) = open(&engine, &ids(2_000), "reuse");
        let spec = ScanSpec::project(["id"]).with_expr(col("id").ge(lit(0)));
        let mut scan = engine.scan(source, &sidecar, &spec).unwrap();
        let rows: usize = scan.by_ref().map(|b| b.unwrap().rows()).sum();
        assert_eq!(rows, 2_000);
        let report = scan.report();
        // Whatever path the predicate took, each block is fetched at most
        // once and decoded at most once.
        assert!(report.blocks_fetched <= 2);
        assert!(report.blocks_decoded <= 2);
    }

    #[test]
    fn warm_cache_skips_fetch_and_decode() {
        let engine = ScanEngine::new(options(1_000, 4_096));
        let strings: Vec<String> = (0..3_000).map(|i| format!("v{}", i % 17)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        let rel = Relation::new(vec![
            Column::new("id", ColumnData::Int((0..3_000).collect())),
            Column::new("tag", ColumnData::Str(StringArena::from_strs(&refs))),
        ]);
        let (source, sidecar) = open(&engine, &rel, "warm");
        let spec = ScanSpec::project(["id", "tag"]);

        let mut cold = engine.scan(source.clone(), &sidecar, &spec).unwrap();
        let cold_rows: usize = cold.by_ref().map(|b| b.unwrap().rows()).sum();
        let cold_report = cold.report();
        assert_eq!(cold_rows, 3_000);
        assert!(cold_report.blocks_decoded > 0);

        let mut warm = engine.scan(source, &sidecar, &spec).unwrap();
        let warm_rows: usize = warm.by_ref().map(|b| b.unwrap().rows()).sum();
        let warm_report = warm.report();
        assert_eq!(warm_rows, 3_000);
        assert_eq!(warm_report.cache_hits, 6, "both columns, all blocks");
        assert_eq!(warm_report.blocks_fetched, 0);
        assert_eq!(warm_report.blocks_decoded, 0);
        assert_eq!(warm_report.bytes_fetched, 0);
    }

    #[test]
    fn type_mismatched_predicate_surfaces_as_error() {
        // The expression compiler type-checks at plan time, so the mismatch
        // is a typed error from `scan` instead of a mid-scan decode failure.
        let engine = ScanEngine::new(options(1_000, 4_096));
        let (source, sidecar) = open(&engine, &ids(2_000), "mismatch");
        let spec = ScanSpec::project(["id"]).with_expr(col("id").eq(lit(1.0)));
        let err = match engine.scan(source, &sidecar, &spec) {
            Err(e) => e,
            Ok(_) => panic!("ill-typed predicate must fail at plan time"),
        };
        assert!(matches!(
            err,
            ScanError::Expr(btr_expr::ExprError::TypeMismatch(_))
        ));
    }

    #[test]
    fn expr_scan_matches_row_wise_reference() {
        let engine = ScanEngine::new(options(1_000, 4_096));
        let rel = Relation::new(vec![
            Column::new("id", ColumnData::Int((0..4_000).collect())),
            Column::new(
                "val",
                ColumnData::Double((0..4_000).map(|i| f64::from(i) * 0.5).collect()),
            ),
        ]);
        let (source, sidecar) = open(&engine, &rel, "expr");
        // (id >= 500 AND val < 1200.0) — a leaf plus a leaf, with an
        // arithmetic twist on a third conjunct: (id + id) < 5000.
        let expr = btr_expr::col("id")
            .ge(btr_expr::lit(500))
            .and(btr_expr::col("val").lt(btr_expr::lit(1_200.0)))
            .and(btr_expr::col("id").add(btr_expr::col("id")).lt(btr_expr::lit(5_000)));
        let spec = ScanSpec::project(["id"]).with_expr(expr);
        let mut scan = engine.scan(source, &sidecar, &spec).unwrap();
        let got = drain_ids(&mut scan);
        let want: Vec<i32> = (0..4_000)
            .filter(|&i| i >= 500 && f64::from(i) * 0.5 < 1_200.0 && i + i < 5_000)
            .collect();
        assert_eq!(got, want);
        let report = scan.report();
        // val < 1200 prunes blocks 3+ (zones 1500+), id >= 500 is
        // always-true there anyway; at least one block dies before fetch.
        assert!(report.blocks_pruned >= 1, "{report:?}");
    }

    #[test]
    fn aggregates_answer_from_zones_without_fetching() {
        let engine = ScanEngine::new(options(1_000, 4_096));
        let (source, sidecar) = open(&engine, &ids(4_000), "agg-zones");
        let spec = ScanSpec::aggregate([
            btr_expr::Aggregate::count("id"),
            btr_expr::Aggregate::min("id"),
            btr_expr::Aggregate::max("id"),
        ]);
        let report = engine.aggregate(source, &sidecar, &spec).unwrap();
        assert_eq!(
            report.values,
            vec![
                btr_expr::AggValue::Count(4_000),
                btr_expr::AggValue::MinInt(Some(0)),
                btr_expr::AggValue::MaxInt(Some(3_999)),
            ]
        );
        // COUNT/MIN/MAX all come from zone maps: nothing fetched or decoded.
        assert_eq!(report.agg_sources.from_zones, 12, "3 aggs × 4 groups");
        assert_eq!(report.counters.blocks_fetched, 0);
        assert_eq!(report.counters.blocks_decoded, 0);
    }

    #[test]
    fn filtered_aggregate_matches_reference() {
        let engine = ScanEngine::new(options(1_000, 4_096));
        let vals: Vec<f64> = (0..4_000).map(|i| f64::from(i % 97) * 0.25).collect();
        let rel = Relation::new(vec![
            Column::new("id", ColumnData::Int((0..4_000).collect())),
            Column::new("val", ColumnData::Double(vals.clone())),
        ]);
        let (source, sidecar) = open(&engine, &rel, "agg-filter");
        let spec = ScanSpec::aggregate([
            btr_expr::Aggregate::sum("val"),
            btr_expr::Aggregate::count("val"),
        ])
        .with_expr(btr_expr::col("id").lt(btr_expr::lit(1_500)));
        let report = engine.aggregate(source, &sidecar, &spec).unwrap();
        // Reference: sequential fold over the filtered rows, same order.
        let mut want = 0.0f64;
        for v in vals.iter().take(1_500) {
            want += v;
        }
        assert_eq!(
            report.values,
            vec![
                btr_expr::AggValue::SumDouble(want),
                btr_expr::AggValue::Count(1_500)
            ]
        );
        // id < 1500 prunes blocks 2 and 3 before any fetch; block 1 keeps a
        // residual selection, whose COUNT needs no block of `val`.
        assert_eq!(report.blocks_pruned, 2);
    }

    #[test]
    fn morsel_claims_batch_up_without_changing_output() {
        // 100 row groups through 2 workers: claims must batch (fewer
        // scheduler-lock acquisitions than groups) and the ordered output
        // must be unaffected.
        let engine = ScanEngine::new(EngineOptions {
            workers: 2,
            prefetch: 32,
            ..options(500, 4_096)
        });
        let (source, sidecar) = open(&engine, &ids(50_000), "morsels");
        let mut scan = engine
            .scan(source, &sidecar, &ScanSpec::project(["id"]))
            .unwrap();
        let all = drain_ids(&mut scan);
        assert_eq!(all, (0..50_000).collect::<Vec<_>>());
        let report = scan.report();
        assert!(report.morsels_claimed > 0);
        assert!(
            report.morsels_claimed < 100,
            "claims must batch groups: {} claims for 100 groups",
            report.morsels_claimed
        );
    }

    #[test]
    fn dropping_a_scan_early_does_not_hang() {
        let engine = ScanEngine::new(EngineOptions {
            prefetch: 2,
            ..options(500, 100)
        });
        let (source, sidecar) = open(&engine, &ids(50_000), "drop-early");
        let mut scan = engine
            .scan(source, &sidecar, &ScanSpec::project(["id"]))
            .unwrap();
        let first = scan.next().unwrap().unwrap();
        assert_eq!(first.rows(), 100);
        drop(scan); // must cancel + join without deadlock
    }

    #[test]
    fn scan_deadline_is_typed_and_bounded_on_the_simulated_clock() {
        // 100ms per GET, four blocks, 250ms budget: the deadline trips
        // mid-scan and the overshoot stays within one fetch.
        let engine = ScanEngine::new(EngineOptions {
            workers: 1,
            prefetch: 2,
            ..options(1_000, 4_096)
        });
        let sidecar = Sidecar::build(&ids(4_000), 1_000);
        let plan = btr_s3sim::FaultPlan {
            base_latency_ms: 100,
            ..btr_s3sim::FaultPlan::default()
        };
        let clock = SimClock::default();
        let (_, _, source) = stored(Some(plan), btr_sync::RetryPolicy::default());
        let source = source.with_clock(clock.clone());
        let spec = ScanSpec::project(["id"]).with_deadline(0.25);
        let scan = engine.scan(Arc::new(source), &sidecar, &spec).unwrap();
        let err = scan
            .filter_map(std::result::Result::err)
            .next()
            .expect("a 250ms budget cannot cover four 100ms fetches");
        match err {
            ScanError::DeadlineExceeded {
                elapsed_seconds,
                budget_seconds,
            } => {
                assert_eq!(budget_seconds, 0.25);
                assert!(elapsed_seconds > 0.25);
                // Overshoot bounded by the one fetch in flight when the
                // budget ran out.
                assert!(elapsed_seconds <= 0.25 + 0.1 + 1e-9, "{elapsed_seconds}");
                assert!(clock.now_seconds() <= 0.25 + 0.1 + 1e-9);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn report_carries_fault_tolerance_counters() {
        let engine = ScanEngine::new(EngineOptions {
            workers: 2,
            ..options(1_000, 4_096)
        });
        let sidecar = Sidecar::build(&ids(4_000), 1_000);
        let plan = btr_s3sim::FaultPlan::transient(0.6, 21);
        let (_, _, source) = stored(Some(plan), attempts(32));
        let mut scan = engine
            .scan(Arc::new(source), &sidecar, &ScanSpec::project(["id"]))
            .unwrap();
        let rows: usize = scan.by_ref().map(|b| b.unwrap().rows()).sum();
        assert_eq!(rows, 4_000, "faults are transient, the scan completes");
        let report = scan.report();
        assert!(report.fetch_retries > 0);
        assert!(report.fetch_backoff_seconds > 0.0);
        assert_eq!(report.hedges_issued, 0);
        assert_eq!(report.blocks_quarantined, 0);
        assert_eq!(report.breaker_transitions, 0);
        assert_eq!(report.degradation_steps, 0);
    }

    #[test]
    fn empty_relation_scans_cleanly() {
        let engine = ScanEngine::new(options(1_000, 4_096));
        let rel = Relation::new(vec![Column::new("id", ColumnData::Int(Vec::new()))]);
        let (source, sidecar) = open(&engine, &rel, "empty");
        let mut scan = engine
            .scan(source, &sidecar, &ScanSpec::project(["id"]))
            .unwrap();
        let rows: usize = scan.by_ref().map(|b| b.unwrap().rows()).sum();
        assert_eq!(rows, 0);
        assert_eq!(scan.report().batches, 0);
    }
}
