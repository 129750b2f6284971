//! The scan engine: one scan, its own worker pool, a bounded prefetch window.
//!
//! [`ScanEngine`] is the single-tenant executor of the shared scan
//! [`crate::driver`] (the scan service in btr-server is the other). The
//! driver plans the scan, contains worker panics, re-sequences finished row
//! groups and assembles batches; what the engine adds is *how groups get
//! claimed*: a scan spawns a small pool over the planner's surviving row
//! groups, and workers claim them in block order but only within a bounded
//! look-ahead window (`EngineOptions::prefetch`) past the consumer — fetches
//! and decodes for group `i + k` overlap with the consumer draining group
//! `i`, while the window bounds how much decoded data can pile up ahead of
//! it. What a worker does with a claimed group is
//! [`BlockPipeline::process`].
//!
//! NULL semantics follow [`btrblocks::metadata::pruned_filter`]: NULL
//! positions hold neutral values and participate in predicates like any
//! other value (SQL three-valued logic is future work).
//!
//! # Fault tolerance and degradation
//!
//! Each scan carries a [`crate::retry::Tolerance`] (deadline + retry
//! budget) threaded to the source through [`crate::retry::FetchCtl`];
//! workers also check the deadline before starting a row group, so a scan
//! past its budget stops promptly instead of grinding through remaining
//! groups. Under stress the pipeline *degrades* before it fails, one rung at
//! a time (see DESIGN.md §13):
//!
//! 1. decoded-cache byte pressure → streamed blocks bypass cache inserts,
//! 2. source breaker half-open → prefetch window halves,
//! 3. source breaker open → prefetch shrinks to 1 (and the source itself
//!    sheds hedged GETs while not closed).

use crate::cache::BlockCache;
use crate::driver::{prepare, process_contained, GroupFeed, Reorder, ScanEnd, ScanStream};
use crate::pipeline::{AggSourceCounts, BlockPipeline, BlockResult, PipelineCounters};
use crate::plan::{RowGroup, ScanPlan, ScanSpec};
use crate::source::{BlockSource, FetchStats};
use crate::{Result, ScanError};
use btr_expr::{AggState, AggValue};
use btr_sync::{CachePadded, OrderedCondvar, OrderedMutex, Rank};
use btrblocks::{BlockZone, Config, DecodeScratch, Sidecar};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs for [`ScanEngine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Decode worker threads per scan.
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

/// What a scan did, quantifying the paper's fetch-vs-decode trade-off.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScanReport {
    /// Row groups in the relation.
    pub blocks_total: u64,
    /// Row groups the zone maps eliminated before any fetch.
    pub blocks_pruned: u64,
    /// Predicate blocks evaluated in the compressed domain (no decode).
    pub blocks_pushdown_fast_path: u64,
    /// Blocks decompressed.
    pub blocks_decoded: u64,
    /// Blocks fetched from the source (cache hits fetch nothing).
    pub blocks_fetched: u64,
    /// Decoded-block cache hits.
    pub cache_hits: u64,
    /// Decoded-block cache misses.
    pub cache_misses: u64,
    /// Blocks received from another scan's in-flight decode through a shared
    /// [`crate::pipeline::DecodeGate`] (always 0 for engine-driven scans,
    /// which run gateless; the scan service wires the gate in).
    pub dedup_hits: u64,
    /// Compressed bytes pulled from the source.
    pub bytes_fetched: u64,
    /// Fetch requests issued (every retry attempt counts).
    pub fetch_requests: u64,
    /// Fetch retries after transient faults or checksum mismatches.
    pub fetch_retries: u64,
    /// Rows in the relation.
    pub rows_total: u64,
    /// Rows that matched the predicate (all rows when there is none).
    pub rows_matched: u64,
    /// Record batches emitted.
    pub batches: u64,
    /// CPU time spent in `decompress_block`, summed across workers.
    pub decode_seconds: f64,
    /// Wall-clock time from scan start to exhaustion (or to now, if the scan
    /// is still running).
    pub wall_seconds: f64,
    /// Simulated backoff charged to this scan's fetches, in seconds.
    pub fetch_backoff_seconds: f64,
    /// Hedged GETs issued during this scan.
    pub hedges_issued: u64,
    /// Hedged GETs whose response won the race during this scan.
    pub hedges_won: u64,
    /// Circuit-breaker state transitions observed during this scan.
    pub breaker_transitions: u64,
    /// Blocks quarantined as permanently corrupt during this scan.
    pub blocks_quarantined: u64,
    /// Upward degradation-ladder moves (cache bypass, shrunk prefetch)
    /// taken while this scan ran.
    pub degradation_steps: u64,
    /// Claim batches workers took from the shared dispenser state — the
    /// per-scan lock-acquisition count of the morsel claim path.
    pub morsels_claimed: u64,
}

/// Claim/backpressure state of one scan's worker pool.
struct PipeState {
    /// Next row-group index a worker may claim.
    next_task: usize,
    /// Finished groups waiting for the consumer, in block order.
    reorder: Reorder,
    /// Set when the consumer goes away or errors out.
    cancelled: bool,
}

/// Engine ranks (DESIGN.md §15): the pipe state is acquired with no other
/// lock held and released before `pipeline.process` runs, so it sits below
/// the pipeline/cache/source ranks a worker acquires afterwards.
const ENGINE_STATE_RANK: Rank = Rank::new(50, "scan.engine.state");
const ENGINE_TASK_FREE_RANK: Rank = Rank::new(51, "scan.engine.task_free");
const ENGINE_OUT_READY_RANK: Rank = Rank::new(52, "scan.engine.out_ready");

/// How many row groups one claim may take at most once the per-worker ramp
/// is fully open (see [`worker_loop`]).
const MAX_CLAIM_BATCH: usize = 8;

struct Shared {
    state: OrderedMutex<PipeState>,
    /// Signals workers that the window moved (or the scan was cancelled).
    task_free: OrderedCondvar,
    /// Signals the consumer that a result landed.
    out_ready: OrderedCondvar,
    /// Live prefetch window size; the degradation ladder shrinks it while
    /// the source's breaker is not closed. Padded: workers re-read it every
    /// claim while one worker stores the refreshed window, and it must not
    /// share a line with the morsel counter next to it.
    capacity: CachePadded<AtomicUsize>,
    /// Claim batches ("morsels") workers took from the dispenser state.
    morsels_claimed: CachePadded<AtomicU64>,
}

fn worker_loop(shared: &Shared, pipeline: &BlockPipeline, groups: &[RowGroup]) {
    // One decode arena per worker, living for the whole scan: buffers leased
    // while decoding block i are pooled and reused for block i + workers,
    // so a steady-state scan decodes without heap allocation.
    let mut scratch = DecodeScratch::new();
    // Morsel ramp: each claim doubles this worker's batch (1, 2, 4, 8) so
    // tiny scans still spread across workers while long scans amortize the
    // state lock over MAX_CLAIM_BATCH groups per acquisition.
    let mut claims = 0u32;
    loop {
        shared
            .capacity
            // ordering: advisory prefetch window; workers re-read it every
            // iteration and a stale value only delays the resize one step
            .store(pipeline.refresh_window(), Ordering::Relaxed);
        let (start, take) = {
            // Park while the scan is live and the prefetch window is full;
            // spurious wakeups re-test the window like the old manual loop.
            let mut st = shared.task_free.wait_while(shared.state.lock(), |st| {
                // ordering: advisory window; see the store above
                let window_end = st.reorder.next_emit() + shared.capacity.load(Ordering::Relaxed);
                !st.cancelled && st.next_task < groups.len() && st.next_task >= window_end
            });
            if st.cancelled || st.next_task >= groups.len() {
                return;
            }
            // One lock acquisition claims a contiguous run of groups, capped
            // by the ramp target, the prefetch window space, and what's left.
            // ordering: advisory window; see the store above
            let cap = shared.capacity.load(Ordering::Relaxed).max(1);
            let space = (st.reorder.next_emit() + cap).saturating_sub(st.next_task).max(1);
            let ramp = (1usize << claims.min(3)).min(MAX_CLAIM_BATCH);
            let take = ramp.min(space).min(groups.len() - st.next_task);
            let start = st.next_task;
            st.next_task += take;
            (start, take)
        };
        claims += 1;
        // ordering: statistics counter, no synchronization implied
        shared.morsels_claimed.fetch_add(1, Ordering::Relaxed);
        for (i, &group) in groups.iter().enumerate().skip(start).take(take) {
            let result = process_contained(pipeline, i, group, &mut scratch);
            let mut st = shared.state.lock();
            let stop = st.cancelled;
            st.reorder.insert(i, result);
            drop(st);
            shared.out_ready.notify_all();
            if stop {
                return;
            }
        }
    }
}

/// Executes scans; owns (or shares) the decoded-block cache so repeated
/// scans benefit from each other.
pub struct ScanEngine {
    options: EngineOptions,
    cache: Arc<BlockCache>,
}

impl ScanEngine {
    /// An engine with its own cache of `options.cache_bytes` bytes.
    pub fn new(options: EngineOptions) -> ScanEngine {
        let cache = Arc::new(BlockCache::new(options.cache_bytes));
        ScanEngine { options, cache }
    }

    /// An engine sharing an existing cache (e.g. across engines or tests).
    pub fn with_cache(options: EngineOptions, cache: Arc<BlockCache>) -> ScanEngine {
        ScanEngine { options, cache }
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
        let capacity = self.options.prefetch.max(1);
        // A single scan never races itself past its own cache lookups, so
        // the engine runs gateless; the scan service installs a shared
        // DecodeGate when many scans share one cache.
        let (plan, pipeline) = self.prepare(&source, sidecar, spec, capacity)?;
        let pipeline = Arc::new(pipeline);
        let groups: Arc<[RowGroup]> = plan.row_groups.into();
        let shared = Arc::new(Shared {
            state: OrderedMutex::new(ENGINE_STATE_RANK, PipeState {
                next_task: 0,
                reorder: Reorder::default(),
                cancelled: false,
            }),
            task_free: OrderedCondvar::new(ENGINE_TASK_FREE_RANK),
            out_ready: OrderedCondvar::new(ENGINE_OUT_READY_RANK),
            capacity: CachePadded::new(AtomicUsize::new(capacity)),
            morsels_claimed: CachePadded::new(AtomicU64::new(0)),
        });
        let n_workers = self.options.workers.max(1).min(groups.len().max(1));
        // Snapshot before spawning: workers may finish fetching before this
        // function returns, and the report must see those bytes as deltas.
        let fetch_base = source.stats();
        let handles = (0..n_workers)
            .map(|_| {
                let shared = shared.clone();
                let pipeline = pipeline.clone();
                let groups = groups.clone();
                std::thread::spawn(move || worker_loop(&shared, &pipeline, &groups))
            })
            .collect();
        let buffers = pipeline.empty_columns();
        let feed = EngineFeed {
            shared,
            handles,
            pipeline,
            total: groups.len(),
            blocks_total: plan.blocks_total as u64,
            blocks_pruned: plan.blocks_pruned as u64,
            rows_total: plan.rows_total,
            source,
            fetch_base,
            started: Instant::now(),
            wall_seconds: None,
        };
        Ok(ScanStream::new(
            feed,
            spec.projection.clone(),
            buffers,
            self.options.batch_rows,
        ))
    }

    /// The shared driver's plan + pipeline over this engine's cache and
    /// codec configuration (gateless, no tenant).
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
    /// Groups fold sequentially in block order so double `SUM`s accumulate
    /// in one deterministic order (floating-point addition is not
    /// associative); the result is bit-identical to a naive
    /// decode-everything row loop.
    pub fn aggregate(
        &self,
        source: Arc<dyn BlockSource>,
        sidecar: &Sidecar,
        spec: &ScanSpec,
    ) -> Result<AggReport> {
        if spec.aggregates.is_empty() {
            return Err(ScanError::EmptyProjection);
        }
        let (plan, pipeline) = self.prepare(&source, sidecar, spec, 1)?;
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
        let mut scratch = DecodeScratch::new();
        let mut agg_sources = AggSourceCounts::default();
        for (i, group) in plan.row_groups.iter().enumerate() {
            let zones: Vec<Option<&BlockZone>> = metas
                .iter()
                .map(|m| m.and_then(|m| m.zones.get(group.block as usize)))
                .collect();
            let counts = pipeline.aggregate_group(
                *group,
                plan.group_fully_selected(i),
                &mut aggs,
                &zones,
                &mut scratch,
            )?;
            agg_sources.add(counts);
        }
        Ok(AggReport {
            values: aggs.into_iter().map(|(_, state)| state.value()).collect(),
            blocks_total: plan.blocks_total as u64,
            blocks_pruned: plan.blocks_pruned as u64,
            rows_total: plan.rows_total,
            agg_sources,
            counters: pipeline.counters(),
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

/// A running engine scan: an iterator of [`crate::RecordBatch`]es plus a
/// [`ScanReport`]. Dropping it early cancels the pipeline and joins the
/// workers.
pub type Scan = ScanStream<EngineFeed>;

/// The engine's side of a [`Scan`]: its worker pool and what the report
/// reads.
pub struct EngineFeed {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    pipeline: Arc<BlockPipeline>,
    total: usize,
    blocks_total: u64,
    blocks_pruned: u64,
    rows_total: u64,
    source: Arc<dyn BlockSource>,
    fetch_base: FetchStats,
    started: Instant,
    wall_seconds: Option<f64>,
}

impl GroupFeed for EngineFeed {
    fn next_block(&mut self) -> Option<Result<BlockResult>> {
        let total = self.total;
        // Park until the next in-order result lands (or the scan ends).
        let mut st = self
            .shared
            .out_ready
            .wait_while(self.shared.state.lock(), |st| {
                !st.cancelled && st.reorder.awaiting(total)
            });
        if st.cancelled {
            return None;
        }
        let result = st.reorder.pop()?;
        drop(st);
        // The window moved: a parked worker may claim again.
        self.shared.task_free.notify_all();
        Some(result)
    }

    /// Freezes wall time, cancels the pipeline and joins the worker pool.
    fn finish(&mut self, _end: ScanEnd, _rows_matched: u64) {
        self.wall_seconds = Some(self.started.elapsed().as_secs_f64());
        self.shared.state.lock().cancelled = true;
        self.shared.task_free.notify_all();
        self.shared.out_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl ScanStream<EngineFeed> {
    /// Execution statistics so far; final once the iterator is exhausted.
    pub fn report(&self) -> ScanReport {
        let feed = self.feed();
        let fetch = feed.source.stats();
        let base = &feed.fetch_base;
        let c = feed.pipeline.counters();
        ScanReport {
            blocks_total: feed.blocks_total,
            blocks_pruned: feed.blocks_pruned,
            blocks_pushdown_fast_path: c.blocks_pushdown_fast_path,
            blocks_decoded: c.blocks_decoded,
            blocks_fetched: c.blocks_fetched,
            cache_hits: c.cache_hits,
            cache_misses: c.cache_misses,
            dedup_hits: c.dedup_hits,
            bytes_fetched: fetch.bytes_fetched - base.bytes_fetched,
            fetch_requests: fetch.requests - base.requests,
            fetch_retries: fetch.retries - base.retries,
            rows_total: feed.rows_total,
            rows_matched: self.rows_matched(),
            batches: self.batches(),
            decode_seconds: c.decode_seconds,
            wall_seconds: feed
                .wall_seconds
                .unwrap_or_else(|| feed.started.elapsed().as_secs_f64()),
            fetch_backoff_seconds: fetch.backoff_seconds - base.backoff_seconds,
            hedges_issued: fetch.hedges_issued - base.hedges_issued,
            hedges_won: fetch.hedges_won - base.hedges_won,
            breaker_transitions: fetch.breaker_transitions - base.breaker_transitions,
            blocks_quarantined: fetch.blocks_quarantined - base.blocks_quarantined,
            degradation_steps: c.degradation_steps,
            // ordering: statistics read, no synchronization implied
            morsels_claimed: feed.shared.morsels_claimed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::fixtures::{attempts, stored};
    use crate::source::MemorySource;
    use btr_s3sim::SimClock;
    use btrblocks::{CmpOp, Column, ColumnData, Literal, Relation, StringArena};

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
    fn full_scan_rechunks_into_fixed_batches() {
        let engine = ScanEngine::new(options(1_000, 700));
        let (source, sidecar) = open(&engine, &ids(4_500), "full");
        let scan = engine
            .scan(source, &sidecar, &ScanSpec::project(["id"]))
            .unwrap();
        let batches: Vec<_> = scan.map(|b| b.unwrap()).collect();
        // 4500 rows in 700-row batches: 6 full + one 300-row remainder.
        assert_eq!(batches.len(), 7);
        assert!(batches[..6].iter().all(|b| b.rows() == 700));
        assert_eq!(batches[6].rows(), 300);
        let all: Vec<i32> = batches
            .iter()
            .flat_map(|b| match b.column("id").unwrap() {
                ColumnData::Int(v) => v.clone(),
                _ => unreachable!("projected an int column"),
            })
            .collect();
        assert_eq!(all, (0..4_500).collect::<Vec<_>>());
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
        let spec = ScanSpec::project(["k"]).with_predicate(crate::plan::Predicate {
            column: "k".into(),
            op: CmpOp::Eq,
            literal: Literal::Int(7),
        });
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
        let spec = ScanSpec::project(["k"]).with_predicate(crate::plan::Predicate {
            column: "k".into(),
            op: CmpOp::Eq,
            literal: Literal::Int(3),
        });
        let mut scan = engine.scan(source, &sidecar, &spec).unwrap();
        assert_eq!(scan.by_ref().count(), 0);
        let report = scan.report();
        assert_eq!(report.blocks_pruned, 0);
        assert_eq!(report.blocks_pushdown_fast_path, 4);
        assert_eq!(report.blocks_decoded, 0, "no rows matched, nothing decoded");
        assert_eq!(report.rows_matched, 0);
    }

    #[test]
    fn predicate_column_decode_is_reused_for_projection() {
        let engine = ScanEngine::new(options(1_000, 4_096));
        let (source, sidecar) = open(&engine, &ids(2_000), "reuse");
        let spec = ScanSpec::project(["id"]).with_predicate(crate::plan::Predicate {
            column: "id".into(),
            op: CmpOp::Ge,
            literal: Literal::Int(0),
        });
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
        let spec = ScanSpec::project(["id"]).with_predicate(crate::plan::Predicate {
            column: "id".into(),
            op: CmpOp::Eq,
            literal: Literal::Double(1.0),
        });
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
        let spec = ScanSpec::aggregate([btr_expr::Aggregate::sum("val")])
            .with_expr(btr_expr::col("id").lt(btr_expr::lit(1_500)));
        let report = engine.aggregate(source, &sidecar, &spec).unwrap();
        // Reference: sequential fold over the filtered rows, same order.
        let mut want = 0.0f64;
        for v in vals.iter().take(1_500) {
            want += v;
        }
        assert_eq!(report.values, vec![btr_expr::AggValue::SumDouble(want)]);
        // id < 1500 prunes blocks 2 and 3 before any fetch.
        assert_eq!(report.blocks_pruned, 2);
    }

    #[test]
    fn morsel_claims_batch_up_without_changing_output() {
        // 100 row groups through 2 workers: the ramp must coalesce claims
        // (fewer lock acquisitions than groups) and the ordered output must
        // be unaffected.
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
            "ramped claims must batch groups: {} claims for 100 groups",
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
        let (_, _, source) = stored(Some(plan), btr_s3sim::RetryPolicy::default());
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
