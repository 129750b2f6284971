//! The per-scan block pipeline: resolve → filter → decode → gather.
//!
//! [`BlockPipeline`] is the piece of a scan that processes one row group —
//! cache lookup, fetch, compressed-domain predicate evaluation, decode, and
//! row gathering. The [`crate::executor`]'s workers call
//! [`BlockPipeline::process`]; [`crate::ScanEngine::aggregate`] calls
//! [`BlockPipeline::aggregate_group`] on the caller's thread.
//!
//! Everything a pipeline borrows is behind `Arc`, so N pipelines over the
//! same relation share:
//!
//! * the decoded-block cache ([`BlockCache`]) — one scan's decode is every
//!   scan's cache hit;
//! * the [`BlockSource`] — and with it the source's single-flight fetch
//!   table, breaker, quarantine set, and clock;
//! * optionally a [`DecodeGate`] — cross-scan single-flight around the whole
//!   miss path (fetch + decode + cache insert), so two scans missing the
//!   same block at the same moment produce one GET *and one decode*, with
//!   the waiter handed the owner's `Arc<DecodedColumn>` directly. Gate waits
//!   are counted as `dedup_hits` in [`PipelineCounters`]. A failed owner
//!   publishes nothing; waiters retry under their own deadline/budget, never
//!   inheriting the owner's error (same contract as the source's in-flight
//!   table). The scan service installs one; the engine runs gateless.

use crate::batch::{empty_like, gather};
use crate::cache::{BlockCache, BlockKey};
use crate::plan::{RowGroup, ScanPlan};
use crate::retry::{BreakerState, FetchCtl};
use crate::source::BlockSource;
use crate::{Result, ScanError};
use btr_expr::{
    eval_predicate, filter_leaf, AggState, ColumnAccess, ConjunctKind, ExprPlan, LeafInput,
    LeafVerdict, Selection,
};
use btr_roaring::RoaringBitmap;
use btrblocks::{
    decompress_block_into, filter_decoded, BlockZone, CmpOp, ColumnData, ColumnType, Config,
    Scratch, DecodedColumn, Literal,
};
use std::collections::HashMap;
use btr_sync::{Flight, Rank, SimClock, SingleFlight};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cache byte-budget fraction past which the degradation ladder starts
/// bypassing cache inserts for streamed blocks.
const CACHE_PRESSURE_BYPASS: f64 = 0.9;

/// The compiled filter a pipeline evaluates per row group: the conjunct plan
/// plus the planner's per-block always-true masks, both shared so service
/// pipelines stay cheap to clone.
#[derive(Clone)]
pub struct PipelineFilter {
    plan: Arc<ExprPlan>,
    /// Block index → bitmask of conjuncts zone maps proved always-true.
    always_true: Arc<HashMap<u32, u64>>,
}

impl PipelineFilter {
    /// Extracts the filter a [`ScanPlan`] compiled, if any.
    pub fn from_plan(plan: &ScanPlan) -> Option<PipelineFilter> {
        let expr = plan.filter.clone()?;
        let always_true = plan
            .row_groups
            .iter()
            .zip(&plan.group_masks)
            .map(|(g, &m)| (g.block, m))
            .collect();
        Some(PipelineFilter {
            plan: Arc::new(expr),
            always_true: Arc::new(always_true),
        })
    }
}

/// Per-row-group working set: blocks already decoded (keyed by source column
/// index) and compressed payloads fetched for compressed-domain evaluation
/// but not (yet) decoded. Reusing it across the filter, projection, and
/// aggregate stages of one group is what makes each block resolve at most
/// once.
#[derive(Default)]
pub struct GroupCtx {
    decoded: HashMap<usize, Arc<DecodedColumn>>,
    bytes: HashMap<usize, Vec<u8>>,
}

impl GroupCtx {
    /// An empty working set.
    pub fn new() -> GroupCtx {
        GroupCtx::default()
    }
}

/// [`ColumnAccess`] over a group's decoded blocks, for the general-conjunct
/// evaluator.
struct CtxCols<'a>(&'a HashMap<usize, Arc<DecodedColumn>>);

impl ColumnAccess for CtxCols<'_> {
    fn column(&self, index: usize) -> Option<&DecodedColumn> {
        self.0.get(&index).map(AsRef::as_ref)
    }
}

/// Everything needed to build a [`BlockPipeline`]; the relation identity and
/// simulated clock are derived from the source.
pub struct PipelineParams {
    /// Where block bytes come from (shared across scans in a service).
    pub source: Arc<dyn BlockSource>,
    /// Decoded-block cache (shared across scans in a service).
    pub cache: Arc<BlockCache>,
    /// Codec configuration; `block_size` must match the relation's.
    pub config: Config,
    /// Source column indices to project, in output order.
    pub projection: Vec<usize>,
    /// Column types of *all* source columns, in file order.
    pub column_types: Vec<ColumnType>,
    /// Compiled filter (usually [`PipelineFilter::from_plan`]).
    pub filter: Option<PipelineFilter>,
    /// Deadline / retry budget / tenant threaded into every fetch.
    pub ctl: FetchCtl,
    /// Healthy prefetch window; the degradation ladder shrinks from here.
    pub base_prefetch: usize,
    /// Cross-scan decode single-flight; `None` for single-scan use.
    pub gate: Option<Arc<DecodeGate>>,
}

/// Per-pipeline activity counters (relaxed atomics, written by workers).
#[derive(Default)]
struct Counters {
    pushdown: AtomicU64,
    decoded: AtomicU64,
    fetched: AtomicU64,
    decode_nanos: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    dedup_hits: AtomicU64,
    /// Current degradation-ladder level (0 = healthy).
    degradation_level: AtomicU64,
    /// Upward level transitions, summed.
    degradation_steps: AtomicU64,
}

/// Snapshot of a pipeline's activity, folded into scan/service reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineCounters {
    /// Predicate blocks evaluated in the compressed domain (no decode).
    pub blocks_pushdown_fast_path: u64,
    /// Blocks this pipeline decompressed itself.
    pub blocks_decoded: u64,
    /// Blocks this pipeline fetched from the source.
    pub blocks_fetched: u64,
    /// Decoded-block cache hits.
    pub cache_hits: u64,
    /// Decoded-block cache misses.
    pub cache_misses: u64,
    /// Blocks received from another pipeline's in-flight decode through the
    /// [`DecodeGate`] (neither fetched nor decoded here).
    pub dedup_hits: u64,
    /// CPU seconds spent decompressing.
    pub decode_seconds: f64,
    /// Upward degradation-ladder moves taken while this pipeline ran.
    pub degradation_steps: u64,
}

impl PipelineCounters {
    /// Accumulates another pipeline's counters.
    pub fn add(&mut self, other: &PipelineCounters) {
        self.blocks_pushdown_fast_path += other.blocks_pushdown_fast_path;
        self.blocks_decoded += other.blocks_decoded;
        self.blocks_fetched += other.blocks_fetched;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.dedup_hits += other.dedup_hits;
        self.decode_seconds += other.decode_seconds;
        self.degradation_steps += other.degradation_steps;
    }
}

/// One processed row group: selected rows of every projected column.
pub struct BlockResult {
    /// Rows that survived the predicate (all rows when there is none).
    pub rows_matched: u64,
    /// Gathered values per projected column, in projection order.
    pub columns: Vec<ColumnData>,
}

/// The shareable scan pipeline; see the module docs.
pub struct BlockPipeline {
    source: Arc<dyn BlockSource>,
    cache: Arc<BlockCache>,
    relation: Arc<str>,
    config: Config,
    projection: Vec<usize>,
    column_types: Vec<ColumnType>,
    filter: Option<PipelineFilter>,
    counters: Counters,
    /// The source's simulated clock (fresh and unused for sources without
    /// health state).
    clock: SimClock,
    ctl: FetchCtl,
    base_prefetch: usize,
    gate: Option<Arc<DecodeGate>>,
}

impl BlockPipeline {
    /// Builds a pipeline; relation identity and clock come from the source.
    pub fn new(params: PipelineParams) -> BlockPipeline {
        let relation = params.source.relation_id();
        let clock = params
            .source
            .health()
            .map(|h| h.clock().clone())
            .unwrap_or_default();
        BlockPipeline {
            relation,
            clock,
            source: params.source,
            cache: params.cache,
            config: params.config,
            projection: params.projection,
            column_types: params.column_types,
            filter: params.filter,
            counters: Counters::default(),
            ctl: params.ctl,
            base_prefetch: params.base_prefetch.max(1),
            gate: params.gate,
        }
    }

    /// One empty buffer per projected column, in output order: what a group
    /// with no surviving rows yields, and what batch assembly starts from.
    pub fn empty_columns(&self) -> Vec<ColumnData> {
        self.projection
            .iter()
            // lint: allow(indexing) projection indices were resolved against columns at plan time
            .map(|&idx| empty_like(self.column_types[idx]))
            .collect()
    }

    /// Where this pipeline's block bytes come from.
    pub fn source(&self) -> &Arc<dyn BlockSource> {
        &self.source
    }

    /// Activity snapshot.
    pub fn counters(&self) -> PipelineCounters {
        let c = &self.counters;
        PipelineCounters {
            blocks_pushdown_fast_path: c.pushdown.load(Ordering::Relaxed), // ordering: statistics snapshot
            blocks_decoded: c.decoded.load(Ordering::Relaxed), // ordering: statistics snapshot
            blocks_fetched: c.fetched.load(Ordering::Relaxed), // ordering: statistics snapshot
            cache_hits: c.cache_hits.load(Ordering::Relaxed), // ordering: statistics snapshot
            cache_misses: c.cache_misses.load(Ordering::Relaxed), // ordering: statistics snapshot
            dedup_hits: c.dedup_hits.load(Ordering::Relaxed), // ordering: statistics snapshot
            decode_seconds: c.decode_nanos.load(Ordering::Relaxed) as f64 / 1e9, // ordering: statistics snapshot
            degradation_steps: c.degradation_steps.load(Ordering::Relaxed), // ordering: statistics snapshot
        }
    }

    /// Cache lookup with per-pipeline hit/miss accounting.
    fn cache_get(&self, key: &BlockKey) -> Option<Arc<DecodedColumn>> {
        let hit = self.cache.get(key);
        if hit.is_some() {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
        } else {
            self.counters.cache_misses.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
        }
        hit
    }

    fn fetch(&self, column: u32, block: u32) -> Result<Vec<u8>> {
        let bytes = self.source.fetch_ctl(column, block, &self.ctl)?;
        self.counters.fetched.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
        Ok(bytes)
    }

    /// Returns the scan's deadline error if its budget is already spent —
    /// checked before starting a row group so an expired scan stops promptly
    /// instead of fetching/decoding groups it can no longer use.
    pub fn check_deadline(&self) -> Result<()> {
        if let Some(deadline) = self.ctl.deadline {
            if deadline.exceeded(&self.clock) {
                return Err(ScanError::DeadlineExceeded {
                    elapsed_seconds: deadline.elapsed_seconds(&self.clock),
                    budget_seconds: deadline.budget_seconds,
                });
            }
        }
        Ok(())
    }

    /// Current degradation-ladder rung (DESIGN.md §13.4).
    fn degradation_level(&self) -> u64 {
        match self
            .source
            .health()
            .map_or(BreakerState::Closed, |h| h.breaker_state())
        {
            BreakerState::Open => 3,
            BreakerState::HalfOpen => 2,
            BreakerState::Closed => {
                if self.cache.pressure() >= CACHE_PRESSURE_BYPASS {
                    1
                } else {
                    0
                }
            }
        }
    }

    /// Re-evaluates the degradation ladder: records upward moves and returns
    /// the look-ahead window the scan should run with right now. The executor
    /// re-checks once per emitted row group, so a scan reacts to a breaker
    /// opening mid-flight.
    pub fn refresh_window(&self) -> usize {
        let level = self.degradation_level();
        let prev = self
            .counters
            .degradation_level
            // ordering: degradation level is advisory; readers tolerate lag
            .swap(level, Ordering::Relaxed);
        if level > prev {
            self.counters
                .degradation_steps
                // ordering: statistics counter
                .fetch_add(level - prev, Ordering::Relaxed);
        }
        match level {
            0 | 1 => self.base_prefetch,
            2 => (self.base_prefetch / 2).max(1),
            _ => 1,
        }
    }

    /// Timed decode into worker-leased buffers; the caller decides whether
    /// to cache the result.
    fn decode(
        &self,
        bytes: &[u8],
        ty: ColumnType,
        scratch: &mut Scratch,
    ) -> Result<Arc<DecodedColumn>> {
        let t0 = Instant::now();
        let mut decoded = scratch.lease_decoded(ty);
        if let Err(e) = decompress_block_into(bytes, ty, &self.config, scratch, &mut decoded) {
            scratch.recycle(decoded);
            return Err(e.into());
        }
        self.counters
            .decode_nanos
            // ordering: statistics counter
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.counters.decoded.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
        Ok(Arc::new(decoded))
    }

    /// Caches a decoded block and recycles whatever the insert displaced
    /// (LRU victims, replaced entries, refused oversized values) into the
    /// worker's scratch arena — unless another scan still holds a reference.
    fn cache_insert(&self, key: BlockKey, value: Arc<DecodedColumn>, scratch: &mut Scratch) {
        // Degradation rung 1: under byte-budget pressure, streaming more
        // blocks in would churn the shared working set for every scan —
        // serve this scan without admitting its blocks.
        if self.cache.pressure() >= CACHE_PRESSURE_BYPASS {
            if let Ok(col) = Arc::try_unwrap(value) {
                scratch.recycle(col);
            }
            return;
        }
        for displaced in self.cache.insert(key, value) {
            if let Ok(col) = Arc::try_unwrap(displaced) {
                scratch.recycle(col);
            }
        }
    }

    fn key(&self, column: usize, block: u32) -> BlockKey {
        BlockKey {
            relation: self.relation.clone(),
            // lint: allow(cast) column count is far smaller than 4 GiB
            column: column as u32,
            block,
        }
    }

    /// The whole miss path for one block: fetch, decode, cache.
    fn fetch_decode_insert(
        &self,
        idx: usize,
        block: u32,
        key: BlockKey,
        scratch: &mut Scratch,
    ) -> Result<Arc<DecodedColumn>> {
        // lint: allow(cast) column count is far smaller than 4 GiB
        let bytes = self.fetch(idx as u32, block)?;
        // lint: allow(indexing) projection indices were resolved against columns at plan time
        let decoded = self.decode(&bytes, self.column_types[idx], scratch)?;
        self.cache_insert(key, decoded.clone(), scratch);
        Ok(decoded)
    }

    /// Resolves a cache miss, deduplicating the miss path across scans when
    /// a [`DecodeGate`] is installed.
    fn resolve_miss(
        &self,
        idx: usize,
        block: u32,
        key: BlockKey,
        scratch: &mut Scratch,
    ) -> Result<Arc<DecodedColumn>> {
        let Some(gate) = self.gate.as_deref() else {
            return self.fetch_decode_insert(idx, block, key, scratch);
        };
        loop {
            match gate.0.join(&key) {
                Flight::Waited(Some(decoded)) => {
                    self.counters.dedup_hits.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
                    return Ok(decoded);
                }
                Flight::Waited(None) => {
                    // The owner failed — possibly on *its own* deadline or
                    // budget, which this scan must not inherit. Re-check the
                    // cache (a later owner may have landed the block), then
                    // contend for ownership again.
                    if let Some(decoded) = self.cache.get(&key) {
                        return Ok(decoded);
                    }
                    continue;
                }
                Flight::Owner(guard) => {
                    // Ownership was won, but this scan's cache miss predates
                    // the join: a previous owner may have landed the block
                    // and left the gate in between. Re-check before paying
                    // for a duplicate fetch, and publish the hit so any
                    // waiters that raced in behind share it.
                    if let Some(decoded) = self.cache.get(&key) {
                        guard.publish(Some(decoded.clone()));
                        return Ok(decoded);
                    }
                    let result = self.fetch_decode_insert(idx, block, key, scratch);
                    guard.publish(result.as_ref().ok().cloned());
                    return result;
                }
            }
        }
    }

    /// Evaluates one leaf conjunct (`column op literal`) over a row group,
    /// staying in the compressed domain when the scheme has a fast path.
    /// Decoded blocks and fetched-but-undecoded payloads land in `ctx` so
    /// later conjuncts, the projection, or aggregates reuse them.
    fn eval_leaf(
        &self,
        idx: usize,
        op: CmpOp,
        literal: &Literal,
        group: RowGroup,
        ctx: &mut GroupCtx,
        scratch: &mut Scratch,
    ) -> Result<RoaringBitmap> {
        if let Some(decoded) = ctx.decoded.get(&idx) {
            return Ok(filter_decoded(decoded, op, literal)?);
        }
        let key = self.key(idx, group.block);
        if let Some(decoded) = self.cache_get(&key) {
            let rows = filter_decoded(&decoded, op, literal)?;
            ctx.decoded.insert(idx, decoded);
            return Ok(rows);
        }
        // The fast path needs the raw payload, so this fetch stays outside
        // the decode gate; concurrent fetches of one block still collapse in
        // the source's in-flight table.
        // lint: allow(cast) column count is far smaller than 4 GiB
        let bytes = self.fetch(idx as u32, group.block)?;
        // lint: allow(indexing) filter indices were resolved against columns at plan time
        let ty = self.column_types[idx];
        let input = LeafInput::Compressed {
            bytes: &bytes,
            ty,
            config: &self.config,
        };
        match filter_leaf(input, op, literal)? {
            LeafVerdict::Selected { rows, .. } => {
                self.counters.pushdown.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
                ctx.bytes.insert(idx, bytes);
                Ok(rows)
            }
            LeafVerdict::NeedsDecode => {
                let decoded = self.decode(&bytes, ty, scratch)?;
                self.cache_insert(key, decoded.clone(), scratch);
                let rows = filter_decoded(&decoded, op, literal)?;
                ctx.decoded.insert(idx, decoded);
                Ok(rows)
            }
        }
    }

    /// Resolves source column `idx` of `group` to a decoded block, reusing
    /// the group's working set (decoded blocks, fetched payloads) before
    /// touching the cache or the source.
    fn ensure_decoded(
        &self,
        idx: usize,
        group: RowGroup,
        ctx: &mut GroupCtx,
        scratch: &mut Scratch,
    ) -> Result<Arc<DecodedColumn>> {
        if let Some(decoded) = ctx.decoded.get(&idx) {
            return Ok(decoded.clone());
        }
        let key = self.key(idx, group.block);
        let decoded = if let Some(bytes) = ctx.bytes.remove(&idx) {
            // A compressed-domain conjunct already fetched (and counted a
            // miss for) this block; decode the payload we have instead of
            // re-fetching.
            // lint: allow(indexing) indices were resolved against columns at plan time
            let d = self.decode(&bytes, self.column_types[idx], scratch)?;
            self.cache_insert(key, d.clone(), scratch);
            d
        } else {
            match self.cache_get(&key) {
                Some(d) => d,
                None => self.resolve_miss(idx, group.block, key, scratch)?,
            }
        };
        ctx.decoded.insert(idx, decoded.clone());
        Ok(decoded)
    }

    /// Evaluates the pipeline's filter over one row group: conjuncts the
    /// planner proved always-true for this block are skipped, leaves run in
    /// the compressed domain when possible, general conjuncts run the
    /// vectorized kernel over the rows still selected. `Ok(None)` means
    /// every row survives (no filter, or all conjuncts masked).
    pub fn filter_selection(
        &self,
        group: RowGroup,
        ctx: &mut GroupCtx,
        scratch: &mut Scratch,
    ) -> Result<Option<Selection>> {
        let Some(filter) = &self.filter else {
            return Ok(None);
        };
        let mask = filter.always_true.get(&group.block).copied().unwrap_or(0);
        let mut selection: Option<Selection> = None;
        for (ci, conjunct) in filter.plan.conjuncts.iter().enumerate() {
            if ci < 64 && mask & (1u64 << ci) != 0 {
                continue;
            }
            match &conjunct.kind {
                ConjunctKind::Leaf {
                    column,
                    op,
                    literal,
                    ..
                } => {
                    let rows = self.eval_leaf(*column, *op, literal, group, ctx, scratch)?;
                    let leaf_sel = Selection::from_bitmap(group.rows, rows);
                    selection = Some(match selection {
                        Some(cur) => cur.intersect(&leaf_sel),
                        None => leaf_sel,
                    });
                }
                ConjunctKind::General(expr) => {
                    for &idx in &conjunct.columns {
                        self.ensure_decoded(idx, group, ctx, scratch)?;
                    }
                    let candidates = selection
                        .take()
                        .unwrap_or_else(|| Selection::all(group.rows));
                    // The kernel evaluates only candidate rows, so its result
                    // is already the intersection.
                    selection =
                        Some(eval_predicate(expr, &CtxCols(&ctx.decoded), &candidates)?);
                }
            }
            if selection.as_ref().is_some_and(Selection::is_empty) {
                break; // nothing left for later conjuncts to unselect
            }
        }
        Ok(selection)
    }

    /// Processes one row group: filter first (compressed-domain and
    /// zone-masked where possible), then decode + gather of only the blocks
    /// whose values are actually needed — late materialization.
    pub fn process(&self, group: RowGroup, scratch: &mut Scratch) -> Result<BlockResult> {
        self.check_deadline()?;
        let mut ctx = GroupCtx::new();
        let selection = self.filter_selection(group, &mut ctx, scratch)?;

        let rows_matched = match &selection {
            Some(sel) => u64::from(sel.cardinality()),
            None => u64::from(group.rows),
        };
        if rows_matched == 0 {
            // Nothing survives: emit empty columns without touching the
            // projection blocks — pushdown's payoff.
            return Ok(BlockResult {
                rows_matched,
                columns: self.empty_columns(),
            });
        }

        let mut columns = Vec::with_capacity(self.projection.len());
        for &idx in &self.projection {
            let decoded = self.ensure_decoded(idx, group, &mut ctx, scratch)?;
            columns.push(gather(&decoded, selection.as_ref()));
        }
        Ok(BlockResult {
            rows_matched,
            columns,
        })
    }

    /// Folds one row group into the given aggregate states, exploiting the
    /// cheapest sufficient representation per aggregate:
    ///
    /// 1. zone maps (`fully_selected` groups only — a residual selection
    ///    invalidates block-level statistics),
    /// 2. the compressed domain (one-value / RLE frames, `COUNT` from any
    ///    frame header),
    /// 3. a vectorized fold over decoded values, restricted to the selected
    ///    rows when the filter left a residue.
    ///
    /// `aggs` pairs each state with its source column; `zones` is parallel
    /// (the block's zone for that column, if the sidecar has one). Returns
    /// how many aggregates were answered at each rung.
    pub fn aggregate_group(
        &self,
        group: RowGroup,
        fully_selected: bool,
        aggs: &mut [(usize, AggState)],
        zones: &[Option<&BlockZone>],
        scratch: &mut Scratch,
    ) -> Result<AggSourceCounts> {
        self.check_deadline()?;
        let mut counts = AggSourceCounts::default();
        let mut ctx = GroupCtx::new();
        let selection = if fully_selected {
            None
        } else {
            self.filter_selection(group, &mut ctx, scratch)?
        };
        for ((idx, state), zone) in aggs.iter_mut().zip(zones) {
            match &selection {
                None => {
                    if fully_selected {
                        if let Some(zone) = zone {
                            if state.fold_zone(zone, group.rows) {
                                counts.from_zones += 1;
                                continue;
                            }
                        }
                    }
                    if let Some(decoded) = ctx.decoded.get(idx) {
                        state.fold_decoded(decoded, None)?;
                        counts.from_decoded += 1;
                        continue;
                    }
                    if !ctx.bytes.contains_key(idx) {
                        let key = self.key(*idx, group.block);
                        if let Some(decoded) = self.cache_get(&key) {
                            state.fold_decoded(&decoded, None)?;
                            ctx.decoded.insert(*idx, decoded);
                            counts.from_decoded += 1;
                            continue;
                        }
                        // lint: allow(cast) column count is far smaller than 4 GiB
                        let bytes = self.fetch(*idx as u32, group.block)?;
                        ctx.bytes.insert(*idx, bytes);
                    }
                    // lint: allow(indexing) aggregate indices were resolved against columns at plan time
                    let ty = self.column_types[*idx];
                    let answered = match ctx.bytes.get(idx) {
                        Some(bytes) => state.fold_compressed(bytes, ty, &self.config)?,
                        None => false,
                    };
                    if answered {
                        counts.from_compressed += 1;
                        continue;
                    }
                    let decoded = self.ensure_decoded(*idx, group, &mut ctx, scratch)?;
                    state.fold_decoded(&decoded, None)?;
                    counts.from_decoded += 1;
                }
                Some(sel) => {
                    if sel.is_empty() {
                        continue; // no surviving rows: the group contributes nothing
                    }
                    let decoded = self.ensure_decoded(*idx, group, &mut ctx, scratch)?;
                    state.fold_decoded(&decoded, Some(sel))?;
                    counts.from_decoded += 1;
                }
            }
        }
        Ok(counts)
    }
}

/// How many aggregates a group (or scan) answered at each rung of the
/// pushdown lattice; see [`BlockPipeline::aggregate_group`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggSourceCounts {
    /// Answered from zone maps alone (no fetch, no decode).
    pub from_zones: u64,
    /// Answered in the compressed domain (fetched, not decoded).
    pub from_compressed: u64,
    /// Folded over decoded values.
    pub from_decoded: u64,
}

impl AggSourceCounts {
    /// Accumulates another group's counts.
    pub fn add(&mut self, other: AggSourceCounts) {
        self.from_zones += other.from_zones;
        self.from_compressed += other.from_compressed;
        self.from_decoded += other.from_decoded;
    }
}

/// Gate ranks (DESIGN.md §15): above the executor's dispatch locks a
/// worker has already released, below the cache shards and source locks the
/// owner of a slot goes on to take.
const GATE_SLOTS_RANK: Rank = Rank::new(60, "scan.gate.slots");
const GATE_SLOT_RANK: Rank = Rank::new(64, "scan.gate.slot");
const GATE_SLOT_DONE_RANK: Rank = Rank::new(65, "scan.gate.slot.done");

/// Cross-scan single-flight around the block miss path (fetch + decode +
/// cache insert), keyed by [`BlockKey`]: a [`SingleFlight`] whose waiters
/// receive the owner's decoded block. One gate is shared by every pipeline
/// of a scan service; see the module docs.
pub struct DecodeGate(SingleFlight<BlockKey, Arc<DecodedColumn>>);

impl Default for DecodeGate {
    fn default() -> DecodeGate {
        DecodeGate(SingleFlight::new(
            GATE_SLOTS_RANK,
            GATE_SLOT_RANK,
            GATE_SLOT_DONE_RANK,
        ))
    }
}

impl DecodeGate {
    /// An empty gate.
    pub fn new() -> DecodeGate {
        DecodeGate::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The slot-table behaviour (waiters, failed owners) is tested once, in
    /// btr-sync; this pins the instantiation: keyed by `BlockKey`, slots
    /// independent per key and gone once the owner published.
    #[test]
    fn gate_slots_are_per_block_key_and_released_on_publish() {
        let gate = DecodeGate::new();
        let key = |block| BlockKey {
            relation: Arc::from("r"),
            column: 0,
            block,
        };
        let Flight::Owner(owner) = gate.0.join(&key(1)) else {
            panic!("first joiner must own");
        };
        assert!(matches!(gate.0.join(&key(2)), Flight::Owner(_)));
        owner.publish(Some(Arc::new(DecodedColumn::Int(vec![1, 2, 3]))));
        assert!(matches!(gate.0.join(&key(1)), Flight::Owner(_)));
    }
}
