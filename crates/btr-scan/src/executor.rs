//! The scan executor: one worker pool, one scheduler, one window rule.
//!
//! Who runs which row group, how far ahead of the consumer, and what ending
//! a scan releases is one policy, written here once. [`ScanEngine`] is this
//! executor with a single anonymous tenant and no admission limits; the
//! scan service (btr-server) is this executor plus a relation registry, GET
//! coalescing and an admission check at submit. Both hand out the same
//! [`Scan`].
//!
//! 1. [`ScanJob::new`] prices every surviving row group (compressed bytes of
//!    the columns it will read); [`ExecutorHandle::start`] enqueues the
//!    scan's *window* — the first [`BlockPipeline::refresh_window`] groups —
//!    as tasks, after declaring interest in their blocks
//!    ([`crate::BlockSource::register_interest`]) so a coalescing source can
//!    fuse the GETs.
//! 2. Workers take tasks from the per-tenant deficit round-robin scheduler,
//!    `min(4, ceil(ready / workers))` per lock acquisition, and run
//!    [`process_contained`] on each (for an aggregate,
//!    [`BlockPipeline::resolve_aggregates`]) into the scan's [`Reorder`].
//!    Workers never wait for a consumer.
//! 3. The consumer — a [`Scan`]'s stream, or `ScanEngine::aggregate`'s
//!    fold — takes results in block order; each one returns its admission
//!    accounting and refills the window. The degradation ladder
//!    (DESIGN.md §13.4) is asked per emitted group, so a breaker that opens
//!    mid-scan shrinks the look-ahead of every scan on that source.
//! 4. Ending a scan — drain, error, cancel or drop — purges its queued
//!    tasks, returns its budget, releases block interest and folds its
//!    counters into its tenant's [`TenantStats`], exactly once. A scan ended
//!    by anyone else (the executor shut down) surfaces
//!    [`ScanError::Shutdown`] instead of a clean end.
//!
//! The dispatch lock and a scan's reorder lock are never held together, and
//! neither is held while a source, cache or gate lock is taken.
//!
//! [`ScanEngine`]: crate::ScanEngine

use crate::driver::{contained, process_contained, GroupFeed, Reorder, ScanEnd, ScanStream};
use crate::pipeline::{AggInput, BlockPipeline, BlockResult, PipelineCounters};
use crate::plan::{RowGroup, ScanPlan};
use crate::sched::{claim_size, Scheduler, TenantStats};
use crate::source::FetchStats;
use crate::{Result, ScanError};
use btr_sync::{OrderedCondvar, OrderedMutex, Rank};
use btrblocks::Scratch;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cost charged for a block whose source cannot report its length.
const DEFAULT_TASK_COST: u64 = 64 << 10;

/// Executor ranks (DESIGN.md §15): dispatch locks are taken with nothing
/// else held and released before `process_contained` runs, so they sit below
/// the gate/cache/source ranks a worker acquires next.
const SCHED_RANK: Rank = Rank::new(50, "scan.exec.sched");
const TASK_READY_RANK: Rank = Rank::new(51, "scan.exec.task_ready");
const PROGRESS_RANK: Rank = Rank::new(54, "scan.exec.progress");
const OUT_READY_RANK: Rank = Rank::new(55, "scan.exec.out_ready");

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
    /// [`crate::pipeline::DecodeGate`]; 0 when the pipeline runs gateless,
    /// as [`crate::ScanEngine`]'s do.
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
    /// Wall-clock time from scan start to its end (or to now, if the scan
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
    /// Upward degradation-ladder moves (cache bypass, shrunk window) taken
    /// while this scan ran.
    pub degradation_steps: u64,
    /// Claim batches in which workers took tasks of this scan from the
    /// scheduler — its share of scheduler-lock acquisitions.
    pub morsels_claimed: u64,
}

/// What a job's tasks compute per row group.
enum Work {
    /// A scan: the projection's selected rows ([`BlockPipeline::process`]).
    Rows,
    /// An aggregate: each aggregate's fold input
    /// ([`BlockPipeline::resolve_aggregates`]). `columns` holds each
    /// aggregate's source column; `needs[i][a]` whether aggregate `a` reads
    /// values in row group `i`.
    Aggregate {
        columns: Vec<usize>,
        needs: Vec<Vec<bool>>,
    },
}

/// A finished row group, as a job's consumer takes it.
enum GroupOutput {
    Rows(BlockResult),
    Fold(AggInput),
}

/// Everything workers and the consumer share about one scan.
struct ScanRecord {
    tenant: Arc<str>,
    pipeline: BlockPipeline,
    /// `plan.row_groups` are the scan's tasks, in block order.
    plan: ScanPlan,
    work: Work,
    /// Source columns each task reads (projection or aggregate columns ∪
    /// filter columns); every task declares interest in these columns of
    /// its block.
    interest_cols: Vec<u32>,
    /// Estimated compressed bytes per row group, parallel to the groups.
    costs: Vec<u64>,
    /// Finished groups waiting for the consumer, in block order.
    progress: OrderedMutex<Reorder<GroupOutput>>,
    /// Signals the consumer that a result landed (or the scan was ended).
    out_ready: OrderedCondvar,
    /// Set when the scan ends, by its consumer or by shutdown; workers skip
    /// its tasks.
    cancelled: AtomicBool,
    morsels_claimed: AtomicU64,
    /// The source's counters when the scan was planned; the report shows
    /// deltas.
    fetch_base: FetchStats,
    started: Instant,
}

impl ScanRecord {
    /// The `(column, block)` pairs row groups `range` will read.
    fn reads(&self, range: Range<usize>) -> impl Iterator<Item = (u32, u32)> + '_ {
        let groups = self.plan.row_groups.iter().take(range.end).skip(range.start);
        groups.flat_map(|g| self.interest_cols.iter().map(|&col| (col, g.block)))
    }

    fn release_interest(&self, range: Range<usize>) {
        self.reads(range).for_each(|(col, block)| self.pipeline.source().release_interest(col, block));
    }

    fn cost_of(&self, range: Range<usize>) -> u64 {
        self.costs.iter().take(range.end).skip(range.start).sum()
    }

    /// Runs row group `idx` with panics contained.
    fn run(&self, idx: usize, group: RowGroup, scratch: &mut Scratch) -> Result<GroupOutput> {
        match &self.work {
            Work::Rows => process_contained(&self.pipeline, idx, group, scratch).map(GroupOutput::Rows),
            Work::Aggregate { columns, needs } => {
                let needs = needs.get(idx).map(Vec::as_slice).unwrap_or_default();
                let fully_selected = self.plan.group_fully_selected(idx);
                let reads = columns.iter().copied().zip(needs.iter().copied());
                contained(idx, group, || {
                    self.pipeline.resolve_aggregates(group, fully_selected, reads, scratch)
                })
                .map(GroupOutput::Fold)
            }
        }
    }
}

/// Source column indices as the `u32`s sources speak, duplicates dropped,
/// first occurrence order kept.
fn distinct_cols<'a>(indices: impl Iterator<Item = &'a usize>) -> Vec<u32> {
    let mut cols = Vec::new();
    for &idx in indices {
        let col = u32::try_from(idx).unwrap_or(u32::MAX);
        if !cols.contains(&col) {
            cols.push(col);
        }
    }
    cols
}

/// A planned scan, priced and ready to start: what [`ExecutorHandle::start`]
/// takes, and what an admission check reads first.
pub struct ScanJob(ScanRecord);

impl ScanJob {
    /// Prices `plan`'s row groups over `pipeline`'s source for `tenant`.
    pub fn new(tenant: Arc<str>, plan: ScanPlan, pipeline: BlockPipeline) -> ScanJob {
        ScanJob::with_work(tenant, plan, pipeline, Work::Rows)
    }

    /// An aggregate over `plan`: its tasks resolve each aggregate's fold
    /// input, `needs[i][a]` saying whether aggregate `a` reads values in row
    /// group `i` ([`btr_expr::AggState::needs_values`]).
    pub(crate) fn aggregate(
        tenant: Arc<str>,
        plan: ScanPlan,
        pipeline: BlockPipeline,
        needs: Vec<Vec<bool>>,
    ) -> ScanJob {
        let columns = plan.agg_columns.clone();
        ScanJob::with_work(tenant, plan, pipeline, Work::Aggregate { columns, needs })
    }

    fn with_work(tenant: Arc<str>, plan: ScanPlan, pipeline: BlockPipeline, work: Work) -> ScanJob {
        let source = pipeline.source();
        let read = match &work {
            Work::Rows => &plan.projection,
            Work::Aggregate { columns, .. } => columns,
        };
        // Columns every task may touch: the ones it reads plus every filter
        // column (filter blocks are fetched whether or not the fast path
        // fires).
        let interest_cols = distinct_cols(read.iter().chain(plan.filter_columns().iter()));
        // Byte estimates are post-pruning and post-masking: groups whose
        // every conjunct the zone maps already proved never fetch
        // filter-only columns, so they aren't charged for them.
        let proj_cols = distinct_cols(read.iter());
        let block_len = |c: u32, block| source.block_len(c, block).unwrap_or(DEFAULT_TASK_COST);
        let costs = plan
            .row_groups
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let cols = if plan.group_fully_selected(i) { &proj_cols } else { &interest_cols };
                cols.iter().map(|&c| block_len(c, g.block)).sum()
            })
            .collect();
        ScanJob(ScanRecord {
            tenant,
            // Before any task runs, so the report sees every fetch as a delta.
            fetch_base: source.stats(),
            pipeline,
            plan,
            work,
            interest_cols,
            costs,
            progress: OrderedMutex::new(PROGRESS_RANK, Reorder::default()),
            out_ready: OrderedCondvar::new(OUT_READY_RANK),
            cancelled: AtomicBool::new(false),
            morsels_claimed: AtomicU64::new(0),
            started: Instant::now(),
        })
    }

    /// Tasks and estimated bytes starting this scan enqueues at once: its
    /// window, as the degradation ladder sizes it right now.
    pub fn initial_window(&self) -> (u64, u64) {
        let initial = self.0.pipeline.refresh_window().min(self.0.plan.row_groups.len());
        (initial as u64, self.0.cost_of(0..initial))
    }
}

/// Per-tenant accounts plus the executor-wide gauges, from
/// [`ExecutorHandle::stats`].
#[derive(Debug, Clone, Default)]
pub struct ExecutorStats {
    /// Every tenant that ever started a scan, in first-contact order.
    /// Accounts cover dispatches so far and *finished* scans.
    pub tenants: Vec<(Arc<str>, TenantStats)>,
    /// Pipeline counters of scans still running.
    pub live: PipelineCounters,
    /// Tasks enqueued and not yet emitted to a consumer.
    pub outstanding_tasks: u64,
    /// Estimated compressed bytes behind those tasks.
    pub outstanding_bytes: u64,
}

/// Everything the dispatch lock guards.
struct Dispatch {
    queue: Scheduler<Arc<ScanRecord>>,
    /// Running scans, so shutdown can end them and stats can include them.
    live: Vec<Arc<ScanRecord>>,
    /// Tasks enqueued and not yet emitted, and the estimated bytes behind
    /// them: what admission checks compare with their limits.
    outstanding: (u64, u64),
    shutdown: bool,
}

impl Dispatch {
    fn refund(&mut self, scan: &ScanRecord, range: Range<usize>) {
        self.outstanding.0 -= range.len() as u64;
        self.outstanding.1 -= scan.cost_of(range);
    }
}

/// State shared by the pool's workers, every handle and every running scan.
struct Core {
    workers: usize,
    dispatch: OrderedMutex<Dispatch>,
    /// Wakes workers when tasks arrive or the executor shuts down.
    task_ready: OrderedCondvar,
}

impl Core {
    /// Returns the budget of `emitted` (row groups the consumer just took)
    /// and makes `refill` runnable, under one lock acquisition; `starting`
    /// also lists the scan as live. The refill's interest is declared before
    /// any of it can run: a worker fetching block b must already see the
    /// interest in b+1.. for its GET to coalesce, whatever the thread timing.
    fn advance(
        &self,
        scan: &Arc<ScanRecord>,
        emitted: Range<usize>,
        refill: Range<usize>,
        starting: bool,
    ) -> Result<()> {
        let source = scan.pipeline.source();
        scan.reads(refill.clone()).for_each(|(col, block)| source.register_interest(col, block));
        {
            let mut dispatch = self.dispatch.lock();
            dispatch.refund(scan, emitted);
            if dispatch.shutdown {
                drop(dispatch);
                scan.release_interest(refill);
                return Err(ScanError::Shutdown);
            }
            if starting {
                dispatch.live.push(scan.clone());
            }
            dispatch.outstanding.0 += refill.len() as u64;
            dispatch.outstanding.1 += scan.cost_of(refill.clone());
            let tasks = scan.plan.row_groups.iter().zip(&scan.costs).enumerate();
            for (i, (&group, &cost)) in tasks.take(refill.end).skip(refill.start) {
                dispatch.queue.enqueue(&scan.tenant, scan.clone(), i, group, cost);
            }
        }
        match refill.len() {
            0 => {}
            1 => self.task_ready.notify_one(),
            _ => self.task_ready.notify_all(),
        }
        Ok(())
    }
}

fn worker_loop(core: &Core) {
    // One decode arena per worker for the lifetime of the pool: buffers
    // leased while decoding one row group are pooled and reused for the
    // next, of whichever scan, so steady-state decode does not allocate.
    let mut scratch = Scratch::new();
    let mut batch = Vec::new();
    loop {
        {
            let mut dispatch = core
                .task_ready
                .wait_while(core.dispatch.lock(), |d| !d.shutdown && d.queue.ready() == 0);
            if dispatch.shutdown {
                return;
            }
            let take = claim_size(dispatch.queue.ready(), core.workers);
            dispatch.queue.pick_batch(take, &mut batch);
        }
        let mut claimed_for = std::ptr::null();
        for task in batch.drain(..) {
            let (scan, idx) = (task.scan, task.group_idx);
            // DRR serves a tenant's tasks consecutively, so one claim batch
            // holds each scan's tasks as one run.
            if !std::ptr::eq(claimed_for, Arc::as_ptr(&scan)) {
                // ordering: statistics counter, no synchronization implied
                scan.morsels_claimed.fetch_add(1, Ordering::Relaxed);
                claimed_for = Arc::as_ptr(&scan);
            }
            // ordering: advisory; a stale read costs one wasted row group
            let live = !scan.cancelled.load(Ordering::Relaxed);
            let result = live.then(|| scan.run(idx, task.group, &mut scratch));
            // Ending a scan purges its queued tasks, but a task already
            // picked is past the purge: its interest is released here.
            scan.release_interest(idx..idx + 1);
            if let Some(result) = result {
                scan.progress.lock().insert(idx, result);
                scan.out_ready.notify_all();
            }
        }
    }
}

/// The worker pool. Dropping it shuts the pool down — running scans end
/// with [`ScanError::Shutdown`] — and joins the workers.
pub struct Executor {
    handle: ExecutorHandle,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Spawns `workers` (at least one) threads dispatching by deficit
    /// round-robin with a per-visit quantum of `quantum_bytes`.
    pub fn new(workers: usize, quantum_bytes: u64) -> Executor {
        let workers = workers.max(1);
        let dispatch = Dispatch {
            queue: Scheduler::new(quantum_bytes),
            live: Vec::new(),
            outstanding: (0, 0),
            shutdown: false,
        };
        let core = Arc::new(Core {
            workers,
            dispatch: OrderedMutex::new(SCHED_RANK, dispatch),
            task_ready: OrderedCondvar::new(TASK_READY_RANK),
        });
        let threads = (0..workers)
            .map(|_| {
                let core = core.clone();
                std::thread::spawn(move || worker_loop(&core))
            })
            .collect();
        Executor { handle: ExecutorHandle(core), threads }
    }

    /// A handle for starting scans; stays valid (and starts failing with
    /// [`ScanError::Shutdown`]) after the executor is dropped.
    pub fn handle(&self) -> &ExecutorHandle {
        &self.handle
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        let core = &self.handle.0;
        let live = {
            let mut dispatch = core.dispatch.lock();
            dispatch.shutdown = true;
            std::mem::take(&mut dispatch.live)
        };
        core.task_ready.notify_all();
        for scan in live {
            // Under the consumer's lock, so it cannot check the flag and
            // then park past this wakeup.
            let _progress = scan.progress.lock();
            scan.cancelled.store(true, Ordering::Relaxed); // ordering: cancel flag; the consumer reads it under this lock
            scan.out_ready.notify_all();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Starts scans on an [`Executor`] and reads its accounts; cheap to clone.
#[derive(Clone)]
pub struct ExecutorHandle(Arc<Core>);

impl ExecutorHandle {
    /// Enqueues `job`'s window and returns the running scan, emitting
    /// `names` (the projected columns, in output order) in batches of
    /// `batch_rows`.
    pub fn start(&self, job: ScanJob, names: Vec<String>, batch_rows: usize) -> Result<Scan> {
        let enqueued = job.initial_window().0 as usize;
        let scan = Arc::new(job.0);
        self.0.advance(&scan, 0..0, 0..enqueued, true)?;
        let types = scan.pipeline.projected_types();
        let feed = ExecutorFeed { core: self.0.clone(), scan, enqueued, wall_seconds: None };
        Ok(ScanStream::new(feed, names, types, batch_rows))
    }

    /// Enqueues an aggregate job's window, as [`ExecutorHandle::start`] does
    /// a scan's, and returns the consumer of its fold inputs.
    pub(crate) fn start_fold(&self, job: ScanJob) -> Result<FoldRun> {
        let enqueued = job.initial_window().0 as usize;
        let scan = Arc::new(job.0);
        self.0.advance(&scan, 0..0, 0..enqueued, true)?;
        let feed = ExecutorFeed { core: self.0.clone(), scan, enqueued, wall_seconds: None };
        Ok(FoldRun { feed, finished: false })
    }

    /// `(tasks, estimated bytes)` enqueued and not yet emitted to a
    /// consumer, across all scans: what an admission check compares with
    /// its limits.
    pub fn outstanding(&self) -> (u64, u64) {
        self.0.dispatch.lock().outstanding
    }

    /// Snapshot of the per-tenant accounts and gauges. A scan is counted in
    /// `live` or in its tenant's account, never both: ending a scan moves it
    /// under the lock this reads under.
    pub fn stats(&self) -> ExecutorStats {
        let dispatch = self.0.dispatch.lock();
        let mut live = PipelineCounters::default();
        for scan in &dispatch.live {
            live.add(&scan.pipeline.counters());
        }
        ExecutorStats {
            tenants: dispatch.queue.tenants().map(|(t, s)| (t.clone(), s.clone())).collect(),
            live,
            outstanding_tasks: dispatch.outstanding.0,
            outstanding_bytes: dispatch.outstanding.1,
        }
    }
}

/// A running scan: an iterator of [`crate::RecordBatch`]es in row order plus
/// a [`ScanReport`]. Dropping it early cancels the scan: its queued tasks
/// leave the scheduler, its admission budget returns, and block interest it
/// declared is released.
pub type Scan = ScanStream<ExecutorFeed>;

/// The executor's side of a [`Scan`].
pub struct ExecutorFeed {
    core: Arc<Core>,
    scan: Arc<ScanRecord>,
    /// Row groups enqueued so far (a prefix of the scan's groups); only the
    /// consumer moves it.
    enqueued: usize,
    wall_seconds: Option<f64>,
}

impl ExecutorFeed {
    /// Waits for the next in-order row group; taking it returns its
    /// admission accounting and refills the scan's look-ahead window.
    fn next_output(&mut self) -> Option<Result<GroupOutput>> {
        let scan = &self.scan;
        let total = scan.plan.row_groups.len();
        let (result, next_emit) = {
            let mut progress = scan.out_ready.wait_while(scan.progress.lock(), |p| {
                // ordering: cancel flag, stored under this lock by shutdown
                !scan.cancelled.load(Ordering::Relaxed) && p.awaiting(total)
            });
            // Only someone else can have ended a scan its consumer is still
            // pulling from; what is buffered is not the whole answer.
            // ordering: cancel flag, stored under this lock by shutdown
            if scan.cancelled.load(Ordering::Relaxed) {
                return Some(Err(ScanError::Shutdown));
            }
            (progress.pop()?, progress.next_emit())
        };
        // The one window rule: keep `refresh_window()` groups enqueued past
        // the consumer, re-asking the degradation ladder per emitted group.
        let target = (next_emit + scan.pipeline.refresh_window()).min(total).max(self.enqueued);
        if self.core.advance(scan, next_emit - 1..next_emit, self.enqueued..target, false).is_ok() {
            self.enqueued = target;
        }
        Some(result)
    }
}

impl GroupFeed for ExecutorFeed {
    fn next_block(&mut self) -> Option<Result<BlockResult>> {
        self.next_output().map(|output| match output? {
            GroupOutput::Rows(rows) => Ok(rows),
            GroupOutput::Fold(_) => Err(ScanError::Worker("a scan's task resolved aggregates".into())),
        })
    }

    /// Tears the scan down: workers skip it, its queued tasks are purged,
    /// its admission budget returns, its counters fold into its tenant's.
    fn finish(&mut self, end: ScanEnd, rows_matched: u64) {
        let scan = &self.scan;
        self.wall_seconds = Some(scan.started.elapsed().as_secs_f64());
        scan.cancelled.store(true, Ordering::Relaxed); // ordering: cancel flag; workers re-check per task
        // Enqueued-but-never-emitted tasks give back their admission
        // accounting here; emitted ones already did.
        let pending = scan.progress.lock().next_emit()..self.enqueued;
        let purged = {
            let mut dispatch = self.core.dispatch.lock();
            dispatch.refund(scan, pending);
            dispatch.live.retain(|live| !Arc::ptr_eq(live, scan));
            let stats = dispatch.queue.stats_mut(&scan.tenant);
            stats.fold_scan(&scan.pipeline.counters(), rows_matched, end);
            dispatch.queue.purge(|queued| Arc::ptr_eq(queued, scan))
        };
        // Tasks still queued release their block interest here; tasks a
        // worker already picked release it in the worker.
        for task in &purged {
            scan.release_interest(task.group_idx..task.group_idx + 1);
        }
    }
}

/// A running aggregate on the executor: workers resolve its row groups'
/// fold inputs within the window, as for a scan, and the consumer takes them
/// in block order ([`FoldRun::fold`]). Dropping it before it is drained
/// cancels the job, as dropping a [`Scan`] does.
pub(crate) struct FoldRun {
    feed: ExecutorFeed,
    finished: bool,
}

impl FoldRun {
    /// Hands every row group's fold input to `fold`, in block order, and
    /// returns the pipeline's counters once the last group is folded. The
    /// first error, a group's or `fold`'s, ends the job.
    pub(crate) fn fold(
        mut self,
        mut fold: impl FnMut(&BlockPipeline, AggInput) -> Result<()>,
    ) -> Result<PipelineCounters> {
        while let Some(output) = self.feed.next_output() {
            let folded = output.and_then(|output| match output {
                GroupOutput::Fold(input) => fold(&self.feed.scan.pipeline, input),
                GroupOutput::Rows(_) => Err(ScanError::Worker("an aggregate's task gathered rows".into())),
            });
            if let Err(e) = folded {
                self.finish(ScanEnd::Failed);
                return Err(e);
            }
        }
        self.finish(ScanEnd::Completed);
        Ok(self.feed.scan.pipeline.counters())
    }

    fn finish(&mut self, end: ScanEnd) {
        if !self.finished {
            self.finished = true;
            self.feed.finish(end, 0);
        }
    }
}

impl Drop for FoldRun {
    fn drop(&mut self) {
        self.finish(ScanEnd::Cancelled);
    }
}

impl ScanStream<ExecutorFeed> {
    /// Execution statistics so far; final once the scan has ended and its
    /// in-flight row groups have finished.
    pub fn report(&self) -> ScanReport {
        let feed = self.feed();
        let scan = &feed.scan;
        let fetch = scan.pipeline.source().stats();
        let base = &scan.fetch_base;
        let c = scan.pipeline.counters();
        ScanReport {
            blocks_total: scan.plan.blocks_total as u64,
            blocks_pruned: scan.plan.blocks_pruned as u64,
            blocks_pushdown_fast_path: c.blocks_pushdown_fast_path,
            blocks_decoded: c.blocks_decoded,
            blocks_fetched: c.blocks_fetched,
            cache_hits: c.cache_hits,
            cache_misses: c.cache_misses,
            dedup_hits: c.dedup_hits,
            bytes_fetched: fetch.bytes_fetched - base.bytes_fetched,
            fetch_requests: fetch.requests - base.requests,
            fetch_retries: fetch.retries - base.retries,
            rows_total: scan.plan.rows_total,
            rows_matched: self.rows_matched(),
            batches: self.batches(),
            decode_seconds: c.decode_seconds,
            wall_seconds: feed
                .wall_seconds
                .unwrap_or_else(|| scan.started.elapsed().as_secs_f64()),
            fetch_backoff_seconds: fetch.backoff_seconds - base.backoff_seconds,
            hedges_issued: fetch.hedges_issued - base.hedges_issued,
            hedges_won: fetch.hedges_won - base.hedges_won,
            breaker_transitions: fetch.breaker_transitions - base.breaker_transitions,
            blocks_quarantined: fetch.blocks_quarantined - base.blocks_quarantined,
            degradation_steps: c.degradation_steps,
            // ordering: statistics read, no synchronization implied
            morsels_claimed: scan.morsels_claimed.load(Ordering::Relaxed),
        }
    }
}
