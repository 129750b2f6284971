//! The service core: registration, admission, DRR dispatch, scan handles.
//!
//! One [`ScanService`] owns the shared decoded-block cache, the cross-scan
//! [`DecodeGate`], one [`CoalescingSource`] per registered relation, and a
//! fixed worker pool. Tenants obtain [`ScanClient`] handles and submit
//! [`ScanSpec`]s; an admitted scan becomes a [`ScanHandle`] — an iterator of
//! [`RecordBatch`]es — backed by a [`btr_scan::BlockPipeline`] whose row
//! groups are dispatched by the service-wide scheduler, never by per-scan
//! threads.
//!
//! # Flow of one admitted scan
//!
//! 1. `submit` plans the scan, estimates per-row-group costs from
//!    [`BlockSource::block_len`], and checks the two admission budgets
//!    (outstanding tasks, outstanding estimated bytes). The *initial window*
//!    of row groups is enqueued; interest in their blocks is registered with
//!    the coalescing source so other scans' fetches can carry them.
//! 2. Workers pull tasks via deficit round-robin, record the queue wait
//!    (logical dispatch distance + real seconds), and run
//!    [`btr_scan::BlockPipeline::process`] — cache lookup, gated fetch +
//!    decode, predicate, gather — with panics contained per row group.
//! 3. The consumer drains results in row order; each emitted group releases
//!    its admission accounting and enqueues the next group, keeping at most
//!    `window` tasks outstanding per scan.
//! 4. Finishing (drain, error, cancel, or drop) purges the scan's queued
//!    tasks, returns its admission budget, releases block interest, and
//!    folds its pipeline counters into the tenant's metrics exactly once.
//!
//! # Lock ordering
//!
//! `progress` (per scan) and `sched` (service) are never held together; the
//! metrics and relations maps are leaves. Workers wait on `task_ready` under
//! the `sched` mutex; consumers wait on their scan's `out_ready` under its
//! `progress` mutex.

use crate::coalesce::CoalescingSource;
use crate::metrics::{percentile, snapshot, Metrics, ServiceReport};
use crate::sched::{Scheduler, Task};
use crate::ServiceOptions;
use btr_scan::batch::{append, empty_like, split_front};
use btr_scan::{
    plan_scan, BlockCache, BlockPipeline, BlockResult, BlockSource, DecodeGate, FetchCtl,
    PipelineCounters, PipelineFilter, PipelineParams, RecordBatch, Result, RowGroup, ScanError,
    ScanSpec,
};
use btr_s3sim::{Deadline, RetryBudget};
use btrblocks::{ColumnData, DecodeScratch, Sidecar};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use btr_sync::{CachePadded, OrderedCondvar, OrderedMutex, Rank};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Cost charged against the byte budget for a task whose source cannot
/// report a block length.
const DEFAULT_TASK_COST: u64 = 64 << 10;

/// Lock ranks of the service layer (rows in `btr-lint.toml`'s
/// `[lock_order]` table). The service sits above every btr-scan and
/// btr-s3sim lock, so everything here ranks below 50. `sched` and a scan's
/// `progress` are never held together (module docs above); `scans`,
/// `relations`, and `metrics` are leaves held alone.
const SCANS_RANK: Rank = Rank::new(10, "server.scans");
const SCHED_RANK: Rank = Rank::new(20, "server.sched");
const TASK_READY_RANK: Rank = Rank::new(21, "server.sched.task_ready");
const SCAN_PROGRESS_RANK: Rank = Rank::new(30, "server.scan.progress");
const SCAN_OUT_READY_RANK: Rank = Rank::new(31, "server.scan.out_ready");
const RELATIONS_RANK: Rank = Rank::new(35, "server.relations");
const METRICS_RANK: Rank = Rank::new(38, "server.metrics");

/// Reorder/backpressure state of one scan, guarded by `ScanShared::progress`.
#[derive(Default)]
struct Progress {
    /// Row groups enqueued so far (a prefix of `groups`).
    enqueued: usize,
    /// Next row-group index the consumer will emit.
    next_emit: usize,
    /// Finished groups waiting for their turn, by index.
    ready: BTreeMap<usize, Result<BlockResult>>,
}

/// Everything workers and the consumer share about one admitted scan.
pub(crate) struct ScanShared {
    /// Service-unique id, used to purge this scan's tasks from the scheduler.
    pub(crate) id: u64,
    tenant: Arc<str>,
    pipeline: Arc<BlockPipeline>,
    source: Arc<CoalescingSource>,
    groups: Vec<RowGroup>,
    /// Source columns each task reads (projection ∪ predicate column); every
    /// task registers interest in these columns of its block.
    interest_cols: Vec<u32>,
    /// Estimated compressed bytes per row group, parallel to `groups`.
    costs: Vec<u64>,
    progress: OrderedMutex<Progress>,
    /// Signals the consumer that a result landed (or the scan was
    /// cancelled).
    out_ready: OrderedCondvar,
    /// Set by finish/cancel/shutdown; workers skip this scan's tasks.
    cancelled: AtomicBool,
    /// Set once the scan's counters were folded into tenant metrics, so the
    /// service report never double-counts a scan.
    folded: AtomicBool,
}

impl ScanShared {
    fn register_interest(&self, block: u32) {
        for &col in &self.interest_cols {
            self.source.register_interest(col, block);
        }
    }

    fn release_interest(&self, block: u32) {
        for &col in &self.interest_cols {
            self.source.release_interest(col, block);
        }
    }

    fn cost_of(&self, idx: usize) -> u64 {
        self.costs.get(idx).copied().unwrap_or(DEFAULT_TASK_COST)
    }

    /// A minimal instance for scheduler unit tests: a one-column in-memory
    /// relation nobody ever scans.
    #[cfg(test)]
    pub(crate) fn dummy(id: u64) -> Arc<ScanShared> {
        use btrblocks::{Column, ColumnType, Config, Relation};
        let cfg = Config::default();
        let rel = Relation::new(vec![Column::new("id", ColumnData::Int(vec![1, 2, 3]))]);
        let compressed = Arc::new(btrblocks::compress(&rel, &cfg).unwrap());
        let inner: Arc<dyn BlockSource> =
            Arc::new(btr_scan::MemorySource::new("dummy", compressed));
        let cache = Arc::new(BlockCache::new(1 << 16));
        let source = Arc::new(CoalescingSource::new(inner, cache.clone(), 1));
        let pipeline = Arc::new(BlockPipeline::new(PipelineParams {
            source: source.clone(),
            cache,
            config: cfg,
            projection: vec![0],
            column_types: vec![ColumnType::Integer],
            filter: None,
            ctl: FetchCtl::default(),
            base_prefetch: 1,
            gate: None,
        }));
        Arc::new(ScanShared {
            id,
            tenant: Arc::from("dummy"),
            pipeline,
            source,
            groups: Vec::new(),
            interest_cols: Vec::new(),
            costs: Vec::new(),
            progress: OrderedMutex::new(SCAN_PROGRESS_RANK, Progress::default()),
            out_ready: OrderedCondvar::new(SCAN_OUT_READY_RANK),
            cancelled: AtomicBool::new(false),
            folded: AtomicBool::new(false),
        })
    }
}

/// A registered relation: its coalescing source plus zone-map sidecar.
struct Registered {
    source: Arc<CoalescingSource>,
    sidecar: Arc<Sidecar>,
}

/// Shared service state, behind one `Arc` held by the service, its workers,
/// every client, and every live handle.
struct Inner {
    options: ServiceOptions,
    cache: Arc<BlockCache>,
    gate: Arc<DecodeGate>,
    relations: OrderedMutex<HashMap<String, Registered>>,
    sched: OrderedMutex<Scheduler>,
    /// Wakes workers when tasks arrive or the service shuts down.
    task_ready: OrderedCondvar,
    /// Tasks enqueued and not yet emitted to a consumer, service-wide.
    /// The three counters below are written from every worker and every
    /// consumer; each gets its own cache line so an admission-budget update
    /// never invalidates the dispatch counter's line (and vice versa).
    outstanding_tasks: CachePadded<AtomicU64>,
    /// Estimated compressed bytes behind those tasks.
    outstanding_bytes: CachePadded<AtomicU64>,
    /// Monotone dispatch counter; differences measure logical queue wait.
    dispatch_seq: CachePadded<AtomicU64>,
    /// Unpadded on purpose: only the submit path touches it.
    scan_ids: AtomicU64,
    shutdown: AtomicBool,
    /// Live scans, so shutdown can wake blocked consumers and the report can
    /// include not-yet-folded pipeline counters.
    scans: OrderedMutex<Vec<Weak<ScanShared>>>,
    metrics: OrderedMutex<Metrics>,
}

/// Tasks one worker drains per scheduler-lock acquisition. Small enough that
/// a point query queued behind another worker's batch still dispatches
/// within a few task executions; large enough to amortize the scheduler and
/// metrics locks across a morsel of work. DRR order is unchanged (see
/// [`Scheduler::pick_batch`]).
const WORKER_PICK_BATCH: usize = 4;

fn worker_loop(inner: &Inner) {
    // One decode arena per worker for the lifetime of the service; buffers
    // recycle across row groups of every scan it serves.
    let mut scratch = DecodeScratch::new();
    let mut batch: Vec<Task> = Vec::with_capacity(WORKER_PICK_BATCH);
    loop {
        {
            let mut sched = inner.task_ready.wait_while(inner.sched.lock(), |sched| {
                // ordering: shutdown flag; the predicate re-reads it on
                // every wakeup, so a stale value only costs one iteration
                !inner.shutdown.load(Ordering::Relaxed) && !sched.has_ready()
            });
            if inner.shutdown.load(Ordering::Relaxed) { // ordering: shutdown flag
                return;
            }
            sched.pick_batch(WORKER_PICK_BATCH, &mut batch);
        }
        if batch.is_empty() {
            // `has_ready` held under the lock, so the batch is normally
            // non-empty; this arm keeps the loop robust to predicate drift.
            continue;
        }
        // The whole batch dispatches now: one metrics-lock acquisition
        // records every task's queue wait.
        {
            let mut m = inner.metrics.lock();
            for task in &batch {
                let d = inner.dispatch_seq.fetch_add(1, Ordering::Relaxed); // ordering: monotone dispatch counter; gaps only skew wait stats
                let acc = m.tenants.entry(task.scan.tenant.clone()).or_default();
                acc.tasks_dispatched += 1;
                acc.wait_logical.push(d.saturating_sub(task.enqueue_dispatch));
                acc.wait_seconds.push(task.enqueued_at.elapsed().as_secs_f64());
            }
        }
        for task in batch.drain(..) {
            let scan = &task.scan;
            // ordering: shutdown flag; remaining tasks just release interest
            let stop = inner.shutdown.load(Ordering::Relaxed);
            // ordering: cancel flag; a stale read only delays the skip
            if stop || scan.cancelled.load(Ordering::Relaxed) {
                // finish() purges queued tasks, but a task already picked is
                // past the purge — release its block interest here instead.
                scan.release_interest(task.group.block);
                continue;
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                scan.pipeline.process(task.group, &mut scratch)
            }))
            .unwrap_or_else(|payload| {
                Err(ScanError::Worker(format!(
                    "row group {} (block {}): {}",
                    task.group_idx,
                    task.group.block,
                    btr_sync::panic_message(payload.as_ref())
                )))
            });
            scan.release_interest(task.group.block);
            {
                let mut p = scan.progress.lock();
                p.ready.insert(task.group_idx, result);
            }
            scan.out_ready.notify_all();
        }
    }
}

impl Inner {
    /// Charges the admission budgets and hands row group `idx` to the
    /// scheduler. `register` declares the block's coalescing interest here;
    /// pass `false` only when the caller already declared it (the submit
    /// path pre-registers a whole window before any task is runnable).
    fn enqueue_task(&self, scan: &Arc<ScanShared>, idx: usize, register: bool) {
        let Some(&group) = scan.groups.get(idx) else {
            return;
        };
        let cost = scan.cost_of(idx);
        if register {
            scan.register_interest(group.block);
        }
        self.outstanding_tasks.fetch_add(1, Ordering::Relaxed); // ordering: admission budget counter; checks are advisory
        self.outstanding_bytes.fetch_add(cost, Ordering::Relaxed); // ordering: admission budget counter; checks are advisory
        let task = Task {
            scan: scan.clone(),
            group_idx: idx,
            group,
            cost,
            enqueue_dispatch: self.dispatch_seq.load(Ordering::Relaxed), // ordering: monotone dispatch counter
            enqueued_at: Instant::now(),
        };
        self.sched.lock().enqueue(&scan.tenant, task);
        self.task_ready.notify_one();
    }

    fn record_rejection(&self, tenant: &Arc<str>) {
        let mut m = self.metrics.lock();
        m.rejections += 1;
        m.tenants.entry(tenant.clone()).or_default().scans_rejected += 1;
    }

    fn submit(
        self: &Arc<Inner>,
        tenant: &Arc<str>,
        relation: &str,
        spec: &ScanSpec,
    ) -> Result<ScanHandle> {
        let (source, sidecar) = {
            let rels = self.relations.lock();
            let reg = rels
                .get(relation)
                .ok_or_else(|| ScanError::MissingObject(relation.to_string()))?;
            (reg.source.clone(), reg.sidecar.clone())
        };
        let src: Arc<dyn BlockSource> = source.clone();
        // The service streams projected batches; aggregate-only specs (legal
        // for the engine's aggregate driver) have nothing to stream.
        if spec.projection.is_empty() {
            return Err(ScanError::EmptyProjection);
        }
        let plan = plan_scan(src.as_ref(), &sidecar, spec)?;
        let columns = src.columns();

        // Columns every task may touch: the projection plus every filter
        // column (filter blocks are fetched whether or not the fast path
        // fires).
        let mut interest_cols: Vec<u32> = Vec::with_capacity(plan.projection.len() + 1);
        for &idx in plan.projection.iter().chain(plan.filter_columns().iter()) {
            let col = u32::try_from(idx).unwrap_or(u32::MAX);
            if !interest_cols.contains(&col) {
                interest_cols.push(col);
            }
        }
        // Byte estimates are post-pruning and post-masking: groups whose
        // every conjunct the zone maps already proved never fetch
        // filter-only columns, so they aren't charged for them.
        let mut proj_cols: Vec<u32> = Vec::with_capacity(plan.projection.len());
        for &idx in &plan.projection {
            let col = u32::try_from(idx).unwrap_or(u32::MAX);
            if !proj_cols.contains(&col) {
                proj_cols.push(col);
            }
        }
        let costs: Vec<u64> = plan
            .row_groups
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let cols: &[u32] = if plan.group_fully_selected(i) {
                    &proj_cols
                } else {
                    &interest_cols
                };
                cols.iter()
                    .map(|&c| src.block_len(c, g.block).unwrap_or(DEFAULT_TASK_COST))
                    .sum()
            })
            .collect();
        let window = self.options.window.max(1);
        let initial = window.min(plan.row_groups.len());
        let initial_cost: u64 = costs.iter().take(initial).sum();

        // Admission: an idle service always admits (so a scan larger than
        // the budgets can still run alone, and rejection is deterministic);
        // otherwise reject when the initial window would overflow either
        // budget. Tasks, then bytes — the cheaper check first.
        if initial > 0 {
            let queued = self.outstanding_tasks.load(Ordering::Relaxed); // ordering: admission budget counter; checks are advisory
            if queued > 0 && queued + initial as u64 > self.options.queue_limit {
                self.record_rejection(tenant);
                return Err(ScanError::AdmissionRejected {
                    resource: "task queue",
                    queued,
                    limit: self.options.queue_limit,
                });
            }
            let bytes = self.outstanding_bytes.load(Ordering::Relaxed); // ordering: admission budget counter; checks are advisory
            if bytes > 0 && bytes + initial_cost > self.options.byte_budget {
                self.record_rejection(tenant);
                return Err(ScanError::AdmissionRejected {
                    resource: "byte budget",
                    queued: bytes,
                    limit: self.options.byte_budget,
                });
            }
        }

        // Deadlines run on the source's simulated clock, starting now; the
        // tenant tag flows through every fetch into per-tenant GET stats.
        let clock = src
            .health()
            .map(|h| h.clock().clone())
            .unwrap_or_default();
        let ctl = FetchCtl {
            deadline: spec
                .tolerance
                .deadline_seconds
                .map(|seconds| Deadline::after(&clock, seconds)),
            budget: spec
                .tolerance
                .retry_budget
                .map(|cfg| Arc::new(RetryBudget::new(cfg.capacity, cfg.refill_per_second))),
            tenant: Some(tenant.clone()),
        };
        let pipeline = Arc::new(BlockPipeline::new(PipelineParams {
            source: src.clone(),
            cache: self.cache.clone(),
            config: self.options.config.clone(),
            projection: plan.projection.clone(),
            column_types: columns.iter().map(|c| c.column_type).collect(),
            filter: PipelineFilter::from_plan(&plan),
            ctl,
            base_prefetch: window,
            gate: Some(self.gate.clone()),
        }));
        let scan = Arc::new(ScanShared {
            id: self.scan_ids.fetch_add(1, Ordering::Relaxed), // ordering: id allocator; only uniqueness matters
            tenant: tenant.clone(),
            pipeline,
            source,
            groups: plan.row_groups,
            interest_cols,
            costs,
            progress: OrderedMutex::new(
                SCAN_PROGRESS_RANK,
                Progress {
                    enqueued: initial,
                    next_emit: 0,
                    ready: BTreeMap::new(),
                },
            ),
            out_ready: OrderedCondvar::new(SCAN_OUT_READY_RANK),
            cancelled: AtomicBool::new(false),
            folded: AtomicBool::new(false),
        });
        {
            let mut m = self.metrics.lock();
            m.tenants.entry(tenant.clone()).or_default().scans_admitted += 1;
        }
        {
            let mut scans = self.scans.lock();
            scans.retain(|w| w.upgrade().is_some());
            scans.push(Arc::downgrade(&scan));
        }
        // Declare the whole initial window's interest before any task is
        // runnable: a worker picking up block b must already see the queued
        // interest in b+1.. for its GET to coalesce, whatever the thread
        // timing.
        for i in 0..initial {
            if let Some(&group) = scan.groups.get(i) {
                scan.register_interest(group.block);
            }
        }
        for i in 0..initial {
            self.enqueue_task(&scan, i, false);
        }
        let buffers = plan
            .projection
            .iter()
            .filter_map(|&idx| columns.get(idx).map(|c| empty_like(c.column_type)))
            .collect();
        Ok(ScanHandle {
            inner: self.clone(),
            scan,
            names: spec.projection.clone(),
            buffers,
            buffered_rows: 0,
            batch_rows: self.options.batch_rows.max(1),
            rows_matched: 0,
            batches: 0,
            failed: false,
            finished: false,
        })
    }
}

/// The service; see the module docs. Dropping it shuts the worker pool down
/// and cancels any scans still draining.
pub struct ScanService {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ScanService {
    /// Starts a service with `options.workers` dispatch threads.
    pub fn new(options: ServiceOptions) -> ScanService {
        let cache = Arc::new(BlockCache::new(options.cache_bytes));
        let inner = Arc::new(Inner {
            sched: OrderedMutex::new(SCHED_RANK, Scheduler::new(options.quantum_bytes)),
            cache,
            options,
            gate: Arc::new(DecodeGate::new()),
            relations: OrderedMutex::new(RELATIONS_RANK, HashMap::new()),
            task_ready: OrderedCondvar::new(TASK_READY_RANK),
            outstanding_tasks: CachePadded::new(AtomicU64::new(0)),
            outstanding_bytes: CachePadded::new(AtomicU64::new(0)),
            dispatch_seq: CachePadded::new(AtomicU64::new(0)),
            scan_ids: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            scans: OrderedMutex::new(SCANS_RANK, Vec::new()),
            metrics: OrderedMutex::new(METRICS_RANK, Metrics::default()),
        });
        let workers = (0..inner.options.workers.max(1))
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        ScanService { inner, workers }
    }

    /// Registers a relation under `name`, wrapping its source for ranged-GET
    /// coalescing. Re-registering a name replaces the previous source.
    pub fn register(
        &self,
        name: impl Into<String>,
        source: Arc<dyn BlockSource>,
        sidecar: Sidecar,
    ) {
        let wrapped = Arc::new(CoalescingSource::new(
            source,
            self.inner.cache.clone(),
            self.inner.options.coalesce_window,
        ));
        self.inner.relations.lock().insert(
            name.into(),
            Registered {
                source: wrapped,
                sidecar: Arc::new(sidecar),
            },
        );
    }

    /// A submission handle for `tenant`; cheap to clone and thread-safe.
    pub fn client(&self, tenant: impl Into<String>) -> ScanClient {
        ScanClient {
            inner: self.inner.clone(),
            tenant: Arc::from(tenant.into()),
        }
    }

    /// The shared decoded-block cache.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.inner.cache
    }

    /// Service-wide and per-tenant accounting. Tenant breakdowns cover
    /// finished scans; the service-wide dedup count also includes scans
    /// still draining.
    pub fn report(&self) -> ServiceReport {
        let (mut spans_issued, mut coalesced_blocks, mut staged_hits) = (0u64, 0u64, 0u64);
        {
            let rels = self.inner.relations.lock();
            for reg in rels.values() {
                let s = reg.source.stats();
                spans_issued += s.spans_issued;
                coalesced_blocks += s.coalesced_blocks;
                staged_hits += s.staged_hits;
            }
        }
        let mut live = PipelineCounters::default();
        for weak in self.inner.scans.lock().iter() {
            if let Some(scan) = weak.upgrade() {
                if !scan.folded.load(Ordering::Relaxed) { // ordering: fold flag; report tolerates a racing fold
                    let c = scan.pipeline.counters();
                    live.dedup_hits += c.dedup_hits;
                }
            }
        }
        let m = self.inner.metrics.lock();
        let (tenants, all_logical, all_seconds) = snapshot(&m.tenants);
        let dedup_hits = tenants.iter().map(|t| t.dedup_hits).sum::<u64>() + live.dedup_hits;
        ServiceReport {
            tenants,
            admission_rejections: m.rejections,
            dedup_hits,
            spans_issued,
            coalesced_blocks,
            staged_hits,
            cache: self.inner.cache.stats(),
            outstanding_tasks: self.inner.outstanding_tasks.load(Ordering::Relaxed), // ordering: statistics snapshot
            outstanding_bytes: self.inner.outstanding_bytes.load(Ordering::Relaxed), // ordering: statistics snapshot
            queue_wait_logical_p50: percentile(&all_logical, 0.50),
            queue_wait_logical_p95: percentile(&all_logical, 0.95),
            queue_wait_p50: percentile(&all_seconds, 0.50),
            queue_wait_p95: percentile(&all_seconds, 0.95),
        }
    }
}

impl Drop for ScanService {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed); // ordering: shutdown flag; wait predicates re-read it
        self.inner.task_ready.notify_all();
        for weak in self.inner.scans.lock().iter() {
            if let Some(scan) = weak.upgrade() {
                scan.cancelled.store(true, Ordering::Relaxed); // ordering: cancel flag; consumers re-check under their lock
                scan.out_ready.notify_all();
            }
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A tenant's submission handle.
#[derive(Clone)]
pub struct ScanClient {
    inner: Arc<Inner>,
    tenant: Arc<str>,
}

impl ScanClient {
    /// Submits a scan of `relation`. Fails with
    /// [`ScanError::AdmissionRejected`] when the service's shared budgets
    /// are full of outstanding work — back off and resubmit — and with
    /// [`ScanError::MissingObject`] for an unregistered relation.
    pub fn submit(&self, relation: &str, spec: &ScanSpec) -> Result<ScanHandle> {
        self.inner.submit(&self.tenant, relation, spec)
    }

    /// This client's tenant name.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }
}

/// How a scan ended, for the tenant's scan counters.
enum Outcome {
    Completed,
    Failed,
    Cancelled,
}

/// A running scan: an iterator of [`RecordBatch`]es in row order.
///
/// Dropping the handle early cancels the scan: its queued tasks leave the
/// scheduler, its admission budget returns, and staged coalesced bytes for
/// it are released.
pub struct ScanHandle {
    inner: Arc<Inner>,
    scan: Arc<ScanShared>,
    names: Vec<String>,
    buffers: Vec<ColumnData>,
    buffered_rows: usize,
    batch_rows: usize,
    rows_matched: u64,
    batches: u64,
    failed: bool,
    finished: bool,
}

impl ScanHandle {
    /// Waits for the next in-order row group; emitting it releases its
    /// admission accounting and refills the scan's look-ahead window.
    fn next_block(&mut self) -> Option<Result<BlockResult>> {
        let scan = self.scan.clone();
        let mut p = scan.progress.lock();
        loop {
            p = scan.out_ready.wait_while(p, |p| {
                !scan.cancelled.load(Ordering::Relaxed) // ordering: cancel flag; re-read every wakeup
                    && p.next_emit < scan.groups.len()
                    && !p.ready.contains_key(&p.next_emit)
            });
            if scan.cancelled.load(Ordering::Relaxed) || p.next_emit >= scan.groups.len() { // ordering: cancel flag
                return None;
            }
            let emit = p.next_emit;
            if let Some(result) = p.ready.remove(&emit) {
                p.next_emit += 1;
                let refill = (p.enqueued < scan.groups.len()).then(|| {
                    let next = p.enqueued;
                    p.enqueued += 1;
                    next
                });
                drop(p);
                self.inner.outstanding_tasks.fetch_sub(1, Ordering::Relaxed); // ordering: admission budget counter; checks are advisory
                self.inner
                    .outstanding_bytes
                    .fetch_sub(scan.cost_of(emit), Ordering::Relaxed); // ordering: admission budget counter; checks are advisory
                if let Some(next) = refill {
                    self.inner.enqueue_task(&scan, next, true);
                }
                return Some(result);
            }
        }
    }

    fn cut(&mut self, n: usize) -> RecordBatch {
        let columns = self
            .names
            .iter()
            .zip(self.buffers.iter_mut())
            .map(|(name, buf)| (name.clone(), split_front(buf, n)))
            .collect();
        self.buffered_rows -= n;
        self.batches += 1;
        RecordBatch { columns }
    }

    /// Tears the scan down (idempotent): cancels workers' view of it, purges
    /// queued tasks, returns admission budget, and folds metrics.
    fn finish(&mut self, outcome: Outcome) {
        if self.finished {
            return;
        }
        self.finished = true;
        let scan = &self.scan;
        scan.cancelled.store(true, Ordering::Relaxed); // ordering: cancel flag; workers re-check per task
        // Enqueued-but-never-emitted tasks give back their admission
        // accounting here; emitted ones already did.
        let (pending, pending_cost) = {
            let p = scan.progress.lock();
            let pending = p.enqueued.saturating_sub(p.next_emit) as u64;
            let cost: u64 = (p.next_emit..p.enqueued).map(|i| scan.cost_of(i)).sum();
            (pending, cost)
        };
        if pending > 0 {
            self.inner.outstanding_tasks.fetch_sub(pending, Ordering::Relaxed); // ordering: admission budget counter; checks are advisory
            self.inner
                .outstanding_bytes
                .fetch_sub(pending_cost, Ordering::Relaxed); // ordering: admission budget counter; checks are advisory
        }
        // Tasks still queued leave the scheduler and release their block
        // interest; tasks a worker already picked release it in the worker.
        let purged = self.inner.sched.lock().purge(scan.id);
        for task in &purged {
            scan.release_interest(task.group.block);
        }
        scan.out_ready.notify_all();
        let counters = scan.pipeline.counters();
        let mut m = self.inner.metrics.lock();
        let acc = m.tenants.entry(scan.tenant.clone()).or_default();
        acc.fold_counters(&counters);
        acc.rows_emitted += self.rows_matched;
        match outcome {
            Outcome::Completed => acc.scans_completed += 1,
            Outcome::Failed => acc.scans_failed += 1,
            Outcome::Cancelled => acc.scans_cancelled += 1,
        }
        scan.folded.store(true, Ordering::Relaxed); // ordering: fold flag; set after metrics folded under their lock
    }

    /// Cancels the scan; the iterator yields nothing further.
    pub fn cancel(&mut self) {
        self.finish(Outcome::Cancelled);
    }

    /// Rows matched so far.
    pub fn rows_matched(&self) -> u64 {
        self.rows_matched
    }

    /// Batches emitted so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// The owning tenant.
    pub fn tenant(&self) -> &str {
        &self.scan.tenant
    }

    /// This scan's pipeline counters (cache hits, dedup hits, decodes...).
    pub fn counters(&self) -> PipelineCounters {
        self.scan.pipeline.counters()
    }
}

impl Iterator for ScanHandle {
    type Item = Result<RecordBatch>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.finished {
            return None;
        }
        loop {
            if self.buffered_rows >= self.batch_rows {
                return Some(Ok(self.cut(self.batch_rows)));
            }
            match self.next_block() {
                Some(Ok(block)) => {
                    self.rows_matched += block.rows_matched;
                    self.buffered_rows += block.rows_matched as usize;
                    for (buf, col) in self.buffers.iter_mut().zip(&block.columns) {
                        if let Err(e) = append(buf, col) {
                            self.failed = true;
                            self.finish(Outcome::Failed);
                            return Some(Err(e));
                        }
                    }
                }
                Some(Err(e)) => {
                    self.failed = true;
                    self.finish(Outcome::Failed);
                    return Some(Err(e));
                }
                None => {
                    if self.buffered_rows > 0 {
                        return Some(Ok(self.cut(self.buffered_rows)));
                    }
                    self.finish(Outcome::Completed);
                    return None;
                }
            }
        }
    }
}

impl Drop for ScanHandle {
    fn drop(&mut self) {
        self.finish(Outcome::Cancelled);
    }
}
