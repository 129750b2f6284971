//! The service core: registration, admission, DRR dispatch, scan handles.
//!
//! One [`ScanService`] owns the shared decoded-block cache, the cross-scan
//! [`DecodeGate`], one [`CoalescingSource`] per registered relation, and a
//! fixed worker pool. Tenants obtain [`ScanClient`] handles and submit
//! [`ScanSpec`]s; an admitted scan becomes a [`ScanHandle`] — an iterator of
//! [`btr_scan::RecordBatch`]es — backed by a [`btr_scan::BlockPipeline`] whose row
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
use crate::metrics::{Metrics, ServiceReport};
use crate::sched::{Scheduler, Task};
use crate::ServiceOptions;
use btr_scan::driver::{prepare, process_contained};
use btr_scan::{
    BlockCache, BlockPipeline, BlockResult, BlockSource, DecodeGate, GroupFeed, PipelineCounters,
    Reorder, Result, RowGroup, ScanEnd, ScanError, ScanSpec, ScanStream,
};
use btr_sync::{CachePadded, OrderedCondvar, OrderedMutex, Rank};
use btrblocks::{DecodeScratch, Sidecar};
use std::collections::HashMap;
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

/// Window/backpressure state of one scan, guarded by `ScanShared::progress`.
#[derive(Default)]
struct Progress {
    /// Row groups enqueued so far (a prefix of `groups`).
    enqueued: usize,
    /// Finished groups waiting for the consumer, in block order.
    reorder: Reorder,
}

/// Everything workers and the consumer share about one admitted scan.
pub(crate) struct ScanShared {
    /// Service-unique id, used to purge this scan's tasks from the scheduler.
    id: u64,
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
        // The whole batch dispatches now: one metrics-lock acquisition
        // records every task's queue wait.
        {
            let mut m = inner.metrics.lock();
            for task in &batch {
                let d = inner.dispatch_seq.fetch_add(1, Ordering::Relaxed); // ordering: monotone dispatch counter; gaps only skew wait stats
                m.tenants.entry(task.scan.tenant.clone()).or_default().record_dispatch(
                    d.saturating_sub(task.enqueue_dispatch),
                    task.enqueued_at.elapsed().as_secs_f64(),
                );
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
            let result =
                process_contained(&scan.pipeline, task.group_idx, task.group, &mut scratch);
            scan.release_interest(task.group.block);
            scan.progress.lock().reorder.insert(task.group_idx, result);
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

    /// Returns `tasks` tasks and `bytes` estimated bytes to the admission
    /// budgets [`Inner::enqueue_task`] charged.
    fn refund(&self, tasks: u64, bytes: u64) {
        self.outstanding_tasks.fetch_sub(tasks, Ordering::Relaxed); // ordering: admission budget counter; checks are advisory
        self.outstanding_bytes.fetch_sub(bytes, Ordering::Relaxed); // ordering: admission budget counter; checks are advisory
    }

    fn record_rejection(&self, tenant: &Arc<str>) {
        let mut m = self.metrics.lock();
        m.rejections += 1;
        m.tenants.entry(tenant.clone()).or_default().report.scans_rejected += 1;
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
        // The deadline starts here, on the source's simulated clock; the
        // tenant tag flows through every fetch into per-tenant GET stats.
        let window = self.options.window.max(1);
        let (plan, pipeline) = prepare(
            src.clone(),
            &sidecar,
            spec,
            self.cache.clone(),
            &self.options.config,
            window,
            Some(self.gate.clone()),
            Some(tenant.clone()),
        )?;

        // Columns every task may touch: the projection plus every filter
        // column (filter blocks are fetched whether or not the fast path
        // fires).
        let interest_cols =
            distinct_cols(plan.projection.iter().chain(plan.filter_columns().iter()));
        // Byte estimates are post-pruning and post-masking: groups whose
        // every conjunct the zone maps already proved never fetch
        // filter-only columns, so they aren't charged for them.
        let proj_cols = distinct_cols(plan.projection.iter());
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
        let initial = window.min(plan.row_groups.len());
        let initial_cost: u64 = costs.iter().take(initial).sum();

        // Admission: an idle service always admits (so a scan larger than
        // the budgets can still run alone, and rejection is deterministic);
        // otherwise reject when the initial window would overflow either
        // budget. Tasks, then bytes — the cheaper check first.
        let budgets = [
            ("task queue", &self.outstanding_tasks, initial as u64, self.options.queue_limit),
            ("byte budget", &self.outstanding_bytes, initial_cost, self.options.byte_budget),
        ];
        for (resource, outstanding, wanted, limit) in budgets {
            let queued = outstanding.load(Ordering::Relaxed); // ordering: admission budget counter; checks are advisory
            if initial > 0 && queued > 0 && queued + wanted > limit {
                self.record_rejection(tenant);
                return Err(ScanError::AdmissionRejected {
                    resource,
                    queued,
                    limit,
                });
            }
        }

        let scan = Arc::new(ScanShared {
            id: self.scan_ids.fetch_add(1, Ordering::Relaxed), // ordering: id allocator; only uniqueness matters
            tenant: tenant.clone(),
            pipeline: Arc::new(pipeline),
            source,
            groups: plan.row_groups,
            interest_cols,
            costs,
            progress: OrderedMutex::new(
                SCAN_PROGRESS_RANK,
                Progress {
                    enqueued: initial,
                    reorder: Reorder::default(),
                },
            ),
            out_ready: OrderedCondvar::new(SCAN_OUT_READY_RANK),
            cancelled: AtomicBool::new(false),
            folded: AtomicBool::new(false),
        });
        {
            let mut m = self.metrics.lock();
            m.tenants.entry(tenant.clone()).or_default().report.scans_admitted += 1;
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
        let buffers = scan.pipeline.empty_columns();
        let feed = ServiceFeed {
            inner: self.clone(),
            scan,
        };
        Ok(ScanStream::new(
            feed,
            spec.projection.clone(),
            buffers,
            self.options.batch_rows,
        ))
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
        // Copy out under the lock (bounded: counters plus a fixed window of
        // waits per tenant), sort and rank outside it.
        let metrics = self.inner.metrics.lock().clone();
        let (tenants, [logical_p50, logical_p95, seconds_p50, seconds_p95]) = metrics.snapshot();
        let dedup_hits = tenants.iter().map(|t| t.dedup_hits).sum::<u64>() + live.dedup_hits;
        ServiceReport {
            tenants,
            admission_rejections: metrics.rejections,
            dedup_hits,
            spans_issued,
            coalesced_blocks,
            staged_hits,
            cache: self.inner.cache.stats(),
            outstanding_tasks: self.inner.outstanding_tasks.load(Ordering::Relaxed), // ordering: statistics snapshot
            outstanding_bytes: self.inner.outstanding_bytes.load(Ordering::Relaxed), // ordering: statistics snapshot
            queue_wait_logical_p50: logical_p50,
            queue_wait_logical_p95: logical_p95,
            queue_wait_p50: seconds_p50,
            queue_wait_p95: seconds_p95,
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

/// A running service scan: an iterator of [`btr_scan::RecordBatch`]es in row
/// order ([`ScanStream`] has `cancel`, `rows_matched`, `batches`; `feed()`
/// reaches the [`ServiceFeed`]).
///
/// Dropping the handle early cancels the scan: its queued tasks leave the
/// scheduler, its admission budget returns, and staged coalesced bytes for
/// it are released.
pub type ScanHandle = ScanStream<ServiceFeed>;

/// The service's side of a [`ScanHandle`].
pub struct ServiceFeed {
    inner: Arc<Inner>,
    scan: Arc<ScanShared>,
}

impl ServiceFeed {
    /// The owning tenant.
    pub fn tenant(&self) -> &str {
        &self.scan.tenant
    }

    /// This scan's pipeline counters (cache hits, dedup hits, decodes...).
    pub fn counters(&self) -> PipelineCounters {
        self.scan.pipeline.counters()
    }
}

impl GroupFeed for ServiceFeed {
    /// Waits for the next in-order row group; emitting it releases its
    /// admission accounting and refills the scan's look-ahead window.
    fn next_block(&mut self) -> Option<Result<BlockResult>> {
        let scan = &self.scan;
        let mut p = scan.out_ready.wait_while(scan.progress.lock(), |p| {
            // ordering: cancel flag; re-read every wakeup
            !scan.cancelled.load(Ordering::Relaxed) && p.reorder.awaiting(scan.groups.len())
        });
        if scan.cancelled.load(Ordering::Relaxed) { // ordering: cancel flag
            return None;
        }
        let emit = p.reorder.next_emit();
        let result = p.reorder.pop()?;
        let refill = (p.enqueued < scan.groups.len()).then(|| {
            p.enqueued += 1;
            p.enqueued - 1
        });
        drop(p);
        self.inner.refund(1, scan.cost_of(emit));
        if let Some(next) = refill {
            self.inner.enqueue_task(scan, next, true);
        }
        Some(result)
    }

    /// Tears the scan down: cancels workers' view of it, purges queued
    /// tasks, returns admission budget, and folds metrics.
    fn finish(&mut self, end: ScanEnd, rows_matched: u64) {
        let scan = &self.scan;
        scan.cancelled.store(true, Ordering::Relaxed); // ordering: cancel flag; workers re-check per task
        // Enqueued-but-never-emitted tasks give back their admission
        // accounting here; emitted ones already did.
        let pending = {
            let p = scan.progress.lock();
            p.reorder.next_emit()..p.enqueued
        };
        let pending_cost = pending.clone().map(|i| scan.cost_of(i)).sum();
        self.inner.refund(pending.len() as u64, pending_cost);
        // Tasks still queued leave the scheduler and release their block
        // interest; tasks a worker already picked release it in the worker.
        let purged = self.inner.sched.lock().purge(|queued| queued.id == scan.id);
        for task in &purged {
            scan.release_interest(task.group.block);
        }
        scan.out_ready.notify_all();
        let counters = scan.pipeline.counters();
        let mut m = self.inner.metrics.lock();
        m.tenants
            .entry(scan.tenant.clone())
            .or_default()
            .fold_scan(&counters, rows_matched, end);
        scan.folded.store(true, Ordering::Relaxed); // ordering: fold flag; set after metrics folded under their lock
    }
}
