//! Per-tenant deficit round-robin dispatch, and what each tenant was served.
//!
//! Running scans are broken into row-group *tasks*; the scheduler decides
//! which queued task a free worker runs next. Plain FIFO would let one
//! tenant's table scan monopolize the pool — a later point query would wait
//! behind every queued task. Deficit round-robin (DRR) gives each tenant a
//! byte quantum per visit instead: a tenant dispatches tasks while its
//! accumulated deficit covers their estimated cost, then the cursor moves
//! on. Cheap queries therefore interleave with heavy scans at a bounded
//! dispatch distance regardless of arrival order, and a tenant that goes
//! idle forfeits its deficit (no banking credit while empty).
//!
//! Tenants are the scheduler's concept, so the per-tenant account of what
//! the executor did ([`TenantStats`]: dispatches, queue waits, how scans
//! ended) lives here too, updated under the lock that already guards the
//! queues. The scheduler is plain data behind the executor's mutex; it never
//! blocks or spawns.

use crate::driver::ScanEnd;
use crate::pipeline::PipelineCounters;
use crate::plan::RowGroup;
use crate::retry::SampleWindow;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Tasks one worker takes at most per scheduler-lock acquisition. Small
/// enough that a point query queued behind another worker's batch still
/// dispatches within a few task executions; large enough to amortize the
/// lock across a morsel of work.
pub(crate) const WORKER_PICK_BATCH: usize = 4;

/// How many tasks a worker takes in one scheduler-lock acquisition: its fair
/// share of what is queued right now, capped at [`WORKER_PICK_BATCH`] — so a
/// short queue is split across the pool and a long one amortizes the lock.
pub(crate) fn claim_size(ready: usize, workers: usize) -> usize {
    ready.div_ceil(workers.max(1)).min(WORKER_PICK_BATCH)
}

/// Queue-wait samples kept per tenant: the most recent this many dispatches
/// feed the percentiles, so a tenant's accounting is constant-size however
/// long the executor lives.
pub const WAIT_SAMPLES: usize = 1_024;

/// What the executor did for one tenant: tasks dispatched with their queue
/// waits — in real seconds and as a *logical* distance, how many other tasks
/// were dispatched while this one sat queued, which is immune to host speed —
/// and its finished scans.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Row-group tasks dispatched to workers.
    pub tasks_dispatched: u64,
    /// Logical queue waits of the most recent dispatches.
    pub wait_logical: SampleWindow<WAIT_SAMPLES>,
    /// Queue waits in real seconds of the most recent dispatches.
    pub wait_seconds: SampleWindow<WAIT_SAMPLES>,
    /// Scans drained to completion.
    pub scans_completed: u64,
    /// Scans that surfaced a typed error.
    pub scans_failed: u64,
    /// Scans cancelled (or dropped) before completion.
    pub scans_cancelled: u64,
    /// Rows handed to this tenant's consumers.
    pub rows_emitted: u64,
    /// Pipeline counters summed over finished scans.
    pub counters: PipelineCounters,
}

impl TenantStats {
    fn record_dispatch(&mut self, logical: u64, seconds: f64) {
        self.tasks_dispatched += 1;
        self.wait_logical.push(logical as f64);
        self.wait_seconds.push(seconds);
    }

    /// Folds a finished scan in: its pipeline counters, the rows it handed
    /// out, and how it ended.
    pub(crate) fn fold_scan(&mut self, c: &PipelineCounters, rows_emitted: u64, end: ScanEnd) {
        self.counters.add(c);
        self.rows_emitted += rows_emitted;
        match end {
            ScanEnd::Completed => self.scans_completed += 1,
            ScanEnd::Failed => self.scans_failed += 1,
            ScanEnd::Cancelled => self.scans_cancelled += 1,
        }
    }
}

/// One queued row group of one scan.
pub(crate) struct Task<S> {
    /// The scan this task belongs to (opaque to the scheduler, which is why
    /// its tests can queue bare ids).
    pub scan: S,
    /// Index into the scan's row-group list.
    pub group_idx: usize,
    /// The row group itself (denormalized so the worker needs no lookup).
    pub group: RowGroup,
    /// Estimated compressed bytes this task will move.
    cost: u64,
    /// Dispatch count when this task was enqueued; the difference at
    /// dispatch time is the task's logical queue wait.
    enqueue_dispatch: u64,
    enqueued_at: Instant,
}

struct TenantQueue<S> {
    tenant: Arc<str>,
    deficit: u64,
    tasks: VecDeque<Task<S>>,
    stats: TenantStats,
}

/// The DRR state; see the module docs.
pub(crate) struct Scheduler<S> {
    queues: Vec<TenantQueue<S>>,
    cursor: usize,
    quantum: u64,
    /// Queued tasks across all tenants.
    ready: usize,
    /// Tasks dispatched so far.
    dispatched: u64,
}

impl<S> Scheduler<S> {
    pub fn new(quantum: u64) -> Scheduler<S> {
        Scheduler {
            queues: Vec::new(),
            cursor: 0,
            quantum: quantum.max(1),
            ready: 0,
            dispatched: 0,
        }
    }

    /// Queued tasks across all tenants. Workers wait for this to be nonzero
    /// so `pick` (which consumes) only runs when it will succeed.
    pub fn ready(&self) -> usize {
        self.ready
    }

    /// `tenant`'s queue, created on first contact.
    fn queue_mut(&mut self, tenant: &Arc<str>) -> &mut TenantQueue<S> {
        let idx = match self.queues.iter().position(|q| q.tenant == *tenant) {
            Some(idx) => idx,
            None => {
                self.queues.push(TenantQueue {
                    tenant: tenant.clone(),
                    deficit: 0,
                    tasks: VecDeque::new(),
                    stats: TenantStats::default(),
                });
                self.queues.len() - 1
            }
        };
        // lint: allow(indexing) idx was just found in, or pushed onto, `queues`
        &mut self.queues[idx]
    }

    /// Appends row group `group_idx` of `scan`, costing `cost` estimated
    /// bytes, to `tenant`'s queue.
    pub fn enqueue(&mut self, tenant: &Arc<str>, scan: S, group_idx: usize, group: RowGroup, cost: u64) {
        let enqueue_dispatch = self.dispatched;
        self.queue_mut(tenant).tasks.push_back(Task {
            scan,
            group_idx,
            group,
            cost,
            enqueue_dispatch,
            enqueued_at: Instant::now(),
        });
        self.ready += 1;
    }

    /// Picks the next task to dispatch, or `None` when nothing is queued,
    /// and records its queue wait against its tenant.
    ///
    /// Classic DRR: visit tenants round-robin; a visit grants the quantum,
    /// and a tenant dispatches from the front of its queue while its
    /// deficit covers the head task's cost. An emptied queue forfeits its
    /// deficit. Terminates because every full round adds a positive quantum
    /// to some non-empty queue.
    pub fn pick(&mut self) -> Option<Task<S>> {
        if self.ready == 0 {
            return None;
        }
        loop {
            let n = self.queues.len();
            let idx = self.cursor % n;
            let Some(q) = self.queues.get_mut(idx) else {
                self.cursor = 0;
                continue;
            };
            let Some(head_cost) = q.tasks.front().map(|t| t.cost) else {
                q.deficit = 0;
                self.cursor = self.cursor.wrapping_add(1) % n;
                continue;
            };
            if q.deficit >= head_cost {
                q.deficit -= head_cost;
                let task = q.tasks.pop_front()?;
                if q.tasks.is_empty() {
                    q.deficit = 0;
                }
                q.stats.record_dispatch(
                    self.dispatched - task.enqueue_dispatch,
                    task.enqueued_at.elapsed().as_secs_f64(),
                );
                self.dispatched += 1;
                self.ready -= 1;
                return Some(task);
            }
            q.deficit = q.deficit.saturating_add(self.quantum);
            self.cursor = self.cursor.wrapping_add(1) % n;
        }
    }

    /// Picks up to `limit` tasks in DRR order, appending them to `out`.
    /// Equivalent to `limit` consecutive [`Scheduler::pick`] calls — a
    /// dispatch leaves the cursor on the serving tenant, so batching does
    /// not change the DRR order — but lets a worker drain a morsel of tasks
    /// under one scheduler-lock acquisition.
    pub fn pick_batch(&mut self, limit: usize, out: &mut Vec<Task<S>>) {
        out.extend(std::iter::from_fn(|| self.pick()).take(limit));
    }

    /// Removes every queued task whose scan `is_target`, returning them so
    /// the caller can release per-block interest registrations.
    pub fn purge(&mut self, is_target: impl Fn(&S) -> bool) -> Vec<Task<S>> {
        let mut removed = Vec::new();
        for q in &mut self.queues {
            let (gone, keep): (VecDeque<_>, VecDeque<_>) =
                q.tasks.drain(..).partition(|task| is_target(&task.scan));
            q.tasks = keep;
            removed.extend(gone);
            if q.tasks.is_empty() {
                q.deficit = 0;
            }
        }
        self.ready -= removed.len();
        removed
    }

    /// `tenant`'s account, created on first contact.
    pub fn stats_mut(&mut self, tenant: &Arc<str>) -> &mut TenantStats {
        &mut self.queue_mut(tenant).stats
    }

    /// Every tenant ever served, with its account.
    pub fn tenants(&self) -> impl Iterator<Item = (&Arc<str>, &TenantStats)> {
        self.queues.iter().map(|q| (&q.tenant, &q.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(idx: usize) -> RowGroup {
        RowGroup {
            block: idx as u32,
            rows: 1,
            base_row: 0,
        }
    }

    #[test]
    fn claim_size_follows_the_queue() {
        // (ready, workers) -> tasks per lock acquisition: a short queue is
        // shared out, a long one is capped at the batch constant.
        for ((ready, workers), want) in [((4, 2), 2), ((8, 2), 4), ((1, 2), 1), ((100, 2), 4)] {
            assert_eq!(claim_size(ready, workers), want, "{ready} ready / {workers} workers");
        }
        assert_eq!(claim_size(3, 0), 3, "a zero-worker pool is sized as one");
    }

    #[test]
    fn drr_interleaves_a_cheap_tenant_with_a_heavy_one() {
        let mut sched = Scheduler::new(10);
        let a: Arc<str> = Arc::from("heavy");
        let b: Arc<str> = Arc::from("point");
        for i in 0..50 {
            sched.enqueue(&a, 1u64, i, group(i), 10);
        }
        sched.enqueue(&b, 2, 0, group(0), 10);
        // The point tenant's single task must dispatch within a small,
        // bounded number of heavy dispatches — not after all 50.
        let mut dispatched_before_point = 0;
        loop {
            let t = sched.pick().expect("tasks queued");
            if t.scan == 2 {
                break;
            }
            dispatched_before_point += 1;
            assert!(dispatched_before_point < 5, "DRR must not starve");
        }
        // The wait the point tenant was charged is that dispatch distance.
        let (_, point) = sched.tenants().find(|(t, _)| **t == b).expect("point tenant");
        assert_eq!(point.tasks_dispatched, 1);
        assert_eq!(point.wait_logical.samples(), [dispatched_before_point as f64]);
    }

    #[test]
    fn purge_removes_only_the_target_scan() {
        let mut sched = Scheduler::new(10);
        let t: Arc<str> = Arc::from("t");
        for i in 0..4 {
            sched.enqueue(&t, 1u64, i, group(i), 1);
            sched.enqueue(&t, 2, i, group(i), 1);
        }
        let removed = sched.purge(|&scan| scan == 1);
        assert_eq!(removed.len(), 4);
        assert_eq!(sched.ready(), 4);
        while let Some(task) = sched.pick() {
            assert_eq!(task.scan, 2);
        }
    }

    #[test]
    fn pick_batch_matches_repeated_single_picks() {
        // Two schedulers with identical queues: draining one via pick() and
        // the other via pick_batch() must dispatch the same (scan, group)
        // sequence — batching is a locking optimization, not a policy change.
        let build = || {
            let mut sched = Scheduler::new(16);
            let a: Arc<str> = Arc::from("a");
            let b: Arc<str> = Arc::from("b");
            for i in 0..12 {
                sched.enqueue(&a, 1u64, i, group(i), 7 + (i as u64 % 5) * 9);
                if i % 3 == 0 {
                    sched.enqueue(&b, 2, i, group(i), 30);
                }
            }
            sched
        };
        let mut single = Vec::new();
        let mut one = build();
        while let Some(t) = one.pick() {
            single.push((t.scan, t.group_idx));
        }
        let mut batched = Vec::new();
        let mut many = build();
        loop {
            let mut out = Vec::new();
            many.pick_batch(4, &mut out);
            if out.is_empty() {
                break;
            }
            batched.extend(out.into_iter().map(|t| (t.scan, t.group_idx)));
        }
        assert_eq!(batched, single);
        assert_eq!(batched.len(), 16);
    }

    #[test]
    fn empty_scheduler_picks_none() {
        let mut sched = Scheduler::<u64>::new(1);
        assert!(sched.pick().is_none());
        assert_eq!(sched.ready(), 0);
    }

    #[test]
    fn a_long_lived_tenant_keeps_a_bounded_window_of_recent_waits() {
        let mut acc = TenantStats::default();
        for d in 0..150_000u64 {
            acc.record_dispatch(d, d as f64 * 1e-6);
        }
        assert_eq!(acc.tasks_dispatched, 150_000);
        assert_eq!(acc.wait_logical.samples().len(), WAIT_SAMPLES);
        assert_eq!(acc.wait_seconds.samples().len(), WAIT_SAMPLES);
        // The window holds the newest dispatches, so percentiles follow the
        // tenant's current queueing rather than its lifetime average.
        let oldest_kept = (150_000 - WAIT_SAMPLES) as f64;
        assert!(acc.wait_logical.samples().iter().all(|&w| w >= oldest_kept));
    }
}
