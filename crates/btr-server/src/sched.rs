//! Per-tenant deficit round-robin dispatch.
//!
//! Admitted scans are broken into row-group *tasks*; the scheduler decides
//! which queued task a free worker runs next. Plain FIFO would let one
//! tenant's table scan monopolize the pool — a later point query would wait
//! behind every queued task. Deficit round-robin (DRR) gives each tenant a
//! byte quantum per visit instead: a tenant dispatches tasks while its
//! accumulated deficit covers their estimated cost, then the cursor moves
//! on. Cheap queries therefore interleave with heavy scans at a bounded
//! dispatch distance regardless of arrival order, and a tenant that goes
//! idle forfeits its deficit (no banking credit while empty).
//!
//! The scheduler is plain data behind the service's mutex; it never blocks
//! or spawns.

use btr_scan::plan::RowGroup;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// One queued row group of one scan.
pub(crate) struct Task<S = Arc<crate::service::ScanShared>> {
    /// The scan this task belongs to (opaque to the scheduler, which is why
    /// its tests can queue bare ids).
    pub scan: S,
    /// Index into the scan's row-group list.
    pub group_idx: usize,
    /// The row group itself (denormalized so the worker needs no lookup).
    pub group: RowGroup,
    /// Estimated compressed bytes this task will move.
    pub cost: u64,
    /// Value of the service dispatch counter when this task was enqueued;
    /// the difference at dispatch time is the task's *logical* queue wait
    /// (how many other tasks were served while it sat queued).
    pub enqueue_dispatch: u64,
    /// Wall-clock enqueue instant, for real-time queue-wait metrics.
    pub enqueued_at: Instant,
}

struct TenantQueue<S> {
    tenant: Arc<str>,
    deficit: u64,
    tasks: VecDeque<Task<S>>,
}

/// The DRR state; see the module docs.
pub(crate) struct Scheduler<S = Arc<crate::service::ScanShared>> {
    queues: Vec<TenantQueue<S>>,
    cursor: usize,
    quantum: u64,
}

impl<S> Scheduler<S> {
    pub fn new(quantum: u64) -> Scheduler<S> {
        Scheduler {
            queues: Vec::new(),
            cursor: 0,
            quantum: quantum.max(1),
        }
    }

    /// Queued tasks across all tenants.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.tasks.len()).sum()
    }

    /// Whether any tenant has a queued task. Workers use this as their wait
    /// predicate so `pick` (which consumes) only runs when it will succeed.
    pub fn has_ready(&self) -> bool {
        self.queues.iter().any(|q| !q.tasks.is_empty())
    }

    /// Appends a task to its tenant's queue (creating the queue on first
    /// contact).
    pub fn enqueue(&mut self, tenant: &Arc<str>, task: Task<S>) {
        if let Some(q) = self.queues.iter_mut().find(|q| q.tenant == *tenant) {
            q.tasks.push_back(task);
            return;
        }
        let mut tasks = VecDeque::new();
        tasks.push_back(task);
        self.queues.push(TenantQueue {
            tenant: tenant.clone(),
            deficit: 0,
            tasks,
        });
    }

    /// Picks the next task to dispatch, or `None` when nothing is queued.
    ///
    /// Classic DRR: visit tenants round-robin; a visit grants the quantum,
    /// and a tenant dispatches from the front of its queue while its
    /// deficit covers the head task's cost. An emptied queue forfeits its
    /// deficit. Terminates because every full round adds a positive quantum
    /// to some non-empty queue.
    pub fn pick(&mut self) -> Option<Task<S>> {
        if !self.has_ready() {
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
                let task = q.tasks.pop_front();
                if q.tasks.is_empty() {
                    q.deficit = 0;
                }
                return task;
            }
            q.deficit = q.deficit.saturating_add(self.quantum);
            self.cursor = self.cursor.wrapping_add(1) % n;
        }
    }

    /// Picks up to `limit` tasks in DRR order, appending them to `out`;
    /// returns how many were taken. Byte-equivalent to `limit` consecutive
    /// [`Scheduler::pick`] calls — a dispatch leaves the cursor on the
    /// serving tenant, so batching does not change the DRR order — but lets
    /// a worker drain a morsel of tasks under one scheduler-lock
    /// acquisition.
    pub fn pick_batch(&mut self, limit: usize, out: &mut Vec<Task<S>>) -> usize {
        let mut taken = 0;
        while taken < limit {
            match self.pick() {
                Some(task) => {
                    out.push(task);
                    taken += 1;
                }
                None => break,
            }
        }
        taken
    }

    /// Removes every queued task whose scan `is_target`, returning them so
    /// the caller can release per-block interest registrations.
    pub fn purge(&mut self, is_target: impl Fn(&S) -> bool) -> Vec<Task<S>> {
        let mut removed = Vec::new();
        for q in &mut self.queues {
            let mut keep = VecDeque::with_capacity(q.tasks.len());
            for task in q.tasks.drain(..) {
                if is_target(&task.scan) {
                    removed.push(task);
                } else {
                    keep.push_back(task);
                }
            }
            q.tasks = keep;
            if q.tasks.is_empty() {
                q.deficit = 0;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(scan: u64, idx: usize, cost: u64) -> Task<u64> {
        Task {
            scan,
            group_idx: idx,
            group: RowGroup {
                block: idx as u32,
                rows: 1,
                base_row: 0,
            },
            cost,
            enqueue_dispatch: 0,
            enqueued_at: Instant::now(),
        }
    }

    #[test]
    fn drr_interleaves_a_cheap_tenant_with_a_heavy_one() {
        let mut sched = Scheduler::new(10);
        let a: Arc<str> = Arc::from("heavy");
        let b: Arc<str> = Arc::from("point");
        for i in 0..50 {
            sched.enqueue(&a, task(1, i, 10));
        }
        sched.enqueue(&b, task(2, 0, 10));
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
    }

    #[test]
    fn purge_removes_only_the_target_scan() {
        let mut sched = Scheduler::new(10);
        let t: Arc<str> = Arc::from("t");
        for i in 0..4 {
            sched.enqueue(&t, task(1, i, 1));
            sched.enqueue(&t, task(2, i, 1));
        }
        let removed = sched.purge(|&scan| scan == 1);
        assert_eq!(removed.len(), 4);
        assert_eq!(sched.len(), 4);
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
                sched.enqueue(&a, task(1, i, 7 + (i as u64 % 5) * 9));
                if i % 3 == 0 {
                    sched.enqueue(&b, task(2, i, 30));
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
            if many.pick_batch(4, &mut out) == 0 {
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
        assert_eq!(sched.len(), 0);
    }
}
