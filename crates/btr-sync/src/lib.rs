//! Rank-ordered synchronization primitives for the workspace's concurrency
//! contract (DESIGN.md §15).
//!
//! Every lock in the concurrent crates (btr-scan, btr-server, btr-s3sim and
//! btrblocks' parallel module) is an [`OrderedMutex`] or [`OrderedRwLock`]
//! carrying a [`Rank`] declared in the workspace lock hierarchy —
//! btr-lint.toml's `[lock_order]` table names every lock with its file,
//! field, and rank, and btr-lint rule C2 cross-checks that table against the
//! `Rank::new` constants in the source. Ranks encode the legal acquisition
//! order: a thread may only acquire a lock whose rank is *strictly greater*
//! than every rank it already holds. Outermost locks therefore carry the
//! lowest ranks and leaves the highest. Sibling locks that share one rank
//! (cache shards, per-key in-flight slots) are by construction never held
//! pairwise by a single thread, and the checker treats acquiring a second
//! lock of a held rank as a violation — which also catches re-entrant
//! acquisition of one lock, the classic self-deadlock.
//!
//! With the `lock-order` cargo feature enabled, each acquisition pushes onto
//! a thread-local stack of held ranks after validating the rule; any
//! out-of-order or same-rank acquire panics naming both locks and printing
//! both acquisition backtraces (frames appear under `RUST_BACKTRACE=1`).
//! [`OrderedCondvar::wait_while`] pops the guard's rank for the duration of
//! the wait and re-pushes it on wakeup, so a blocked waiter never pins the
//! hierarchy. Without the feature the checker compiles to nothing.
//!
//! Two pieces of accounting are always on, feature or not: every lock counts
//! total acquisitions and contended acquisitions (the wrappers try-lock
//! first; a `WouldBlock` increments the contention counter before falling
//! back to the blocking call), readable via `stats()`.
//!
//! On top of the wrappers sits [`SingleFlight`], the workspace's one keyed
//! single-flight table (btr-scan's in-flight fetch table and decode gate
//! are instantiations), and [`morsel`], the shared work dispenser. Beside
//! them lives the one time vocabulary: [`SimClock`] and the [`Deadline`],
//! [`RetryBudget`] and [`RetryPolicy`] measured on it — simulated time that
//! never reads the host clock, so the store is a user of time, not its
//! owner.
//!
//! All methods recover from poisoning (`PoisonError::into_inner`): the
//! workspace guards its shared state with data-level invariants (mutations
//! either complete or leave the value well-formed), worker panics are
//! already contained and surfaced as typed errors by the scan layers, and a
//! poisoned-lock panic cascade would only obscure the original failure.

mod flight;
pub mod morsel;
mod pad;
mod time;

pub use flight::{Flight, FlightGuard, SingleFlight};
pub use pad::CachePadded;
pub use time::{Deadline, RetryBudget, RetryPolicy, SimClock};

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError,
};

/// A position in the workspace lock hierarchy: a numeric rank plus the
/// lock's name in btr-lint.toml's `[lock_order]` table.
///
/// Declared as a `const` next to the lock it ranks, e.g.
/// `const CACHE_SHARD_RANK: Rank = Rank::new(70, "scan.cache.shard");` —
/// btr-lint's C2 rule checks each such constant against the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rank {
    rank: u16,
    name: &'static str,
}

impl Rank {
    /// A rank with its table name.
    pub const fn new(rank: u16, name: &'static str) -> Rank {
        Rank { rank, name }
    }

    /// The numeric rank (greater = acquired later / closer to a leaf).
    pub fn rank(self) -> u16 {
        self.rank
    }

    /// The lock's name in the `[lock_order]` table.
    pub fn name(self) -> &'static str {
        self.name
    }
}

/// Snapshot of one lock's acquisition accounting (always maintained,
/// feature or not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Total acquisitions: mutex locks, rwlock reads and writes, and condvar
    /// re-acquisitions after a wait.
    pub acquires: u64,
    /// Acquisitions that found the lock held and had to block (the try-first
    /// fast path returned `WouldBlock`).
    pub contended: u64,
}

/// Renders a caught worker-panic payload (the `&str`/`String` cases `panic!`
/// produces; anything else becomes a placeholder). Every worker pool in the
/// workspace contains panics with `catch_unwind` and reports them as typed
/// errors carrying this text.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The runtime lock-order checker: a thread-local stack of held ranks.
#[cfg(feature = "lock-order")]
mod order {
    use super::Rank;
    use std::backtrace::Backtrace;
    use std::cell::RefCell;

    struct Held {
        rank: u16,
        name: &'static str,
        backtrace: Backtrace,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    /// Panics if acquiring `rank` now would violate the hierarchy: some held
    /// lock has an equal or greater rank.
    pub(crate) fn check_acquire(rank: Rank) {
        HELD.with(|h| {
            let held = h.borrow();
            let worst = held.iter().filter(|e| e.rank >= rank.rank()).max_by_key(|e| e.rank);
            if let Some(worst) = worst {
                let kind = if worst.rank == rank.rank() {
                    "same-rank re-entrant acquire"
                } else {
                    "out-of-order acquire"
                };
                panic!(
                    "lock-order violation ({kind}): acquiring `{}` (rank {}) while holding \
                     `{}` (rank {})\n`{}` was acquired at:\n{}\nnew acquisition of `{}` at:\n{}",
                    rank.name(),
                    rank.rank(),
                    worst.name,
                    worst.rank,
                    worst.name,
                    worst.backtrace,
                    rank.name(),
                    Backtrace::capture(),
                );
            }
        });
    }

    /// Records `rank` as held by this thread.
    pub(crate) fn push(rank: Rank) {
        HELD.with(|h| {
            h.borrow_mut().push(Held {
                rank: rank.rank(),
                name: rank.name(),
                backtrace: Backtrace::capture(),
            });
        });
    }

    /// Removes the most recent held entry of `rank` (guards may be dropped
    /// in any order, so this searches from the top rather than popping).
    pub(crate) fn release(rank: Rank) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|e| e.rank == rank.rank()) {
                held.remove(pos);
            }
        });
    }

    /// The ranks this thread currently holds, bottom of the stack first.
    pub(crate) fn held() -> Vec<(u16, &'static str)> {
        HELD.with(|h| h.borrow().iter().map(|e| (e.rank, e.name)).collect())
    }
}

/// No-op checker when the `lock-order` feature is off.
#[cfg(not(feature = "lock-order"))]
mod order {
    use super::Rank;

    #[inline(always)]
    pub(crate) fn check_acquire(_rank: Rank) {}

    #[inline(always)]
    pub(crate) fn push(_rank: Rank) {}

    #[inline(always)]
    pub(crate) fn release(_rank: Rank) {}
}

/// The ranks the calling thread currently holds (bottom first). Only
/// available with the `lock-order` feature; useful in tests and panic hooks.
#[cfg(feature = "lock-order")]
pub fn held_ranks() -> Vec<(u16, &'static str)> {
    order::held()
}

/// A [`std::sync::Mutex`] that participates in the workspace lock hierarchy.
pub struct OrderedMutex<T> {
    rank: Rank,
    acquires: AtomicU64,
    contended: AtomicU64,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// A mutex at `rank` guarding `value`.
    pub const fn new(rank: Rank, value: T) -> OrderedMutex<T> {
        OrderedMutex {
            rank,
            acquires: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            inner: Mutex::new(value),
        }
    }

    /// The lock's declared rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Acquires the mutex, validating the lock hierarchy first (under the
    /// `lock-order` feature) and recovering from poisoning.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        order::check_acquire(self.rank);
        self.acquires.fetch_add(1, Ordering::Relaxed); // ordering: statistical counter
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed); // ordering: statistical counter
                self.inner.lock().unwrap_or_else(PoisonError::into_inner)
            }
        };
        order::push(self.rank);
        OrderedMutexGuard { lock: self, guard: Some(guard) }
    }

    /// Acquisition accounting since construction.
    pub fn stats(&self) -> LockStats {
        LockStats {
            acquires: self.acquires.load(Ordering::Relaxed), // ordering: statistical counter
            contended: self.contended.load(Ordering::Relaxed), // ordering: statistical counter
        }
    }

    /// Consumes the mutex, returning the guarded value (poison-recovering).
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex").field("rank", &self.rank).finish_non_exhaustive()
    }
}

/// RAII guard for [`OrderedMutex`]; releases the held-rank entry on drop.
pub struct OrderedMutexGuard<'a, T> {
    lock: &'a OrderedMutex<T>,
    // `None` only transiently: taken by `into_raw` (condvar waits) and drop.
    guard: Option<MutexGuard<'a, T>>,
}

impl<'a, T> OrderedMutexGuard<'a, T> {
    /// Splits the guard for a condvar wait without running the drop
    /// bookkeeping; the caller owns the rank-release/re-push protocol.
    fn into_raw(mut self) -> (MutexGuard<'a, T>, &'a OrderedMutex<T>) {
        let raw = self.guard.take().expect("guard present until into_raw/drop");
        (raw, self.lock)
    }

    fn raw(&self) -> &MutexGuard<'a, T> {
        self.guard.as_ref().expect("guard present until into_raw/drop")
    }

    fn raw_mut(&mut self) -> &mut MutexGuard<'a, T> {
        self.guard.as_mut().expect("guard present until into_raw/drop")
    }
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.raw()
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.raw_mut()
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(raw) = self.guard.take() {
            drop(raw);
            order::release(self.lock.rank);
        }
    }
}

/// A [`std::sync::RwLock`] that participates in the workspace lock
/// hierarchy. Read and write acquisitions follow the same rank rule — a
/// re-entrant read of a held lock is a violation too, since writer priority
/// can deadlock it just like a second `lock()`.
pub struct OrderedRwLock<T> {
    rank: Rank,
    acquires: AtomicU64,
    contended: AtomicU64,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// An rwlock at `rank` guarding `value`.
    pub const fn new(rank: Rank, value: T) -> OrderedRwLock<T> {
        OrderedRwLock {
            rank,
            acquires: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            inner: RwLock::new(value),
        }
    }

    /// The lock's declared rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Acquires a shared read guard (rank-checked, poison-recovering).
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        order::check_acquire(self.rank);
        self.acquires.fetch_add(1, Ordering::Relaxed); // ordering: statistical counter
        let guard = match self.inner.try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed); // ordering: statistical counter
                self.inner.read().unwrap_or_else(PoisonError::into_inner)
            }
        };
        order::push(self.rank);
        OrderedReadGuard { lock: self, guard: Some(guard) }
    }

    /// Acquires the exclusive write guard (rank-checked, poison-recovering).
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        order::check_acquire(self.rank);
        self.acquires.fetch_add(1, Ordering::Relaxed); // ordering: statistical counter
        let guard = match self.inner.try_write() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed); // ordering: statistical counter
                self.inner.write().unwrap_or_else(PoisonError::into_inner)
            }
        };
        order::push(self.rank);
        OrderedWriteGuard { lock: self, guard: Some(guard) }
    }

    /// Acquisition accounting since construction (reads + writes combined).
    pub fn stats(&self) -> LockStats {
        LockStats {
            acquires: self.acquires.load(Ordering::Relaxed), // ordering: statistical counter
            contended: self.contended.load(Ordering::Relaxed), // ordering: statistical counter
        }
    }

    /// Consumes the lock, returning the guarded value (poison-recovering).
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock").field("rank", &self.rank).finish_non_exhaustive()
    }
}

/// Shared read guard for [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T> {
    lock: &'a OrderedRwLock<T>,
    guard: Option<RwLockReadGuard<'a, T>>,
}

impl<T> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(raw) = self.guard.take() {
            drop(raw);
            order::release(self.lock.rank);
        }
    }
}

/// Exclusive write guard for [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T> {
    lock: &'a OrderedRwLock<T>,
    guard: Option<RwLockWriteGuard<'a, T>>,
}

impl<T> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(raw) = self.guard.take() {
            drop(raw);
            order::release(self.lock.rank);
        }
    }
}

/// A [`std::sync::Condvar`] bound to the lock hierarchy. It carries its own
/// [`Rank`] purely for the `[lock_order]` inventory (condvars are named,
/// ranked resources too); the wait protocol checks the *guard's* lock rank —
/// popped for the duration of the wait, re-pushed on wakeup — so a parked
/// waiter holds no rank.
///
/// Only `wait_while` is offered: bare `wait` is spurious-wakeup-unsafe and
/// banned by btr-lint rule C4 in the concurrency crates.
pub struct OrderedCondvar {
    rank: Rank,
    inner: Condvar,
}

impl OrderedCondvar {
    /// A condvar at `rank` (inventory only; see the type docs).
    pub const fn new(rank: Rank) -> OrderedCondvar {
        OrderedCondvar { rank, inner: Condvar::new() }
    }

    /// The condvar's declared rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Blocks while `condition` returns `true`, releasing the guard (and its
    /// held-rank entry) for the duration and re-validating the hierarchy on
    /// reacquisition. Spurious wakeups re-test the condition.
    pub fn wait_while<'a, T, F>(
        &self,
        guard: OrderedMutexGuard<'a, T>,
        condition: F,
    ) -> OrderedMutexGuard<'a, T>
    where
        F: FnMut(&mut T) -> bool,
    {
        let (raw, lock) = guard.into_raw();
        order::release(lock.rank);
        let raw = self.inner.wait_while(raw, condition).unwrap_or_else(PoisonError::into_inner);
        order::check_acquire(lock.rank);
        lock.acquires.fetch_add(1, Ordering::Relaxed); // ordering: statistical counter
        order::push(lock.rank);
        OrderedMutexGuard { lock, guard: Some(raw) }
    }

    /// Wakes one parked waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every parked waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for OrderedCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedCondvar").field("rank", &self.rank).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const OUTER: Rank = Rank::new(10, "test.outer");
    const INNER: Rank = Rank::new(20, "test.inner");

    #[test]
    fn guards_give_access_and_count_acquires() {
        let m = OrderedMutex::new(OUTER, 7u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 8);
        assert_eq!(m.stats().acquires, 2);
        assert_eq!(m.stats().contended, 0);
        assert_eq!(m.rank().name(), "test.outer");
        assert_eq!(m.into_inner(), 8);
    }

    #[test]
    fn rwlock_reads_and_writes() {
        let l = OrderedRwLock::new(OUTER, vec![1, 2, 3]);
        assert_eq!(l.read().len(), 3);
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
        assert_eq!(l.stats().acquires, 3);
        assert_eq!(l.into_inner(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn in_order_nesting_is_allowed() {
        let a = OrderedMutex::new(OUTER, 1u32);
        let b = OrderedMutex::new(INNER, 2u32);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
        drop(gb);
        drop(ga);
        // Re-acquiring from scratch after a full release is always legal.
        let gb = b.lock();
        drop(gb);
        let ga = a.lock();
        drop(ga);
    }

    #[test]
    fn contended_acquire_is_counted() {
        let m = Arc::new(OrderedMutex::new(OUTER, 0u32));
        let held = m.lock();
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            *m2.lock() += 1;
        });
        // The spawned thread increments `contended` before parking, so this
        // spin terminates without any timing assumption.
        while m.stats().contended == 0 {
            std::thread::yield_now();
        }
        drop(held);
        t.join().expect("contender finishes");
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn poisoning_is_recovered() {
        let m = Arc::new(OrderedMutex::new(OUTER, 41u32));
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g += 1;
            panic!("poison the lock");
        });
        assert!(t.join().is_err());
        // The panicking thread completed its increment; lock() recovers.
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn wait_while_wakes_on_notify() {
        const QUEUE: Rank = Rank::new(30, "test.queue");
        const QUEUE_CV: Rank = Rank::new(31, "test.queue.cv");
        let m = Arc::new(OrderedMutex::new(QUEUE, 0u32));
        let cv = Arc::new(OrderedCondvar::new(QUEUE_CV));
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let t = std::thread::spawn(move || {
            let g = cv2.wait_while(m2.lock(), |v| *v == 0);
            *g
        });
        *m.lock() = 5;
        cv.notify_all();
        assert_eq!(t.join().expect("waiter finishes"), 5);
    }

    #[test]
    fn stress_many_threads_nesting_in_order() {
        let outer = Arc::new(OrderedMutex::new(OUTER, 0u64));
        let inner = Arc::new(OrderedRwLock::new(INNER, 0u64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (o, i) = (Arc::clone(&outer), Arc::clone(&inner));
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let mut go = o.lock();
                    let _peek = *i.read();
                    *i.write() += 1;
                    *go += 1;
                }
            }));
        }
        for h in handles {
            h.join().expect("stress worker finishes");
        }
        assert_eq!(*outer.lock(), 8 * 200);
        assert_eq!(*inner.read(), 8 * 200);
        assert!(outer.stats().acquires >= 8 * 200);
    }

    #[cfg(feature = "lock-order")]
    mod checker {
        use super::*;

        #[test]
        fn held_stack_tracks_acquires_and_releases() {
            let a = OrderedMutex::new(OUTER, ());
            let b = OrderedMutex::new(INNER, ());
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(held_ranks(), vec![(10, "test.outer"), (20, "test.inner")]);
            // Out-of-stack-order release (outer first) must still unwind
            // the right entries.
            drop(ga);
            assert_eq!(held_ranks(), vec![(20, "test.inner")]);
            drop(gb);
            assert!(held_ranks().is_empty());
        }

        #[test]
        #[should_panic(expected = "lock-order violation (out-of-order acquire)")]
        fn deliberate_inversion_fires_the_checker() {
            let a = OrderedMutex::new(OUTER, ());
            let b = OrderedMutex::new(INNER, ());
            let _gb = b.lock();
            let _ga = a.lock(); // rank 10 while holding rank 20: must panic
        }

        #[test]
        #[should_panic(expected = "lock-order violation (same-rank re-entrant acquire)")]
        fn same_rank_pair_fires_the_checker() {
            const INNER_TWIN: Rank = Rank::new(20, "test.inner_twin");
            let b = OrderedMutex::new(INNER, ());
            let twin = OrderedMutex::new(INNER_TWIN, ());
            let _gb = b.lock();
            let _gt = twin.lock();
        }

        #[test]
        #[should_panic(expected = "lock-order violation (same-rank re-entrant acquire)")]
        fn reentrant_read_fires_the_checker() {
            let l = OrderedRwLock::new(OUTER, ());
            let _g1 = l.read();
            let _g2 = l.read();
        }

        #[test]
        fn wait_releases_the_rank_for_the_duration() {
            const QUEUE: Rank = Rank::new(30, "test.queue");
            const QUEUE_CV: Rank = Rank::new(31, "test.queue.cv");
            let m = Arc::new(OrderedMutex::new(QUEUE, false));
            let cv = Arc::new(OrderedCondvar::new(QUEUE_CV));
            let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
            let t = std::thread::spawn(move || {
                let g = cv2.wait_while(m2.lock(), |done| !*done);
                // Reacquisition re-pushed the rank for this thread.
                assert_eq!(held_ranks(), vec![(30, "test.queue")]);
                drop(g);
                assert!(held_ranks().is_empty());
            });
            *m.lock() = true;
            cv.notify_all();
            t.join().expect("waiter finishes");
        }

        #[test]
        fn unwinding_a_poisoned_guard_releases_the_rank() {
            let m = Arc::new(OrderedMutex::new(OUTER, ()));
            let m2 = Arc::clone(&m);
            let t = std::thread::spawn(move || {
                let _g = m2.lock();
                panic!("poison while holding");
            });
            assert!(t.join().is_err());
            // This thread never held anything; acquiring works and the
            // recovered lock carries no stale rank entries.
            let g = m.lock();
            assert_eq!(held_ranks(), vec![(10, "test.outer")]);
            drop(g);
            assert!(held_ranks().is_empty());
        }
    }
}
