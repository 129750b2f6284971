//! The benchmark binary's allocator: the system allocator plus an allocation
//! counter that is only touched while [`count_allocs`] has switched it on, so
//! the end-to-end passes pay one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// `System`, counting `alloc`/`alloc_zeroed`/`realloc` calls on request.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn note() {
        // Relaxed: a statistic that publishes no other data.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract the caller already upholds; the counter never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: `ptr`/`layout`/`new_size` satisfy the caller's realloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` on this thread and returns how many heap allocations the whole
/// process made meanwhile. Call it only while no other thread is running.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed))
}
