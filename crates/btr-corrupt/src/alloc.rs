//! Allocation-budget tracking for decode-under-corruption tests.
//!
//! A corrupt length field must not make a decoder request gigabytes before
//! the bounds check that would have rejected it. To observe that, campaign
//! test binaries install [`TrackingAllocator`] as their `#[global_allocator]`;
//! the campaign driver then measures the growth of live heap bytes across
//! each decode attempt and compares it to a budget.
//!
//! Counters are process-global atomics. Campaigns run single-threaded, so the
//! peak attribution is exact there; under concurrent tests it degrades to a
//! conservative (over-counting) estimate, which can only make the test
//! stricter, never hide a blow-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

/// A `System`-backed allocator that tracks live, peak and cumulative heap
/// bytes.
pub struct TrackingAllocator;

impl TrackingAllocator {
    fn on_alloc(size: usize) {
        ALLOCATED.fetch_add(size, Ordering::Relaxed); // ordering: allocation tracking counter; approximate by design
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size; // ordering: allocation tracking counter; approximate by design
        PEAK.fetch_max(live, Ordering::Relaxed); // ordering: allocation tracking counter; approximate by design
    }

    fn on_dealloc(size: usize) {
        LIVE.fetch_sub(size, Ordering::Relaxed); // ordering: allocation tracking counter; approximate by design
    }
}

// SAFETY: delegates all allocation to `System`; the bookkeeping never touches
// the returned memory.
unsafe impl GlobalAlloc for TrackingAllocator {
    // SAFETY: forwards `layout` unchanged to `System.alloc`, inheriting its
    // contract; the counter update happens only after a non-null return.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    // SAFETY: `ptr`/`layout` come from a prior `alloc` with this allocator
    // (GlobalAlloc contract) and are forwarded unchanged to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_dealloc(layout.size());
    }

    // SAFETY: forwards `layout` unchanged to `System.alloc_zeroed`; the
    // zeroed guarantee and the returned pointer are System's.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    // SAFETY: `ptr`/`layout` satisfy the GlobalAlloc realloc contract and
    // are forwarded unchanged; counters are adjusted only on success.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::on_dealloc(layout.size());
            Self::on_alloc(new_size);
        }
        p
    }
}

/// Currently live heap bytes (as seen by the tracking allocator).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed) // ordering: statistics snapshot
}

/// Bytes requested so far: every allocation's size, and every
/// reallocation's new size. Never decreases; the difference across a call is
/// how much that call allocated.
pub fn allocated_bytes() -> usize {
    ALLOCATED.load(Ordering::Relaxed) // ordering: statistics snapshot
}

/// Resets the peak to the current live count and returns the live count.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed); // ordering: statistics snapshot
    PEAK.store(live, Ordering::Relaxed); // ordering: allocation tracking counter; approximate by design
    live
}

/// Peak live bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed) // ordering: statistics snapshot
}

/// Runs `f` and returns `(result, peak_heap_growth_in_bytes)` — the highest
/// point live heap bytes reached during `f`, relative to where they started.
///
/// Meaningful only when [`TrackingAllocator`] is the global allocator;
/// otherwise the growth reads as zero.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = reset_peak();
    let out = f();
    let growth = peak_bytes().saturating_sub(before);
    (out, growth)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit-test binary does not install the allocator (integration tests
    // do), so only the no-op behaviour is checkable here.
    #[test]
    fn measure_without_allocator_reads_zero() {
        let (v, growth) = measure(|| vec![0u8; 1024].len());
        assert_eq!(v, 1024);
        assert_eq!(growth, 0);
    }
}
