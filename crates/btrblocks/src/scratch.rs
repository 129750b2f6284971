//! Reusable codec buffers: tiered freelists under a byte budget.
//!
//! Decompression speed is the paper's headline claim (§6), and on modern
//! hardware decode throughput is dominated by memory behaviour, not ALU
//! work; compression (§3: stats → viability filter → sampled trials →
//! cascade) is just as temporary-heavy. Allocating a fresh `Vec` at every
//! cascade level of every block therefore costs more than the arithmetic it
//! feeds. [`Scratch`] fixes that with the buffer-pool discipline of an
//! operator pipeline: every temporary a scheme needs (sample gathers, trial
//! buffers, RLE run arrays, dictionary maps and code sequences,
//! Pseudodecimal digit/exponent columns, FSST length columns, per-block
//! string sub-ranges) is *leased* from one arena, so a warm codec performs
//! zero heap allocations per block.
//!
//! # The guard rule
//!
//! - `Scratch::lease::<B>(cap)` returns a `Lease` that derefs to an **empty**
//!   buffer whose capacity is at least the requested size: a pooled one when
//!   one is large enough (a *hit*), otherwise a fresh one (a *miss*).
//! - A lease gives its buffer back when it is dropped — at the end of its
//!   scope, on `?`, on an early return, or while a panic unwinds. No exit
//!   path can forget it, so a scheme never returns anything by hand. Drop a
//!   lease early (`drop(map)`) to let a child cascade level reuse it.
//! - The pools sit behind `RefCell`s borrowed only inside this module's
//!   methods, so nested cascade levels lease while a parent's leases are
//!   alive. A return that finds its pool borrowed (only possible mid-panic)
//!   drops the buffer instead of panicking again.
//! - Buffers are cleared before pooling; a lease never exposes previous
//!   contents.
//! - The pools hold at most `budget_bytes` of capacity. A return that would
//!   exceed the budget drops the buffer (counted in
//!   [`ScratchStats::dropped`]), bounding steady-state memory. Maps have no
//!   byte size; at most `MAP_STACK_MAX` of each kind are kept.
//! - A decoded block that outlives the call ([`Scratch::lease_decoded`]) is
//!   handed back with [`Scratch::recycle`] once its owner is done with it.
//!
//! # Tiers
//!
//! Freelists are segregated by power-of-two capacity class: a buffer of
//! capacity `c` lives in tier `floor(log2(c))`, so every buffer in tier `t`
//! holds at least `2^t` elements. A lease for `n` elements scans tiers from
//! `floor(log2(n))` upward and takes the first buffer with sufficient
//! capacity, which keeps small temporaries from being served by (and
//! pinning) block-sized buffers unless nothing smaller exists. Fresh
//! allocations round the capacity up to a power of two so repeated
//! lease/return cycles of the same shape converge onto the same tier.
//!
//! This module deliberately stays safe Rust: all buffer reuse goes through
//! the safe APIs of `Vec`, `HashMap` and `RefCell`. Sized leases are padded
//! by [`crate::simd::DECODE_SLACK`] so the SIMD kernels' overshoot
//! reservation always fits the pooled buffer.

use crate::fxhash::FxHashMap;
use crate::types::{ColumnType, DecodedColumn, StringArena, StringViews};
use sealed::{Pool, Slot};
use std::cell::{Cell, RefCell};
use std::ops::{Deref, DerefMut};

/// Default pool budget: enough for several 64k-value blocks of temporaries
/// per worker without letting a pathological column pin memory forever.
pub const DEFAULT_BUDGET_BYTES: usize = 64 << 20;

/// How many cleared hash maps a [`Scratch`] retains per key type.
///
/// `HashMap` capacity is opaque (no `capacity -> bytes` contract), so maps
/// are capped by count rather than charged against the byte budget. The
/// cascade holds at most one stats map plus one dictionary map per level
/// (depth ≤ 3 in practice), so a small stack covers the deepest recursion.
const MAP_STACK_MAX: usize = 8;

/// Capacity class of a buffer: `floor(log2(max(cap, 1)))`.
fn tier_of(cap: usize) -> usize {
    (usize::BITS - 1 - cap.max(1).leading_zeros()) as usize
}

/// The pooling machinery, sealed: only this module decides which buffer
/// types have a freelist and what each one costs.
pub(crate) mod sealed {
    use super::{tier_of, Scratch};
    use std::cell::RefCell;

    /// One buffer type's tiered freelist.
    pub struct Pool<B> {
        tiers: Vec<Vec<B>>,
        len: usize,
    }

    impl<B> Default for Pool<B> {
        fn default() -> Self {
            Pool { tiers: Vec::new(), len: 0 }
        }
    }

    impl<B: Slot> Pool<B> {
        /// Takes a pooled buffer with capacity ≥ `cap`, if one exists.
        ///
        /// `cap == 0` means "size unknown, the caller will grow it": those
        /// leases take the *largest* pooled buffer so that outputs which
        /// grow to block size (the cascade roots, `StringViews` pools, string
        /// sub-ranges) land in a buffer that already fits and never realloc
        /// on a warm pass. Sized leases take the smallest adequate tier.
        pub(super) fn take(&mut self, cap: usize) -> Option<B> {
            let b = if cap == 0 {
                let tier = self.tiers.iter_mut().rev().find(|t| !t.is_empty())?;
                let i = tier
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, b)| b.capacity())
                    .map(|(i, _)| i)?;
                tier.swap_remove(i)
            } else {
                // Only the starting tier can contain buffers smaller than
                // `cap`; every higher tier trivially satisfies the check.
                self.tiers.iter_mut().skip(tier_of(cap)).find_map(|tier| {
                    let i = tier.iter().position(|b| b.capacity() >= cap)?;
                    Some(tier.swap_remove(i))
                })?
            };
            self.len -= 1;
            Some(b)
        }

        /// Pools `b` cleared; returns false (dropping it) when the freelist
        /// is at its count limit.
        pub(super) fn put(&mut self, mut b: B) -> bool {
            if self.len >= B::MAX_POOLED {
                return false;
            }
            b.clear();
            let t = tier_of(b.capacity());
            if self.tiers.len() <= t {
                self.tiers.resize_with(t + 1, Vec::new);
            }
            // lint: allow(indexing) tiers was resized above to hold index t
            self.tiers[t].push(b);
            self.len += 1;
            true
        }
    }

    /// A buffer type with a freelist in every [`Scratch`].
    pub trait Slot: Default {
        /// Most buffers of this type the freelist keeps.
        const MAX_POOLED: usize = usize::MAX;
        /// The arena's freelist for this type.
        fn pool(s: &Scratch) -> &RefCell<Pool<Self>>;
        /// Capacity in elements: the tier key and the lease size check.
        fn capacity(&self) -> usize;
        /// Bytes charged against the budget.
        fn bytes(&self) -> usize;
        /// Empties the buffer, keeping its capacity.
        fn clear(&mut self);
        /// A fresh, empty buffer holding `cap` elements.
        fn with_capacity(cap: usize) -> Self;
    }

    /// An element type with a vector freelist.
    pub trait Elem: Copy + 'static {
        /// The arena's freelist of vectors of this type.
        fn pool(s: &Scratch) -> &RefCell<Pool<Vec<Self>>>;
    }

    /// A key type with a map freelist (count and dictionary maps).
    pub trait Key: Copy + Eq + std::hash::Hash + 'static {
        /// The arena's freelist of maps keyed by this type.
        fn pool(s: &Scratch) -> &RefCell<Pool<crate::fxhash::FxHashMap<Self, usize>>>;
    }
}

impl<T: sealed::Elem> Slot for Vec<T> {
    fn pool(s: &Scratch) -> &RefCell<Pool<Self>> {
        T::pool(s)
    }
    fn capacity(&self) -> usize {
        Vec::capacity(self)
    }
    fn bytes(&self) -> usize {
        Vec::capacity(self) * std::mem::size_of::<T>()
    }
    fn clear(&mut self) {
        Vec::clear(self);
    }
    fn with_capacity(cap: usize) -> Self {
        Vec::with_capacity(cap)
    }
}

/// Encode-side string sub-ranges, samples and dictionaries; their capacity
/// is counted in bytes (pool + offsets).
impl Slot for StringArena {
    fn pool(s: &Scratch) -> &RefCell<Pool<Self>> {
        &s.arenas
    }
    fn capacity(&self) -> usize {
        self.capacity_bytes()
    }
    fn bytes(&self) -> usize {
        self.capacity_bytes()
    }
    fn clear(&mut self) {
        StringArena::clear(self);
    }
    fn with_capacity(cap: usize) -> Self {
        StringArena::with_capacity(0, cap)
    }
}

impl<K: sealed::Key> Slot for FxHashMap<K, usize> {
    const MAX_POOLED: usize = MAP_STACK_MAX;
    fn pool(s: &Scratch) -> &RefCell<Pool<Self>> {
        K::pool(s)
    }
    fn capacity(&self) -> usize {
        std::collections::HashMap::capacity(self)
    }
    /// Opaque: maps are capped by count instead (`MAP_STACK_MAX`).
    fn bytes(&self) -> usize {
        0
    }
    fn clear(&mut self) {
        std::collections::HashMap::clear(self);
    }
    fn with_capacity(cap: usize) -> Self {
        FxHashMap::with_capacity_and_hasher(cap, Default::default())
    }
}

macro_rules! vec_freelists {
    ($($ty:ty => $field:ident),+) => {
        $(impl sealed::Elem for $ty {
            fn pool(s: &Scratch) -> &RefCell<Pool<Vec<$ty>>> {
                &s.$field
            }
        })+
    };
}

vec_freelists!(i32 => i32s, f64 => f64s, u8 => u8s, u32 => u32s, u64 => u64s, (usize, usize) => ranges);

impl sealed::Key for i32 {
    fn pool(s: &Scratch) -> &RefCell<Pool<FxHashMap<i32, usize>>> {
        &s.int_maps
    }
}

impl sealed::Key for u64 {
    fn pool(s: &Scratch) -> &RefCell<Pool<FxHashMap<u64, usize>>> {
        &s.bits_maps
    }
}

/// Counters exposed by [`Scratch::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Leases served from the pool (no allocation).
    pub hits: u64,
    /// Leases that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub returns: u64,
    /// Buffers dropped on return because the budget or count cap was full.
    pub dropped: u64,
    /// Bytes of capacity currently pooled.
    pub held_bytes: usize,
    /// Configured byte budget.
    pub budget_bytes: usize,
}

/// The reusable arena of codec temporaries; see the module docs.
///
/// Not thread-safe by design: each encode or decode worker owns one (see
/// [`crate::parallel`] and btr-scan's engine), which keeps leases free of
/// synchronization.
pub struct Scratch {
    i32s: RefCell<Pool<Vec<i32>>>,
    f64s: RefCell<Pool<Vec<f64>>>,
    u8s: RefCell<Pool<Vec<u8>>>,
    u32s: RefCell<Pool<Vec<u32>>>,
    u64s: RefCell<Pool<Vec<u64>>>,
    ranges: RefCell<Pool<Vec<(usize, usize)>>>,
    arenas: RefCell<Pool<StringArena>>,
    int_maps: RefCell<Pool<FxHashMap<i32, usize>>>,
    bits_maps: RefCell<Pool<FxHashMap<u64, usize>>>,
    stats: Cell<ScratchStats>,
}

/// The decode arena's name in the benchmark harness; the same type as
/// [`Scratch`].
pub type DecodeScratch = Scratch;

/// The encode arena's name in the benchmark harness; the same type as
/// [`Scratch`].
pub type EncodeScratch = Scratch;

impl Scratch {
    /// A scratch arena with the default byte budget.
    pub fn new() -> Scratch {
        Scratch::with_budget(DEFAULT_BUDGET_BYTES)
    }

    /// A scratch arena holding at most `budget_bytes` of pooled capacity.
    pub fn with_budget(budget_bytes: usize) -> Scratch {
        Scratch {
            i32s: RefCell::default(),
            f64s: RefCell::default(),
            u8s: RefCell::default(),
            u32s: RefCell::default(),
            u64s: RefCell::default(),
            ranges: RefCell::default(),
            arenas: RefCell::default(),
            int_maps: RefCell::default(),
            bits_maps: RefCell::default(),
            stats: Cell::new(ScratchStats { budget_bytes, ..ScratchStats::default() }),
        }
    }

    /// Leases an empty buffer with capacity ≥ `cap` (`0`: size unknown, the
    /// caller grows it); it returns to the pool when the lease drops. `B` is
    /// a `Vec` of `i32`, `f64`, `u8`, `u32`, `u64` or `(usize, usize)`
    /// sample ranges, a [`StringArena`], or an `FxHashMap<K, usize>` keyed by
    /// `i32` or `u64`.
    pub(crate) fn lease<B: Slot>(&self, cap: usize) -> Lease<'_, B> {
        Lease {
            scratch: self,
            buf: self.take(cap),
        }
    }

    /// An empty [`DecodedColumn`] of the right variant, built from pooled
    /// buffers — the out-parameter for [`crate::block::decompress_block_into`].
    /// It outlives any scope, so it comes back through [`Scratch::recycle`].
    pub fn lease_decoded(&self, ty: ColumnType) -> DecodedColumn {
        match ty {
            ColumnType::Integer => DecodedColumn::Int(self.take(0)),
            ColumnType::Double => DecodedColumn::Double(self.take(0)),
            ColumnType::String => DecodedColumn::Str(StringViews {
                pool: self.take(0),
                views: self.take(0),
            }),
        }
    }

    /// Strips a no-longer-needed decoded block into the pool — used when a
    /// block buffer changes type mid-column, after a decoded block has been
    /// appended to its column, and by btr-scan's cache when it evicts.
    pub fn recycle(&self, col: DecodedColumn) {
        match col {
            DecodedColumn::Int(v) => self.give(v),
            DecodedColumn::Double(v) => self.give(v),
            DecodedColumn::Str(s) => {
                self.give(s.pool);
                self.give(s.views);
            }
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> ScratchStats {
        self.stats.get()
    }

    fn count(&self, f: impl FnOnce(&mut ScratchStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    fn take<B: Slot>(&self, cap: usize) -> B {
        // Pad sized leases by the SIMD overshoot reserve: the decode kernels
        // call `reserve(count + DECODE_SLACK)`, and a pooled buffer sized
        // exactly to `count` would realloc there.
        let cap = if cap == 0 { 0 } else { cap.saturating_add(crate::simd::DECODE_SLACK) };
        match B::pool(self).try_borrow_mut().ok().and_then(|mut p| p.take(cap)) {
            Some(b) => {
                self.count(|s| {
                    s.hits += 1;
                    s.held_bytes -= b.bytes();
                });
                b
            }
            // Size unknown yet: the caller's reserve/extend sizes it;
            // neither a hit nor a miss.
            None if cap == 0 => B::with_capacity(0),
            None => {
                self.count(|s| s.misses += 1);
                B::with_capacity(cap.next_power_of_two())
            }
        }
    }

    fn give<B: Slot>(&self, b: B) {
        if b.capacity() == 0 {
            return;
        }
        let bytes = b.bytes();
        let s = self.stats.get();
        let fits = bytes <= s.budget_bytes.saturating_sub(s.held_bytes);
        let kept = fits && B::pool(self).try_borrow_mut().is_ok_and(|mut p| p.put(b));
        self.count(|s| {
            if kept {
                s.returns += 1;
                s.held_bytes += bytes;
            } else {
                s.dropped += 1;
            }
        });
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch::new()
    }
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scratch").field("stats", &self.stats()).finish()
    }
}

/// A buffer leased from a [`Scratch`]: derefs to it, and gives it back to
/// its pool when dropped, however the scope ends.
pub(crate) struct Lease<'a, B: Slot> {
    scratch: &'a Scratch,
    buf: B,
}

impl<B: Slot> Deref for Lease<'_, B> {
    type Target = B;
    fn deref(&self) -> &B {
        &self.buf
    }
}

impl<B: Slot> DerefMut for Lease<'_, B> {
    fn deref_mut(&mut self) -> &mut B {
        &mut self.buf
    }
}

impl<B: Slot> Drop for Lease<'_, B> {
    fn drop(&mut self) {
        self.scratch.give(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_return_on_drop_and_reuse_capacity() {
        let s = Scratch::new();
        let ptr = {
            let mut v = s.lease::<Vec<i32>>(1000);
            assert!(v.is_empty() && v.capacity() >= 1000);
            v.extend(0..1000);
            v.as_ptr()
        };
        let v2 = s.lease::<Vec<i32>>(1000);
        assert!(v2.is_empty(), "pooled buffers come back cleared");
        assert!(v2.capacity() >= 1000);
        assert_eq!(v2.as_ptr(), ptr, "same allocation served back");
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.returns), (1, 1, 1));
    }

    #[test]
    fn nested_leases_and_error_exits_return_everything() {
        fn fails(s: &Scratch) -> Result<(), ()> {
            let _outer = s.lease::<Vec<u32>>(64);
            let _inner = s.lease::<Vec<u32>>(64);
            Err(())?;
            Ok(())
        }
        let s = Scratch::new();
        assert!(fails(&s).is_err());
        assert_eq!(s.stats().returns, 2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = s.lease::<Vec<u32>>(64);
            panic!("unwinds through the lease");
        }));
        assert!(caught.is_err());
        let st = s.stats();
        assert_eq!((st.misses, st.returns), (2, 3), "the panicking scope returned its lease");
    }

    #[test]
    fn lease_takes_the_smallest_adequate_tier() {
        let s = Scratch::new();
        s.give({
            let mut v = Vec::with_capacity(100);
            v.push(1u32);
            v
        });
        // 100 lives in tier 6 (64..127); a lease for 120 starts at tier 6
        // and must skip it via the capacity check.
        let v = s.lease::<Vec<u32>>(120 - crate::simd::DECODE_SLACK);
        assert!(v.capacity() >= 120);
        assert_eq!(s.stats().misses, 1);
        // The 100-capacity buffer is still pooled for a smaller lease.
        let v2 = s.lease::<Vec<u32>>(80 - crate::simd::DECODE_SLACK);
        assert_eq!(v2.capacity(), 100);
        assert_eq!(s.stats().hits, 1);
        // Unsized leases take the largest pooled buffer.
        drop((v, v2));
        assert!(s.lease::<Vec<u32>>(0).capacity() >= 120);
    }

    #[test]
    fn budget_drops_instead_of_hoarding() {
        let s = Scratch::with_budget(1024);
        for _ in 0..3 {
            s.give(Vec::<f64>::with_capacity(64)); // 512 bytes each
        }
        let st = s.stats();
        assert_eq!((st.returns, st.dropped), (2, 1));
        assert!(st.held_bytes <= st.budget_bytes);
        // Zero-capacity returns are free: neither pooled nor dropped.
        s.give(Vec::<i32>::new());
        assert_eq!(s.stats(), st);
    }

    #[test]
    fn decoded_blocks_recycle_into_later_leases() {
        let s = Scratch::new();
        assert!(matches!(s.lease_decoded(ColumnType::Integer), DecodedColumn::Int(_)));
        assert!(matches!(s.lease_decoded(ColumnType::Double), DecodedColumn::Double(_)));
        s.recycle(DecodedColumn::Int(Vec::with_capacity(4096)));
        s.recycle(DecodedColumn::Str(StringViews {
            pool: Vec::with_capacity(512),
            views: Vec::with_capacity(256),
        }));
        assert!(s.lease::<Vec<i32>>(4000 - crate::simd::DECODE_SLACK).capacity() >= 4096);
        match s.lease_decoded(ColumnType::String) {
            DecodedColumn::Str(v) => assert!(v.pool.capacity() >= 512 && v.views.capacity() >= 256),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.stats().hits, 3);
    }

    #[test]
    fn arenas_and_maps_come_back_cleared_with_capacity() {
        let s = Scratch::new();
        {
            let mut a = s.lease::<StringArena>(0);
            a.push(b"hello");
            a.push(b"world");
            let mut r = s.lease::<Vec<(usize, usize)>>(10);
            r.push((0, 64));
        }
        assert!(s.stats().held_bytes > 0);
        let a = s.lease::<StringArena>(0);
        assert!(a.is_empty(), "pooled arenas come back cleared");
        assert!(a.capacity_bytes() > 0, "but keep their capacity");

        let cap = {
            let mut m = s.lease::<FxHashMap<i32, usize>>(0);
            m.insert(7, 3);
            m.capacity()
        };
        let m = s.lease::<FxHashMap<i32, usize>>(0);
        assert!(m.is_empty(), "pooled maps come back cleared");
        assert_eq!(m.capacity(), cap, "but keep their capacity");
        let mut b = s.lease::<FxHashMap<u64, usize>>(0);
        b.insert(1.5f64.to_bits(), 1);
        drop(b);
        assert!(s.lease::<FxHashMap<u64, usize>>(0).is_empty());
    }

    #[test]
    fn maps_are_capped_by_count_and_arenas_by_budget() {
        let s = Scratch::new();
        let maps: Vec<_> = (0..MAP_STACK_MAX + 1)
            .map(|i| {
                let mut m = s.lease::<FxHashMap<u64, usize>>(0);
                m.insert(i as u64, i);
                m
            })
            .collect();
        drop(maps);
        assert_eq!((s.stats().returns, s.stats().dropped), (MAP_STACK_MAX as u64, 1));

        let s = Scratch::with_budget(8);
        let mut a = s.lease::<StringArena>(0);
        a.push(&[0u8; 64]);
        drop(a);
        let st = s.stats();
        assert_eq!((st.returns, st.dropped, st.held_bytes), (0, 1, 0));
    }
}
