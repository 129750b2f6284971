//! Reusable decode buffers: tiered freelists under a byte budget.
//!
//! Decompression speed is the paper's headline claim (§6), and on modern
//! hardware decode throughput is dominated by memory behaviour, not ALU
//! work. Allocating a fresh `Vec` at every cascade level of every block
//! therefore costs more than the arithmetic it feeds. [`DecodeScratch`]
//! fixes that with the buffer-pool discipline of an operator pipeline: every
//! temporary a scheme decoder needs (RLE run arrays, dictionary code
//! sequences, Pseudodecimal digit/exponent columns, FSST length columns) is
//! *leased* from the pool and *released* back on every exit path, so a warm
//! decoder performs zero heap allocations per block.
//!
//! # Lease/return invariants
//!
//! - [`DecodeScratch::lease_i32`] (and its `f64`/`u8`/`u32`/`u64` siblings)
//!   returns an **empty** vector whose capacity is at least the requested
//!   size. It comes from the pool when a large-enough buffer is available
//!   (a *hit*), otherwise it is freshly allocated (a *miss*).
//! - Every leased buffer must be released back with the matching
//!   `release_*` call on **every** exit path, including error returns.
//!   Decoders achieve this by leasing up front, running the fallible body,
//!   and releasing before propagating the `Result`. (A panic leaks the lease
//!   to the ordinary `Vec` destructor — safe, just not pooled.)
//! - Released buffers are cleared before pooling; leased buffers never
//!   expose previous contents.
//! - The pool holds at most `budget_bytes` of capacity. Releases that would
//!   exceed the budget drop the buffer instead (counted in
//!   [`ScratchStats::dropped`]), bounding steady-state memory.
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
//! lease/release cycles of the same shape converge onto the same tier.
//!
//! This module is deliberately `unsafe`-free: all buffer reuse goes through
//! `Vec`'s safe API. Sized leases are padded by [`crate::simd::DECODE_SLACK`]
//! so the SIMD kernels' overshoot reservation always fits the pooled buffer.

use crate::fxhash::FxHashMap;
use crate::types::{ColumnType, DecodedColumn, StringArena, StringViews};

/// Default pool budget: enough for several 64k-value blocks of temporaries
/// per worker without letting a pathological column pin memory forever.
pub const DEFAULT_BUDGET_BYTES: usize = 64 << 20;

/// Capacity class of a buffer: `floor(log2(max(cap, 1)))`.
fn tier_of(cap: usize) -> usize {
    (usize::BITS - 1 - cap.max(1).leading_zeros()) as usize
}

/// One element type's tiered freelist.
struct Pool<T> {
    tiers: Vec<Vec<Vec<T>>>,
    held_bytes: usize,
}

impl<T> Pool<T> {
    fn new() -> Pool<T> {
        Pool {
            tiers: Vec::new(),
            held_bytes: 0,
        }
    }

    /// Takes a pooled buffer with capacity ≥ `cap`, if one exists.
    ///
    /// `cap == 0` means "size unknown, the caller will grow it": those
    /// leases take the *largest* pooled buffer so that outputs which grow to
    /// block size (the cascade roots, `StringViews` pools) land in a buffer
    /// that already fits and never realloc on a warm pass. Sized leases take
    /// the smallest adequate tier, keeping small temporaries from pinning
    /// block-sized buffers.
    fn lease(&mut self, cap: usize) -> Option<Vec<T>> {
        if cap == 0 {
            let tier = self.tiers.iter_mut().rev().find(|t| !t.is_empty())?;
            let i = tier
                .iter()
                .enumerate()
                .max_by_key(|(_, v)| v.capacity())
                .map(|(i, _)| i)?;
            let v = tier.swap_remove(i);
            self.held_bytes -= v.capacity() * std::mem::size_of::<T>();
            return Some(v);
        }
        for tier in self.tiers.iter_mut().skip(tier_of(cap)) {
            // Only the starting tier can contain buffers smaller than `cap`;
            // every higher tier trivially satisfies the capacity check.
            if let Some(i) = tier.iter().position(|v| v.capacity() >= cap) {
                let v = tier.swap_remove(i);
                self.held_bytes -= v.capacity() * std::mem::size_of::<T>();
                return Some(v);
            }
        }
        None
    }

    /// Pools `v` if its bytes fit in `room`; returns false when dropped.
    fn release(&mut self, mut v: Vec<T>, room: usize) -> bool {
        let bytes = v.capacity() * std::mem::size_of::<T>();
        if bytes == 0 || bytes > room {
            return false;
        }
        v.clear();
        let t = tier_of(v.capacity());
        if self.tiers.len() <= t {
            self.tiers.resize_with(t + 1, Vec::new);
        }
        // lint: allow(indexing) tiers was resized above to hold index t
        self.tiers[t].push(v);
        self.held_bytes += bytes;
        true
    }
}

/// Counters exposed by [`DecodeScratch::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Leases served from the pool (no allocation).
    pub hits: u64,
    /// Leases that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub returns: u64,
    /// Buffers dropped on release because the budget was full.
    pub dropped: u64,
    /// Bytes of capacity currently pooled.
    pub held_bytes: usize,
    /// Configured byte budget.
    pub budget_bytes: usize,
}

/// A reusable arena of decode temporaries; see the module docs.
///
/// Not thread-safe by design: each decode worker owns one (see
/// [`crate::parallel`] and btr-scan's engine), which keeps leases free of
/// synchronization.
pub struct DecodeScratch {
    i32s: Pool<i32>,
    f64s: Pool<f64>,
    u8s: Pool<u8>,
    u32s: Pool<u32>,
    u64s: Pool<u64>,
    budget_bytes: usize,
    hits: u64,
    misses: u64,
    returns: u64,
    dropped: u64,
}

macro_rules! pool_methods {
    ($lease:ident, $release:ident, $field:ident, $ty:ty) => {
        /// Leases an empty buffer with capacity ≥ `cap` (pool hit or fresh).
        pub fn $lease(&mut self, cap: usize) -> Vec<$ty> {
            // Pad sized leases by the SIMD overshoot reserve: the decode
            // kernels call `reserve(count + DECODE_SLACK)`, and a pooled
            // buffer sized exactly to `count` would realloc there.
            let cap = if cap == 0 { 0 } else { cap.saturating_add(crate::simd::DECODE_SLACK) };
            if let Some(v) = self.$field.lease(cap) {
                self.hits += 1;
                return v;
            }
            if cap == 0 {
                // Size unknown yet: hand out an empty vec and let the
                // decoder's reserve/extend size it; neither a hit nor miss.
                return Vec::new();
            }
            self.misses += 1;
            Vec::with_capacity(cap.next_power_of_two())
        }

        /// Returns a leased buffer to the pool (or drops it over budget).
        pub fn $release(&mut self, v: Vec<$ty>) {
            if v.capacity() == 0 {
                return;
            }
            let room = self.budget_bytes.saturating_sub(self.held_bytes());
            if self.$field.release(v, room) {
                self.returns += 1;
            } else {
                self.dropped += 1;
            }
        }
    };
}

impl DecodeScratch {
    /// A scratch arena with the default byte budget.
    pub fn new() -> DecodeScratch {
        DecodeScratch::with_budget(DEFAULT_BUDGET_BYTES)
    }

    /// A scratch arena holding at most `budget_bytes` of pooled capacity.
    pub fn with_budget(budget_bytes: usize) -> DecodeScratch {
        DecodeScratch {
            i32s: Pool::new(),
            f64s: Pool::new(),
            u8s: Pool::new(),
            u32s: Pool::new(),
            u64s: Pool::new(),
            budget_bytes,
            hits: 0,
            misses: 0,
            returns: 0,
            dropped: 0,
        }
    }

    pool_methods!(lease_i32, release_i32, i32s, i32);
    pool_methods!(lease_f64, release_f64, f64s, f64);
    pool_methods!(lease_u8, release_u8, u8s, u8);
    pool_methods!(lease_u32, release_u32, u32s, u32);
    pool_methods!(lease_u64, release_u64, u64s, u64);

    /// An empty [`DecodedColumn`] of the right variant, built from leased
    /// buffers — the out-parameter for [`crate::block::decompress_block_into`].
    pub fn lease_decoded(&mut self, ty: ColumnType) -> DecodedColumn {
        match ty {
            ColumnType::Integer => DecodedColumn::Int(self.lease_i32(0)),
            ColumnType::Double => DecodedColumn::Double(self.lease_f64(0)),
            ColumnType::String => DecodedColumn::Str(StringViews {
                pool: self.lease_u8(0),
                views: self.lease_u64(0),
            }),
        }
    }

    /// Strips a no-longer-needed decoded block into the pool — used when a
    /// block buffer changes type mid-column and by btr-scan's cache when it
    /// evicts entries.
    pub fn recycle(&mut self, col: DecodedColumn) {
        match col {
            DecodedColumn::Int(v) => self.release_i32(v),
            DecodedColumn::Double(v) => self.release_f64(v),
            DecodedColumn::Str(s) => self.recycle_views(s),
        }
    }

    /// Returns a [`StringViews`]' pool and view buffers to the arena.
    pub fn recycle_views(&mut self, s: StringViews) {
        self.release_u8(s.pool);
        self.release_u64(s.views);
    }

    /// Bytes of capacity currently pooled across all element types.
    pub fn held_bytes(&self) -> usize {
        self.i32s.held_bytes
            + self.f64s.held_bytes
            + self.u8s.held_bytes
            + self.u32s.held_bytes
            + self.u64s.held_bytes
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> ScratchStats {
        ScratchStats {
            hits: self.hits,
            misses: self.misses,
            returns: self.returns,
            dropped: self.dropped,
            held_bytes: self.held_bytes(),
            budget_bytes: self.budget_bytes,
        }
    }
}

impl Default for DecodeScratch {
    fn default() -> Self {
        DecodeScratch::new()
    }
}

impl std::fmt::Debug for DecodeScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeScratch").field("stats", &self.stats()).finish()
    }
}

/// How many cleared hash maps an [`EncodeScratch`] retains per key type.
///
/// `HashMap` capacity is opaque (no `capacity -> bytes` contract), so maps
/// are capped by count rather than charged against the byte budget. The
/// cascade holds at most one stats map plus one dictionary map per level
/// (depth ≤ 3 in practice), so a small stack covers the deepest recursion.
const MAP_STACK_MAX: usize = 8;

/// A reusable arena of *encode* temporaries — the write-side sibling of
/// [`DecodeScratch`], sharing its tiered-freelist design and budget policy.
///
/// The compression pipeline (§3 of the paper: stats → viability filter →
/// sampled trials → cascade) is temporary-heavy: every block gathers a
/// sample, every candidate scheme compresses that sample into a trial
/// buffer, and every chosen scheme materialises side-arrays (RLE run pairs,
/// dictionary code sequences, frequency exception lists, Pseudodecimal
/// digit/exponent columns) that are themselves recursively compressed. All
/// of those are leased from this arena and released on exit, so a warm
/// `compress_block_into` performs zero heap allocations for integer and
/// double columns (string columns still allocate in borrowed-key stats maps
/// and FSST symbol-table training; see DESIGN.md §12).
///
/// Beyond the element-type vector pools it adds encode-specific free stacks:
///
/// - sample-range pairs (`Vec<(usize, usize)>`) reused across candidate
///   trials and cascade levels,
/// - cleared [`StringArena`]s for per-block string sub-ranges and sample
///   gathers,
/// - cleared `FxHashMap`s for one-pass integer/double statistics and
///   dictionary code assignment (both key on `i32` / `u64` bit patterns).
///
/// Like [`DecodeScratch`] this module is deliberately `unsafe`-free (noted
/// in `btr-lint.toml`): all reuse goes through `Vec`/`HashMap` safe APIs.
/// Not thread-safe by design — each encode worker owns one.
pub struct EncodeScratch {
    i32s: Pool<i32>,
    f64s: Pool<f64>,
    u8s: Pool<u8>,
    u32s: Pool<u32>,
    ranges: Pool<(usize, usize)>,
    arenas: Vec<StringArena>,
    arena_bytes: usize,
    int_maps: Vec<FxHashMap<i32, usize>>,
    bits_maps: Vec<FxHashMap<u64, usize>>,
    budget_bytes: usize,
    hits: u64,
    misses: u64,
    returns: u64,
    dropped: u64,
}

impl EncodeScratch {
    /// A scratch arena with the default byte budget.
    pub fn new() -> EncodeScratch {
        EncodeScratch::with_budget(DEFAULT_BUDGET_BYTES)
    }

    /// A scratch arena holding at most `budget_bytes` of pooled capacity.
    pub fn with_budget(budget_bytes: usize) -> EncodeScratch {
        EncodeScratch {
            i32s: Pool::new(),
            f64s: Pool::new(),
            u8s: Pool::new(),
            u32s: Pool::new(),
            ranges: Pool::new(),
            arenas: Vec::new(),
            arena_bytes: 0,
            int_maps: Vec::new(),
            bits_maps: Vec::new(),
            budget_bytes,
            hits: 0,
            misses: 0,
            returns: 0,
            dropped: 0,
        }
    }

    pool_methods!(lease_i32, release_i32, i32s, i32);
    pool_methods!(lease_f64, release_f64, f64s, f64);
    pool_methods!(lease_u8, release_u8, u8s, u8);
    pool_methods!(lease_u32, release_u32, u32s, u32);
    pool_methods!(lease_ranges, release_ranges, ranges, (usize, usize));

    /// Leases an empty [`StringArena`] (cleared pooled arena or fresh).
    pub fn lease_arena(&mut self) -> StringArena {
        match self.arenas.pop() {
            Some(a) => {
                self.hits += 1;
                self.arena_bytes -= a.capacity_bytes();
                a
            }
            // Lazily sized by the caller's pushes; neither a hit nor a miss.
            None => StringArena::new(),
        }
    }

    /// Returns a leased arena to the pool (or drops it over budget).
    pub fn release_arena(&mut self, mut a: StringArena) {
        let bytes = a.capacity_bytes();
        if bytes == 0 {
            return;
        }
        if bytes > self.budget_bytes.saturating_sub(self.held_bytes()) {
            self.dropped += 1;
            return;
        }
        a.clear();
        self.arena_bytes += bytes;
        self.returns += 1;
        self.arenas.push(a);
    }

    /// Leases a cleared `i32`-keyed map (integer stats, dictionary codes).
    pub fn lease_int_map(&mut self) -> FxHashMap<i32, usize> {
        self.int_maps.pop().unwrap_or_default()
    }

    /// Returns an `i32`-keyed map, retaining its capacity for the next lease.
    pub fn release_int_map(&mut self, mut m: FxHashMap<i32, usize>) {
        if self.int_maps.len() < MAP_STACK_MAX {
            m.clear();
            self.int_maps.push(m);
        }
    }

    /// Leases a cleared `u64`-keyed map (double stats/dictionaries by bits).
    pub fn lease_bits_map(&mut self) -> FxHashMap<u64, usize> {
        self.bits_maps.pop().unwrap_or_default()
    }

    /// Returns a `u64`-keyed map, retaining its capacity for the next lease.
    pub fn release_bits_map(&mut self, mut m: FxHashMap<u64, usize>) {
        if self.bits_maps.len() < MAP_STACK_MAX {
            m.clear();
            self.bits_maps.push(m);
        }
    }

    /// Bytes of capacity currently pooled (vector pools + string arenas;
    /// retained maps are capped by count, not bytes — see `MAP_STACK_MAX`).
    pub fn held_bytes(&self) -> usize {
        self.i32s.held_bytes
            + self.f64s.held_bytes
            + self.u8s.held_bytes
            + self.u32s.held_bytes
            + self.ranges.held_bytes
            + self.arena_bytes
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> ScratchStats {
        ScratchStats {
            hits: self.hits,
            misses: self.misses,
            returns: self.returns,
            dropped: self.dropped,
            held_bytes: self.held_bytes(),
            budget_bytes: self.budget_bytes,
        }
    }
}

impl Default for EncodeScratch {
    fn default() -> Self {
        EncodeScratch::new()
    }
}

impl std::fmt::Debug for EncodeScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncodeScratch").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_release_roundtrip_reuses_capacity() {
        let mut s = DecodeScratch::new();
        let mut v = s.lease_i32(1000);
        assert!(v.is_empty() && v.capacity() >= 1000);
        v.extend(0..1000);
        let ptr = v.as_ptr();
        s.release_i32(v);
        let v2 = s.lease_i32(1000);
        assert!(v2.is_empty(), "pooled buffers come back cleared");
        assert!(v2.capacity() >= 1000);
        assert_eq!(v2.as_ptr(), ptr, "same allocation served back");
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.returns), (1, 1, 1));
    }

    #[test]
    fn lease_never_returns_too_small_a_buffer() {
        let mut s = DecodeScratch::new();
        s.release_u32({
            let mut v = Vec::with_capacity(100);
            v.push(1u32);
            v
        });
        // 100 lives in tier 6 (64..127); a lease for 120 starts at tier 6
        // and must skip it via the capacity check.
        let v = s.lease_u32(120);
        assert!(v.capacity() >= 120);
        assert_eq!(s.stats().misses, 1);
        // The 100-capacity buffer is still pooled for a smaller lease.
        let v2 = s.lease_u32(80);
        assert!(v2.capacity() >= 80);
        assert_eq!(s.stats().hits, 1);
    }

    #[test]
    fn budget_drops_instead_of_hoarding() {
        let mut s = DecodeScratch::with_budget(1024);
        s.release_f64(Vec::with_capacity(64)); // 512 bytes, pooled
        s.release_f64(Vec::with_capacity(64)); // 1024 bytes total, pooled
        s.release_f64(Vec::with_capacity(64)); // would exceed, dropped
        let st = s.stats();
        assert_eq!(st.returns, 2);
        assert_eq!(st.dropped, 1);
        assert!(st.held_bytes <= st.budget_bytes);
    }

    #[test]
    fn recycle_decoded_feeds_later_leases() {
        let mut s = DecodeScratch::new();
        s.recycle(DecodedColumn::Int(Vec::with_capacity(4096)));
        s.recycle(DecodedColumn::Str(StringViews {
            pool: Vec::with_capacity(512),
            views: Vec::with_capacity(256),
        }));
        assert!(s.lease_i32(4000).capacity() >= 4096);
        assert!(s.lease_u8(500).capacity() >= 512);
        assert!(s.lease_u64(200).capacity() >= 256);
        assert_eq!(s.stats().hits, 3);
    }

    #[test]
    fn lease_decoded_matches_type() {
        let mut s = DecodeScratch::new();
        assert!(matches!(s.lease_decoded(ColumnType::Integer), DecodedColumn::Int(_)));
        assert!(matches!(s.lease_decoded(ColumnType::Double), DecodedColumn::Double(_)));
        assert!(matches!(s.lease_decoded(ColumnType::String), DecodedColumn::Str(_)));
    }

    #[test]
    fn zero_capacity_releases_are_free() {
        let mut s = DecodeScratch::new();
        s.release_i32(Vec::new());
        let st = s.stats();
        assert_eq!((st.returns, st.dropped, st.held_bytes), (0, 0, 0));
    }

    #[test]
    fn encode_scratch_roundtrips_vectors() {
        let mut s = EncodeScratch::new();
        let mut v = s.lease_i32(500);
        assert!(v.is_empty() && v.capacity() >= 500);
        v.extend(0..500);
        let ptr = v.as_ptr();
        s.release_i32(v);
        let v2 = s.lease_i32(500);
        assert!(v2.is_empty() && v2.capacity() >= 500);
        assert_eq!(v2.as_ptr(), ptr, "same allocation served back");
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.returns), (1, 1, 1));
    }

    #[test]
    fn encode_scratch_reuses_ranges_and_arena() {
        let mut s = EncodeScratch::new();
        let mut r = s.lease_ranges(10);
        r.push((0, 64));
        s.release_ranges(r);
        assert!(s.lease_ranges(8).capacity() >= 8);
        assert_eq!(s.stats().hits, 1);

        let mut a = s.lease_arena();
        a.push(b"hello");
        a.push(b"world");
        s.release_arena(a);
        assert!(s.held_bytes() > 0);
        let a2 = s.lease_arena();
        assert!(a2.is_empty(), "pooled arenas come back cleared");
        assert!(a2.capacity_bytes() > 0, "but keep their capacity");
    }

    #[test]
    fn encode_scratch_reuses_maps_cleared() {
        let mut s = EncodeScratch::new();
        let mut m = s.lease_int_map();
        m.insert(7, 3);
        let cap = m.capacity();
        s.release_int_map(m);
        let m2 = s.lease_int_map();
        assert!(m2.is_empty(), "pooled maps come back cleared");
        assert_eq!(m2.capacity(), cap, "but keep their capacity");

        let mut b = s.lease_bits_map();
        b.insert(1.5f64.to_bits(), 1);
        s.release_bits_map(b);
        assert!(s.lease_bits_map().is_empty());
    }

    #[test]
    fn encode_scratch_budget_drops_arenas() {
        let mut s = EncodeScratch::with_budget(8);
        let mut a = StringArena::new();
        a.push(&[0u8; 64]);
        s.release_arena(a);
        let st = s.stats();
        assert_eq!((st.returns, st.dropped), (0, 1));
        assert_eq!(s.held_bytes(), 0);
    }
}
