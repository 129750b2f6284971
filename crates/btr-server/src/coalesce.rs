//! Cross-scan ranged-GET coalescing.
//!
//! Object stores price per request (§6.7), so two adjacent blocks fetched
//! as one ranged GET cost half the requests of two — and the service knows
//! *ahead of time* which blocks are about to be read, because the executor
//! registers every task's interest in its blocks before the task can run
//! ([`BlockSource::register_interest`]).
//!
//! [`CoalescingSource`] wraps the relation's real [`BlockSource`]. When a
//! worker fetches block `i` of a column, the wrapper extends the request
//! into a span `i..i+k` as long as:
//!
//! * some queued task has registered interest in the next block,
//! * the decoded-block cache does not already hold it,
//! * it is not already staged from an earlier span,
//! * the source has not quarantined it, and
//! * `k` stays within the configured coalescing window.
//!
//! The span is fetched with [`BlockSource::fetch_span_ctl`] (one ranged GET
//! with per-slice CRC validation on layout-backed sources); the first body
//! answers the worker, the rest are *staged*. A later fetch of a staged
//! block is served from the staging area without touching the store. Staged
//! bytes are dropped when the last interested task releases its interest,
//! so a cancelled scan cannot strand payloads.

use btr_scan::{
    BlockCache, BlockKey, BlockSource, FetchCtl, FetchStats, Result, SourceColumn, SourceHealth,
};
use btr_sync::{OrderedMutex, Rank};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `span_len` probes the decoded-block cache and the source's quarantine
/// set while holding this lock, so it must rank below btr-scan's
/// `scan.cache.shard` (70) and `scan.health.quarantine` (90).
const COALESCE_STATE_RANK: Rank = Rank::new(40, "server.coalesce.state");

/// Coalescing activity counters, folded into [`crate::ServiceReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Ranged span fetches issued (each replaced `coalesced + 1` GETs with
    /// one).
    pub spans_issued: u64,
    /// Extra blocks carried by spans beyond the block that triggered them.
    pub coalesced_blocks: u64,
    /// Fetches served from the staging area (no store request at all).
    pub staged_hits: u64,
    /// Bytes currently staged for interested tasks.
    pub staged_bytes: u64,
}

#[derive(Default)]
struct CoalesceState {
    /// Interest refcounts per `(column, block)`: how many queued (or
    /// in-flight) tasks will read this block.
    interest: HashMap<(u32, u32), u32>,
    /// Bodies fetched as part of a span, waiting for the task that wanted
    /// them.
    staged: HashMap<(u32, u32), Vec<u8>>,
}

/// A [`BlockSource`] wrapper that fuses adjacent interested blocks into
/// single ranged GETs; see the module docs.
pub struct CoalescingSource {
    inner: Arc<dyn BlockSource>,
    cache: Arc<BlockCache>,
    relation: Arc<str>,
    /// Blocks per column, snapshotted so span building never walks past the
    /// column's end.
    column_blocks: Vec<u32>,
    window: u32,
    state: OrderedMutex<CoalesceState>,
    spans_issued: AtomicU64,
    coalesced_blocks: AtomicU64,
    staged_hits: AtomicU64,
}

impl CoalescingSource {
    /// Wraps `inner`, coalescing up to `window` adjacent blocks per GET and
    /// consulting `cache` so spans never refetch blocks that are already
    /// decoded.
    pub fn new(
        inner: Arc<dyn BlockSource>,
        cache: Arc<BlockCache>,
        window: u32,
    ) -> CoalescingSource {
        let relation = inner.relation_id();
        let column_blocks = inner
            .columns()
            .iter()
            .map(|c| u32::try_from(c.blocks).unwrap_or(u32::MAX))
            .collect();
        CoalescingSource {
            inner,
            cache,
            relation,
            column_blocks,
            window: window.max(1),
            state: OrderedMutex::new(COALESCE_STATE_RANK, CoalesceState::default()),
            spans_issued: AtomicU64::new(0),
            coalesced_blocks: AtomicU64::new(0),
            staged_hits: AtomicU64::new(0),
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &Arc<dyn BlockSource> {
        &self.inner
    }

    /// Activity snapshot.
    pub fn stats(&self) -> CoalesceStats {
        let staged_bytes = {
            let st = self.state.lock();
            st.staged.values().map(|b| b.len() as u64).sum()
        };
        CoalesceStats {
            spans_issued: self.spans_issued.load(Ordering::Relaxed), // ordering: statistics snapshot
            coalesced_blocks: self.coalesced_blocks.load(Ordering::Relaxed), // ordering: statistics snapshot
            staged_hits: self.staged_hits.load(Ordering::Relaxed), // ordering: statistics snapshot
            staged_bytes,
        }
    }

    fn key(&self, column: u32, block: u32) -> BlockKey {
        BlockKey {
            relation: self.relation.clone(),
            column,
            block,
        }
    }

    /// How many blocks starting at `block` one GET should carry right now:
    /// extend while a queued task wants the next block and nothing already
    /// has it.
    fn span_len(&self, column: u32, block: u32) -> u32 {
        let total = self
            .column_blocks
            .get(column as usize)
            .copied()
            .unwrap_or(0);
        let st = self.state.lock();
        let mut len = 1u32;
        while len < self.window {
            let Some(next) = block.checked_add(len) else {
                break;
            };
            if next >= total
                || !st.interest.contains_key(&(column, next))
                || st.staged.contains_key(&(column, next))
                || self.cache.contains(&self.key(column, next))
                || self
                    .inner
                    .health()
                    .is_some_and(|h| h.is_quarantined(column, next))
            {
                break;
            }
            len += 1;
        }
        len
    }
}

impl BlockSource for CoalescingSource {
    fn relation_id(&self) -> Arc<str> {
        self.inner.relation_id()
    }

    fn rows(&self) -> u64 {
        self.inner.rows()
    }

    fn columns(&self) -> Vec<SourceColumn> {
        self.inner.columns()
    }

    fn fetch(&self, column: u32, block: u32) -> Result<Vec<u8>> {
        self.inner.fetch(column, block)
    }

    fn fetch_ctl(&self, column: u32, block: u32, ctl: &FetchCtl) -> Result<Vec<u8>> {
        if let Some(body) = self.state.lock().staged.remove(&(column, block)) {
            self.staged_hits.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
            return Ok(body);
        }
        let span = self.span_len(column, block);
        if span <= 1 {
            return self.inner.fetch_ctl(column, block, ctl);
        }
        match self.inner.fetch_span_ctl(column, block, span, ctl) {
            Ok(bodies) => {
                self.spans_issued.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
                let mut bodies = bodies.into_iter();
                let first = bodies.next().unwrap_or_default();
                let mut staged = 0u64;
                {
                    let mut st = self.state.lock();
                    for (i, body) in bodies.enumerate() {
                        // i counts from 0 for block+1; span <= window keeps
                        // the arithmetic in range.
                        let Some(b) = u32::try_from(i + 1)
                            .ok()
                            .and_then(|off| block.checked_add(off))
                        else {
                            break;
                        };
                        // Only stage for blocks still wanted — interest may
                        // have been released while the GET was in flight.
                        if st.interest.contains_key(&(column, b)) {
                            st.staged.insert((column, b), body);
                            staged += 1;
                        }
                    }
                }
                self.coalesced_blocks.fetch_add(staged, Ordering::Relaxed); // ordering: statistics counter
                Ok(first)
            }
            // The span path degrades, never fails: per-block fetches keep
            // their own typed errors and retry accounting.
            Err(_) => self.inner.fetch_ctl(column, block, ctl),
        }
    }

    fn block_len(&self, column: u32, block: u32) -> Option<u64> {
        self.inner.block_len(column, block)
    }

    fn fetch_span_ctl(
        &self,
        column: u32,
        block: u32,
        count: u32,
        ctl: &FetchCtl,
    ) -> Result<Vec<Vec<u8>>> {
        self.inner.fetch_span_ctl(column, block, count, ctl)
    }

    /// Declares that a queued task will read `(column, block)`; fetches of
    /// a preceding block may now extend their GET to carry this one.
    fn register_interest(&self, column: u32, block: u32) {
        let mut st = self.state.lock();
        *st.interest.entry((column, block)).or_insert(0) += 1;
    }

    /// Releases one registration; at zero, any staged body for the block is
    /// dropped (nobody is coming for it).
    fn release_interest(&self, column: u32, block: u32) {
        let mut st = self.state.lock();
        let gone = match st.interest.get_mut(&(column, block)) {
            Some(n) => {
                *n = n.saturating_sub(1);
                *n == 0
            }
            None => false,
        };
        if gone {
            st.interest.remove(&(column, block));
            st.staged.remove(&(column, block));
        }
    }

    fn health(&self) -> Option<&SourceHealth> {
        self.inner.health()
    }

    fn stats(&self) -> FetchStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_scan::MemorySource;
    use btrblocks::Config;

    fn wrapped(window: u32) -> (Arc<CoalescingSource>, Arc<dyn BlockSource>) {
        let cfg = Config {
            block_size: 500,
            ..Config::default()
        };
        let rel = btr_scan::chaos::build_relation(4_000);
        let compressed = Arc::new(btrblocks::compress(&rel, &cfg).unwrap());
        let inner: Arc<dyn BlockSource> = Arc::new(MemorySource::new("c", compressed));
        let cache = Arc::new(BlockCache::new(1 << 20));
        (
            Arc::new(CoalescingSource::new(inner.clone(), cache, window)),
            inner,
        )
    }

    #[test]
    fn interest_extends_fetches_into_spans() {
        let (src, inner) = wrapped(4);
        for b in 0..4 {
            src.register_interest(0, b);
        }
        let ctl = FetchCtl::default();
        let first = src.fetch_ctl(0, 0, &ctl).unwrap();
        assert_eq!(first, inner.fetch(0, 0).unwrap());
        let stats = src.stats();
        assert_eq!(stats.spans_issued, 1);
        assert_eq!(stats.coalesced_blocks, 3);
        // Blocks 1..4 are staged: fetching them touches no store.
        let before = inner.stats().requests;
        for b in 1..4 {
            assert_eq!(src.fetch_ctl(0, b, &ctl).unwrap(), inner.fetch(0, b).unwrap());
        }
        assert_eq!(src.stats().staged_hits, 3);
        // Only the reference fetches above hit the inner source.
        assert_eq!(inner.stats().requests, before + 3);
    }

    #[test]
    fn no_interest_means_single_block_fetches() {
        let (src, _) = wrapped(4);
        let ctl = FetchCtl::default();
        src.fetch_ctl(0, 0, &ctl).unwrap();
        let stats = src.stats();
        assert_eq!(stats.spans_issued, 0);
        assert_eq!(stats.coalesced_blocks, 0);
    }

    #[test]
    fn releasing_interest_drops_staged_bodies() {
        let (src, _) = wrapped(2);
        src.register_interest(0, 0);
        src.register_interest(0, 1);
        src.fetch_ctl(0, 0, &FetchCtl::default()).unwrap();
        assert!(src.stats().staged_bytes > 0);
        src.release_interest(0, 1);
        assert_eq!(src.stats().staged_bytes, 0);
    }
}
