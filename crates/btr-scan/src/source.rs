//! Where block bytes come from: in-memory relations or a (simulated) object
//! store reached with ranged GETs.
//!
//! The engine is written against [`BlockSource`] so the same pipeline runs
//! over a `CompressedRelation` already in memory (tests, local files) and
//! over `btr-s3sim`'s costed store (the paper's cloud setting, §6.7). The
//! object-store source fetches exactly one block payload per ranged GET,
//! verifies the framing CRC, and owns the workspace's one retry loop
//! (deadline, retry budget, exponential backoff from a
//! [`btr_sync::RetryPolicy`]); backoff is charged to a [`btr_sync::SimClock`],
//! never slept.
//!
//! Around the retry loop the object-store source layers the
//! fault-tolerance mechanisms from [`crate::retry`]:
//!
//! * per-scan [`FetchCtl`] (deadline + retry budget) threaded in through
//!   [`BlockSource::fetch_ctl`];
//! * hedged GETs for stragglers past a latency percentile, with in-flight
//!   dedup so concurrent fetches of one block resolve with one request;
//! * a circuit breaker that fails fast during an outage and probes for
//!   recovery;
//! * per-block quarantine: a block whose every full-length body keeps
//!   failing its CRC is marked permanently corrupt, so only scans that need
//!   that block fail — its neighbors (and neighbor scans) are untouched.

use crate::layout::RelationLayout;
use crate::retry::{Admission, BreakerConfig, FetchCtl, HedgeConfig, SourceHealth};
use crate::{Result, ScanError};
use btr_s3sim::{ObjectStore, HEDGE_ATTEMPT_SALT};
use btrblocks::crc32c::crc32c;
use btrblocks::{BlockRange, ColumnType, CompressedRelation};
use btr_sync::{Flight, Rank, RetryPolicy, SimClock, SingleFlight};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Ranks of the in-flight fetch table (DESIGN.md §15), above the cache shards
/// and below the health/breaker leaves a fetch consults while it owns a slot.
const INFLIGHT_SLOTS_RANK: Rank = Rank::new(80, "scan.inflight.slots");
const INFLIGHT_SLOT_RANK: Rank = Rank::new(84, "scan.inflight.slot");
const INFLIGHT_SLOT_DONE_RANK: Rank = Rank::new(85, "scan.inflight.slot.done");

/// Schema entry a source exposes per column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceColumn {
    /// Column name.
    pub name: String,
    /// Column type.
    pub column_type: ColumnType,
    /// Number of blocks.
    pub blocks: usize,
}

/// Fetch-side counters, snapshotted into the [`crate::ScanReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FetchStats {
    /// Fetch requests issued (each attempt counts, hedges included).
    pub requests: u64,
    /// Block payload bytes pulled from the source.
    pub bytes_fetched: u64,
    /// Retries after transient faults or checksum mismatches.
    pub retries: u64,
    /// Simulated backoff accumulated across retries, in seconds.
    pub backoff_seconds: f64,
    /// Hedged GETs issued for straggling primaries.
    pub hedges_issued: u64,
    /// Hedged GETs whose response was used (faster or primary failed).
    pub hedges_won: u64,
    /// Circuit-breaker state transitions observed on the source.
    pub breaker_transitions: u64,
    /// Blocks quarantined as permanently corrupt.
    pub blocks_quarantined: u64,
}

/// A supplier of compressed block payloads.
///
/// Implementations must be thread-safe: the executor's workers fetch
/// concurrently.
pub trait BlockSource: Send + Sync {
    /// Stable identity of the relation (cache key component).
    fn relation_id(&self) -> Arc<str>;

    /// Total row count of the relation.
    fn rows(&self) -> u64;

    /// Schema, in file order.
    fn columns(&self) -> Vec<SourceColumn>;

    /// Fetches the compressed payload of `block` in `column` (both indices).
    fn fetch(&self, column: u32, block: u32) -> Result<Vec<u8>>;

    /// Like [`BlockSource::fetch`], but honouring the scan's deadline and
    /// retry budget. Sources without retry machinery ignore the control.
    fn fetch_ctl(&self, column: u32, block: u32, ctl: &FetchCtl) -> Result<Vec<u8>> {
        let _ = ctl;
        self.fetch(column, block)
    }

    /// Compressed byte length of one block, when the source can answer
    /// without fetching (layout-backed sources can). The scan service uses
    /// this for admission estimates and fair-share task costs.
    fn block_len(&self, column: u32, block: u32) -> Option<u64> {
        let _ = (column, block);
        None
    }

    /// Fetches `count` consecutive blocks of `column` starting at `block`,
    /// returning one payload per block in order. The default loops over
    /// [`BlockSource::fetch_ctl`]; layout-backed sources override it with
    /// **one** ranged GET covering the whole span (the scan service's
    /// cross-scan coalescing path), falling back to per-block fetches when
    /// the span keeps failing so errors stay attributed per block.
    fn fetch_span_ctl(
        &self,
        column: u32,
        block: u32,
        count: u32,
        ctl: &FetchCtl,
    ) -> Result<Vec<Vec<u8>>> {
        (0..count)
            .map(|i| self.fetch_ctl(column, block.saturating_add(i), ctl))
            .collect()
    }

    /// Declares that a queued row-group task will read `(column, block)`.
    /// The executor calls this before the task can run and pairs it with one
    /// [`BlockSource::release_interest`]; a source that fuses adjacent
    /// fetches into ranged GETs uses it to see what is about to be asked
    /// for. The default ignores it.
    fn register_interest(&self, column: u32, block: u32) {
        let _ = (column, block);
    }

    /// Withdraws one [`BlockSource::register_interest`]: the task ran, or
    /// its scan ended first.
    fn release_interest(&self, column: u32, block: u32) {
        let _ = (column, block);
    }

    /// The source's fault-tolerance state (clock, breaker, quarantine), if
    /// it has any; in-memory sources don't.
    fn health(&self) -> Option<&SourceHealth> {
        None
    }

    /// Snapshot of the fetch counters.
    fn stats(&self) -> FetchStats;

    /// Resolves a column name to its index.
    fn column_index(&self, name: &str) -> Option<usize> {
        self.columns().iter().position(|c| c.name == name)
    }
}

/// A source over a relation already resident in memory.
pub struct MemorySource {
    id: Arc<str>,
    relation: Arc<CompressedRelation>,
    requests: AtomicU64,
    bytes: AtomicU64,
}

impl MemorySource {
    /// Wraps `relation` under the cache identity `id`.
    pub fn new(id: impl Into<Arc<str>>, relation: Arc<CompressedRelation>) -> MemorySource {
        MemorySource {
            id: id.into(),
            relation,
            requests: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn block(&self, column: u32, block: u32) -> Option<&Vec<u8>> {
        let blocks = &self.relation.columns.get(column as usize)?.blocks;
        blocks.get(block as usize)
    }
}

impl BlockSource for MemorySource {
    fn relation_id(&self) -> Arc<str> {
        self.id.clone()
    }

    fn rows(&self) -> u64 {
        self.relation.rows
    }

    fn columns(&self) -> Vec<SourceColumn> {
        self.relation
            .columns
            .iter()
            .map(|c| SourceColumn {
                name: c.name.clone(),
                column_type: c.column_type,
                blocks: c.blocks.len(),
            })
            .collect()
    }

    fn fetch(&self, column: u32, block: u32) -> Result<Vec<u8>> {
        let bytes = self
            .block(column, block)
            .ok_or(ScanError::BlockOutOfRange { column, block })?
            .clone();
        self.requests.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed); // ordering: statistics counter
        Ok(bytes)
    }

    fn block_len(&self, column: u32, block: u32) -> Option<u64> {
        self.block(column, block).map(|b| b.len() as u64)
    }

    fn stats(&self) -> FetchStats {
        FetchStats {
            requests: self.requests.load(Ordering::Relaxed), // ordering: statistics snapshot
            bytes_fetched: self.bytes.load(Ordering::Relaxed), // ordering: statistics snapshot
            ..FetchStats::default()
        }
    }
}

/// A source that issues ranged GETs against a [`btr_s3sim::ObjectStore`],
/// using a [`RelationLayout`] to address individual block payloads.
pub struct ObjectStoreSource {
    store: Arc<ObjectStore>,
    key: String,
    layout: RelationLayout,
    retry: RetryPolicy,
    health: SourceHealth,
    /// Single-flight over `(column, block)`: concurrent fetches of one block
    /// resolve with one request chain.
    inflight: SingleFlight<(u32, u32), Vec<u8>>,
    requests: AtomicU64,
    bytes: AtomicU64,
    retries: AtomicU64,
    backoff_nanos: AtomicU64,
}

impl ObjectStoreSource {
    /// Creates a source for the object at `key`; `layout` must describe that
    /// object's bytes (see [`RelationLayout::of`]). Quarantine and in-flight
    /// dedup are always on; hedging and circuit breaking are opt-in via
    /// [`ObjectStoreSource::with_hedging`] / [`ObjectStoreSource::with_breaker`].
    pub fn new(
        store: Arc<ObjectStore>,
        key: impl Into<String>,
        layout: RelationLayout,
        retry: RetryPolicy,
    ) -> ObjectStoreSource {
        ObjectStoreSource {
            store,
            key: key.into(),
            layout,
            retry,
            health: SourceHealth::new(),
            inflight: SingleFlight::new(
                INFLIGHT_SLOTS_RANK,
                INFLIGHT_SLOT_RANK,
                INFLIGHT_SLOT_DONE_RANK,
            ),
            requests: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            backoff_nanos: AtomicU64::new(0),
        }
    }

    /// Shares a simulated clock with other sources/scans (one timeline per
    /// simulated world).
    pub fn with_clock(mut self, clock: SimClock) -> ObjectStoreSource {
        self.health.set_clock(clock);
        self
    }

    /// Enables circuit breaking on this source.
    pub fn with_breaker(mut self, config: BreakerConfig) -> ObjectStoreSource {
        self.health.set_breaker(config);
        self
    }

    /// Enables hedged GETs on this source.
    pub fn with_hedging(mut self, config: HedgeConfig) -> ObjectStoreSource {
        self.health.set_hedging(config);
        self
    }

    fn range(&self, column: u32, block: u32) -> Option<&BlockRange> {
        let blocks = &self.layout.columns.get(column as usize)?.blocks;
        blocks.get(block as usize)
    }

    fn valid_body(&self, body: &[u8], range: &BlockRange) -> bool {
        // The store may have truncated or flipped bits; the framing CRC from
        // the layout catches both.
        body.len() == range.len as usize && crc32c(body) == range.crc32c
    }

    /// Slices the payloads of `ranges` out of a span body fetched starting
    /// at absolute offset `span_start`, verifying every slice's CRC. `None`
    /// means the body is short, misaligned, or carries a corrupt slice.
    fn slice_span(
        &self,
        body: &[u8],
        span_start: u64,
        ranges: &[BlockRange],
    ) -> Option<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(ranges.len());
        for range in ranges {
            let rel = range.offset.checked_sub(span_start)? as usize;
            let end = rel.checked_add(range.len as usize)?;
            let slice = body.get(rel..end)?;
            if crc32c(slice) != range.crc32c {
                return None;
            }
            out.push(slice.to_vec());
        }
        Some(out)
    }

    /// One ranged GET covering every block of `ranges` (the coalescing
    /// path). `Err(None)` means "degrade to per-block fetches" — the span
    /// kept failing or carried a corrupt slice, and per-block fetches
    /// attribute that (quarantine, typed errors) at block granularity.
    /// `Err(Some(e))` is a scan-level stop (deadline, budget, missing
    /// object) that per-block fetches could only repeat.
    fn fetch_span_owned(
        &self,
        column: u32,
        block: u32,
        ranges: &[BlockRange],
        ctl: &FetchCtl,
    ) -> std::result::Result<Vec<Vec<u8>>, Option<ScanError>> {
        let clock = self.health.clock();
        // Any breaker caution (open or probing) degrades to the per-block
        // path, which owns fail-fast and probe semantics.
        if self.health.breaker_state() != crate::retry::BreakerState::Closed {
            return Err(None);
        }
        let (first, last) = match (ranges.first(), ranges.last()) {
            (Some(f), Some(l)) => (f, l),
            _ => return Err(None),
        };
        let start = first.offset;
        let span_len = match last
            .offset
            .checked_add(u64::from(last.len))
            .and_then(|end| end.checked_sub(start))
        {
            Some(len) => len,
            None => return Err(None),
        };
        self.retry_loop(column, block, self.retry.max_attempts, ctl, |attempt| {
            self.requests.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
            let got = self.store.get_range_timed_as(
                &self.key,
                start as usize,
                span_len as usize,
                attempt,
                ctl.tenant.as_deref(),
            );
            let latency = got.latency_seconds();
            self.health.observe_latency(latency);
            clock.advance_seconds(latency);
            match got.outcome {
                Ok(body) => {
                    self.bytes.fetch_add(body.len() as u64, Ordering::Relaxed); // ordering: statistics counter
                    Ok(self.slice_span(&body, start, ranges))
                }
                Err(err) if err.is_retryable() => Ok(None),
                Err(_) => Err(ScanError::MissingObject(self.key.clone())),
            }
        })
        .map_err(|stop| match stop {
            FetchStop::Scan(err) => Some(err),
            FetchStop::Exhausted { .. } => None,
        })
    }

    /// The owner side of one block fetch: breaker admission, the retry
    /// loop, hedging, and quarantine on permanent corruption.
    fn fetch_owned(
        &self,
        column: u32,
        block: u32,
        range: &BlockRange,
        ctl: &FetchCtl,
    ) -> Result<Vec<u8>> {
        let clock = self.health.clock();
        let probing = match self.health.breaker() {
            Some(breaker) => match breaker.admit(clock) {
                Admission::Allowed => false,
                Admission::Probe => true,
                Admission::FailFast => return Err(ScanError::BreakerOpen { column, block }),
            },
            None => false,
        };
        // A recovery probe gets exactly one attempt: its job is to sample
        // the source's health, not to grind through a retry schedule.
        let max_attempts = if probing { 1 } else { self.retry.max_attempts };
        let (start, len) = (range.offset as usize, range.len as usize);
        // True once a *full-length* body failed its CRC — the signature of
        // corrupt stored bytes (a truncated body is a transport fault).
        let mut saw_corrupt_body = false;
        let result = self.retry_loop(column, block, max_attempts, ctl, |attempt| {
            self.requests.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
            let primary =
                self.store
                    .get_range_timed_as(&self.key, start, len, attempt, ctl.tenant.as_deref());
            let mut latency = primary.latency_seconds();
            self.health.observe_latency(latency);
            let mut outcome = primary.outcome;
            // Hedge a straggler: once the primary has been out longer than
            // the recent latency percentile, a second GET (salted so it draws
            // independent faults) races it; the first valid response wins
            // and only its latency is charged.
            if let Some(threshold) = self.health.hedge_threshold() {
                if latency > threshold {
                    self.health.note_hedge_issued();
                    self.requests.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
                    let hedge = self.store.get_range_timed_as(
                        &self.key,
                        start,
                        len,
                        attempt | HEDGE_ATTEMPT_SALT,
                        ctl.tenant.as_deref(),
                    );
                    let hedge_total = threshold + hedge.latency_seconds();
                    let hedge_valid = matches!(&hedge.outcome, Ok(b) if self.valid_body(b, range));
                    let primary_valid = matches!(&outcome, Ok(b) if self.valid_body(b, range));
                    if hedge_valid && (!primary_valid || hedge_total < latency) {
                        self.health.note_hedge_won();
                        outcome = hedge.outcome;
                        latency = latency.min(hedge_total);
                    }
                }
            }
            clock.advance_seconds(latency);
            match outcome {
                Ok(body) => {
                    self.bytes.fetch_add(body.len() as u64, Ordering::Relaxed); // ordering: statistics counter
                    if self.valid_body(&body, range) {
                        return Ok(Some(body));
                    }
                    if body.len() == len {
                        saw_corrupt_body = true;
                    }
                    Ok(None)
                }
                Err(err) if err.is_retryable() => Ok(None),
                Err(_) => Err(ScanError::MissingObject(self.key.clone())),
            }
        });
        result.map_err(|stop| match stop {
            FetchStop::Scan(err) => err,
            // Every full-length body failed its CRC until the policy gave
            // up: the stored bytes themselves are bad. Poison this block
            // only; neighbors keep scanning.
            FetchStop::Exhausted { .. } if saw_corrupt_body => {
                self.health.quarantine(column, block);
                ScanError::Quarantined { column, block }
            }
            FetchStop::Exhausted { attempts } => ScanError::FetchFailed {
                column,
                block,
                attempts,
            },
        })
    }

    /// The one retry loop, shared by block and span fetches. `attempt(n)`
    /// issues attempt `n` (zero-based; it feeds the store's deterministic
    /// fault draw) and answers `Ok(Some(_))` for a usable body, `Ok(None)`
    /// for a transient failure worth retrying, and `Err(_)` for a permanent
    /// one. Before each retry the loop checks, in order: the deadline, a
    /// token from the retry budget, the policy's backoff (charged to the
    /// clock and the `backoff_nanos` counter), and the deadline again. A
    /// retry is counted once its attempt is issued, so a deadline that the
    /// last backoff ran into costs that backoff and its budget token but no
    /// retry.
    ///
    /// Breaker evidence: success and a permanent error (an authoritative
    /// answer, such as NotFound, from a healthy store) count as health, an
    /// exhausted policy as failure. Deadline and budget stops are the *scan*
    /// giving up, not the store failing — no evidence either way.
    fn retry_loop<T>(
        &self,
        column: u32,
        block: u32,
        max_attempts: u32,
        ctl: &FetchCtl,
        mut attempt: impl FnMut(u32) -> std::result::Result<Option<T>, ScanError>,
    ) -> std::result::Result<T, FetchStop> {
        let clock = self.health.clock();
        let deadline_stop = || {
            ctl.deadline.filter(|d| d.exceeded(clock)).map(|d| {
                FetchStop::Scan(ScanError::DeadlineExceeded {
                    elapsed_seconds: d.elapsed_seconds(clock),
                    budget_seconds: d.budget_seconds,
                })
            })
        };
        let record = |healthy: bool| {
            if let Some(breaker) = self.health.breaker() {
                breaker.record(clock, healthy);
            }
        };
        let max_attempts = max_attempts.max(1);
        for n in 0..max_attempts {
            if n > 0 {
                if let Some(stop) = deadline_stop() {
                    return Err(stop);
                }
                if ctl.budget.as_ref().is_some_and(|b| !b.try_take(clock)) {
                    return Err(FetchStop::Scan(ScanError::RetryBudgetExhausted {
                        column,
                        block,
                        attempts: n,
                    }));
                }
                let backoff = self.retry.backoff_seconds(n - 1);
                clock.advance_seconds(backoff);
                self.backoff_nanos.fetch_add((backoff * 1e9) as u64, Ordering::Relaxed); // ordering: statistics counter
                if let Some(stop) = deadline_stop() {
                    return Err(stop);
                }
                self.retries.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
            }
            let outcome = match attempt(n) {
                Ok(None) => continue,
                Ok(Some(body)) => Ok(body),
                Err(err) => Err(FetchStop::Scan(err)),
            };
            record(true);
            return outcome;
        }
        record(false);
        Err(FetchStop::Exhausted {
            attempts: max_attempts,
        })
    }
}

/// Why a retried fetch ended without a body; see
/// [`ObjectStoreSource::retry_loop`].
enum FetchStop {
    /// The scan's own stop (deadline, budget) or an authoritative answer
    /// (missing object): fetching again could only repeat it.
    Scan(ScanError),
    /// The retry policy gave up with the store still failing.
    Exhausted {
        /// Attempts made.
        attempts: u32,
    },
}

impl BlockSource for ObjectStoreSource {
    fn relation_id(&self) -> Arc<str> {
        Arc::from(self.key.as_str())
    }

    fn rows(&self) -> u64 {
        self.layout.rows
    }

    fn columns(&self) -> Vec<SourceColumn> {
        self.layout
            .columns
            .iter()
            .map(|c| SourceColumn {
                name: c.name.clone(),
                column_type: c.column_type,
                blocks: c.blocks.len(),
            })
            .collect()
    }

    fn fetch(&self, column: u32, block: u32) -> Result<Vec<u8>> {
        self.fetch_ctl(column, block, &FetchCtl::default())
    }

    fn fetch_ctl(&self, column: u32, block: u32, ctl: &FetchCtl) -> Result<Vec<u8>> {
        let range = *self
            .range(column, block)
            .ok_or(ScanError::BlockOutOfRange { column, block })?;
        loop {
            if self.health.is_quarantined(column, block) {
                return Err(ScanError::Quarantined { column, block });
            }
            // Single-flight: concurrent fetches of one block resolve with
            // one request chain. A waiter whose owner failed does NOT
            // inherit the error (the owner may have hit its own deadline or
            // budget) — it loops back and fetches under its own control.
            match self.inflight.join(&(column, block)) {
                Flight::Waited(Some(body)) => return Ok(body),
                Flight::Waited(None) => continue,
                Flight::Owner(guard) => {
                    let result = self.fetch_owned(column, block, &range, ctl);
                    guard.publish(result.as_ref().ok().cloned());
                    return result;
                }
            }
        }
    }

    fn block_len(&self, column: u32, block: u32) -> Option<u64> {
        self.range(column, block).map(|r| u64::from(r.len))
    }

    fn fetch_span_ctl(
        &self,
        column: u32,
        block: u32,
        count: u32,
        ctl: &FetchCtl,
    ) -> Result<Vec<Vec<u8>>> {
        let per_block = |this: &Self| -> Result<Vec<Vec<u8>>> {
            (0..count)
                .map(|i| this.fetch_ctl(column, block.saturating_add(i), ctl))
                .collect()
        };
        if count <= 1 {
            return per_block(self);
        }
        let mut ranges = Vec::with_capacity(count as usize);
        for i in 0..count {
            let b = block.saturating_add(i);
            let Some(range) = self.range(column, b) else {
                return Err(ScanError::BlockOutOfRange { column, block: b });
            };
            // A quarantined member needs per-block handling (typed fail-fast
            // for it, normal fetches for its neighbors).
            if self.health.is_quarantined(column, b) {
                return per_block(self);
            }
            ranges.push(*range);
        }
        match self.fetch_span_owned(column, block, &ranges, ctl) {
            Ok(bodies) => Ok(bodies),
            Err(None) => per_block(self),
            Err(Some(err)) => Err(err),
        }
    }

    fn health(&self) -> Option<&SourceHealth> {
        Some(&self.health)
    }

    fn stats(&self) -> FetchStats {
        FetchStats {
            requests: self.requests.load(Ordering::Relaxed), // ordering: statistics snapshot
            bytes_fetched: self.bytes.load(Ordering::Relaxed), // ordering: statistics snapshot
            retries: self.retries.load(Ordering::Relaxed), // ordering: statistics snapshot
            backoff_seconds: self.backoff_nanos.load(Ordering::Relaxed) as f64 / 1e9, // ordering: statistics snapshot
            hedges_issued: self.health.hedges_issued(),
            hedges_won: self.health.hedges_won(),
            breaker_transitions: self.health.breaker_transitions(),
            blocks_quarantined: self.health.quarantined_blocks(),
        }
    }
}

/// Fixtures for this crate's unit tests: one small relation (`id = 0..4000`
/// in 1000-row blocks), in memory or stored behind a faulty object store.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use btrblocks::{Column, ColumnData, Config, Relation};

    pub(crate) fn sample() -> (Arc<CompressedRelation>, Config) {
        let cfg = Config {
            block_size: 1_000,
            ..Config::default()
        };
        let rel = Relation::new(vec![Column::new(
            "id",
            ColumnData::Int((0..4_000).collect()),
        )]);
        (Arc::new(btrblocks::compress(&rel, &cfg).unwrap()), cfg)
    }

    /// The sample relation stored as `rel.btr` behind `plan`'s faults, plus
    /// a source reading it under `policy`.
    pub(crate) fn stored(
        plan: Option<btr_s3sim::FaultPlan>,
        policy: RetryPolicy,
    ) -> (Arc<CompressedRelation>, Arc<ObjectStore>, ObjectStoreSource) {
        let (compressed, _) = sample();
        let store = Arc::new(ObjectStore::new());
        store.put("rel.btr", compressed.to_bytes());
        store.set_fault_plan(plan);
        let layout = RelationLayout::of(&compressed);
        let source = ObjectStoreSource::new(store.clone(), "rel.btr", layout, policy);
        (compressed, store, source)
    }

    pub(crate) fn attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{attempts, sample, stored};
    use super::*;
    use btrblocks::{Column, ColumnData, Config, Relation};

    #[test]
    fn memory_source_serves_exact_block_bytes() {
        let (compressed, _) = sample();
        let source = MemorySource::new("rel", compressed.clone());
        assert_eq!(source.rows(), 4_000);
        assert_eq!(source.columns()[0].blocks, 4);
        assert_eq!(source.column_index("id"), Some(0));
        assert_eq!(source.column_index("nope"), None);
        let body = source.fetch(0, 2).unwrap();
        assert_eq!(body, compressed.columns[0].blocks[2]);
        assert!(source.fetch(0, 4).is_err());
        assert!(source.fetch(1, 0).is_err());
        let stats = source.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.bytes_fetched, body.len() as u64);
    }

    #[test]
    fn object_store_source_fetches_ranges_and_verifies_crc() {
        let (compressed, store, source) = stored(None, RetryPolicy::default());
        let body = source.fetch(0, 1).unwrap();
        assert_eq!(body, compressed.columns[0].blocks[1]);
        let counters = store.counters();
        assert_eq!(counters.ranged_get_requests, 1);
        assert_eq!(counters.get_requests, 0);
        assert_eq!(counters.bytes_served, body.len() as u64);
    }

    /// The slot-table behaviour is tested in btr-sync; this pins the
    /// instantiation: an owned `(column, block)` slot blocks nobody else's
    /// block, and releasing it unpublished leaves the block fetchable.
    #[test]
    fn inflight_slots_are_per_block_and_a_failed_owner_poisons_nothing() {
        let (compressed, _, source) = stored(None, RetryPolicy::default());
        let Flight::Owner(owner) = source.inflight.join(&(0, 1)) else {
            panic!("first joiner must own");
        };
        assert_eq!(source.fetch(0, 2).unwrap(), compressed.columns[0].blocks[2]);
        drop(owner);
        assert_eq!(source.fetch(0, 1).unwrap(), compressed.columns[0].blocks[1]);
    }

    #[test]
    fn object_store_source_retries_transient_faults() {
        let plan = btr_s3sim::FaultPlan::transient(0.9, 42);
        let (compressed, _, source) = stored(Some(plan), attempts(64));
        let body = source.fetch(0, 0).unwrap();
        assert_eq!(body, compressed.columns[0].blocks[0]);
        let stats = source.stats();
        assert!(stats.retries > 0, "0.9 fault rate should force retries");
        assert!(stats.backoff_seconds > 0.0);
        assert_eq!(stats.requests, stats.retries + 1);
    }

    #[test]
    fn missing_object_and_exhausted_retries_error() {
        let plan = btr_s3sim::FaultPlan::transient(1.0, 7);
        let (compressed, store, source) = stored(Some(plan), attempts(3));
        let layout = RelationLayout::of(&compressed);
        let absent = ObjectStoreSource::new(store, "absent.btr", layout, RetryPolicy::default());
        assert_eq!(
            absent.fetch(0, 0).unwrap_err(),
            ScanError::MissingObject("absent.btr".into())
        );
        assert_eq!(
            source.fetch(0, 0).unwrap_err(),
            ScanError::FetchFailed {
                column: 0,
                block: 0,
                attempts: 3
            }
        );
    }

    fn never_converging(rate: f64, seed: u64) -> btr_s3sim::FaultPlan {
        btr_s3sim::FaultPlan {
            max_faults_per_key: 1_000,
            ..btr_s3sim::FaultPlan::transient(rate, seed)
        }
    }

    #[test]
    fn deadline_stops_a_fetch_within_one_backoff_step() {
        let policy = RetryPolicy {
            max_attempts: 1_000,
            base_backoff_seconds: 0.05,
            backoff_multiplier: 1.0,
        };
        let clock = SimClock::default();
        let (_, _, source) = stored(Some(never_converging(1.0, 9)), policy);
        let source = source.with_clock(clock.clone());
        let ctl = FetchCtl {
            deadline: Some(btr_sync::Deadline::after(&clock, 0.2)),
            budget: None,
            tenant: None,
        };
        match source.fetch_ctl(0, 0, &ctl).unwrap_err() {
            ScanError::DeadlineExceeded {
                elapsed_seconds,
                budget_seconds,
            } => {
                assert_eq!(budget_seconds, 0.2);
                // Overshoot is bounded by a single backoff step.
                assert!(elapsed_seconds >= 0.2);
                assert!(elapsed_seconds <= 0.2 + 0.05 + 1e-9, "{elapsed_seconds}");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The backoff that ran into the deadline is charged, but the retry
        // it was for is never issued, so it is not counted.
        let stats = source.stats();
        assert_eq!(stats.requests, stats.retries + 1, "{stats:?}");
    }

    #[test]
    fn transient_failures_charge_exponential_backoff() {
        // Two transient failures, then the per-key fault window is spent.
        let plan = btr_s3sim::FaultPlan {
            max_faults_per_key: 2,
            ..btr_s3sim::FaultPlan::transient(1.0, 11)
        };
        let clock = SimClock::default();
        let (compressed, _, source) = stored(Some(plan), RetryPolicy::default());
        let source = source.with_clock(clock.clone());
        assert_eq!(source.fetch(0, 0).unwrap(), compressed.columns[0].blocks[0]);
        let stats = source.stats();
        assert_eq!((stats.requests, stats.retries), (3, 2));
        // 0.05 + 0.1 of exponential backoff, on the clock and in the stats.
        assert!((stats.backoff_seconds - 0.15).abs() < 1e-9, "{stats:?}");
        assert!((clock.now_seconds() - 0.15).abs() < 1e-9);
    }

    #[test]
    fn missing_object_stops_after_one_request() {
        let (compressed, store, _) = stored(None, RetryPolicy::default());
        let layout = RelationLayout::of(&compressed);
        let absent = ObjectStoreSource::new(store, "absent.btr", layout, attempts(5));
        assert_eq!(
            absent.fetch(0, 0).unwrap_err(),
            ScanError::MissingObject("absent.btr".into())
        );
        let stats = absent.stats();
        assert_eq!((stats.requests, stats.retries), (1, 0));
        assert_eq!(stats.backoff_seconds, 0.0);
    }

    #[test]
    fn one_retry_budget_is_shared_across_blocks() {
        // Five blocks that never converge share one scan's 4 retry tokens.
        let cfg = Config {
            block_size: 800,
            ..Config::default()
        };
        let rel = Relation::new(vec![Column::new(
            "id",
            ColumnData::Int((0..4_000).collect()),
        )]);
        let compressed = btrblocks::compress(&rel, &cfg).unwrap();
        let store = Arc::new(ObjectStore::new());
        store.put("rel.btr", compressed.to_bytes());
        store.set_fault_plan(Some(never_converging(1.0, 13)));
        let layout = RelationLayout::of(&compressed);
        assert_eq!(layout.columns[0].blocks.len(), 5);
        let source = ObjectStoreSource::new(store, "rel.btr", layout, attempts(10));
        let ctl = FetchCtl {
            deadline: None,
            budget: Some(Arc::new(btr_sync::RetryBudget::new(4.0, 0.0))),
            tenant: None,
        };
        for block in 0..5 {
            assert!(matches!(
                source.fetch_ctl(0, block, &ctl).unwrap_err(),
                ScanError::RetryBudgetExhausted { .. }
            ));
        }
        let stats = source.stats();
        assert_eq!(stats.retries, 4, "{stats:?}");
        assert_eq!(stats.requests, 5 + 4);
    }

    #[test]
    fn retry_budget_exhaustion_is_typed_and_counted() {
        let (_, _, source) = stored(Some(never_converging(1.0, 3)), attempts(1_000));
        let ctl = FetchCtl {
            deadline: None,
            budget: Some(Arc::new(btr_sync::RetryBudget::new(2.0, 0.0))),
            tenant: None,
        };
        // One free first attempt plus two budgeted retries.
        assert_eq!(
            source.fetch_ctl(0, 0, &ctl).unwrap_err(),
            ScanError::RetryBudgetExhausted {
                column: 0,
                block: 0,
                attempts: 3
            }
        );
    }

    #[test]
    fn breaker_fails_fast_then_recovers_through_a_probe() {
        let clock = SimClock::default();
        let (_, store, source) = stored(Some(never_converging(1.0, 5)), attempts(2));
        let source = source
            .with_clock(clock.clone())
            .with_breaker(crate::retry::BreakerConfig {
                failure_threshold: 1,
                open_seconds: 5.0,
            });

        // The exhausted fetch trips the breaker; the next block fails fast
        // without touching the store.
        assert!(matches!(
            source.fetch(0, 0).unwrap_err(),
            ScanError::FetchFailed { .. }
        ));
        let requests_when_open = source.stats().requests;
        assert_eq!(
            source.fetch(0, 1).unwrap_err(),
            ScanError::BreakerOpen { column: 0, block: 1 }
        );
        assert_eq!(source.stats().requests, requests_when_open);

        // After the open window a probe GET closes it again.
        store.set_fault_plan(None);
        clock.advance_seconds(6.0);
        assert!(source.fetch(0, 1).is_ok());
        assert!(source.fetch(0, 2).is_ok());
        // Closed -> Open -> HalfOpen -> Closed.
        assert_eq!(source.stats().breaker_transitions, 3);
    }

    #[test]
    fn permanent_corruption_quarantines_only_that_block() {
        let (compressed, store, source) = stored(None, attempts(2));
        let mut bytes = compressed.to_bytes();
        let range = RelationLayout::of(&compressed).columns[0].blocks[1];
        bytes[range.offset as usize + 4] ^= 0x10;
        store.put("rel.btr", bytes);
        let poisoned = ScanError::Quarantined { column: 0, block: 1 };
        assert_eq!(source.fetch(0, 1).unwrap_err(), poisoned.clone());
        // Neighbours are untouched by the quarantine.
        assert!(source.fetch(0, 0).is_ok());
        assert!(source.fetch(0, 2).is_ok());
        // The poisoned block now fails fast, issuing no new requests.
        let requests = source.stats().requests;
        assert_eq!(source.fetch(0, 1).unwrap_err(), poisoned);
        let stats = source.stats();
        assert_eq!(stats.requests, requests);
        assert_eq!(stats.blocks_quarantined, 1);
    }

    #[test]
    fn hedges_fire_for_stragglers_once_the_window_is_warm() {
        // Many small blocks keep slow keys under the p90 threshold: spikes
        // stay in the top decile of the latency window, so they hedge.
        let cfg = Config {
            block_size: 100,
            ..Config::default()
        };
        let rel = Relation::new(vec![Column::new(
            "id",
            ColumnData::Int((0..4_000).collect()),
        )]);
        let compressed = Arc::new(btrblocks::compress(&rel, &cfg).unwrap());
        let layout = RelationLayout::of(&compressed);
        let store = Arc::new(ObjectStore::new());
        store.put("rel.btr", compressed.to_bytes());
        store.set_fault_plan(Some(btr_s3sim::FaultPlan {
            latency_spike_rate: 0.05,
            latency_spike_ms: 2_000,
            base_latency_ms: 10,
            max_faults_per_key: 1_000,
            ..btr_s3sim::FaultPlan::transient(0.0, 18)
        }));
        let clock = SimClock::default();
        let source = ObjectStoreSource::new(store, "rel.btr", layout, RetryPolicy::default())
            .with_clock(clock.clone())
            .with_hedging(crate::retry::HedgeConfig {
                percentile: 0.9,
                min_seconds: 0.005,
                warmup: 4,
            });
        for _ in 0..10 {
            for block in 0..40 {
                source.fetch(0, block).unwrap();
            }
        }
        let stats = source.stats();
        assert!(stats.hedges_issued > 0, "spikes past p90 must hedge");
        assert!(stats.hedges_won > 0, "a clean hedge must beat a 2s spike");
        // This seed also spikes some hedges, so not every hedge wins.
        assert!(stats.hedges_won < stats.hedges_issued);
    }
}
