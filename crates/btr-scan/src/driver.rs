//! The scan driver: what happens to a scan between "a spec arrives" and
//! "batches come out", apart from scheduling.
//!
//! Scheduling — which worker runs which row group when, for
//! [`crate::ScanEngine`] and the scan service (btr-server) alike — is
//! [`crate::executor`]. The four steps around it are written here once:
//!
//! 1. [`prepare`] turns a spec into a pruned [`ScanPlan`] and the
//!    [`BlockPipeline`] that processes its row groups, the spec's deadline
//!    and retry budget armed on the source's clock.
//! 2. `contained` runs one row group's work — a scan's
//!    [`BlockPipeline::process_batches`], an aggregate's resolve — with
//!    panics contained, so a bug in one group fails one scan with a typed
//!    error instead of taking a pool thread (and every scan behind it) down.
//! 3. [`Reorder`] re-sequences groups workers finish in any order, for a
//!    scan's stream and an aggregate's fold alike.
//! 4. [`ScanStream`] checks each ordered group's batches against the
//!    projection and hands them out as [`RecordBatch`]es, moved, not copied,
//!    and ends the scan exactly once ([`GroupFeed::finish`]) on drain,
//!    error, cancel, or drop.
//!
//! [`GroupFeed`] is the seam between 4 and the executor: where ordered row
//! groups come from and what ending the scan releases. The executor's feed
//! is the one implementation outside this module's tests.

use crate::batch::RecordBatch;
use crate::cache::BlockCache;
use crate::pipeline::{BlockPipeline, DecodeGate, GroupBatches, PipelineFilter, PipelineParams};
use crate::plan::{plan_scan, RowGroup, ScanPlan, ScanSpec};
use crate::retry::FetchCtl;
use crate::source::BlockSource;
use crate::{Result, ScanError};
use btr_sync::{Deadline, RetryBudget};
use btrblocks::{ColumnData, ColumnType, Config, Sidecar};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Plans `spec` over `source` and builds the pipeline that executes it.
///
/// The deadline starts now, on the source's simulated clock when it has one;
/// `tenant` tags every fetch for per-tenant GET accounting. `window` is the
/// healthy look-ahead the degradation ladder shrinks from, `gate` the
/// cross-scan decode single-flight (`None` when nothing else shares `cache`
/// concurrently).
// Each argument is an independent input of one scan; a struct bundling them
// would be built at exactly the two call sites (engine, service) and read
// here.
#[allow(clippy::too_many_arguments)]
pub fn prepare(
    source: Arc<dyn BlockSource>,
    sidecar: &Sidecar,
    spec: &ScanSpec,
    cache: Arc<BlockCache>,
    config: &Config,
    window: usize,
    gate: Option<Arc<DecodeGate>>,
    tenant: Option<Arc<str>>,
) -> Result<(ScanPlan, BlockPipeline)> {
    let plan = plan_scan(source.as_ref(), sidecar, spec)?;
    let clock = source
        .health()
        .map(|h| h.clock().clone())
        .unwrap_or_default();
    let ctl = FetchCtl {
        deadline: spec
            .tolerance
            .deadline_seconds
            .map(|seconds| Deadline::after(&clock, seconds)),
        budget: spec
            .tolerance
            .retry_budget
            .map(|cfg| Arc::new(RetryBudget::new(cfg.capacity, cfg.refill_per_second))),
        tenant,
    };
    let pipeline = BlockPipeline::new(PipelineParams {
        cache,
        config: config.clone(),
        projection: plan.projection.clone(),
        column_types: source.columns().iter().map(|c| c.column_type).collect(),
        filter: PipelineFilter::from_plan(&plan),
        ctl,
        base_prefetch: window,
        gate,
        source,
    });
    Ok((plan, pipeline))
}

/// Runs `work` on row group `idx` with panics contained: a panic becomes
/// [`ScanError::Worker`] naming the group and block, and the calling worker
/// thread lives on.
pub(crate) fn contained<T>(idx: usize, group: RowGroup, work: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|payload| {
        Err(ScanError::Worker(format!(
            "row group {} (block {}): {}",
            idx,
            group.block,
            btr_sync::panic_message(payload.as_ref())
        )))
    })
}

/// The reorder buffer between workers and a scan's consumer: results land
/// by row-group index in any order and leave in index order.
pub struct Reorder<T = GroupBatches> {
    next_emit: usize,
    ready: BTreeMap<usize, Result<T>>,
}

impl<T> Default for Reorder<T> {
    fn default() -> Self {
        Reorder {
            next_emit: 0,
            ready: BTreeMap::new(),
        }
    }
}

impl<T> Reorder<T> {
    /// Index of the next row group the consumer will take.
    pub fn next_emit(&self) -> usize {
        self.next_emit
    }

    /// Lands the result of row group `idx`.
    pub fn insert(&mut self, idx: usize, result: Result<T>) {
        self.ready.insert(idx, result);
    }

    /// Whether a consumer of a `total`-group scan has to wait: groups remain
    /// and the next one in order has not landed.
    pub fn awaiting(&self, total: usize) -> bool {
        self.next_emit < total && !self.ready.contains_key(&self.next_emit)
    }

    /// Takes the next in-order result, if it has landed.
    pub fn pop(&mut self) -> Option<Result<T>> {
        let result = self.ready.remove(&self.next_emit)?;
        self.next_emit += 1;
        Some(result)
    }
}

/// How a scan ended, as told to [`GroupFeed::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEnd {
    /// Drained to the last row group.
    Completed,
    /// Surfaced a typed error to the consumer.
    Failed,
    /// Cancelled, or dropped before it was drained.
    Cancelled,
}

/// The executor side of a [`ScanStream`]: where ordered row groups come
/// from and what ending the scan releases.
pub trait GroupFeed {
    /// Blocks until the next row group in block order is done. `None` means
    /// every group was taken; a scan that cannot continue says so with an
    /// `Err`, never with an early `None`.
    fn next_block(&mut self) -> Option<Result<GroupBatches>>;

    /// Releases everything the scan holds (threads, queue slots, budgets).
    /// Called exactly once per stream; `rows_matched` is what the consumer
    /// was handed or still had buffered.
    fn finish(&mut self, end: ScanEnd, rows_matched: u64);
}

/// A running scan: an iterator of [`RecordBatch`]es in row order, each
/// holding 1..=`batch_rows` rows of one row group.
///
/// Workers cut a group's rows into batches as they gather them; the stream
/// checks each group's batches and moves them out one by one, so each row
/// is copied once after decode.
///
/// Dropping the stream before it is drained cancels the scan.
pub struct ScanStream<F: GroupFeed> {
    feed: F,
    names: Vec<String>,
    types: Vec<ColumnType>,
    /// Batches of the group taken last, not yet handed out.
    pending: std::vec::IntoIter<Vec<ColumnData>>,
    batch_rows: usize,
    rows_matched: u64,
    batches: u64,
    finished: bool,
}

impl<F: GroupFeed> ScanStream<F> {
    /// A stream over `feed`. `names` and `types` describe the projected
    /// columns in output order; every batch the feed yields must hold
    /// exactly those columns, 1..=`batch_rows` rows long, and a group's
    /// batches its `rows_matched` rows.
    pub fn new(feed: F, names: Vec<String>, types: Vec<ColumnType>, batch_rows: usize) -> Self {
        ScanStream {
            feed,
            names,
            types,
            pending: Vec::new().into_iter(),
            batch_rows: batch_rows.max(1),
            rows_matched: 0,
            batches: 0,
            finished: false,
        }
    }

    /// The executor behind this stream.
    pub fn feed(&self) -> &F {
        &self.feed
    }

    /// Rows matched so far.
    pub fn rows_matched(&self) -> u64 {
        self.rows_matched
    }

    /// Batches emitted so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Cancels the scan; the iterator yields nothing further.
    pub fn cancel(&mut self) {
        self.finish(ScanEnd::Cancelled);
    }

    fn finish(&mut self, end: ScanEnd) {
        if !self.finished {
            self.finished = true;
            self.feed.finish(end, self.rows_matched);
        }
    }

    /// Hands out the next batch of the group taken last, taking groups
    /// until one has a batch; `None` once the feed is drained.
    fn step(&mut self) -> Option<Result<RecordBatch>> {
        loop {
            if let Some(columns) = self.pending.next() {
                self.batches += 1;
                let columns = self.names.iter().cloned().zip(columns).collect();
                return Some(Ok(RecordBatch { columns }));
            }
            if let Err(e) = self.feed.next_block()?.and_then(|group| self.take(group)) {
                return Some(Err(e));
            }
        }
    }

    /// Queues a group's batches, or rejects the group when a batch's
    /// columns do not match the projection's count and types, a batch is
    /// not 1..=`batch_rows` rows long, or the batches miss `rows_matched`.
    fn take(&mut self, group: GroupBatches) -> Result<()> {
        let mut rows = 0u64;
        let fits = group.batches.iter().all(|batch| {
            let len = batch.first().map_or(0, ColumnData::len);
            rows += len as u64;
            (1..=self.batch_rows).contains(&len)
                && batch.len() == self.types.len()
                && (batch.iter().zip(&self.types))
                    .all(|(col, &ty)| col.column_type() == ty && col.len() == len)
        });
        if !fits || rows != group.rows_matched {
            let what =
                "row group batches disagree with the projection, batch_rows or their row count";
            return Err(ScanError::Decode(btrblocks::Error::Corrupt(what)));
        }
        self.rows_matched += group.rows_matched;
        self.pending = group.batches.into_iter();
        Ok(())
    }
}

impl<F: GroupFeed> Iterator for ScanStream<F> {
    type Item = Result<RecordBatch>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        let batch = self.step();
        match &batch {
            None => self.finish(ScanEnd::Completed),
            Some(Err(_)) => self.finish(ScanEnd::Failed),
            Some(Ok(_)) => {}
        }
        batch
    }
}

impl<F: GroupFeed> Drop for ScanStream<F> {
    fn drop(&mut self) {
        self.finish(ScanEnd::Cancelled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::ops::Range;

    /// A feed that hands out prepared groups and records how it was ended.
    struct VecFeed<'a> {
        groups: VecDeque<Result<GroupBatches>>,
        ended: &'a RefCell<Vec<(ScanEnd, u64)>>,
    }

    impl GroupFeed for VecFeed<'_> {
        fn next_block(&mut self) -> Option<Result<GroupBatches>> {
            self.groups.pop_front()
        }

        fn finish(&mut self, end: ScanEnd, rows_matched: u64) {
            self.ended.borrow_mut().push((end, rows_matched));
        }
    }

    /// A group of `columns(rows)`, cut into batches of `batch_rows` as a
    /// worker cuts it.
    fn cut(
        rows: Range<usize>,
        batch_rows: usize,
        columns: impl Fn(Range<usize>) -> Vec<ColumnData>,
    ) -> Result<GroupBatches> {
        let batches = (rows.clone().step_by(batch_rows))
            .map(|start| columns(start..rows.end.min(start + batch_rows)))
            .collect();
        Ok(GroupBatches { rows_matched: rows.len() as u64, batches })
    }

    /// Ids `rows` as a one-column group cut into batches of `batch_rows`.
    fn group(rows: Range<usize>, batch_rows: usize) -> Result<GroupBatches> {
        cut(rows, batch_rows, |r| vec![ColumnData::Int(r.map(|i| i as i32).collect())])
    }

    fn stream<'a>(
        groups: Vec<Result<GroupBatches>>,
        batch_rows: usize,
        ended: &'a RefCell<Vec<(ScanEnd, u64)>>,
    ) -> ScanStream<VecFeed<'a>> {
        let feed = VecFeed { groups: groups.into(), ended };
        let (names, types) = (vec!["id".into()], vec![ColumnType::Integer]);
        ScanStream::new(feed, names, types, batch_rows)
    }

    fn ids(batch: &RecordBatch) -> Vec<i32> {
        match batch.column("id") {
            Some(ColumnData::Int(v)) => v.clone(),
            other => panic!("projected an int column, got {other:?}"),
        }
    }

    #[test]
    fn group_batches_pass_through_in_order_and_finish_once() {
        // 4,500 rows in groups of uneven size, including empty ones (a
        // filter that matched nothing), cut at 700 rows: only a group's
        // last batch is short, and no batch spans two groups.
        let cuts = [0, 1_000, 1_000, 1_003, 2_950, 2_950, 4_499, 4_500];
        let groups = cuts.windows(2).map(|w| group(w[0]..w[1], 700)).collect();
        let ended = RefCell::new(Vec::new());
        let mut scan = stream(groups, 700, &ended);
        let batches: Vec<RecordBatch> = scan.by_ref().map(|b| b.unwrap()).collect();
        let rows: Vec<usize> = batches.iter().map(RecordBatch::rows).collect();
        assert_eq!(rows, [700, 300, 3, 700, 700, 547, 700, 700, 149, 1]);
        let all: Vec<i32> = batches.iter().flat_map(ids).collect();
        assert_eq!(all, (0..4_500).collect::<Vec<_>>());
        assert_eq!((scan.rows_matched(), scan.batches()), (4_500, 10));
        assert!(scan.next().is_none(), "a drained stream stays drained");
        drop(scan);
        assert_eq!(*ended.borrow(), vec![(ScanEnd::Completed, 4_500)]);
    }

    /// Row `i` of the mixed relation: an int, a double and a string that is
    /// empty, holds 0x00 bytes, is longer than 8 bytes, or is short.
    fn mixed_row(i: usize) -> (i32, f64, Vec<u8>) {
        let s = match i % 4 {
            0 => Vec::new(),
            1 => vec![0, (i % 251) as u8, 0],
            2 => format!("a string longer than eight bytes, row {i}").into_bytes(),
            _ => format!("s{i}").into_bytes(),
        };
        (i as i32 - 2_000, i as f64 * -0.25, s)
    }

    fn mixed_columns(rows: Range<usize>) -> Vec<ColumnData> {
        let strings: Vec<Vec<u8>> = rows.clone().map(|i| mixed_row(i).2).collect();
        vec![
            ColumnData::Int(rows.clone().map(|i| mixed_row(i).0).collect()),
            ColumnData::Double(rows.map(|i| mixed_row(i).1).collect()),
            ColumnData::Str(btrblocks::StringArena::from_strs(&strings)),
        ]
    }

    /// Where each column of a batch keeps its values.
    fn addresses(columns: &[ColumnData]) -> Vec<usize> {
        let address = |col: &ColumnData| match col {
            ColumnData::Int(v) => v.as_ptr() as usize,
            ColumnData::Double(v) => v.as_ptr() as usize,
            ColumnData::Str(a) => a.bytes.as_ptr() as usize,
        };
        columns.iter().map(address).collect()
    }

    #[test]
    fn mixed_type_batches_are_moved_not_copied() {
        // 4,500 rows in uneven groups of up to 1,000, with empty ones.
        let cuts = [0, 1_000, 1_000, 1_003, 2_003, 2_950, 2_950, 3_950, 4_499, 4_500];
        let names = ["i", "d", "s"];
        for batch_rows in [1, 700, 1_000, 1_001] {
            let groups: VecDeque<_> =
                cuts.windows(2).map(|w| cut(w[0]..w[1], batch_rows, mixed_columns)).collect();
            let fed: Vec<Vec<usize>> = (groups.iter().flatten())
                .flat_map(|g| g.batches.iter().map(|b| addresses(b)))
                .collect();
            let ended = RefCell::new(Vec::new());
            let feed = VecFeed { groups, ended: &ended };
            let owned = names.map(String::from).to_vec();
            let types = vec![ColumnType::Integer, ColumnType::Double, ColumnType::String];
            let mut scan = ScanStream::new(feed, owned, types, batch_rows);
            let mut start = 0;
            for (k, batch) in scan.by_ref().enumerate() {
                let batch = batch.unwrap();
                let end = start + batch.rows();
                let at = format!("batch_rows {batch_rows}, batch at row {start}");
                for (name, want) in names.into_iter().zip(mixed_columns(start..end)) {
                    assert_eq!(batch.column(name), Some(&want), "{at}, column {name}");
                }
                let columns: Vec<ColumnData> = batch.columns.into_iter().map(|(_, c)| c).collect();
                assert_eq!(addresses(&columns), fed[k], "{at}: moved, not copied");
                start = end;
            }
            assert_eq!(start, 4_500, "batch_rows {batch_rows}");
            assert_eq!(scan.batches() as usize, fed.len());
            drop(scan);
            assert_eq!(*ended.borrow(), vec![(ScanEnd::Completed, 4_500)]);
        }
    }

    #[test]
    fn empty_relation_yields_no_batches() {
        let ended = RefCell::new(Vec::new());
        let mut scan = stream(Vec::new(), 4_096, &ended);
        assert!(scan.next().is_none());
        assert_eq!(scan.batches(), 0);
        drop(scan);
        assert_eq!(*ended.borrow(), vec![(ScanEnd::Completed, 0)]);
    }

    #[test]
    fn early_drop_cancels_and_an_error_fails_exactly_once() {
        let ended = RefCell::new(Vec::new());
        let mut scan = stream(vec![group(0..250, 100), group(250..500, 100)], 100, &ended);
        assert_eq!(ids(&scan.next().unwrap().unwrap()), (0..100).collect::<Vec<_>>());
        drop(scan);
        assert_eq!(*ended.borrow(), vec![(ScanEnd::Cancelled, 250)]);

        let ended = RefCell::new(Vec::new());
        let failing = vec![group(0..50, 100), Err(ScanError::EmptyProjection), group(50..100, 100)];
        let mut scan = stream(failing, 100, &ended);
        assert_eq!(ids(&scan.next().unwrap().unwrap()), (0..50).collect::<Vec<_>>());
        assert_eq!(scan.next(), Some(Err(ScanError::EmptyProjection)));
        assert!(scan.next().is_none(), "nothing follows the error");
        drop(scan);
        assert_eq!(*ended.borrow(), vec![(ScanEnd::Failed, 50)]);
    }

    #[test]
    fn a_group_that_disagrees_with_its_rows_fails_exactly_once() {
        let bad = |rows_matched: u64, batches: Vec<Vec<ColumnData>>| {
            Ok(GroupBatches { rows_matched, batches })
        };
        let ints = |rows: Range<i32>| ColumnData::Int(rows.collect());
        let bad = [
            bad(30, vec![vec![ints(0..29)]]),
            bad(31, vec![vec![ints(0..31)]]),
            bad(0, vec![vec![ints(0..7)]]),
            bad(30, vec![vec![ints(0..20)], vec![ints(0..20)]]),
            bad(0, vec![vec![ints(0..0)]]),
            bad(30, vec![vec![ColumnData::Double(vec![0.5; 30])]]),
            bad(30, vec![Vec::new()]),
            bad(30, vec![vec![ints(0..30), ints(0..30)]]),
        ];
        let want = ScanError::Decode(btrblocks::Error::Corrupt(
            "row group batches disagree with the projection, batch_rows or their row count",
        ));
        for (i, bad) in bad.into_iter().enumerate() {
            let ended = RefCell::new(Vec::new());
            let mut scan = stream(vec![group(0..50, 30), bad, group(50..150, 30)], 30, &ended);
            let batches: Vec<_> = scan.by_ref().collect();
            assert_eq!(batches.len(), 3, "group {i}: the first group's batches, then the error");
            assert_eq!(ids(batches[0].as_ref().unwrap()), (0..30).collect::<Vec<_>>());
            assert_eq!(ids(batches[1].as_ref().unwrap()), (30..50).collect::<Vec<_>>());
            assert_eq!(batches[2], Err(want.clone()), "group {i}");
            drop(scan);
            assert_eq!(*ended.borrow(), vec![(ScanEnd::Failed, 50)], "group {i}");
        }
    }
}
