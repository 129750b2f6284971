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
//! 2. [`process_contained`] runs one row group with panics contained, so a
//!    bug in one group fails one scan with a typed error instead of taking
//!    a pool thread (and every scan behind it) down.
//! 3. [`Reorder`] re-sequences groups workers finish in any order.
//! 4. [`ScanStream`] re-chunks ordered groups into fixed-size
//!    [`RecordBatch`]es and ends the scan exactly once
//!    ([`GroupFeed::finish`]) on drain, error, cancel, or drop.
//!
//! [`GroupFeed`] is the seam between 4 and the executor: where ordered row
//! groups come from and what ending the scan releases. The executor's feed
//! is the one implementation outside this module's tests.

use crate::batch::{append, split_front, RecordBatch};
use crate::cache::BlockCache;
use crate::pipeline::{BlockPipeline, BlockResult, DecodeGate, PipelineFilter, PipelineParams};
use crate::plan::{plan_scan, RowGroup, ScanPlan, ScanSpec};
use crate::retry::FetchCtl;
use crate::source::BlockSource;
use crate::{Result, ScanError};
use btr_sync::{Deadline, RetryBudget};
use btrblocks::{ColumnData, Config, Scratch, Sidecar};
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

/// [`BlockPipeline::process`] with panics contained: a panic while
/// processing row group `idx` becomes [`ScanError::Worker`] naming the group
/// and block, and the calling worker thread lives on.
pub fn process_contained(
    pipeline: &BlockPipeline,
    idx: usize,
    group: RowGroup,
    scratch: &mut Scratch,
) -> Result<BlockResult> {
    catch_unwind(AssertUnwindSafe(|| pipeline.process(group, scratch))).unwrap_or_else(|payload| {
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
#[derive(Default)]
pub struct Reorder {
    next_emit: usize,
    ready: BTreeMap<usize, Result<BlockResult>>,
}

impl Reorder {
    /// Index of the next row group the consumer will take.
    pub fn next_emit(&self) -> usize {
        self.next_emit
    }

    /// Lands the result of row group `idx`.
    pub fn insert(&mut self, idx: usize, result: Result<BlockResult>) {
        self.ready.insert(idx, result);
    }

    /// Whether a consumer of a `total`-group scan has to wait: groups remain
    /// and the next one in order has not landed.
    pub fn awaiting(&self, total: usize) -> bool {
        self.next_emit < total && !self.ready.contains_key(&self.next_emit)
    }

    /// Takes the next in-order result, if it has landed.
    pub fn pop(&mut self) -> Option<Result<BlockResult>> {
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
    fn next_block(&mut self) -> Option<Result<BlockResult>>;

    /// Releases everything the scan holds (threads, queue slots, budgets).
    /// Called exactly once per stream; `rows_matched` is what the consumer
    /// was handed or still had buffered.
    fn finish(&mut self, end: ScanEnd, rows_matched: u64);
}

/// A running scan: an iterator of [`RecordBatch`]es in row order, cut to a
/// fixed row count whatever the relation's block size.
///
/// Dropping the stream before it is drained cancels the scan.
pub struct ScanStream<F: GroupFeed> {
    feed: F,
    names: Vec<String>,
    buffers: Vec<ColumnData>,
    buffered_rows: usize,
    batch_rows: usize,
    rows_matched: u64,
    batches: u64,
    finished: bool,
}

impl<F: GroupFeed> ScanStream<F> {
    /// A stream over `feed`. `names` and `buffers` are the projected columns
    /// in output order (see [`BlockPipeline::empty_columns`]).
    pub fn new(feed: F, names: Vec<String>, buffers: Vec<ColumnData>, batch_rows: usize) -> Self {
        ScanStream {
            feed,
            names,
            buffers,
            buffered_rows: 0,
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

    fn cut(&mut self, n: usize) -> RecordBatch {
        let columns = self
            .names
            .iter()
            .zip(self.buffers.iter_mut())
            .map(|(name, buf)| (name.clone(), split_front(buf, n)))
            .collect();
        self.buffered_rows -= n;
        self.batches += 1;
        RecordBatch { columns }
    }
}

impl<F: GroupFeed> Iterator for ScanStream<F> {
    type Item = Result<RecordBatch>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        loop {
            if self.buffered_rows >= self.batch_rows {
                return Some(Ok(self.cut(self.batch_rows)));
            }
            let appended = match self.feed.next_block() {
                Some(Ok(block)) => {
                    self.rows_matched += block.rows_matched;
                    self.buffered_rows += block.rows_matched as usize;
                    self.buffers
                        .iter_mut()
                        .zip(&block.columns)
                        .try_for_each(|(buf, col)| append(buf, col))
                }
                Some(Err(e)) => Err(e),
                None if self.buffered_rows > 0 => {
                    return Some(Ok(self.cut(self.buffered_rows)));
                }
                None => {
                    self.finish(ScanEnd::Completed);
                    return None;
                }
            };
            if let Err(e) = appended {
                self.finish(ScanEnd::Failed);
                return Some(Err(e));
            }
        }
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
    use std::collections::VecDeque;
    use std::cell::RefCell;

    /// A feed that hands out prepared groups and records how it was ended.
    struct VecFeed<'a> {
        blocks: VecDeque<Result<BlockResult>>,
        ended: &'a RefCell<Vec<(ScanEnd, u64)>>,
    }

    impl GroupFeed for VecFeed<'_> {
        fn next_block(&mut self) -> Option<Result<BlockResult>> {
            self.blocks.pop_front()
        }

        fn finish(&mut self, end: ScanEnd, rows_matched: u64) {
            self.ended.borrow_mut().push((end, rows_matched));
        }
    }

    fn block(ids: std::ops::Range<i32>) -> Result<BlockResult> {
        Ok(BlockResult {
            rows_matched: ids.len() as u64,
            columns: vec![ColumnData::Int(ids.collect())],
        })
    }

    fn stream<'a>(
        blocks: Vec<Result<BlockResult>>,
        batch_rows: usize,
        ended: &'a RefCell<Vec<(ScanEnd, u64)>>,
    ) -> ScanStream<VecFeed<'a>> {
        let feed = VecFeed {
            blocks: blocks.into(),
            ended,
        };
        ScanStream::new(feed, vec!["id".into()], vec![ColumnData::Int(Vec::new())], batch_rows)
    }

    fn ids(batch: &RecordBatch) -> Vec<i32> {
        match batch.column("id") {
            Some(ColumnData::Int(v)) => v.clone(),
            other => panic!("projected an int column, got {other:?}"),
        }
    }

    #[test]
    fn uneven_groups_rechunk_into_fixed_batches_and_finish_once() {
        // 4500 rows into 700-row batches, from groups of uneven size,
        // including empty ones (a filter that matched nothing).
        let cuts = [0, 1_000, 1_000, 1_003, 2_950, 2_950, 4_499, 4_500];
        let blocks = cuts.windows(2).map(|w| block(w[0]..w[1])).collect();
        let ended = RefCell::new(Vec::new());
        let mut scan = stream(blocks, 700, &ended);
        let batches: Vec<RecordBatch> = scan.by_ref().map(|b| b.unwrap()).collect();
        assert_eq!(batches.len(), 7);
        assert!(batches[..6].iter().all(|b| b.rows() == 700));
        assert_eq!(batches[6].rows(), 300);
        let all: Vec<i32> = batches.iter().flat_map(ids).collect();
        assert_eq!(all, (0..4_500).collect::<Vec<_>>());
        assert_eq!((scan.rows_matched(), scan.batches()), (4_500, 7));
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

    fn mixed_columns(rows: std::ops::Range<usize>) -> Vec<ColumnData> {
        let strings: Vec<Vec<u8>> = rows.clone().map(|i| mixed_row(i).2).collect();
        vec![
            ColumnData::Int(rows.clone().map(|i| mixed_row(i).0).collect()),
            ColumnData::Double(rows.map(|i| mixed_row(i).1).collect()),
            ColumnData::Str(btrblocks::StringArena::from_strs(&strings)),
        ]
    }

    #[test]
    fn mixed_type_groups_rechunk_into_exact_batches() {
        // 4,500 rows in uneven groups of up to 1,000, with empty ones.
        let cuts = [0, 1_000, 1_000, 1_003, 2_003, 2_950, 2_950, 3_950, 4_499, 4_500];
        let rows = *cuts.last().unwrap();
        let names = ["i", "d", "s"];
        for batch_rows in [1, 700, 1_000, 1_001] {
            let blocks = cuts.windows(2).map(|w| {
                let columns = mixed_columns(w[0]..w[1]);
                Ok(BlockResult { rows_matched: (w[1] - w[0]) as u64, columns })
            });
            let ended = RefCell::new(Vec::new());
            let feed = VecFeed { blocks: blocks.collect(), ended: &ended };
            let owned = names.map(String::from).to_vec();
            let mut scan = ScanStream::new(feed, owned, mixed_columns(0..0), batch_rows);
            let mut start = 0;
            for batch in scan.by_ref() {
                let batch = batch.unwrap();
                let end = (start + batch_rows).min(rows);
                let at = format!("batch_rows {batch_rows}, batch at row {start}");
                assert_eq!(batch.rows(), end - start, "{at}");
                for (name, want) in names.into_iter().zip(mixed_columns(start..end)) {
                    assert_eq!(batch.column(name), Some(&want), "{at}, column {name}");
                }
                start = end;
            }
            assert_eq!(start, rows, "batch_rows {batch_rows}");
            assert_eq!(scan.batches() as usize, rows.div_ceil(batch_rows));
            drop(scan);
            assert_eq!(*ended.borrow(), vec![(ScanEnd::Completed, rows as u64)]);
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
        let mut scan = stream(vec![block(0..250), block(250..500)], 100, &ended);
        assert_eq!(ids(&scan.next().unwrap().unwrap()), (0..100).collect::<Vec<_>>());
        drop(scan);
        assert_eq!(*ended.borrow(), vec![(ScanEnd::Cancelled, 250)]);

        let ended = RefCell::new(Vec::new());
        let failing = vec![block(0..50), Err(ScanError::EmptyProjection), block(50..100)];
        let mut scan = stream(failing, 100, &ended);
        assert_eq!(scan.next(), Some(Err(ScanError::EmptyProjection)));
        assert!(scan.next().is_none(), "nothing follows the error, buffered rows included");
        drop(scan);
        assert_eq!(*ended.borrow(), vec![(ScanEnd::Failed, 50)]);
    }
}
