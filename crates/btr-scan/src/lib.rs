//! btr-scan: a pipelined scan engine over BtrBlocks relations.
//!
//! The paper's economics (§6.7) hinge on scans of cloud-resident data being
//! network-bound: decompression must keep up with the wire, and "metadata,
//! statistics and indices … may be added on top" (§2.1) to avoid moving
//! bytes at all. This crate is that serving layer. It composes pieces that
//! already exist in the workspace — zone-map sidecars
//! ([`btrblocks::Sidecar`]), compressed-domain predicate evaluation
//! ([`btrblocks::filter_compressed`]), per-block decode
//! ([`btrblocks::decompress_block`]) and the costed object store
//! ([`btr_s3sim::ObjectStore`]) — into one pull-based pipeline:
//!
//! ```text
//! planner ──> prefetch (ranged GETs, bounded in-flight, retries)
//!        \        │
//!         \       ▼
//!          decode workers ──(in block order)──> ScanStream ──> RecordBatch
//!               │   ▲
//!               ▼   │ hits skip fetch + decode entirely
//!          decoded-block cache (sharded LRU, byte budget)
//! ```
//!
//! * **Planner** ([`plan`]): resolves the projection and filter against
//!   the source schema and consults the zone-map sidecar; blocks whose zones
//!   cannot match are pruned before any byte is fetched.
//! * **Prefetch + decode** ([`executor`], around the shared scan
//!   [`driver`]): one worker pool dispatches surviving row groups within a
//!   bounded look-ahead window past each scan's consumer, fetches block
//!   payloads (ranged GETs with retry/backoff against an object store, or
//!   slices of an in-memory relation), evaluates the predicate in the
//!   compressed domain when the scheme has a kernel, and decodes only
//!   what survives. [`ScanEngine`] is that executor with one tenant; the
//!   scan service (btr-server) runs many tenants on the same loop.
//! * **Cache** ([`cache`]): a sharded LRU of *decoded* blocks keyed by
//!   `(relation, column, block)` under a byte budget — repeated scans of hot
//!   columns skip decompression entirely.
//! * **Batches** ([`batch`]): results materialize as fixed-size
//!   [`RecordBatch`]es pulled from a [`Scan`] iterator; every scan yields a
//!   [`ScanReport`] quantifying the fetch-vs-decode trade-off the paper
//!   measures.
//!
//! # Quick start
//!
//! ```
//! use btrblocks::{Column, ColumnData, Config, Relation, Sidecar};
//! use btr_scan::{col, lit, EngineOptions, MemorySource, ScanEngine, ScanSpec};
//! use std::sync::Arc;
//!
//! let cfg = Config { block_size: 1_000, ..Config::default() };
//! let rel = Relation::new(vec![Column::new("id", ColumnData::Int((0..10_000).collect()))]);
//! let sidecar = Sidecar::build(&rel, cfg.block_size);
//! let compressed = Arc::new(btrblocks::compress(&rel, &cfg).unwrap());
//!
//! let engine = ScanEngine::new(EngineOptions { config: cfg, ..EngineOptions::default() });
//! let source = Arc::new(MemorySource::new("rel", compressed));
//! let spec = ScanSpec::project(["id"]).with_expr(col("id").lt(lit(1_500)));
//! let mut scan = engine.scan(source, &sidecar, &spec).unwrap();
//! let rows: usize = scan.by_ref().map(|b| b.unwrap().rows()).sum();
//! assert_eq!(rows, 1_500);
//! assert!(scan.report().blocks_pruned > 0);
//! ```

pub mod batch;
pub mod cache;
pub mod chaos;
pub mod driver;
pub mod engine;
pub mod executor;
pub mod layout;
pub mod pipeline;
pub mod plan;
pub mod retry;
mod sched;
pub mod source;

pub use batch::RecordBatch;
pub use cache::{BlockCache, BlockKey, CacheStats};
pub use chaos::{ChaosConfig, ChaosReport};
pub use driver::{GroupFeed, Reorder, ScanEnd, ScanStream};
pub use engine::{AggReport, EngineOptions, ScanEngine};
pub use executor::{Executor, ExecutorHandle, ExecutorStats, Scan, ScanJob, ScanReport};
pub use layout::{ColumnLayout, RelationLayout};
pub use pipeline::{
    AggInput, AggSourceCounts, BlockPipeline, BlockResult, DecodeGate, PipelineCounters,
    PipelineFilter, PipelineParams,
};
pub use plan::{plan_scan, RowGroup, ScanPlan, ScanSpec};
pub use sched::TenantStats;
pub use retry::{
    BreakerConfig, BreakerState, CircuitBreaker, FetchCtl, HedgeConfig, RetryBudgetConfig,
    SourceHealth, Tolerance,
};
pub use source::{BlockSource, FetchStats, MemorySource, ObjectStoreSource, SourceColumn};

// The expression vocabulary: build filters with `col`/`lit` and the `Expr`
// builder methods, aggregates with `Aggregate`; results come back as
// `AggValue`s. All of it lives in the btr-expr kernel crate.
pub use btr_expr::{col, lit, AggKind, AggValue, Aggregate, Expr, ExprError, ExprPlan, Selection};

// The time vocabulary lives beside the locks in btr-sync; re-export it as
// part of this API.
pub use btr_sync::{Deadline, RetryBudget, SimClock};

/// Errors produced while planning or executing a scan.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanError {
    /// A projected or predicated column does not exist in the source.
    UnknownColumn(String),
    /// The scan projects no columns.
    EmptyProjection,
    /// Columns involved in the scan disagree on block count, so there is no
    /// consistent row-group structure to iterate.
    RaggedBlocks {
        /// The offending column.
        column: String,
        /// Block count of the first involved column.
        expected: usize,
        /// Block count actually found.
        got: usize,
    },
    /// The zone-map sidecar does not describe the relation being scanned.
    SidecarMismatch(&'static str),
    /// A block does not hold its row group's row count (from the sidecar),
    /// so its rows would not line up with the other columns'.
    BlockRowCount {
        /// The offending column.
        column: String,
        /// Block index.
        block: u32,
        /// Rows in the row group.
        expected: usize,
        /// Values the block holds.
        got: usize,
    },
    /// The filter or aggregate expression failed to compile or evaluate
    /// (type mismatch, non-boolean filter, evaluator misuse).
    Expr(btr_expr::ExprError),
    /// A block index outside the column's range was requested.
    BlockOutOfRange {
        /// Column index.
        column: u32,
        /// Requested block index.
        block: u32,
    },
    /// Decode-side failure from the block codecs.
    Decode(btrblocks::Error),
    /// The object behind the scan is missing from the store.
    MissingObject(String),
    /// A block fetch kept failing (transient faults and/or checksum
    /// mismatches) until the retry budget ran out.
    FetchFailed {
        /// Column index.
        column: u32,
        /// Block index.
        block: u32,
        /// Attempts made.
        attempts: u32,
    },
    /// A serialized [`RelationLayout`] could not be parsed.
    CorruptLayout(&'static str),
    /// A scan worker panicked; the message names the row group.
    Worker(String),
    /// The scan's deadline elapsed (simulated clock) before the fetch could
    /// finish; no further retries were attempted.
    DeadlineExceeded {
        /// Simulated seconds elapsed when the deadline was noticed.
        elapsed_seconds: f64,
        /// The scan's configured budget in simulated seconds.
        budget_seconds: f64,
    },
    /// The scan-wide retry token bucket ran dry, so this fetch stopped
    /// retrying early (anti-amplification under a fault storm).
    RetryBudgetExhausted {
        /// Column index.
        column: u32,
        /// Block index.
        block: u32,
        /// Attempts made before the budget ran out.
        attempts: u32,
    },
    /// The source's circuit breaker is open: recent fetches kept failing, so
    /// this one failed fast without touching the store.
    BreakerOpen {
        /// Column index.
        column: u32,
        /// Block index.
        block: u32,
    },
    /// The block is quarantined: an earlier fetch exhausted its retries with
    /// every received body failing its checksum, marking the stored bytes as
    /// permanently corrupt.
    Quarantined {
        /// Column index.
        column: u32,
        /// Block index.
        block: u32,
    },
    /// The scan service refused to admit the scan: its shared queue or byte
    /// budget is already full of other tenants' outstanding work. Typed so
    /// clients can back off and resubmit instead of treating it as a data
    /// error.
    AdmissionRejected {
        /// Which budget filled up (`"task queue"` or `"byte budget"`).
        resource: &'static str,
        /// Outstanding amount at rejection time (tasks or bytes).
        queued: u64,
        /// The configured limit for that resource.
        limit: u64,
    },
    /// The executor running the scan (its [`ScanEngine`], or the scan
    /// service) was dropped before the scan was drained. Rows handed out so
    /// far are a prefix, not the answer.
    Shutdown,
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::UnknownColumn(name) => write!(f, "unknown column '{name}'"),
            ScanError::EmptyProjection => write!(f, "scan projects no columns"),
            ScanError::RaggedBlocks {
                column,
                expected,
                got,
            } => write!(
                f,
                "column '{column}' has {got} blocks, expected {expected}"
            ),
            ScanError::SidecarMismatch(m) => write!(f, "sidecar mismatch: {m}"),
            ScanError::BlockRowCount {
                column,
                block,
                expected,
                got,
            } => write!(
                f,
                "column '{column}' block {block} holds {got} values, its row group {expected} rows"
            ),
            ScanError::Expr(e) => write!(f, "expression error: {e}"),
            ScanError::BlockOutOfRange { column, block } => {
                write!(f, "block {block} out of range for column {column}")
            }
            ScanError::Decode(e) => write!(f, "decode error: {e}"),
            ScanError::MissingObject(key) => write!(f, "object '{key}' not found"),
            ScanError::FetchFailed {
                column,
                block,
                attempts,
            } => write!(
                f,
                "fetch of column {column} block {block} still failing after {attempts} attempts"
            ),
            ScanError::CorruptLayout(m) => write!(f, "corrupt relation layout: {m}"),
            ScanError::Worker(m) => write!(f, "scan worker panicked: {m}"),
            ScanError::DeadlineExceeded {
                elapsed_seconds,
                budget_seconds,
            } => write!(
                f,
                "scan deadline exceeded: {elapsed_seconds:.3}s elapsed of {budget_seconds:.3}s budget"
            ),
            ScanError::RetryBudgetExhausted {
                column,
                block,
                attempts,
            } => write!(
                f,
                "retry budget exhausted fetching column {column} block {block} after {attempts} attempts"
            ),
            ScanError::BreakerOpen { column, block } => write!(
                f,
                "circuit breaker open: fetch of column {column} block {block} failed fast"
            ),
            ScanError::Quarantined { column, block } => write!(
                f,
                "column {column} block {block} is quarantined as permanently corrupt"
            ),
            ScanError::AdmissionRejected {
                resource,
                queued,
                limit,
            } => write!(
                f,
                "scan admission rejected: {resource} full ({queued} outstanding of {limit})"
            ),
            ScanError::Shutdown => write!(f, "scan executor shut down before the scan was drained"),
        }
    }
}

impl std::error::Error for ScanError {}

impl From<btrblocks::Error> for ScanError {
    fn from(e: btrblocks::Error) -> Self {
        ScanError::Decode(e)
    }
}

impl From<btr_expr::ExprError> for ScanError {
    fn from(e: btr_expr::ExprError) -> Self {
        ScanError::Expr(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ScanError>;
