//! btr-server: an in-process, multi-tenant scan service over BtrBlocks
//! relations.
//!
//! [`btr_scan::ScanEngine`] runs scans as if each were alone. A data-lake
//! serving tier is not like that — many tenants scan overlapping relations
//! at once, and the paper's economics (§6.7: scans should stay
//! network-bound, every GET is billed) reward *sharing* aggressively across
//! them. This crate is that serving tier: the same executor the engine runs
//! on ([`btr_scan::Executor`]: worker pool, per-tenant deficit round-robin,
//! look-ahead window), plus what only a shared tier needs.
//!
//! ```text
//!  ScanClient(tenant A) ─┐ submit(ScanSpec)
//!  ScanClient(tenant B) ─┼──> admission control (task + byte budgets)
//!  ScanClient(tenant C) ─┘        │
//!                                 ▼
//!             btr_scan::Executor (DRR, one pool) ──> BlockPipeline::process
//!                          │        │                 │
//!                          ▼        ▼                 ▼
//!                   DecodeGate   CoalescingSource   shared BlockCache
//!                 (cross-scan    (adjacent block    (sharded LRU over
//!                  single-flight  requests fused     *decoded* blocks,
//!                  fetch+decode)  into ranged GETs)  all tenants)
//! ```
//!
//! * **One cache, one source, one pool.** The service owns a single
//!   sharded [`btr_scan::BlockCache`] and one registered
//!   [`btr_scan::BlockSource`] per backing file; every admitted scan gets
//!   a [`btr_scan::BlockPipeline`] over those shared structures.
//! * **Cross-scan single-flight** ([`btr_scan::DecodeGate`]): two scans
//!   missing the same block at the same moment issue one GET and one
//!   decode; the waiter receives the owner's decoded `Arc` directly and
//!   counts a `dedup_hit`.
//! * **Ranged-GET coalescing** ([`CoalescingSource`]): queued tasks
//!   register interest in the blocks they will soon read; a worker's fetch
//!   of block `i` extends into one ranged GET over `i..i+k` while
//!   interest, the coalescing window, and cache-absence allow, staging the
//!   extra bodies for the tasks that wanted them.
//! * **Admission control + fairness**: a service-wide outstanding-task
//!   limit and byte budget reject work at submit time with the typed
//!   [`btr_scan::ScanError::AdmissionRejected`] (back off and resubmit);
//!   admitted work is dispatched by per-tenant deficit round-robin, so a
//!   tenant's point query is never stuck behind another tenant's table
//!   scan.
//! * **Accounting**: per-tenant and service-wide [`ServiceReport`] —
//!   dedup hits, coalesced blocks, queue-wait percentiles (logical
//!   dispatch distance and real seconds), admission rejections — plus
//!   per-tenant GET attribution down in [`btr_s3sim::ObjectStore`].
//!
//! # Quick start
//!
//! ```
//! use btrblocks::{Column, ColumnData, Config, Relation, Sidecar};
//! use btr_scan::{MemorySource, ScanSpec};
//! use btr_server::{ScanService, ServiceOptions};
//! use std::sync::Arc;
//!
//! let cfg = Config { block_size: 1_000, ..Config::default() };
//! let rel = Relation::new(vec![Column::new("id", ColumnData::Int((0..8_000).collect()))]);
//! let sidecar = Sidecar::build(&rel, cfg.block_size);
//! let compressed = Arc::new(btrblocks::compress(&rel, &cfg).unwrap());
//!
//! let service = ScanService::new(ServiceOptions { config: cfg, ..ServiceOptions::default() });
//! service.register("rel", Arc::new(MemorySource::new("rel", compressed)), sidecar);
//!
//! let client = service.client("tenant-a");
//! let mut handle = client.submit("rel", &ScanSpec::project(["id"])).unwrap();
//! let rows: usize = handle.by_ref().map(|b| b.unwrap().rows()).sum();
//! assert_eq!(rows, 8_000);
//! assert!(service.report().tenants.iter().any(|t| t.tenant == "tenant-a"));
//! ```

pub mod coalesce;
pub mod metrics;
mod service;

pub use coalesce::{CoalesceStats, CoalescingSource};
pub use metrics::{ServiceReport, TenantReport};
pub use service::{ScanClient, ScanHandle, ScanService};

// The service speaks btr-scan's vocabulary; re-export the types client code
// needs so most users depend on this crate alone.
pub use btr_scan::{RecordBatch, Result, ScanError, ScanSpec};

use btrblocks::Config;

/// Tuning knobs for [`ScanService`].
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Service-wide worker threads shared by every scan.
    pub workers: usize,
    /// Byte budget of the shared decoded-block cache.
    pub cache_bytes: usize,
    /// Rows per emitted [`RecordBatch`].
    pub batch_rows: usize,
    /// Per-scan look-ahead: how many row-group tasks a scan may have
    /// enqueued past its consumer's position.
    pub window: usize,
    /// Admission limit on service-wide outstanding tasks (enqueued and not
    /// yet emitted to a consumer). A submit whose initial window would push
    /// past this is rejected — unless the service is idle, which always
    /// admits.
    pub queue_limit: u64,
    /// Admission limit on service-wide outstanding *estimated* compressed
    /// bytes (per-task costs from [`btr_scan::BlockSource::block_len`]).
    pub byte_budget: u64,
    /// Deficit round-robin quantum in estimated bytes: how much work one
    /// tenant may dispatch before the scheduler's attention moves on.
    pub quantum_bytes: u64,
    /// Maximum adjacent blocks fused into one ranged GET (1 disables
    /// coalescing).
    pub coalesce_window: u32,
    /// Codec configuration; `block_size` must match how registered
    /// relations were compressed.
    pub config: Config,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            workers: 4,
            cache_bytes: 64 << 20,
            batch_rows: 4096,
            window: 8,
            queue_limit: 256,
            byte_budget: 256 << 20,
            quantum_bytes: 64 << 10,
            coalesce_window: 4,
            config: Config::default(),
        }
    }
}
