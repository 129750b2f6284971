//! Per-tenant and service-wide accounting.
//!
//! Metrics answer the two questions a shared serving tier is always asked:
//! *is sharing paying off* (dedup hits, coalesced blocks, cache hit rate)
//! and *is sharing fair* (per-tenant queue-wait percentiles, admission
//! rejections). Queue wait is recorded twice per dispatched task: once in
//! real seconds and once as a *logical* distance — how many other tasks
//! were dispatched while this one sat queued — which is immune to host
//! speed and is what the fairness tests bound.

use btr_scan::retry::{percentile, SampleWindow};
use btr_scan::{CacheStats, PipelineCounters, ScanEnd};
use std::collections::HashMap;
use std::sync::Arc;

/// Queue-wait samples kept per tenant: the most recent this many dispatches
/// feed the percentiles, so a tenant's accounting is constant-size however
/// long the service lives (and `report()` copies a bounded amount under the
/// metrics lock every worker batch also takes).
pub(crate) const WAIT_SAMPLES: usize = 1_024;

/// Running accumulator for one tenant: its report's counters plus the
/// recent queue waits the report's percentiles are ranked from.
#[derive(Clone, Default)]
pub(crate) struct TenantAcc {
    /// The counters, as reported (`tenant` and the percentiles are filled in
    /// by [`Metrics::snapshot`]).
    pub report: TenantReport,
    wait_logical: SampleWindow<WAIT_SAMPLES>,
    wait_seconds: SampleWindow<WAIT_SAMPLES>,
}

impl TenantAcc {
    /// One task left the queue after `logical` other dispatches and
    /// `seconds` of real time.
    pub fn record_dispatch(&mut self, logical: u64, seconds: f64) {
        self.report.tasks_dispatched += 1;
        self.wait_logical.push(logical as f64);
        self.wait_seconds.push(seconds);
    }

    /// Folds a finished scan in: its pipeline counters, the rows it handed
    /// out, and how it ended.
    pub fn fold_scan(&mut self, c: &PipelineCounters, rows_emitted: u64, end: ScanEnd) {
        let r = &mut self.report;
        r.dedup_hits += c.dedup_hits;
        r.blocks_decoded += c.blocks_decoded;
        r.blocks_fetched += c.blocks_fetched;
        r.blocks_pushdown_fast_path += c.blocks_pushdown_fast_path;
        r.cache_hits += c.cache_hits;
        r.cache_misses += c.cache_misses;
        r.rows_emitted += rows_emitted;
        match end {
            ScanEnd::Completed => r.scans_completed += 1,
            ScanEnd::Failed => r.scans_failed += 1,
            ScanEnd::Cancelled => r.scans_cancelled += 1,
        }
    }
}

/// All mutable accounting, behind the service's metrics mutex.
#[derive(Default, Clone)]
pub(crate) struct Metrics {
    /// Per-tenant accumulators, keyed by tenant name.
    pub tenants: HashMap<Arc<str>, TenantAcc>,
    /// Admission rejections across all tenants.
    pub rejections: u64,
}

/// `[p50, p95]` of a wait sample, 0.0 when nothing was dispatched yet.
fn p50_p95(samples: &[f64]) -> [f64; 2] {
    [0.50, 0.95].map(|q| percentile(samples, q).unwrap_or(0.0))
}

impl Metrics {
    /// The per-tenant reports sorted by name, plus the service-wide
    /// `[logical p50, logical p95, seconds p50, seconds p95]` over every
    /// tenant's retained waits.
    pub fn snapshot(&self) -> (Vec<TenantReport>, [f64; 4]) {
        let (mut all_logical, mut all_seconds) = (Vec::new(), Vec::new());
        let mut tenants: Vec<TenantReport> = self
            .tenants
            .iter()
            .map(|(name, acc)| {
                all_logical.extend_from_slice(acc.wait_logical.samples());
                all_seconds.extend_from_slice(acc.wait_seconds.samples());
                let [queue_wait_logical_p50, queue_wait_logical_p95] =
                    p50_p95(acc.wait_logical.samples());
                let [queue_wait_p50, queue_wait_p95] = p50_p95(acc.wait_seconds.samples());
                TenantReport {
                    tenant: name.to_string(),
                    queue_wait_logical_p50,
                    queue_wait_logical_p95,
                    queue_wait_p50,
                    queue_wait_p95,
                    ..acc.report.clone()
                }
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let ([l50, l95], [s50, s95]) = (p50_p95(&all_logical), p50_p95(&all_seconds));
        (tenants, [l50, l95, s50, s95])
    }
}

/// One tenant's slice of the service's accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Scans admitted past admission control.
    pub scans_admitted: u64,
    /// Submissions rejected with `AdmissionRejected`.
    pub scans_rejected: u64,
    /// Scans drained to completion.
    pub scans_completed: u64,
    /// Scans that surfaced a typed error.
    pub scans_failed: u64,
    /// Scans cancelled (or dropped) before completion.
    pub scans_cancelled: u64,
    /// Row-group tasks dispatched to workers.
    pub tasks_dispatched: u64,
    /// Rows emitted to this tenant's consumers.
    pub rows_emitted: u64,
    /// Blocks received from another scan's in-flight decode (cross-scan
    /// single-flight).
    pub dedup_hits: u64,
    /// Blocks this tenant's scans decoded themselves.
    pub blocks_decoded: u64,
    /// Blocks this tenant's scans fetched from sources.
    pub blocks_fetched: u64,
    /// Predicate blocks evaluated in the compressed domain.
    pub blocks_pushdown_fast_path: u64,
    /// Decoded-block cache hits.
    pub cache_hits: u64,
    /// Decoded-block cache misses.
    pub cache_misses: u64,
    /// Median logical queue wait (tasks dispatched while queued).
    pub queue_wait_logical_p50: f64,
    /// 95th-percentile logical queue wait.
    pub queue_wait_logical_p95: f64,
    /// Median queue wait in real seconds.
    pub queue_wait_p50: f64,
    /// 95th-percentile queue wait in real seconds.
    pub queue_wait_p95: f64,
}

/// Service-wide accounting snapshot; see [`crate::ScanService::report`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceReport {
    /// Per-tenant breakdowns, sorted by tenant name.
    pub tenants: Vec<TenantReport>,
    /// Submissions rejected across all tenants.
    pub admission_rejections: u64,
    /// Cross-scan decode dedup hits across all tenants.
    pub dedup_hits: u64,
    /// Ranged span fetches issued by coalescing sources.
    pub spans_issued: u64,
    /// Extra blocks carried by those spans.
    pub coalesced_blocks: u64,
    /// Fetches served from staged span bodies (no store request).
    pub staged_hits: u64,
    /// Shared decoded-block cache counters.
    pub cache: CacheStats,
    /// Tasks enqueued and not yet emitted, at snapshot time.
    pub outstanding_tasks: u64,
    /// Estimated bytes behind those tasks.
    pub outstanding_bytes: u64,
    /// Service-wide median logical queue wait.
    pub queue_wait_logical_p50: f64,
    /// Service-wide 95th-percentile logical queue wait.
    pub queue_wait_logical_p95: f64,
    /// Service-wide median queue wait in real seconds.
    pub queue_wait_p50: f64,
    /// Service-wide 95th-percentile queue wait in real seconds.
    pub queue_wait_p95: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sorts_tenants_and_merges_waits() {
        let mut m = Metrics::default();
        for wait in [4, 8] {
            m.tenants.entry(Arc::from("b")).or_default().record_dispatch(wait, 0.0);
        }
        m.tenants.entry(Arc::from("a")).or_default().record_dispatch(2, 0.0);
        let (tenants, [logical_p50, logical_p95, ..]) = m.snapshot();
        assert_eq!(tenants[0].tenant, "a");
        assert_eq!(tenants[1].tenant, "b");
        assert_eq!((tenants[1].tasks_dispatched, tenants[1].queue_wait_logical_p95), (2, 8.0));
        assert_eq!((logical_p50, logical_p95), (4.0, 8.0));
    }

    #[test]
    fn a_long_lived_tenant_keeps_a_bounded_window_of_recent_waits() {
        let mut acc = TenantAcc::default();
        for d in 0..150_000u64 {
            acc.record_dispatch(d, d as f64 * 1e-6);
        }
        assert_eq!(acc.report.tasks_dispatched, 150_000);
        assert_eq!(acc.wait_logical.samples().len(), WAIT_SAMPLES);
        assert_eq!(acc.wait_seconds.samples().len(), WAIT_SAMPLES);
        // The window holds the newest dispatches, so percentiles follow the
        // tenant's current queueing rather than its lifetime average.
        let oldest_kept = (150_000 - WAIT_SAMPLES) as f64;
        assert!(acc.wait_logical.samples().iter().all(|&w| w >= oldest_kept));
    }
}
