//! Per-tenant and service-wide accounting.
//!
//! Reports answer the two questions a shared serving tier is always asked:
//! *is sharing paying off* (dedup hits, coalesced blocks, cache hit rate)
//! and *is sharing fair* (per-tenant queue-wait percentiles, admission
//! rejections). The executor accounts for what it did per tenant
//! ([`TenantStats`]); the service adds what admission decided.

use btr_scan::retry::percentile;
use btr_scan::{CacheStats, TenantStats};
use std::collections::HashMap;
use std::sync::Arc;

/// What admission control decided for one tenant — the part of its report
/// the service itself accounts for; the executor's [`TenantStats`] has the
/// rest.
#[derive(Clone, Copy, Default)]
pub(crate) struct Admissions {
    pub admitted: u64,
    pub rejected: u64,
}

/// `[p50, p95]` of a wait sample, 0.0 when nothing was dispatched yet.
fn p50_p95(samples: &[f64]) -> [f64; 2] {
    [0.50, 0.95].map(|q| percentile(samples, q).unwrap_or(0.0))
}

/// The per-tenant reports sorted by name — every tenant that ever submitted,
/// its admissions joined with what the executor did for it — plus the
/// service-wide `[logical p50, logical p95, seconds p50, seconds p95]` over
/// every tenant's retained waits.
pub(crate) fn tenant_reports(
    admissions: &HashMap<Arc<str>, Admissions>,
    executed: &[(Arc<str>, TenantStats)],
) -> (Vec<TenantReport>, [f64; 4]) {
    let (mut all_logical, mut all_seconds) = (Vec::new(), Vec::new());
    let idle = TenantStats::default();
    let mut tenants: Vec<TenantReport> = admissions
        .iter()
        .map(|(name, adm)| {
            let stats = executed.iter().find(|(t, _)| t == name).map_or(&idle, |(_, s)| s);
            all_logical.extend_from_slice(stats.wait_logical.samples());
            all_seconds.extend_from_slice(stats.wait_seconds.samples());
            let [queue_wait_logical_p50, queue_wait_logical_p95] =
                p50_p95(stats.wait_logical.samples());
            let [queue_wait_p50, queue_wait_p95] = p50_p95(stats.wait_seconds.samples());
            let c = &stats.counters;
            TenantReport {
                tenant: name.to_string(),
                scans_admitted: adm.admitted,
                scans_rejected: adm.rejected,
                scans_completed: stats.scans_completed,
                scans_failed: stats.scans_failed,
                scans_cancelled: stats.scans_cancelled,
                tasks_dispatched: stats.tasks_dispatched,
                rows_emitted: stats.rows_emitted,
                dedup_hits: c.dedup_hits,
                blocks_decoded: c.blocks_decoded,
                blocks_fetched: c.blocks_fetched,
                blocks_pushdown_fast_path: c.blocks_pushdown_fast_path,
                cache_hits: c.cache_hits,
                cache_misses: c.cache_misses,
                queue_wait_logical_p50,
                queue_wait_logical_p95,
                queue_wait_p50,
                queue_wait_p95,
            }
        })
        .collect();
    tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    let ([l50, l95], [s50, s95]) = (p50_p95(&all_logical), p50_p95(&all_seconds));
    (tenants, [l50, l95, s50, s95])
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
    fn reports_sort_tenants_join_admissions_and_merge_waits() {
        let waits = |logical: &[f64]| {
            let mut stats = TenantStats { tasks_dispatched: logical.len() as u64, ..Default::default() };
            logical.iter().for_each(|&w| stats.wait_logical.push(w));
            stats
        };
        let executed = [(Arc::from("b"), waits(&[4.0, 8.0])), (Arc::from("a"), waits(&[2.0]))];
        let mut admissions = HashMap::new();
        for (name, admitted, rejected) in [("b", 2, 0), ("a", 1, 0), ("refused", 0, 3)] {
            admissions.insert(Arc::from(name), Admissions { admitted, rejected });
        }
        let (tenants, [logical_p50, logical_p95, ..]) = tenant_reports(&admissions, &executed);
        let names: Vec<_> = tenants.iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(names, ["a", "b", "refused"]);
        assert_eq!((tenants[1].tasks_dispatched, tenants[1].queue_wait_logical_p95), (2, 8.0));
        assert_eq!((tenants[2].scans_rejected, tenants[2].tasks_dispatched), (3, 0));
        assert_eq!((logical_p50, logical_p95), (4.0, 8.0));
    }
}
