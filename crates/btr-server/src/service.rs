//! The service core: registration, admission, scan handles, the report.
//!
//! One [`ScanService`] owns the shared decoded-block cache, the cross-scan
//! [`DecodeGate`], one [`CoalescingSource`] per registered relation, and a
//! [`btr_scan::Executor`] — the same worker pool, deficit round-robin
//! scheduler and window rule [`btr_scan::ScanEngine`] runs on. Tenants
//! obtain [`ScanClient`] handles and submit [`ScanSpec`]s; `submit` plans
//! the scan over the relation's coalescing source, prices it
//! ([`ScanJob`]), and checks the two admission budgets (outstanding tasks,
//! outstanding estimated bytes) against the executor's gauges before
//! starting it. An admitted scan is a [`ScanHandle`] — the executor's
//! [`btr_scan::Scan`], whose lifecycle (dispatch, refill, what ending it
//! releases) is documented there.
//!
//! The `relations` and `metrics` maps are leaf locks, held alone.

use crate::coalesce::CoalescingSource;
use crate::metrics::{tenant_reports, Admissions, ServiceReport};
use crate::ServiceOptions;
use btr_scan::driver::prepare;
use btr_scan::{
    BlockCache, BlockSource, DecodeGate, Executor, ExecutorHandle, Result, ScanError, ScanJob,
    ScanSpec,
};
use btr_sync::{OrderedMutex, Rank};
use btrblocks::Sidecar;
use std::collections::HashMap;
use std::sync::Arc;

/// Lock ranks of the service layer (rows in `btr-lint.toml`'s
/// `[lock_order]` table): both are leaves held alone, ranked below the
/// executor and everything under it.
const RELATIONS_RANK: Rank = Rank::new(35, "server.relations");
const METRICS_RANK: Rank = Rank::new(38, "server.metrics");

/// A registered relation: its coalescing source plus zone-map sidecar.
struct Registered {
    source: Arc<CoalescingSource>,
    sidecar: Arc<Sidecar>,
}

/// Shared service state, behind one `Arc` held by the service and every
/// client.
struct Inner {
    options: ServiceOptions,
    cache: Arc<BlockCache>,
    gate: Arc<DecodeGate>,
    relations: OrderedMutex<HashMap<String, Registered>>,
    executor: ExecutorHandle,
    /// Admitted and rejected submissions per tenant.
    metrics: OrderedMutex<HashMap<Arc<str>, Admissions>>,
}

impl Inner {
    fn submit(&self, tenant: &Arc<str>, relation: &str, spec: &ScanSpec) -> Result<ScanHandle> {
        let (source, sidecar) = {
            let rels = self.relations.lock();
            let reg = rels
                .get(relation)
                .ok_or_else(|| ScanError::MissingObject(relation.to_string()))?;
            (reg.source.clone() as Arc<dyn BlockSource>, reg.sidecar.clone())
        };
        // The service streams projected batches; aggregate-only specs (legal
        // for the engine's aggregate driver) have nothing to stream.
        if spec.projection.is_empty() {
            return Err(ScanError::EmptyProjection);
        }
        // The deadline starts here, on the source's simulated clock; the
        // tenant tag flows through every fetch into per-tenant GET stats.
        let (plan, pipeline) = prepare(
            source,
            &sidecar,
            spec,
            self.cache.clone(),
            &self.options.config,
            self.options.window,
            Some(self.gate.clone()),
            Some(tenant.clone()),
        )?;
        let job = ScanJob::new(tenant.clone(), plan, pipeline);

        // Admission: an idle service always admits (so a scan larger than
        // the budgets can still run alone, and rejection is deterministic);
        // otherwise reject when the initial window would overflow either
        // budget. Tasks, then bytes — the cheaper check first.
        let (wanted_tasks, wanted_bytes) = job.initial_window();
        let (tasks, bytes) = self.executor.outstanding();
        let budgets = [
            ("task queue", tasks, wanted_tasks, self.options.queue_limit),
            ("byte budget", bytes, wanted_bytes, self.options.byte_budget),
        ];
        for (resource, queued, wanted, limit) in budgets {
            if wanted_tasks > 0 && queued > 0 && queued + wanted > limit {
                self.metrics.lock().entry(tenant.clone()).or_default().rejected += 1;
                return Err(ScanError::AdmissionRejected { resource, queued, limit });
            }
        }
        let handle = self.executor.start(job, spec.projection.clone(), self.options.batch_rows)?;
        self.metrics.lock().entry(tenant.clone()).or_default().admitted += 1;
        Ok(handle)
    }

    fn report(&self) -> ServiceReport {
        let (mut spans_issued, mut coalesced_blocks, mut staged_hits) = (0u64, 0u64, 0u64);
        for reg in self.relations.lock().values() {
            let s = reg.source.stats();
            spans_issued += s.spans_issued;
            coalesced_blocks += s.coalesced_blocks;
            staged_hits += s.staged_hits;
        }
        let stats = self.executor.stats();
        // Copy out under the lock, sort and rank outside it.
        let admissions = self.metrics.lock().clone();
        let (tenants, [logical_p50, logical_p95, seconds_p50, seconds_p95]) =
            tenant_reports(&admissions, &stats.tenants);
        ServiceReport {
            admission_rejections: tenants.iter().map(|t| t.scans_rejected).sum(),
            dedup_hits: tenants.iter().map(|t| t.dedup_hits).sum::<u64>() + stats.live.dedup_hits,
            tenants,
            spans_issued,
            coalesced_blocks,
            staged_hits,
            cache: self.cache.stats(),
            outstanding_tasks: stats.outstanding_tasks,
            outstanding_bytes: stats.outstanding_bytes,
            queue_wait_logical_p50: logical_p50,
            queue_wait_logical_p95: logical_p95,
            queue_wait_p50: seconds_p50,
            queue_wait_p95: seconds_p95,
        }
    }
}

/// The service; see the module docs. Dropping it shuts the worker pool down;
/// scans still draining end with [`ScanError::Shutdown`], and so does any
/// later submit through a surviving [`ScanClient`].
pub struct ScanService {
    inner: Arc<Inner>,
    _executor: Executor,
}

impl ScanService {
    /// Starts a service with `options.workers` dispatch threads.
    pub fn new(options: ServiceOptions) -> ScanService {
        let executor = Executor::new(options.workers, options.quantum_bytes);
        let inner = Arc::new(Inner {
            cache: Arc::new(BlockCache::new(options.cache_bytes)),
            options,
            gate: Arc::new(DecodeGate::new()),
            relations: OrderedMutex::new(RELATIONS_RANK, HashMap::new()),
            executor: executor.handle().clone(),
            metrics: OrderedMutex::new(METRICS_RANK, HashMap::new()),
        });
        ScanService { inner, _executor: executor }
    }

    /// Registers a relation under `name`, wrapping its source for ranged-GET
    /// coalescing. Re-registering a name replaces the previous source.
    pub fn register(
        &self,
        name: impl Into<String>,
        source: Arc<dyn BlockSource>,
        sidecar: Sidecar,
    ) {
        let wrapped = Arc::new(CoalescingSource::new(
            source,
            self.inner.cache.clone(),
            self.inner.options.coalesce_window,
        ));
        self.inner.relations.lock().insert(
            name.into(),
            Registered {
                source: wrapped,
                sidecar: Arc::new(sidecar),
            },
        );
    }

    /// A submission handle for `tenant`; cheap to clone and thread-safe.
    pub fn client(&self, tenant: impl Into<String>) -> ScanClient {
        ScanClient {
            inner: self.inner.clone(),
            tenant: Arc::from(tenant.into()),
        }
    }

    /// The shared decoded-block cache.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.inner.cache
    }

    /// Service-wide and per-tenant accounting. Tenant breakdowns cover
    /// finished scans; the service-wide dedup count also includes scans
    /// still draining.
    pub fn report(&self) -> ServiceReport {
        self.inner.report()
    }
}

/// A tenant's submission handle.
#[derive(Clone)]
pub struct ScanClient {
    inner: Arc<Inner>,
    tenant: Arc<str>,
}

impl ScanClient {
    /// Submits a scan of `relation`. Fails with
    /// [`ScanError::AdmissionRejected`] when the service's shared budgets
    /// are full of outstanding work — back off and resubmit — and with
    /// [`ScanError::MissingObject`] for an unregistered relation.
    pub fn submit(&self, relation: &str, spec: &ScanSpec) -> Result<ScanHandle> {
        self.inner.submit(&self.tenant, relation, spec)
    }

    /// This client's tenant name.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }
}

/// A running service scan: the executor's [`btr_scan::Scan`], the same type
/// [`btr_scan::ScanEngine::scan`] returns (`cancel`, `rows_matched`,
/// `batches`, `report`). Dropping the handle early cancels the scan.
pub type ScanHandle = btr_scan::Scan;

#[cfg(test)]
mod tests {
    use super::*;
    use btr_scan::chaos::build_relation;
    use btr_scan::MemorySource;
    use btrblocks::Config;

    /// A scan ended by the service going away is a failure, not a short
    /// answer: the handle surfaces exactly one typed error, the scan folds as
    /// failed, and a client that outlived the service cannot start another.
    #[test]
    fn dropping_the_service_fails_running_scans_instead_of_truncating_them() {
        let config = Config { block_size: 1_000, ..Config::default() };
        let relation = build_relation(64_000); // 64 row groups
        let compressed = Arc::new(btrblocks::compress(&relation, &config).expect("compress"));
        let sidecar = Sidecar::build(&relation, config.block_size);
        let options = ServiceOptions { workers: 1, window: 2, batch_rows: 100, config, ..Default::default() };
        let service = ScanService::new(options);
        service.register("rel", Arc::new(MemorySource::new("rel", compressed)), sidecar);
        let client = service.client("t");
        let spec = ScanSpec::project(["id"]);
        let mut handle = client.submit("rel", &spec).expect("submit");
        assert_eq!(handle.next().expect("first batch").expect("batch ok").rows(), 100);

        let inner = service.inner.clone();
        drop(service);
        let rest: Vec<_> = handle.by_ref().collect();
        assert_eq!(rest.iter().filter(|b| b.is_err()).count(), 1);
        assert_eq!(rest.last(), Some(&Err(ScanError::Shutdown)), "nothing follows the error");
        assert!(handle.rows_matched() < 64_000);
        assert!(matches!(client.submit("rel", &spec), Err(ScanError::Shutdown)));

        let report = inner.report();
        let tenant = &report.tenants[0];
        assert_eq!((tenant.scans_failed, tenant.scans_completed, tenant.scans_cancelled), (1, 0, 0));
        assert_eq!((report.outstanding_tasks, report.outstanding_bytes), (0, 0));
    }
}
