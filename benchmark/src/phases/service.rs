//! The `service` phase: `ScanService` (2 workers, an 8 MB decoded-block
//! cache) serving two tenants from two closed-loop client threads. Closed
//! loop because `ScanHandle` is a blocking iterator: each caller waits for
//! its reply before sending the next scan, so a slower service is offered
//! less load. Two clients on a 2-core host is also all the load generator
//! the host can carry without stealing the service's cores.

use crate::data::{Prepared, Query, COLD, HOT};
use crate::oracle::{evaluate, Digest};
use crate::phases::scan::TracedSource;
use crate::stats::{median, median_call_s, percentile};
use crate::trace::{self, span, ByRequest};
use crate::{Load, Metrics, Tally};
use btr_corrupt::rng::Xorshift;
use btr_scan::{BlockSource, RecordBatch, ScanSpec};
use btr_server::{ScanService, ServiceOptions, ServiceReport};
use btr_sync::morsel::{Granularity, MorselDispenser, WorkerStats};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Far smaller than the 50 MB of decoded columns the mix touches over its
/// two relations, so eviction and refetch run all the time. The cache has 8
/// shards and refuses a value above an eighth of its budget, so at 8 MB the
/// numeric blocks (256 to 512 KB) cycle through it and the 2 to 3 MB string
/// blocks are never kept. The issue's 32 MB put this mix on the LRU cliff: one
/// string block a shard, tenant `a`'s median flipping between 0.7 and 3 ms
/// with the race between the tenants, and `svc_scans_per_s` scattering +-16 %
/// from run to run on one seed; at 8 MB the same runs scatter +-5 %.
const SERVICE_CACHE_BYTES: usize = 8 << 20;
/// Distinct seeded 1 % key windows the point queries draw from.
const POINT_WINDOWS: usize = 64;

/// A prepared scan and the digest a correct reply has.
struct Request {
    spec: ScanSpec,
    expected: Digest,
}

impl Request {
    fn new(p: &Prepared, query: Query) -> Request {
        Request {
            spec: query.spec(),
            expected: evaluate(&p.relation, &query).digest,
        }
    }
}

/// One closed-loop client: its tenant, its share of full scans, its seeded
/// choice sequence, and what it has measured so far.
struct Client {
    tenant: &'static str,
    full_share: f64,
    rng: Xorshift,
    point: Vec<f64>,
    full: Vec<f64>,
    requests: Vec<u64>,
    failed: u64,
}

impl Client {
    fn new(tenant: &'static str, full_share: f64, seed: u64) -> Client {
        Client {
            tenant,
            full_share,
            rng: Xorshift::seed_from_u64(seed),
            point: Vec::new(),
            full: Vec::new(),
            requests: Vec::new(),
            failed: 0,
        }
    }

    /// Sends scans one after another until `deadline` (and at least
    /// `min_scans`), each only after the previous reply was drained.
    fn drive(
        &mut self,
        service: &ScanService,
        points: &[Request],
        full: &Request,
        deadline: Instant,
        min_scans: usize,
    ) {
        let client = service.client(self.tenant);
        let target = self.requests.len() + min_scans;
        while self.requests.len() < target || Instant::now() < deadline {
            let relation = if self.rng.gen_bool(0.8) { HOT } else { COLD };
            let is_full = self.rng.gen_bool(self.full_share);
            let request = if is_full {
                full
            } else {
                &points[self.rng.gen_range(0..points.len())]
            };
            self.requests.push(trace::begin_request());
            let start = Instant::now();
            let handle = {
                let _s = span("submit");
                client.submit(relation, &request.spec)
            };
            let batches = handle.and_then(|handle| {
                let _s = span("drain");
                handle.collect::<Result<Vec<RecordBatch>, _>>()
            });
            let latency = start.elapsed().as_secs_f64();
            // An error, a wrong reply and an admission rejection all count as
            // failed, and a failed scan contributes no latency sample.
            match batches {
                Ok(batches) if Digest::of_batches(&batches) == request.expected => {
                    if is_full {
                        &mut self.full
                    } else {
                        &mut self.point
                    }
                    .push(latency);
                }
                _ => self.failed += 1,
            }
        }
    }
}

/// A running service with its two tenants. Tenant `a` sends only point
/// queries; tenant `b` 90 % point queries and 10 % 3-column full scans. Both
/// pick the `hot` relation 80 % of the time.
pub struct ServiceLoad<'a> {
    p: &'a Prepared,
    service: ScanService,
    points: Vec<Request>,
    full: Request,
    a: Client,
    b: Client,
    gets_before: u64,
    /// Scans per second of each slice so far.
    slice_rates: Vec<f64>,
    /// Seconds of load one [`Load::step`] applies.
    slice_s: f64,
}

impl<'a> ServiceLoad<'a> {
    pub fn start(p: &'a Prepared, seed: u64, slice_s: f64) -> ServiceLoad<'a> {
        let mut rng = Xorshift::seed_from_u64(seed ^ 0x5E7C);
        let points = (0..POINT_WINDOWS)
            .map(|_| Request::new(p, p.svc_point(rng.next_f64())))
            .collect();
        let service = ScanService::new(ServiceOptions {
            workers: 2,
            cache_bytes: SERVICE_CACHE_BYTES,
            config: p.cfg.clone(),
            ..ServiceOptions::default()
        });
        for key in [HOT, COLD] {
            let source: Arc<dyn BlockSource> = Arc::new(TracedSource(p.source(key)));
            service.register(key, source, p.sidecar.clone());
        }
        ServiceLoad {
            p,
            service,
            points,
            full: Request::new(p, p.svc_full()),
            a: Client::new("a", 0.0, seed ^ 0xA),
            b: Client::new("b", 0.1, seed ^ 0xB),
            gets_before: p.store.counters().ranged_get_requests,
            slice_rates: Vec::new(),
            slice_s,
        }
    }

    /// What the service has done since [`ServiceLoad::start`].
    pub fn outcome(&self) -> Outcome {
        Outcome {
            scans_per_s: median(&self.slice_rates),
            a_point: self.a.point.clone(),
            b_point: self.b.point.clone(),
            b_full: self.b.full.clone(),
            requests: self
                .a
                .requests
                .iter()
                .chain(&self.b.requests)
                .copied()
                .collect(),
            report: self.service.report(),
            store_gets: self.p.store.counters().ranged_get_requests - self.gets_before,
        }
    }
}

impl Load for ServiceLoad<'_> {
    /// Both clients drive the service for one slice; the service, its cache
    /// and the clients' sequences carry over from slice to slice.
    fn step(&mut self, tally: &mut Tally) {
        let before = (
            self.a.requests.len() + self.b.requests.len(),
            self.a.failed + self.b.failed,
        );
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(self.slice_s);
        let (service, points, full) = (&self.service, &self.points, &self.full);
        let (a, b) = (&mut self.a, &mut self.b);
        std::thread::scope(|scope| {
            let a = scope.spawn(move || a.drive(service, points, full, deadline, 10));
            let b = scope.spawn(move || b.drive(service, points, full, deadline, 10));
            a.join().expect("client a panicked");
            b.join().expect("client b panicked");
        });
        let wall_s = start.elapsed().as_secs_f64();
        let after = (
            self.a.requests.len() + self.b.requests.len(),
            self.a.failed + self.b.failed,
        );
        self.slice_rates.push((after.0 - before.0) as f64 / wall_s);
        tally.add((after.0 - before.0) as u64, after.1 - before.1);
    }

    fn finish(&self, m: &mut Metrics) {
        let out = self.outcome();
        m.put("svc_scans_per_s", out.scans_per_s);
        m.put(
            "svc_point_p95_ms",
            percentile_or_nan(&out.a_point, 0.95) * 1e3,
        );
        m.put("svc_full_p50_ms", percentile_or_nan(&out.b_full, 0.5) * 1e3);
        m.note_samples("svc_slices", self.slice_rates.len());
        m.note_samples("svc_scans", out.requests.len());
        m.note_samples("svc_a_points", out.a_point.len());
        m.note_samples("svc_b_fulls", out.b_full.len());
    }
}

/// What a service run measured.
pub struct Outcome {
    /// Completed scans per second, both tenants: the median over slices.
    pub scans_per_s: f64,
    pub a_point: Vec<f64>,
    pub b_point: Vec<f64>,
    pub b_full: Vec<f64>,
    pub requests: Vec<u64>,
    pub report: ServiceReport,
    pub store_gets: u64,
}

/// One fresh service under the two-tenant mix for `seconds`.
fn run(p: &Prepared, seed: u64, seconds: f64, tally: &mut Tally) -> Outcome {
    let mut load = ServiceLoad::start(p, seed, seconds);
    load.step(tally);
    load.outcome()
}

/// A run in which every scan of a kind failed has no latency to report; NaN
/// makes the result line say so instead of inventing a number.
fn percentile_or_nan(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        percentile(samples, q)
    }
}

/// Per-layer service metrics. Returns the mean seconds per scan with tracing
/// off and on.
pub fn traced(
    p: &Prepared,
    seed: u64,
    seconds: f64,
    m: &mut Metrics,
    tally: &mut Tally,
) -> (f64, f64) {
    trace::set_enabled(false);
    let off = run(p, seed, seconds * 0.4, tally);
    trace::set_enabled(true);
    let on = run(p, seed, seconds * 0.55, tally);
    trace::set_enabled(false);
    let spans = ByRequest::new(&trace::recent());
    let r = &on.report;
    m.put(
        "btr-server.submit_us",
        median(&spans.total_s(&on.requests, "submit")) * 1e6,
    );
    m.put("btr-server.queue_wait_p50_us", r.queue_wait_p50 * 1e6);
    m.put("btr-server.queue_wait_p95_us", r.queue_wait_p95 * 1e6);
    m.put("btr-server.dedup_hits", r.dedup_hits as f64);
    m.put(
        "btr-server.coalesced_get_ratio",
        r.staged_hits as f64 / (r.staged_hits + on.store_gets).max(1) as f64,
    );
    m.put("btr-server.store_gets", on.store_gets as f64);
    m.put("btr-server.cache_hit_rate", r.cache.hit_rate());
    m.put("btr-server.cache_evictions", r.cache.evictions as f64);
    m.put(
        "btr-server.admission_rejections",
        r.admission_rejections as f64,
    );
    m.put(
        "btr-server.point_p50_ms",
        percentile_or_nan(&on.a_point, 0.5) * 1e3,
    );
    m.put(
        "btr-server.point_p99_ms",
        percentile_or_nan(&on.a_point, 0.99) * 1e3,
    );
    m.put(
        "btr-server.tenant_b_over_a_point_p95",
        percentile_or_nan(&on.b_point, 0.95) / percentile_or_nan(&on.a_point, 0.95),
    );

    const ITEMS: usize = 1 << 16;
    let costs = vec![1u64; ITEMS];
    let claim = median_call_s(seconds * 0.02, 3, || {
        let dispenser = MorselDispenser::new(&costs, Granularity::single_item(), 1);
        let mut stats = WorkerStats::default();
        while let Some(morsel) = dispenser.claim(&mut stats) {
            black_box(morsel);
        }
    });
    m.put("btr-sync.morsel_claim_ns", claim * 1e9 / ITEMS as f64);
    // Two closed-loop clients: a scan takes 2 / (scans per second) of a client.
    (2.0 / off.scans_per_s, 2.0 / on.scans_per_s)
}
