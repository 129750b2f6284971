//! A simulated cloud object store with the paper's cost model (§6.7) and
//! deterministic fault injection.
//!
//! The end-to-end experiments (Figure 1, Table 5) ran on a c5n.18xlarge
//! instance scanning S3 over 100 Gbit/s networking. This crate substitutes a
//! deterministic simulation for that testbed:
//!
//! * [`ObjectStore`] — an in-memory keyed blob store with ranged GETs and a
//!   16 MB chunking helper (the request size AWS' performance guidelines
//!   recommend and the paper uses). Exactly one read goes through the fault
//!   plan: [`ObjectStore::get_range_timed_as`], the ranged GET a scan
//!   issues, which reports its simulated latency instead of sleeping.
//! * [`FaultPlan`] — deterministic injected failures: transient GET errors,
//!   truncated responses, corrupted payloads, partial bodies and latency
//!   spikes, all decided by a seeded hash of `(key, range, attempt)` so
//!   every run of a simulation sees the same faults.
//! * [`CostModel`] — the paper's pricing: $3.89/h for the instance,
//!   $0.0004 per 1 000 GET requests, 100 Gbit/s of aggregate network
//!   bandwidth, and a per-request first-byte latency hidden by concurrency.
//! * [`ScanStats`] — what one scan moved and how long it took, the input
//!   [`CostModel::scan_cost_usd`] prices. The store never drives a scan
//!   itself: `btr_scan`'s executor fetches through `ObjectStoreSource`, and
//!   its `ScanReport` (requests, bytes, decode and backoff seconds) is what a
//!   caller turns into a [`ScanStats`].
//!
//! The store owns no time and no retry policy: the simulated clock,
//! deadlines, retry budgets and [`RetryPolicy`] live in `btr_sync`, and the
//! retry loop in btr-scan's object-store source.
//!
//! The simulation preserves exactly the trade-off the paper measures: a
//! denser format moves fewer bytes (less network time) but may burn more CPU
//! per byte; scans are network-bound only while `T_c` — decompression
//! throughput in *compressed* bytes — exceeds the wire speed.

// Re-exported where the benchmark, the examples and the end-to-end tests
// import it from, next to the store they configure a source over.
pub use btr_sync::RetryPolicy;

use btr_corrupt::rng::Xorshift;
use std::collections::HashMap;
use btr_sync::{OrderedRwLock, Rank};
use std::sync::Arc;

/// Default chunk size for multi-part objects: 16 MB (paper §6.7).
pub const DEFAULT_CHUNK: usize = 16 * 1024 * 1024;

/// Pricing and physics of the simulated cloud (defaults = paper's setup).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Instance price in dollars per hour (c5n.18xlarge: $3.89).
    pub instance_usd_per_hour: f64,
    /// GET request price per 1 000 requests ($0.0004).
    pub usd_per_1000_gets: f64,
    /// Aggregate network bandwidth in gigabits per second (100).
    pub network_gbps: f64,
    /// First-byte latency per GET in milliseconds (S3-typical ~30 ms).
    pub first_byte_latency_ms: f64,
    /// Concurrent in-flight requests (the paper maps threads to chunks 1:1).
    pub concurrent_requests: usize,
    /// Simulated decompression cores (c5n.18xlarge: 36, HT disabled).
    pub cores: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            instance_usd_per_hour: 3.89,
            usd_per_1000_gets: 0.0004,
            network_gbps: 100.0,
            first_byte_latency_ms: 30.0,
            concurrent_requests: 72,
            cores: 36,
        }
    }
}

/// What the fault plan decided for one GET attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// The request succeeds untouched.
    None,
    /// The request fails outright (HTTP 5xx / connection reset).
    Transient,
    /// The response body is cut short at the given byte length.
    Truncate(usize),
    /// One bit of the response body is flipped at the given byte offset.
    CorruptBit { offset: usize, bit: u8 },
    /// The connection dies mid-body after `got` bytes; unlike
    /// [`Fault::Truncate`] the client *notices* (content-length mismatch)
    /// and gets a typed error instead of silently short bytes.
    Partial { got: usize },
    /// The response is delayed by `ms` of simulated latency; with a request
    /// timeout configured it may become a [`GetError::TimedOut`].
    Spike { ms: u32 },
}

/// Deterministic fault injection for an [`ObjectStore`].
///
/// Each GET attempt for a key draws once from a seeded hash of
/// `(seed, key, attempt)`; rerunning the same simulation reproduces the same
/// faults. After `max_faults_per_key` attempts a key always succeeds, so any
/// retry policy allowing that many attempts is guaranteed to converge —
/// the deterministic analogue of "transient" faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the per-attempt fault draw.
    pub seed: u64,
    /// Probability a GET fails outright.
    pub transient_rate: f64,
    /// Probability a GET returns a truncated body.
    pub truncate_rate: f64,
    /// Probability a GET returns a body with one bit flipped.
    pub corrupt_rate: f64,
    /// Probability a GET dies mid-body with a typed
    /// [`GetError::PartialBody`].
    pub partial_rate: f64,
    /// Probability a GET is hit by a latency spike.
    pub latency_spike_rate: f64,
    /// Peak spike latency in milliseconds; each spike draws a duration in
    /// `[latency_spike_ms / 2, latency_spike_ms]` deterministically.
    pub latency_spike_ms: u32,
    /// Request timeout in milliseconds; `0` disables timeouts. A request
    /// whose total latency reaches the timeout returns
    /// [`GetError::TimedOut`].
    pub request_timeout_ms: u32,
    /// Base latency of every faulted ranged GET in milliseconds (first-byte
    /// latency; hedging decisions key off it).
    pub base_latency_ms: u32,
    /// Attempts per key after which GETs are always clean.
    pub max_faults_per_key: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0x5EED,
            transient_rate: 0.0,
            truncate_rate: 0.0,
            corrupt_rate: 0.0,
            partial_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike_ms: 2_000,
            request_timeout_ms: 0,
            base_latency_ms: 0,
            max_faults_per_key: 3,
        }
    }
}

impl FaultPlan {
    /// A plan injecting only transient GET failures at `rate`.
    pub fn transient(rate: f64, seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: rate,
            ..FaultPlan::default()
        }
    }

    fn draw(&self, key: &str, attempt: u32, body_len: usize) -> Fault {
        // Convergence looks at the low bits only: a hedged request carries
        // HEDGE_ATTEMPT_SALT in the high bits so it draws *independent*
        // faults from the primary, yet still goes clean once the per-key
        // fault window is spent.
        if (attempt & 0xFFFF) >= self.max_faults_per_key {
            return Fault::None;
        }
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(attempt) + 1);
        for b in key.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        let mut rng = Xorshift::new(h);
        let roll = rng.next_f64();
        let mut cum = self.transient_rate;
        if roll < cum {
            return Fault::Transient;
        }
        cum += self.truncate_rate;
        if roll < cum && body_len > 0 {
            return Fault::Truncate(rng.gen_range(0..body_len));
        }
        cum += self.corrupt_rate;
        if roll < cum && body_len > 0 {
            return Fault::CorruptBit {
                offset: rng.gen_range(0..body_len),
                bit: rng.gen_range(0u8..8),
            };
        }
        cum += self.partial_rate;
        if roll < cum && body_len > 0 {
            return Fault::Partial {
                got: rng.gen_range(0..body_len),
            };
        }
        cum += self.latency_spike_rate;
        if roll < cum && self.latency_spike_ms > 0 {
            return Fault::Spike {
                ms: rng.gen_range(self.latency_spike_ms / 2..=self.latency_spike_ms),
            };
        }
        Fault::None
    }
}

/// Attempt-counter salt for hedged requests: a hedge for attempt `n` draws
/// faults as attempt `n | HEDGE_ATTEMPT_SALT`, giving it an independent
/// fault outcome from the primary request while [`FaultPlan`]'s convergence
/// window (which masks the salt off) still applies.
pub const HEDGE_ATTEMPT_SALT: u32 = 1 << 20;

/// Error from a faulted GET.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GetError {
    /// No object under that key.
    NotFound,
    /// Injected transient failure; retrying may succeed.
    Transient,
    /// The request exceeded the plan's timeout (latency spike).
    TimedOut {
        /// The timeout that fired, in milliseconds.
        after_ms: u32,
    },
    /// The connection died mid-body: `got` of `expected` bytes arrived.
    PartialBody {
        /// Bytes received before the connection died.
        got: usize,
        /// Bytes the range/object should have produced.
        expected: usize,
    },
}

impl GetError {
    /// Whether retrying the request could plausibly succeed. This is the
    /// single place GET errors are classified as retryable vs permanent;
    /// btr-scan's object-store source defers to it.
    pub fn is_retryable(&self) -> bool {
        match self {
            GetError::NotFound => false,
            GetError::Transient | GetError::TimedOut { .. } | GetError::PartialBody { .. } => true,
        }
    }
}

impl std::fmt::Display for GetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GetError::NotFound => write!(f, "object not found"),
            GetError::Transient => write!(f, "transient request failure"),
            GetError::TimedOut { after_ms } => write!(f, "request timed out after {after_ms} ms"),
            GetError::PartialBody { got, expected } => {
                write!(f, "partial body: {got} of {expected} bytes")
            }
        }
    }
}

impl std::error::Error for GetError {}

/// Outcome of a faulted ranged GET: what came back and how long the
/// request took in simulated time. Latency is reported, never slept —
/// callers charge it to their [`btr_sync::SimClock`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedGet {
    /// The response body or typed error.
    pub outcome: Result<Vec<u8>, GetError>,
    /// Simulated request latency in milliseconds (base latency plus any
    /// injected spike, capped at the timeout when one fires).
    pub latency_ms: u32,
}

impl TimedGet {
    /// Request latency in simulated seconds.
    pub fn latency_seconds(&self) -> f64 {
        f64::from(self.latency_ms) / 1e3
    }
}

/// Request accounting for an [`ObjectStore`] — how many GETs of each kind
/// were served and how many body bytes went over the (simulated) wire.
///
/// Whole-object and ranged GETs are counted separately because they are
/// priced identically per request but move very different byte volumes: a
/// selective scan that prunes most blocks should show many small ranged GETs
/// and a fraction of the object's bytes, which is exactly what
/// [`CostModel::network_seconds`] needs to price it correctly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GetStats {
    /// Whole-object GET requests served (including faulted attempts).
    pub get_requests: u64,
    /// Ranged GET requests served (including faulted attempts).
    pub ranged_get_requests: u64,
    /// Body bytes served across all requests (after truncation faults).
    pub bytes_served: u64,
}

impl GetStats {
    /// Total requests of both kinds.
    pub fn requests(&self) -> u64 {
        self.get_requests + self.ranged_get_requests
    }
}

/// Lock ranks for the store's leaves of the workspace hierarchy (DESIGN.md
/// §15; the table lives in btr-lint.toml's `[lock_order]` section). Store
/// locks are only ever taken with scan/service locks already released, so
/// they rank above every consumer.
const S3_OBJECTS_RANK: Rank = Rank::new(130, "s3.objects");
const S3_FAULT_PLAN_RANK: Rank = Rank::new(132, "s3.fault_plan");
const S3_TENANTS_RANK: Rank = Rank::new(134, "s3.tenants");

/// An in-memory object store.
pub struct ObjectStore {
    objects: OrderedRwLock<HashMap<String, Arc<Vec<u8>>>>,
    fault_plan: OrderedRwLock<Option<FaultPlan>>,
    get_requests: std::sync::atomic::AtomicU64,
    ranged_get_requests: std::sync::atomic::AtomicU64,
    bytes_served: std::sync::atomic::AtomicU64,
    tenant_stats: OrderedRwLock<HashMap<String, GetStats>>,
}

impl Default for ObjectStore {
    fn default() -> ObjectStore {
        ObjectStore::new()
    }
}

impl ObjectStore {
    /// Creates an empty store. The locks recover from poisoning (btr-sync's
    /// built-in behavior): the maps are never left half-modified by our
    /// operations, so a panicking writer cannot corrupt them.
    pub fn new() -> Self {
        ObjectStore {
            objects: OrderedRwLock::new(S3_OBJECTS_RANK, HashMap::new()),
            fault_plan: OrderedRwLock::new(S3_FAULT_PLAN_RANK, None),
            get_requests: std::sync::atomic::AtomicU64::new(0),
            ranged_get_requests: std::sync::atomic::AtomicU64::new(0),
            bytes_served: std::sync::atomic::AtomicU64::new(0),
            tenant_stats: OrderedRwLock::new(S3_TENANTS_RANK, HashMap::new()),
        }
    }

    /// Installs (or clears) the fault plan consulted by
    /// [`ObjectStore::get_range_timed_as`].
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.fault_plan.write() = plan;
    }

    /// Stores one object.
    pub fn put(&self, key: impl Into<String>, bytes: Vec<u8>) {
        self.objects.write().insert(key.into(), Arc::new(bytes));
    }

    /// Splits `bytes` into `chunk_size` parts stored as `key/part-N`,
    /// returning the part keys. Mirrors uploading a dataset as 16 MB chunks.
    pub fn put_chunked(&self, key: &str, bytes: &[u8], chunk_size: usize) -> Vec<String> {
        let chunk = chunk_size.max(1);
        let mut keys = Vec::new();
        if bytes.is_empty() {
            let part = format!("{key}/part-0");
            self.put(part.clone(), Vec::new());
            keys.push(part);
            return keys;
        }
        for (i, c) in bytes.chunks(chunk).enumerate() {
            let part = format!("{key}/part-{i}");
            self.put(part.clone(), c.to_vec());
            keys.push(part);
        }
        keys
    }

    /// Looks an object up without touching the request counters.
    fn lookup(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        self.objects.read().get(key).cloned()
    }

    /// Bytes a response actually moved over the wire: full bodies for
    /// successes, the received prefix for partial reads, nothing otherwise.
    fn billed_bytes(outcome: &Result<Vec<u8>, GetError>) -> usize {
        match outcome {
            Ok(body) => body.len(),
            Err(GetError::PartialBody { got, .. }) => *got,
            Err(_) => 0,
        }
    }

    /// Bills one request to the global counters and, when `tenant` is
    /// `Some`, to that tenant's breakdown too.
    fn account(&self, ranged: bool, bytes: usize, tenant: Option<&str>) {
        // ordering: request counters are pure statistics, read after the
        // calls that bump them have returned
        use std::sync::atomic::Ordering::Relaxed;
        if ranged {
            self.ranged_get_requests.fetch_add(1, Relaxed);
        } else {
            self.get_requests.fetch_add(1, Relaxed);
        }
        self.bytes_served.fetch_add(bytes as u64, Relaxed);
        let Some(tenant) = tenant else { return };
        let mut map = self.tenant_stats.write();
        let stats = map.entry(tenant.to_string()).or_default();
        if ranged {
            stats.ranged_get_requests += 1;
        } else {
            stats.get_requests += 1;
        }
        stats.bytes_served += bytes as u64;
    }

    /// Request counters accumulated since creation (or the last
    /// [`ObjectStore::reset_counters`]).
    pub fn counters(&self) -> GetStats {
        // ordering: statistics snapshot; tests serialize with the requests
        // they count via join/return, not via these loads
        use std::sync::atomic::Ordering::Relaxed;
        GetStats {
            get_requests: self.get_requests.load(Relaxed),
            ranged_get_requests: self.ranged_get_requests.load(Relaxed),
            bytes_served: self.bytes_served.load(Relaxed),
        }
    }

    /// Zeroes the request counters and the per-tenant breakdown.
    pub fn reset_counters(&self) {
        // ordering: counter reset is advisory; callers quiesce requests first
        use std::sync::atomic::Ordering::Relaxed;
        self.get_requests.store(0, Relaxed);
        self.ranged_get_requests.store(0, Relaxed);
        self.bytes_served.store(0, Relaxed);
        self.tenant_stats.write().clear();
    }

    /// Request counters attributed to one tenant via
    /// [`ObjectStore::get_range_timed_as`]. Unknown tenants read as zero.
    pub fn tenant_counters(&self, tenant: &str) -> GetStats {
        self.tenant_stats
            .read()
            .get(tenant)
            .copied()
            .unwrap_or_default()
    }

    /// Tenants that have issued attributed requests, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenant_stats.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Fetches a whole object, bypassing fault injection.
    pub fn get(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        let obj = self.lookup(key)?;
        self.account(false, obj.len(), None);
        Some(obj)
    }

    /// Fetches a byte range of an object (an HTTP range GET).
    pub fn get_range(&self, key: &str, start: usize, len: usize) -> Option<Vec<u8>> {
        let obj = self.lookup(key)?;
        let end = start.checked_add(len)?;
        if end > obj.len() {
            return None;
        }
        self.account(true, len, None);
        Some(obj[start..end].to_vec())
    }

    /// Fetches a byte range through the fault plan — the one faulted read,
    /// the path fault-aware scanners use. `attempt` is the zero-based retry
    /// counter; faults draw on `(key, range, attempt)`, so the same request
    /// always produces the same outcome and different ranges of one object
    /// fail independently — exactly how real per-request faults behave.
    /// Truncation and corruption apply within the returned range body; a
    /// missing key or out-of-bounds range is [`GetError::NotFound`].
    ///
    /// The latency is the plan's base latency plus any injected spike; when
    /// a spike pushes it to the plan's `request_timeout_ms` the outcome
    /// becomes [`GetError::TimedOut`] and the latency is capped at the
    /// timeout (the client stops waiting). Nothing sleeps: callers advance
    /// their [`btr_sync::SimClock`] by the reported latency.
    ///
    /// The global counters always advance; when `tenant` is `Some` the same
    /// deltas land in that tenant's [`GetStats`] (read back via
    /// [`ObjectStore::tenant_counters`]).
    pub fn get_range_timed_as(
        &self,
        key: &str,
        start: usize,
        len: usize,
        attempt: u32,
        tenant: Option<&str>,
    ) -> TimedGet {
        let Some(obj) = self.lookup(key) else {
            return TimedGet {
                outcome: Err(GetError::NotFound),
                latency_ms: 0,
            };
        };
        let Some(end) = start.checked_add(len).filter(|&e| e <= obj.len()) else {
            return TimedGet {
                outcome: Err(GetError::NotFound),
                latency_ms: 0,
            };
        };
        let plan = self.fault_plan.read();
        let (fault, base_ms, timeout_ms) = plan.as_ref().map_or((Fault::None, 0, 0), |p| {
            (
                p.draw(&format!("{key}[{start}+{len}]"), attempt, len),
                p.base_latency_ms,
                p.request_timeout_ms,
            )
        });
        drop(plan);
        let body = &obj[start..end];
        let mut latency_ms = base_ms;
        let outcome = match fault {
            Fault::None => Ok(body.to_vec()),
            Fault::Spike { ms } => {
                latency_ms = latency_ms.saturating_add(ms);
                if timeout_ms > 0 && latency_ms >= timeout_ms {
                    latency_ms = timeout_ms;
                    Err(GetError::TimedOut { after_ms: timeout_ms })
                } else {
                    Ok(body.to_vec())
                }
            }
            Fault::Transient => Err(GetError::Transient),
            Fault::Truncate(cut) => Ok(body[..cut.min(len)].to_vec()),
            Fault::CorruptBit { offset, bit } => {
                let mut out = body.to_vec();
                if let Some(b) = out.get_mut(offset) {
                    *b ^= 1 << (bit & 7);
                }
                Ok(out)
            }
            Fault::Partial { got } => Err(GetError::PartialBody {
                got: got.min(len),
                expected: len,
            }),
        };
        self.account(true, Self::billed_bytes(&outcome), tenant);
        TimedGet {
            outcome,
            latency_ms,
        }
    }

}

/// What one scan moved and how long it took in simulated time — the input
/// of [`CostModel::scan_cost_usd`].
#[derive(Debug, Clone, Default)]
pub struct ScanStats {
    /// Number of GET requests issued (including failed and retried ones).
    pub requests: u64,
    /// Compressed bytes moved over the simulated network.
    pub compressed_bytes: u64,
    /// Uncompressed bytes produced by decompression.
    pub uncompressed_bytes: u64,
    /// Simulated seconds the network was the constraint.
    pub network_seconds: f64,
    /// Simulated seconds of (scaled) decompression CPU.
    pub cpu_seconds: f64,
    /// Simulated scan duration (network and CPU overlap, plus backoff).
    pub duration_seconds: f64,
}

impl ScanStats {
    /// Decompression throughput in uncompressed bytes — the paper's `T_r`.
    pub fn t_r_gb_per_s(&self) -> f64 {
        self.uncompressed_bytes as f64 / 1e9 / self.duration_seconds.max(1e-12)
    }

    /// Throughput in *compressed* bits over the wire — the paper's `T_c`.
    pub fn t_c_gbit_per_s(&self) -> f64 {
        self.compressed_bytes as f64 * 8.0 / 1e9 / self.duration_seconds.max(1e-12)
    }
}

impl CostModel {
    /// Simulated network time for moving `bytes` in `requests` GETs.
    pub fn network_seconds(&self, bytes: u64, requests: u64) -> f64 {
        let transfer = bytes as f64 * 8.0 / (self.network_gbps * 1e9);
        let latency = requests as f64 * self.first_byte_latency_ms
            / 1e3
            / self.concurrent_requests.max(1) as f64;
        transfer + latency
    }

    /// Dollar cost of a scan (instance time + request charges), the paper's
    /// two cost components.
    pub fn scan_cost_usd(&self, stats: &ScanStats) -> f64 {
        stats.duration_seconds / 3600.0 * self.instance_usd_per_hour
            + stats.requests as f64 / 1000.0 * self.usd_per_1000_gets
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    /// An anonymous faulted ranged GET.
    fn get(store: &ObjectStore, key: &str, start: usize, len: usize, attempt: u32) -> TimedGet {
        store.get_range_timed_as(key, start, len, attempt, None)
    }

    #[test]
    fn put_get_roundtrip_and_ranges() {
        let store = ObjectStore::new();
        store.put("a", vec![1, 2, 3, 4, 5]);
        assert_eq!(store.get("a").unwrap().as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(store.get_range("a", 1, 3).unwrap(), vec![2, 3, 4]);
        assert!(store.get_range("a", 3, 5).is_none());
        assert!(store.get("missing").is_none());
    }

    #[test]
    fn chunked_put_splits_into_parts() {
        let store = ObjectStore::new();
        let data = vec![7u8; 100];
        let keys = store.put_chunked("ds", &data, 30);
        assert_eq!(keys, ["ds/part-0", "ds/part-1", "ds/part-2", "ds/part-3"]);
        let total: usize = keys.iter().map(|k| store.get(k).unwrap().len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn network_time_scales_with_bytes_and_requests() {
        let model = CostModel::default();
        // 12.5 GB at 100 Gbit/s = 1 s transfer.
        let t = model.network_seconds(12_500_000_000, 1);
        assert!((t - 1.0).abs() < 0.01, "got {t}");
        let more_requests = model.network_seconds(12_500_000_000, 10_000);
        assert!(more_requests > t);
    }

    #[test]
    fn denser_format_is_cheaper_when_network_bound() {
        // Same uncompressed data in 16 MB GETs; format B is 4x denser. With
        // negligible CPU both scans are network-bound, so B must cost less —
        // the core claim of the paper's Table 5.
        let model = CostModel::default();
        let scan = |compressed_bytes: u64| {
            let requests = compressed_bytes.div_ceil(DEFAULT_CHUNK as u64);
            let network_seconds = model.network_seconds(compressed_bytes, requests);
            ScanStats {
                requests,
                compressed_bytes,
                uncompressed_bytes: 40_000_000,
                network_seconds,
                cpu_seconds: 0.0,
                duration_seconds: network_seconds,
            }
        };
        let (a, b) = (scan(40_000_000), scan(10_000_000));
        assert!(model.scan_cost_usd(&b) < model.scan_cost_usd(&a));
        assert!(b.t_r_gb_per_s() > a.t_r_gb_per_s());
    }

    #[test]
    fn t_c_and_t_r_definitions() {
        let stats = ScanStats {
            requests: 1,
            compressed_bytes: 1_000_000_000,
            uncompressed_bytes: 4_000_000_000,
            network_seconds: 1.0,
            cpu_seconds: 0.5,
            duration_seconds: 1.0,
        };
        assert!((stats.t_r_gb_per_s() - 4.0).abs() < 1e-9);
        assert!((stats.t_c_gbit_per_s() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn tenant_attribution_splits_counters() {
        let store = ObjectStore::new();
        store.put("a", (0u8..200).collect());
        store.get_range_timed_as("a", 0, 100, 0, Some("alice"));
        store.get_range_timed_as("a", 100, 50, 0, Some("bob"));
        get(&store, "a", 150, 50, 0);
        let alice = store.tenant_counters("alice");
        let bob = store.tenant_counters("bob");
        assert_eq!(alice.ranged_get_requests, 1);
        assert_eq!(alice.bytes_served, 100);
        assert_eq!(bob.ranged_get_requests, 1);
        assert_eq!(bob.bytes_served, 50);
        assert_eq!(store.tenant_counters("nobody"), GetStats::default());
        assert_eq!(store.tenants(), vec!["alice".to_string(), "bob".to_string()]);
        // Global counters see all three requests, attributed or not.
        let all = store.counters();
        assert_eq!(all.ranged_get_requests, 3);
        assert_eq!(all.bytes_served, 200);
        store.reset_counters();
        assert_eq!(store.tenant_counters("alice"), GetStats::default());
        assert!(store.tenants().is_empty());
    }

    #[test]
    fn ranged_gets_are_accounted_separately() {
        let store = ObjectStore::new();
        store.put("a", (0u8..200).collect());
        assert_eq!(store.counters(), GetStats::default());
        store.get("a");
        store.get_range("a", 10, 50);
        store.get_range("a", 100, 25);
        // Out-of-bounds range: no request served, nothing billed.
        assert!(store.get_range("a", 190, 50).is_none());
        let stats = store.counters();
        assert_eq!(stats.get_requests, 1);
        assert_eq!(stats.ranged_get_requests, 2);
        assert_eq!(stats.bytes_served, 200 + 50 + 25);
        assert_eq!(stats.requests(), 3);
        store.reset_counters();
        assert_eq!(store.counters(), GetStats::default());
    }

    #[test]
    fn ranged_get_applies_faults_per_range() {
        let store = ObjectStore::new();
        store.put("k", vec![0xCD; 1_000]);
        // No plan: clean range.
        assert_eq!(get(&store, "k", 100, 16, 0).outcome, Ok(vec![0xCD; 16]));
        assert_eq!(get(&store, "missing", 0, 4, 0).outcome, Err(GetError::NotFound));
        assert_eq!(
            get(&store, "k", 990, 100, 0).outcome,
            Err(GetError::NotFound),
            "out-of-bounds range"
        );
        // Deterministic: the same (key, range, attempt) repeats its outcome,
        // and different ranges draw independently.
        store.set_fault_plan(Some(FaultPlan {
            transient_rate: 0.5,
            max_faults_per_key: 10,
            ..FaultPlan::default()
        }));
        let outcomes: Vec<bool> = (0..20)
            .map(|i| get(&store, "k", i * 16, 16, 0).outcome.is_ok())
            .collect();
        let repeat: Vec<bool> = (0..20)
            .map(|i| get(&store, "k", i * 16, 16, 0).outcome.is_ok())
            .collect();
        assert_eq!(outcomes, repeat);
        assert!(outcomes.iter().any(|&ok| ok) && outcomes.iter().any(|&ok| !ok));
        // Certain truncation: the range body comes back short.
        store.set_fault_plan(Some(FaultPlan {
            truncate_rate: 1.0,
            ..FaultPlan::default()
        }));
        assert!(get(&store, "k", 200, 64, 0).outcome.unwrap().len() < 64);
        // Certain corruption: same length, one bit differs, and it stays
        // inside the requested range.
        store.set_fault_plan(Some(FaultPlan {
            corrupt_rate: 1.0,
            ..FaultPlan::default()
        }));
        let body = get(&store, "k", 200, 64, 0).outcome.unwrap();
        assert_eq!(body.len(), 64);
        let flipped: u32 = body.iter().map(|b| (b ^ 0xCD).count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn fault_draws_are_deterministic() {
        let plan = FaultPlan {
            transient_rate: 0.5,
            ..FaultPlan::default()
        };
        for attempt in 0..5 {
            assert_eq!(
                plan.draw("some/key", attempt, 100),
                plan.draw("some/key", attempt, 100)
            );
        }
        // Past the fault window everything is clean.
        assert_eq!(plan.draw("some/key", 3, 100), Fault::None);
    }

    #[test]
    fn partial_reads_produce_typed_errors_and_bill_received_bytes() {
        let store = ObjectStore::new();
        store.put("k", vec![0x11; 500]);
        store.set_fault_plan(Some(FaultPlan {
            partial_rate: 1.0,
            ..FaultPlan::default()
        }));
        let err = get(&store, "k", 100, 64, 0).outcome.unwrap_err();
        match err {
            GetError::PartialBody { got, expected } => {
                assert_eq!(expected, 64);
                assert!(got < 64, "partial read must be short, got {got}");
                assert_eq!(store.counters().bytes_served, got as u64);
            }
            other => panic!("expected PartialBody, got {other:?}"),
        }
        // Deterministic: the same (range, attempt) repeats its outcome.
        let repeat = get(&store, "k", 100, 64, 0).outcome.unwrap_err();
        assert_eq!(err, repeat);
        // Past the fault window the read is whole again.
        assert_eq!(get(&store, "k", 100, 64, 9).outcome, Ok(vec![0x11; 64]));
    }

    #[test]
    fn latency_spikes_delay_and_time_out() {
        let store = ObjectStore::new();
        store.put("k", vec![0x22; 500]);
        // Spike without a timeout: the body arrives, late.
        store.set_fault_plan(Some(FaultPlan {
            latency_spike_rate: 1.0,
            latency_spike_ms: 1_000,
            base_latency_ms: 30,
            ..FaultPlan::default()
        }));
        let slow = get(&store, "k", 0, 64, 0);
        assert_eq!(slow.outcome, Ok(vec![0x22; 64]));
        assert!(
            (530..=1_030).contains(&slow.latency_ms),
            "spike + base latency, got {} ms",
            slow.latency_ms
        );
        assert_eq!(get(&store, "k", 0, 64, 0), slow, "deterministic");
        // Same spike under a 400 ms timeout: the exact error is TimedOut and
        // the client stops waiting at the timeout.
        store.set_fault_plan(Some(FaultPlan {
            latency_spike_rate: 1.0,
            latency_spike_ms: 1_000,
            base_latency_ms: 30,
            request_timeout_ms: 400,
            ..FaultPlan::default()
        }));
        let timed_out = get(&store, "k", 0, 64, 0);
        assert_eq!(timed_out.outcome, Err(GetError::TimedOut { after_ms: 400 }));
        assert_eq!(timed_out.latency_ms, 400);
        assert!((timed_out.latency_seconds() - 0.4).abs() < 1e-12);
        // Without a spike the base latency still applies.
        store.set_fault_plan(Some(FaultPlan {
            base_latency_ms: 30,
            request_timeout_ms: 400,
            ..FaultPlan::default()
        }));
        let clean = get(&store, "k", 0, 64, 0);
        assert_eq!(clean.outcome, Ok(vec![0x22; 64]));
        assert_eq!(clean.latency_ms, 30);
    }

    #[test]
    fn get_error_retryability_is_classified_in_one_place() {
        assert!(!GetError::NotFound.is_retryable());
        assert!(GetError::Transient.is_retryable());
        assert!(GetError::TimedOut { after_ms: 100 }.is_retryable());
        assert!(GetError::PartialBody { got: 3, expected: 9 }.is_retryable());
    }

    #[test]
    fn hedged_attempts_draw_independent_faults_but_converge() {
        let store = ObjectStore::new();
        store.put("k", vec![0x33; 4_096]);
        store.set_fault_plan(Some(FaultPlan {
            transient_rate: 0.5,
            max_faults_per_key: 4,
            ..FaultPlan::default()
        }));
        // Across many ranges, some primary attempts fail while their hedge
        // (same range, salted attempt) succeeds — the draws are independent.
        let mut hedge_saved = 0;
        for i in 0..40 {
            let primary = get(&store, "k", i * 64, 64, 0).outcome;
            let hedge = get(&store, "k", i * 64, 64, HEDGE_ATTEMPT_SALT).outcome;
            if primary.is_err() && hedge.is_ok() {
                hedge_saved += 1;
            }
        }
        assert!(hedge_saved > 0, "hedges must not mirror primary faults");
        // The convergence guarantee masks the salt off: a salted attempt past
        // the fault window is clean.
        assert_eq!(
            get(&store, "k", 0, 64, HEDGE_ATTEMPT_SALT | 4).outcome,
            Ok(vec![0x33; 64])
        );
    }
}
