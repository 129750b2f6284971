//! Fault-tolerance control plane: deadlines, retry budgets, circuit
//! breaking, quarantine, and hedged-fetch bookkeeping.
//!
//! The loop that *retries one request* lives in [`crate::source`] and the
//! time vocabulary (clock, deadline, budget, policy) in `btr_sync`; this
//! module holds the policy layer a scan service needs around the loop:
//!
//! * [`Tolerance`] — per-scan knobs carried by
//!   [`crate::ScanSpec`]: a wall-clock budget on the simulated clock
//!   ([`Deadline`]) and a token-bucket [`RetryBudget`] shared by every fetch
//!   of the scan, so retries cannot amplify under a fault storm.
//! * [`FetchCtl`] — the engine threads deadline + budget down to
//!   [`crate::BlockSource::fetch_ctl`] through this handle.
//! * [`CircuitBreaker`] — a per-source closed/open/half-open breaker
//!   counting *fetch outcomes* (not individual attempts, which would trip on
//!   any retried-but-recovered fault). While open, fetches fail fast with
//!   [`crate::ScanError::BreakerOpen`]; after [`BreakerConfig::open_seconds`]
//!   a single probe fetch is let through to test recovery.
//! * [`SourceHealth`] — the per-source bundle: simulated clock, breaker,
//!   per-block quarantine (a permanently CRC-mismatched block poisons only
//!   scans that need it), and the latency window driving hedged GETs.
//!
//! Everything time-based runs on [`SimClock`]; nothing here sleeps.

use btr_sync::{Deadline, OrderedMutex, Rank, RetryBudget, SimClock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Resilience-substrate ranks (DESIGN.md §15). Health and breaker locks are
/// leaves consulted between fetch attempts (quarantine is additionally
/// queried under btr-server's coalesce lock, which ranks below all of
/// these).
const HEALTH_QUARANTINE_RANK: Rank = Rank::new(90, "scan.health.quarantine");
const HEALTH_WINDOW_RANK: Rank = Rank::new(92, "scan.health.window");
const BREAKER_RANK: Rank = Rank::new(94, "scan.breaker");

/// Per-scan fault-tolerance knobs, carried by [`crate::ScanSpec`].
///
/// The default tolerates everything: no deadline, no retry budget — exactly
/// the pre-existing behavior.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Tolerance {
    /// Simulated-seconds budget for the whole scan; `None` is unbounded.
    /// When exceeded, fetches return [`crate::ScanError::DeadlineExceeded`]
    /// instead of retrying further.
    pub deadline_seconds: Option<f64>,
    /// Retry token bucket shared across every fetch of the scan; `None`
    /// leaves retries bounded only by the source's per-fetch policy.
    pub retry_budget: Option<RetryBudgetConfig>,
}

/// Token-bucket sizing for a scan's [`RetryBudget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudgetConfig {
    /// Tokens available up front (one retry costs one token).
    pub capacity: f64,
    /// Refill rate in tokens per simulated second.
    pub refill_per_second: f64,
}

/// Deadline and retry budget a fetch must honour, threaded from the engine
/// into [`crate::BlockSource::fetch_ctl`].
#[derive(Debug, Clone, Default)]
pub struct FetchCtl {
    /// Scan deadline on the source's simulated clock.
    pub deadline: Option<Deadline>,
    /// Scan-wide retry budget.
    pub budget: Option<Arc<RetryBudget>>,
    /// Tenant identity for per-tenant GET accounting in the store; `None`
    /// (engine-driven scans) bills nothing per tenant.
    pub tenant: Option<Arc<str>>,
}

/// Hedged-GET configuration for an object-store source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Latency percentile (0..=1) of recent fetches past which a second GET
    /// is issued for the straggler.
    pub percentile: f64,
    /// Hedging floor in simulated seconds: with every recent fetch faster
    /// than this, hedging stays off (guards the all-zero-latency case).
    pub min_seconds: f64,
    /// Completed fetches required before the latency window is trusted.
    pub warmup: usize,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            percentile: 0.95,
            min_seconds: 0.010,
            warmup: 16,
        }
    }
}

/// Circuit-breaker tuning for an object-store source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failed *fetches* (exhausted or fatal, not individual
    /// attempts) that open the breaker.
    pub failure_threshold: u32,
    /// Simulated seconds the breaker stays open before letting one probe
    /// fetch through.
    pub open_seconds: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_seconds: 30.0,
        }
    }
}

/// Externally visible breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests fail fast; the open window has not elapsed.
    Open,
    /// One probe is testing recovery; everything else fails fast.
    HalfOpen,
}

/// What the breaker decided for one fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed — fetch normally.
    Allowed,
    /// This fetch is the recovery probe: single attempt, its outcome decides
    /// the breaker's next state.
    Probe,
    /// Fail fast without touching the store.
    FailFast,
}

enum BreakerInner {
    Closed { failures: u32 },
    Open { until_seconds: f64 },
    HalfOpen,
}

/// A closed/open/half-open circuit breaker on the simulated clock; see the
/// module docs for granularity (fetch outcomes, not attempts).
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: OrderedMutex<BreakerInner>,
    transitions: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with `config`.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            inner: OrderedMutex::new(BREAKER_RANK, BreakerInner::Closed { failures: 0 }),
            transitions: AtomicU64::new(0),
        }
    }

    /// Admission decision for one fetch. At most one caller receives
    /// [`Admission::Probe`] per open window.
    pub fn admit(&self, clock: &SimClock) -> Admission {
        let mut inner = self.inner.lock();
        match *inner {
            BreakerInner::Closed { .. } => Admission::Allowed,
            BreakerInner::HalfOpen => Admission::FailFast,
            BreakerInner::Open { until_seconds } => {
                if clock.now_seconds() >= until_seconds {
                    *inner = BreakerInner::HalfOpen;
                    self.transitions.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
                    Admission::Probe
                } else {
                    Admission::FailFast
                }
            }
        }
    }

    /// Records one fetch outcome (success or terminal failure).
    pub fn record(&self, clock: &SimClock, ok: bool) {
        let mut inner = self.inner.lock();
        match *inner {
            BreakerInner::Closed { ref mut failures } => {
                if ok {
                    *failures = 0;
                } else {
                    *failures += 1;
                    if *failures >= self.config.failure_threshold.max(1) {
                        *inner = BreakerInner::Open {
                            until_seconds: clock.now_seconds() + self.config.open_seconds,
                        };
                        self.transitions.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
                    }
                }
            }
            BreakerInner::HalfOpen => {
                *inner = if ok {
                    BreakerInner::Closed { failures: 0 }
                } else {
                    BreakerInner::Open {
                        until_seconds: clock.now_seconds() + self.config.open_seconds,
                    }
                };
                self.transitions.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
            }
            // A straggler fetch finishing after the breaker opened carries
            // stale evidence — ignore it.
            BreakerInner::Open { .. } => {}
        }
    }

    /// Current state (read-only: an elapsed open window still reads `Open`
    /// until a fetch claims the probe).
    pub fn state(&self) -> BreakerState {
        match *self.inner.lock() {
            BreakerInner::Closed { .. } => BreakerState::Closed,
            BreakerInner::Open { .. } => BreakerState::Open,
            BreakerInner::HalfOpen => BreakerState::HalfOpen,
        }
    }

    /// State transitions so far (closed→open, open→half-open, half-open→*).
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed) // ordering: statistics snapshot
    }
}

/// The most recent `N` samples of a stream (fetch latencies here, queue
/// waits in the scan service): memory stays constant however long the
/// stream runs.
#[derive(Debug, Clone, Default)]
pub struct SampleWindow<const N: usize> {
    samples: Vec<f64>,
    next: usize,
}

/// Fetch latencies (simulated seconds) the hedging threshold looks back on.
const LATENCY_WINDOW: usize = 64;

impl<const N: usize> SampleWindow<N> {
    /// Records a sample, overwriting the oldest once `N` are held.
    pub fn push(&mut self, sample: f64) {
        if self.samples.len() < N {
            self.samples.push(sample);
        } else if let Some(slot) = self.samples.get_mut(self.next) {
            *slot = sample;
            self.next = (self.next + 1) % N;
        }
    }

    /// The retained samples, in no particular order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample; `None` for
/// an empty one.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let last = sorted.len().checked_sub(1)?;
    // lint: allow(cast) percentile index: clamped to [0, len-1] by construction
    let idx = ((last as f64) * q.clamp(0.0, 1.0)).round() as usize;
    sorted.get(idx.min(last)).copied()
}

/// Per-source fault-tolerance state shared by every scan of that source:
/// the simulated clock, breaker, block quarantine, and hedging window.
pub struct SourceHealth {
    clock: SimClock,
    breaker: Option<CircuitBreaker>,
    hedge: Option<HedgeConfig>,
    quarantined: OrderedMutex<HashSet<(u32, u32)>>,
    window: OrderedMutex<SampleWindow<LATENCY_WINDOW>>,
    hedges_issued: AtomicU64,
    hedges_won: AtomicU64,
    quarantine_count: AtomicU64,
}

impl Default for SourceHealth {
    fn default() -> Self {
        SourceHealth::new()
    }
}

impl SourceHealth {
    /// Health state with no breaker and no hedging — pure quarantine +
    /// clock, the always-on baseline.
    pub fn new() -> SourceHealth {
        SourceHealth {
            clock: SimClock::new(),
            breaker: None,
            hedge: None,
            quarantined: OrderedMutex::new(HEALTH_QUARANTINE_RANK, HashSet::new()),
            window: OrderedMutex::new(HEALTH_WINDOW_RANK, SampleWindow::default()),
            hedges_issued: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
            quarantine_count: AtomicU64::new(0),
        }
    }

    /// Replaces the clock (to share one simulated timeline across sources).
    pub fn set_clock(&mut self, clock: SimClock) {
        self.clock = clock;
    }

    /// Installs a circuit breaker.
    pub fn set_breaker(&mut self, config: BreakerConfig) {
        self.breaker = Some(CircuitBreaker::new(config));
    }

    /// Enables hedged GETs.
    pub fn set_hedging(&mut self, config: HedgeConfig) {
        self.hedge = Some(config);
    }

    /// The source's simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The breaker, if one is configured.
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.breaker.as_ref()
    }

    /// Breaker state, `Closed` when no breaker is configured.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.as_ref().map_or(BreakerState::Closed, CircuitBreaker::state)
    }

    /// Whether `(column, block)` is quarantined as permanently corrupt.
    pub fn is_quarantined(&self, column: u32, block: u32) -> bool {
        self.quarantined.lock().contains(&(column, block))
    }

    /// Quarantines a block; returns whether it was newly added.
    pub fn quarantine(&self, column: u32, block: u32) -> bool {
        let added = self.quarantined.lock().insert((column, block));
        if added {
            self.quarantine_count.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
        }
        added
    }

    /// Blocks quarantined so far.
    pub fn quarantined_blocks(&self) -> u64 {
        self.quarantine_count.load(Ordering::Relaxed) // ordering: statistics snapshot
    }

    /// Feeds one completed fetch latency into the hedging window.
    pub fn observe_latency(&self, seconds: f64) {
        if self.hedge.is_some() {
            self.window.lock().push(seconds);
        }
    }

    /// Latency threshold past which a fetch should hedge, or `None` when
    /// hedging is off, the window is cold, the threshold is below the
    /// configured floor, or the breaker is shedding load (degradation: a
    /// stressed source gets no extra requests).
    pub fn hedge_threshold(&self) -> Option<f64> {
        let cfg = self.hedge.as_ref()?;
        if self.breaker_state() != BreakerState::Closed {
            return None;
        }
        let threshold = {
            let window = self.window.lock();
            if window.samples().len() < cfg.warmup.max(1) {
                return None;
            }
            percentile(window.samples(), cfg.percentile)?
        };
        (threshold >= cfg.min_seconds).then_some(threshold)
    }

    /// Records a hedge being issued.
    pub fn note_hedge_issued(&self) {
        self.hedges_issued.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
    }

    /// Records a hedge winning its race.
    pub fn note_hedge_won(&self) {
        self.hedges_won.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
    }

    /// Hedges issued so far.
    pub fn hedges_issued(&self) -> u64 {
        self.hedges_issued.load(Ordering::Relaxed) // ordering: statistics snapshot
    }

    /// Hedges that won so far.
    pub fn hedges_won(&self) -> u64 {
        self.hedges_won.load(Ordering::Relaxed) // ordering: statistics snapshot
    }

    /// Breaker transitions so far (0 without a breaker).
    pub fn breaker_transitions(&self) -> u64 {
        self.breaker.as_ref().map_or(0, CircuitBreaker::transitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_and_recovers_via_probe() {
        let clock = SimClock::new();
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            open_seconds: 10.0,
        });
        assert_eq!(breaker.state(), BreakerState::Closed);
        for _ in 0..2 {
            breaker.record(&clock, false);
        }
        assert_eq!(breaker.state(), BreakerState::Closed, "below threshold");
        breaker.record(&clock, false);
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.admit(&clock), Admission::FailFast);
        // Open window elapses: exactly one probe is admitted.
        clock.advance_seconds(10.0);
        assert_eq!(breaker.admit(&clock), Admission::Probe);
        assert_eq!(breaker.admit(&clock), Admission::FailFast, "one probe only");
        // Probe succeeds: closed again.
        breaker.record(&clock, true);
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.admit(&clock), Admission::Allowed);
        // closed→open, open→half-open, half-open→closed.
        assert_eq!(breaker.transitions(), 3);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let clock = SimClock::new();
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            open_seconds: 5.0,
        });
        breaker.record(&clock, false);
        clock.advance_seconds(5.0);
        assert_eq!(breaker.admit(&clock), Admission::Probe);
        breaker.record(&clock, false);
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.admit(&clock), Admission::FailFast);
        // Success counts reset failures while closed.
        clock.advance_seconds(5.0);
        assert_eq!(breaker.admit(&clock), Admission::Probe);
        breaker.record(&clock, true);
        breaker.record(&clock, true);
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn quarantine_tracks_blocks_individually() {
        let health = SourceHealth::new();
        assert!(!health.is_quarantined(0, 3));
        assert!(health.quarantine(0, 3));
        assert!(!health.quarantine(0, 3), "already quarantined");
        assert!(health.is_quarantined(0, 3));
        assert!(!health.is_quarantined(0, 4), "neighbors unaffected");
        assert!(!health.is_quarantined(1, 3));
        assert_eq!(health.quarantined_blocks(), 1);
    }

    #[test]
    fn hedge_threshold_requires_warm_window_and_real_latency() {
        let mut health = SourceHealth::new();
        health.set_hedging(HedgeConfig {
            percentile: 0.90,
            min_seconds: 0.010,
            warmup: 8,
        });
        assert_eq!(health.hedge_threshold(), None, "cold window");
        for _ in 0..20 {
            health.observe_latency(0.0);
        }
        assert_eq!(health.hedge_threshold(), None, "all-zero latencies");
        for _ in 0..40 {
            health.observe_latency(0.030);
        }
        let threshold = health.hedge_threshold().expect("warm, real latencies");
        assert!((threshold - 0.030).abs() < 1e-9);
    }

    #[test]
    fn hedging_sheds_while_breaker_is_not_closed() {
        let mut health = SourceHealth::new();
        health.set_hedging(HedgeConfig {
            warmup: 1,
            ..HedgeConfig::default()
        });
        health.set_breaker(BreakerConfig {
            failure_threshold: 1,
            open_seconds: 60.0,
        });
        for _ in 0..LATENCY_WINDOW {
            health.observe_latency(0.050);
        }
        assert!(health.hedge_threshold().is_some());
        if let Some(b) = health.breaker() {
            b.record(health.clock(), false);
        }
        assert_eq!(health.breaker_state(), BreakerState::Open);
        assert_eq!(health.hedge_threshold(), None, "open breaker sheds hedges");
    }

    #[test]
    fn percentile_is_nearest_rank_and_the_window_keeps_only_the_newest() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.5), Some(51.0));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);

        let mut window = SampleWindow::<4>::default();
        for i in 0..10 {
            window.push(f64::from(i));
        }
        let mut kept = window.samples().to_vec();
        kept.sort_by(f64::total_cmp);
        assert_eq!(kept, vec![6.0, 7.0, 8.0, 9.0]);
    }
}
