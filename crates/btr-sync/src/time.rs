//! The workspace's one time vocabulary: a simulated clock and the
//! deadline, retry budget and backoff policy measured on it.
//!
//! Everything time-related in the scan stack runs on a **simulated clock**:
//! backoff and injected latency advance [`SimClock`] instead of sleeping,
//! which keeps fault campaigns fast and makes deadline behavior exactly
//! reproducible. Nothing here reads the host clock.
//!
//! * [`SimClock`] — a shared monotonic nanosecond counter. Clones share the
//!   same underlying counter, so every scan, source and breaker in one
//!   simulated "world" observes the same timeline.
//! * [`Deadline`] — a per-operation time budget measured on that clock. The
//!   retry loop checks it before every backoff and refuses to sleep past
//!   it.
//! * [`RetryBudget`] — a token bucket shared across an entire scan. Every
//!   retry (not first attempts) costs one token; the bucket refills with
//!   simulated time. Under a fault storm this caps retry *amplification*:
//!   a scan of 100 blocks with a budget of 20 tokens issues at most 20
//!   retries total until time passes, no matter how many blocks are failing
//!   simultaneously.
//! * [`RetryPolicy`] — attempt cap and exponential backoff of one fetch.
//!
//! The retry loop itself lives with its one caller, btr-scan's object-store
//! source.

use crate::{OrderedMutex, Rank};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Attempt cap and backoff schedule of one retried fetch.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum GET attempts per key (first try included).
    pub max_attempts: u32,
    /// Simulated backoff before the first retry, in seconds.
    pub base_backoff_seconds: f64,
    /// Backoff multiplier per further retry (exponential).
    pub backoff_multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff_seconds: 0.05,
            backoff_multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Simulated backoff before retry number `retry` (zero-based).
    pub fn backoff_seconds(&self, retry: u32) -> f64 {
        self.base_backoff_seconds * self.backoff_multiplier.powi(retry as i32)
    }
}

/// A shared simulated clock counting nanoseconds since "boot".
///
/// Clones share state: advancing one clone advances them all. The default
/// clock starts at zero.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// A fresh clock at time zero.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Current simulated time in seconds.
    pub fn now_seconds(&self) -> f64 {
        // ordering: monotonic test clock; readers tolerate a stale tick and
        // campaigns advance it from the observing thread or across joins
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Advances the clock by `seconds` (negative or NaN values are ignored).
    pub fn advance_seconds(&self, seconds: f64) {
        if seconds.is_finite() && seconds > 0.0 {
            self.nanos
                // ordering: monotonic test clock; see now_seconds
                .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
        }
    }
}

/// A time budget measured on a [`SimClock`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deadline {
    /// Clock reading when the budget started.
    pub start_seconds: f64,
    /// Allowed simulated seconds past `start_seconds`.
    pub budget_seconds: f64,
}

impl Deadline {
    /// A deadline `budget_seconds` of simulated time from `clock`'s now.
    pub fn after(clock: &SimClock, budget_seconds: f64) -> Deadline {
        Deadline {
            start_seconds: clock.now_seconds(),
            budget_seconds: budget_seconds.max(0.0),
        }
    }

    /// Simulated seconds elapsed since the deadline started.
    pub fn elapsed_seconds(&self, clock: &SimClock) -> f64 {
        (clock.now_seconds() - self.start_seconds).max(0.0)
    }

    /// True once the budget is spent.
    pub fn exceeded(&self, clock: &SimClock) -> bool {
        self.elapsed_seconds(clock) > self.budget_seconds
    }
}

#[derive(Debug)]
struct BudgetState {
    tokens: f64,
    last_refill_seconds: f64,
}

/// A token bucket bounding retries across many operations.
///
/// Starts full at `capacity` tokens and refills at `refill_per_second`
/// (simulated) up to `capacity`. [`RetryBudget::try_take`] consumes one
/// token; when the bucket is empty the caller must stop retrying rather
/// than amplify a fault storm.
#[derive(Debug)]
pub struct RetryBudget {
    capacity: f64,
    refill_per_second: f64,
    state: OrderedMutex<BudgetState>,
}

/// Leaf rank: the budget is consulted between fetch attempts with no other
/// lock held (DESIGN.md §15).
const RETRY_BUDGET_RANK: Rank = Rank::new(110, "sync.retry.budget");

impl RetryBudget {
    /// A full bucket of `capacity` tokens refilling at `refill_per_second`.
    pub fn new(capacity: f64, refill_per_second: f64) -> RetryBudget {
        let capacity = capacity.max(0.0);
        RetryBudget {
            capacity,
            refill_per_second: refill_per_second.max(0.0),
            state: OrderedMutex::new(RETRY_BUDGET_RANK, BudgetState {
                tokens: capacity,
                last_refill_seconds: 0.0,
            }),
        }
    }

    fn refill(&self, state: &mut BudgetState, clock: &SimClock) {
        let now = clock.now_seconds();
        let dt = (now - state.last_refill_seconds).max(0.0);
        state.tokens = (state.tokens + dt * self.refill_per_second).min(self.capacity);
        state.last_refill_seconds = now;
    }

    /// Takes one retry token if available.
    pub fn try_take(&self, clock: &SimClock) -> bool {
        let mut state = self.state.lock();
        self.refill(&mut state, clock);
        if state.tokens >= 1.0 {
            state.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after refilling to `clock`'s now).
    pub fn available(&self, clock: &SimClock) -> f64 {
        let mut state = self.state.lock();
        self.refill(&mut state, clock);
        state.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::default();
        assert!((p.backoff_seconds(0) - 0.05).abs() < 1e-12);
        assert!((p.backoff_seconds(2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn clock_is_shared_across_clones() {
        let clock = SimClock::new();
        let other = clock.clone();
        clock.advance_seconds(1.5);
        other.advance_seconds(0.5);
        assert!((clock.now_seconds() - 2.0).abs() < 1e-9);
        assert!((other.now_seconds() - 2.0).abs() < 1e-9);
        // Negative / NaN advances are ignored.
        clock.advance_seconds(-3.0);
        clock.advance_seconds(f64::NAN);
        assert!((clock.now_seconds() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn deadline_tracks_the_sim_clock() {
        let clock = SimClock::new();
        clock.advance_seconds(10.0);
        let d = Deadline::after(&clock, 2.0);
        assert!(!d.exceeded(&clock));
        clock.advance_seconds(1.9);
        assert!(!d.exceeded(&clock));
        clock.advance_seconds(0.2);
        assert!(d.exceeded(&clock));
        assert!((d.elapsed_seconds(&clock) - 2.1).abs() < 1e-9);
    }

    #[test]
    fn budget_spends_and_refills_on_sim_time() {
        let clock = SimClock::new();
        let budget = RetryBudget::new(2.0, 1.0);
        assert!(budget.try_take(&clock));
        assert!(budget.try_take(&clock));
        assert!(!budget.try_take(&clock), "bucket empty");
        clock.advance_seconds(1.0);
        assert!(budget.try_take(&clock), "one token refilled");
        assert!(!budget.try_take(&clock));
        // Refill caps at capacity.
        clock.advance_seconds(100.0);
        assert!((budget.available(&clock) - 2.0).abs() < 1e-9);
    }
}
