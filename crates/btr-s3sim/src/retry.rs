//! Deadline-, budget- and clock-aware retry driving.
//!
//! Everything time-related here runs on a **simulated clock**: backoff and
//! injected latency advance
//! [`SimClock`] instead of sleeping, which keeps fault campaigns fast and
//! makes deadline behavior exactly reproducible.
//!
//! Three cooperating pieces:
//!
//! * [`SimClock`] — a shared monotonic nanosecond counter. Clones share the
//!   same underlying counter, so every scan, source and breaker in one
//!   simulated "world" observes the same timeline.
//! * [`Deadline`] — a per-operation time budget measured on that clock. The
//!   retry driver checks it before every backoff and refuses to sleep past
//!   it.
//! * [`RetryBudget`] — a token bucket shared across an entire scan. Every
//!   retry (not first attempts) costs one token; the bucket refills with
//!   simulated time. Under a fault storm this caps retry *amplification*:
//!   a scan of 100 blocks with a budget of 20 tokens issues at most 20
//!   retries total until time passes, no matter how many blocks are failing
//!   simultaneously.
//!
//! [`run_with_retries`] is the single retry loop (btr-scan's object-store
//! source drives it), shaped by a [`RetryPolicy`]. The caller classifies each attempt as [`Attempt::Success`],
//! [`Attempt::Retry`] (transient — worth another try) or [`Attempt::Fatal`]
//! (permanent — retrying cannot help); the driver owns backoff, accounting,
//! deadline and budget enforcement.

use btr_sync::{OrderedMutex, Rank};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Retry/backoff policy for [`run_with_retries`].
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
const S3_RETRY_BUDGET_RANK: Rank = Rank::new(110, "s3.retry.budget");

impl RetryBudget {
    /// A full bucket of `capacity` tokens refilling at `refill_per_second`.
    pub fn new(capacity: f64, refill_per_second: f64) -> RetryBudget {
        let capacity = capacity.max(0.0);
        RetryBudget {
            capacity,
            refill_per_second: refill_per_second.max(0.0),
            state: OrderedMutex::new(S3_RETRY_BUDGET_RANK, BudgetState {
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

/// Why the retry driver stopped without a success or a permanent error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryError {
    /// The policy's attempt cap was reached.
    Exhausted {
        /// Attempts made.
        attempts: u32,
    },
    /// The deadline ran out before the operation could succeed.
    DeadlineExceeded {
        /// Simulated seconds elapsed when the driver gave up.
        elapsed_seconds: f64,
        /// The deadline's budget.
        budget_seconds: f64,
    },
    /// The shared retry budget had no token for another retry.
    BudgetExhausted {
        /// Attempts made before the budget ran dry.
        attempts: u32,
    },
}

/// Terminal outcome of [`run_with_retries`] when no attempt succeeded.
#[derive(Debug, Clone, PartialEq)]
pub enum RetryFailure<E> {
    /// An attempt failed permanently; retrying could not have helped.
    Fatal(E),
    /// The driver stopped retrying (cap, deadline, or budget).
    Stopped(RetryError),
}

/// Accounting for one retried operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetryStats {
    /// Attempts made (first try included).
    pub attempts: u32,
    /// Retries (attempts beyond the first).
    pub retries: u32,
    /// Simulated backoff the driver charged to the clock.
    pub backoff_seconds: f64,
}

/// How the caller classified one attempt.
pub enum Attempt<T, E> {
    /// The attempt produced a usable value.
    Success(T),
    /// The attempt failed transiently; retrying may succeed.
    Retry,
    /// The attempt failed permanently; stop immediately.
    Fatal(E),
}

/// Drives `attempt_fn` under `policy` with exponential backoff, charging
/// backoff to `clock` and honouring an optional `deadline` and retry
/// `budget`. See the module docs for the contract.
///
/// The attempt counter passed to `attempt_fn` is zero-based and feeds
/// deterministic fault draws ([`crate::FaultPlan`]), so the same schedule
/// replays identically.
pub fn run_with_retries<T, E>(
    policy: &RetryPolicy,
    clock: &SimClock,
    deadline: Option<Deadline>,
    budget: Option<&RetryBudget>,
    stats: &mut RetryStats,
    mut attempt_fn: impl FnMut(u32) -> Attempt<T, E>,
) -> Result<T, RetryFailure<E>> {
    let max_attempts = policy.max_attempts.max(1);
    for attempt in 0..max_attempts {
        if attempt > 0 {
            // Deadline gate: never start a backoff we cannot afford.
            if let Some(d) = deadline {
                if d.exceeded(clock) {
                    return Err(RetryFailure::Stopped(RetryError::DeadlineExceeded {
                        elapsed_seconds: d.elapsed_seconds(clock),
                        budget_seconds: d.budget_seconds,
                    }));
                }
            }
            if let Some(b) = budget {
                if !b.try_take(clock) {
                    return Err(RetryFailure::Stopped(RetryError::BudgetExhausted {
                        attempts: attempt,
                    }));
                }
            }
            let backoff = policy.backoff_seconds(attempt - 1);
            clock.advance_seconds(backoff);
            stats.retries += 1;
            stats.backoff_seconds += backoff;
            if let Some(d) = deadline {
                if d.exceeded(clock) {
                    return Err(RetryFailure::Stopped(RetryError::DeadlineExceeded {
                        elapsed_seconds: d.elapsed_seconds(clock),
                        budget_seconds: d.budget_seconds,
                    }));
                }
            }
        }
        stats.attempts += 1;
        match attempt_fn(attempt) {
            Attempt::Success(value) => return Ok(value),
            Attempt::Fatal(error) => return Err(RetryFailure::Fatal(error)),
            Attempt::Retry => {}
        }
    }
    Err(RetryFailure::Stopped(RetryError::Exhausted {
        attempts: max_attempts,
    }))
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

    #[test]
    fn driver_succeeds_after_transient_failures() {
        let clock = SimClock::new();
        let policy = RetryPolicy::default();
        let mut stats = RetryStats::default();
        let result: Result<u32, RetryFailure<()>> =
            run_with_retries(&policy, &clock, None, None, &mut stats, |attempt| {
                if attempt < 2 {
                    Attempt::Retry
                } else {
                    Attempt::Success(attempt)
                }
            });
        assert_eq!(result, Ok(2));
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.retries, 2);
        // 0.05 + 0.1 of exponential backoff charged to the clock.
        assert!((stats.backoff_seconds - 0.15).abs() < 1e-9);
        assert!((clock.now_seconds() - 0.15).abs() < 1e-9);
    }

    #[test]
    fn driver_stops_on_fatal_and_exhaustion() {
        let clock = SimClock::new();
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut stats = RetryStats::default();
        let fatal: Result<(), RetryFailure<&str>> =
            run_with_retries(&policy, &clock, None, None, &mut stats, |_| {
                Attempt::Fatal("nope")
            });
        assert_eq!(fatal, Err(RetryFailure::Fatal("nope")));
        assert_eq!(stats.attempts, 1);

        let mut stats = RetryStats::default();
        let exhausted: Result<(), RetryFailure<&str>> =
            run_with_retries(&policy, &clock, None, None, &mut stats, |_| {
                Attempt::<(), &str>::Retry
            });
        assert_eq!(
            exhausted,
            Err(RetryFailure::Stopped(RetryError::Exhausted { attempts: 3 }))
        );
        assert_eq!(stats.attempts, 3);
    }

    #[test]
    fn driver_honours_deadline_on_sim_clock() {
        let clock = SimClock::new();
        let policy = RetryPolicy {
            max_attempts: 1_000,
            base_backoff_seconds: 0.1,
            backoff_multiplier: 1.0,
        };
        let deadline = Deadline::after(&clock, 1.0);
        let mut stats = RetryStats::default();
        let result: Result<(), RetryFailure<()>> = run_with_retries(
            &policy,
            &clock,
            Some(deadline),
            None,
            &mut stats,
            |_| Attempt::Retry,
        );
        match result {
            Err(RetryFailure::Stopped(RetryError::DeadlineExceeded {
                elapsed_seconds,
                budget_seconds,
            })) => {
                assert!((budget_seconds - 1.0).abs() < 1e-9);
                // Overshoot is bounded by one backoff step.
                assert!(elapsed_seconds > 1.0 && elapsed_seconds <= 1.0 + 0.1 + 1e-9);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // Far fewer than the 1000 allowed attempts actually ran.
        assert!(stats.attempts < 15, "got {}", stats.attempts);
    }

    #[test]
    fn driver_honours_retry_budget() {
        let clock = SimClock::new();
        let policy = RetryPolicy {
            max_attempts: 100,
            ..RetryPolicy::default()
        };
        let budget = RetryBudget::new(3.0, 0.0);
        let mut stats = RetryStats::default();
        let result: Result<(), RetryFailure<()>> = run_with_retries(
            &policy,
            &clock,
            None,
            Some(&budget),
            &mut stats,
            |_| Attempt::Retry,
        );
        assert_eq!(
            result,
            Err(RetryFailure::Stopped(RetryError::BudgetExhausted {
                attempts: 4
            })),
            "3 retry tokens allow 4 attempts"
        );
        assert_eq!(stats.attempts, 4);
        assert_eq!(stats.retries, 3);
    }

    #[test]
    fn budget_is_shared_across_operations() {
        let clock = SimClock::new();
        let policy = RetryPolicy {
            max_attempts: 10,
            ..RetryPolicy::default()
        };
        let budget = RetryBudget::new(4.0, 0.0);
        let mut total_retries = 0;
        for _ in 0..5 {
            let mut stats = RetryStats::default();
            let _: Result<(), RetryFailure<()>> = run_with_retries(
                &policy,
                &clock,
                None,
                Some(&budget),
                &mut stats,
                |_| Attempt::Retry,
            );
            total_retries += stats.retries;
        }
        assert_eq!(total_retries, 4, "5 failing ops share 4 retry tokens");
    }
}
