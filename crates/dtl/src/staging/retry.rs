//! Retry policy for transient store errors on the staging hot paths.
//!
//! Only a failed payload store or load ([`DtlError::Io`]) is considered
//! transient —
//! protocol violations, timeouts, and closure are permanent for the
//! attempted operation. Backoff is capped exponential with seeded,
//! deterministic jitter, and every retry is budgeted against the
//! operation's own deadline: a retrying op never outlives the timeout
//! the caller asked for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::error::{DtlError, DtlResult};
use crate::fault::splitmix64;

/// Capped exponential backoff with deterministic jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a
    /// deterministic factor in `[1 - jitter, 1]`.
    pub jitter: f64,
    /// Seed for the jitter (mixed with the op key, so concurrent
    /// retries don't sleep in lockstep).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter: 0.25,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and default backoff.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts: max_attempts.max(1), ..Default::default() }
    }

    /// The backoff before retry number `retry` (1-based) of the op
    /// identified by `key`.
    pub fn backoff_for(&self, retry: u32, key: u64) -> Duration {
        let exp =
            self.base_backoff.saturating_mul(1u32 << (retry - 1).min(16)).min(self.max_backoff);
        if self.jitter <= 0.0 {
            return exp;
        }
        let h = splitmix64(self.seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(retry));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let factor = 1.0 - self.jitter.clamp(0.0, 1.0) * unit;
        exp.mul_f64(factor)
    }
}

/// Deterministic jitter key for one staging op (`side`: 0 = read,
/// 1 = write).
pub(crate) fn op_key(var: crate::variable::VariableId, step: u64, side: u64) -> u64 {
    (u64::from(var.0) << 33) ^ (step << 1) ^ side
}

/// Runs `op`, retrying transient errors under `policy` until the
/// attempts or the `deadline` budget run out. `retries`/`giveups` are
/// the caller's counters (a giveup is a transient error returned to the
/// caller because the budget was exhausted).
pub(crate) fn run_with_retry<T>(
    policy: Option<&RetryPolicy>,
    deadline: Option<Instant>,
    key: u64,
    retries: &AtomicU64,
    giveups: &AtomicU64,
    mut op: impl FnMut() -> DtlResult<T>,
) -> DtlResult<T> {
    let mut attempt: u32 = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e @ DtlError::Io(_)) => {
                let Some(policy) = policy else { return Err(e) };
                if attempt >= policy.max_attempts {
                    giveups.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
                let backoff = policy.backoff_for(attempt, key);
                if deadline.is_some_and(|d| Instant::now() + backoff >= d) {
                    giveups.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flaky(fail_first: u32) -> impl FnMut() -> DtlResult<u32> {
        let mut calls = 0u32;
        move || {
            calls += 1;
            if calls <= fail_first {
                Err(DtlError::Io(std::io::Error::other("transient")))
            } else {
                Ok(calls)
            }
        }
    }

    #[test]
    fn no_policy_means_single_attempt() {
        let (r, g) = (AtomicU64::new(0), AtomicU64::new(0));
        let out = run_with_retry(None, None, 0, &r, &g, flaky(1));
        assert!(out.is_err());
        assert_eq!((r.load(Ordering::Relaxed), g.load(Ordering::Relaxed)), (0, 0));
    }

    #[test]
    fn retries_clear_transient_errors() {
        let policy = RetryPolicy::with_attempts(3);
        let (r, g) = (AtomicU64::new(0), AtomicU64::new(0));
        let out = run_with_retry(Some(&policy), None, 7, &r, &g, flaky(2)).unwrap();
        assert_eq!(out, 3, "succeeded on the third attempt");
        assert_eq!((r.load(Ordering::Relaxed), g.load(Ordering::Relaxed)), (2, 0));
    }

    #[test]
    fn attempts_exhausted_is_a_giveup() {
        let policy = RetryPolicy::with_attempts(2);
        let (r, g) = (AtomicU64::new(0), AtomicU64::new(0));
        let out = run_with_retry(Some(&policy), None, 0, &r, &g, flaky(10));
        assert!(matches!(out, Err(DtlError::Io(_))));
        assert_eq!((r.load(Ordering::Relaxed), g.load(Ordering::Relaxed)), (1, 1));
    }

    #[test]
    fn deadline_bounds_the_budget() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(20),
            jitter: 0.0,
            seed: 0,
        };
        let (r, g) = (AtomicU64::new(0), AtomicU64::new(0));
        let deadline = Instant::now() + Duration::from_millis(50);
        let t0 = Instant::now();
        let out = run_with_retry(Some(&policy), Some(deadline), 0, &r, &g, flaky(1000));
        assert!(out.is_err());
        assert!(t0.elapsed() < Duration::from_millis(500), "must stop near the deadline");
        assert_eq!(g.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let policy = RetryPolicy::with_attempts(5);
        let (r, g) = (AtomicU64::new(0), AtomicU64::new(0));
        let out: DtlResult<()> =
            run_with_retry(Some(&policy), None, 0, &r, &g, || Err(DtlError::Closed));
        assert!(matches!(out, Err(DtlError::Closed)));
        assert_eq!(r.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(16),
            jitter: 0.0,
            seed: 0,
        };
        assert_eq!(policy.backoff_for(1, 0), Duration::from_millis(2));
        assert_eq!(policy.backoff_for(2, 0), Duration::from_millis(4));
        assert_eq!(policy.backoff_for(4, 0), Duration::from_millis(16));
        assert_eq!(policy.backoff_for(9, 0), Duration::from_millis(16), "capped");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(10),
            jitter: 0.5,
            seed: 3,
        };
        let a = policy.backoff_for(1, 42);
        let b = policy.backoff_for(1, 42);
        assert_eq!(a, b);
        assert!(a <= Duration::from_millis(10));
        assert!(a >= Duration::from_millis(5));
        assert_ne!(policy.backoff_for(1, 42), policy.backoff_for(1, 43), "key varies jitter");
    }
}
