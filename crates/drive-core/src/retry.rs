//! Bounded retry with deterministic jittered backoff.
//!
//! Every retry loop in this repo used to be hand-rolled: the harness
//! re-seeded and re-ran panicking episodes, and ad-hoc sleep loops
//! guarded flaky I/O. This module is the one shared implementation:
//! attempts are bounded, the backoff between attempts grows
//! exponentially with a *seeded* jitter (so two clients retrying the
//! same overloaded server do not thunder in lockstep, yet a fixed seed
//! reproduces the exact same delays), and exhaustion is a typed error
//! carrying the last failure instead of a stringly sentinel.

use drive_seed::splitmix64;
use std::time::Duration;

/// Retry knobs: how many attempts, and how long to wait between them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries); min 1.
    pub max_attempts: usize,
    /// Backoff before the first retry; doubles per subsequent retry.
    /// [`Duration::ZERO`] disables sleeping entirely (the harness's
    /// in-process reseeded retries want no delay).
    pub base_backoff: Duration,
    /// Upper clamp on any single backoff.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a
    /// deterministic factor drawn from `[1 - jitter, 1 + jitter)`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::attempts(3)
    }
}

impl RetryPolicy {
    /// A policy with `n` attempts and no backoff (immediate retries).
    pub fn attempts(n: usize) -> Self {
        RetryPolicy {
            max_attempts: n.max(1),
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
        }
    }

    /// The lease-acquisition contention policy used by the sharded
    /// multi-process coordinator (`repro_bench shard`): short, heavily
    /// jittered exponential waits. N workers racing for the same
    /// `O_EXCL` lease all lose except one; the losers re-poll on
    /// decorrelated schedules (each worker seeds [`backoff_for`] from
    /// its own `SeedTree` stream) instead of thundering in lockstep,
    /// while a fixed worker seed reproduces the exact same waits.
    ///
    /// `max_attempts` here bounds the *exponent*, not the caller's
    /// loop: contention loops poll indefinitely (until the lease frees,
    /// goes stale, or shutdown latches) and clamp their attempt index
    /// to this policy's range.
    ///
    /// [`backoff_for`]: RetryPolicy::backoff_for
    pub fn lease_contention() -> Self {
        RetryPolicy::attempts(8).with_backoff(
            Duration::from_millis(2),
            Duration::from_millis(250),
            0.5,
        )
    }

    /// Adds exponential backoff: `base * 2^retry`, clamped to `max`,
    /// scaled by the jitter fraction.
    pub fn with_backoff(mut self, base: Duration, max: Duration, jitter: f64) -> Self {
        self.base_backoff = base;
        self.max_backoff = max.max(base);
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    /// The backoff slept after failed attempt `attempt` (0-based), for
    /// the given jitter seed. Pure: the same `(policy, attempt, seed)`
    /// always yields the same duration.
    pub fn backoff_for(&self, attempt: usize, seed: u64) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = attempt.min(32) as u32;
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp.min(31))
            .min(self.max_backoff);
        if self.jitter <= 0.0 {
            return raw;
        }
        // Map a splitmix draw to [1 - jitter, 1 + jitter).
        let unit =
            (splitmix64(seed.wrapping_add(attempt as u64)) >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * unit;
        raw.mul_f64(factor).min(self.max_backoff)
    }
}

/// A successful retried operation: the value plus how many attempts it
/// took (1 = first try succeeded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt<T> {
    /// The operation's result.
    pub value: T,
    /// Attempts consumed.
    #[cfg(test)]
    pub attempts: usize,
}

/// Every attempt failed: the retry budget is spent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exhausted<E> {
    /// Attempts consumed (== the policy's `max_attempts`).
    pub attempts: usize,
    /// The error of the final attempt.
    pub last: E,
}

impl<E: std::fmt::Display> std::fmt::Display for Exhausted<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "retry budget exhausted after {} attempt(s): {}",
            self.attempts, self.last
        )
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for Exhausted<E> {}

/// Runs `op` up to `policy.max_attempts` times, sleeping the policy's
/// jittered backoff between attempts.
///
/// `op` receives the 0-based attempt index, so callers can derive
/// per-attempt state (the harness offsets its RNG seed per attempt).
/// `seed` only feeds the backoff jitter; it never changes which
/// attempts run.
pub fn run<T, E>(
    policy: &RetryPolicy,
    seed: u64,
    mut op: impl FnMut(usize) -> Result<T, E>,
) -> Result<Attempt<T>, Exhausted<E>> {
    let max = policy.max_attempts.max(1);
    let mut last: Option<E> = None;
    for attempt in 0..max {
        if attempt > 0 {
            let pause = policy.backoff_for(attempt - 1, seed);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
        match op(attempt) {
            Ok(value) => {
                return Ok(Attempt {
                    value,
                    #[cfg(test)]
                    attempts: attempt + 1,
                })
            }
            Err(e) => last = Some(e),
        }
    }
    Err(Exhausted {
        attempts: max,
        last: last.expect("at least one attempt ran"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_try_success_consumes_one_attempt() {
        let got = run(&RetryPolicy::default(), 0, |_| Ok::<_, String>(7)).unwrap();
        assert_eq!(got.value, 7);
        assert_eq!(got.attempts, 1);
    }

    #[test]
    fn retries_until_success_and_reports_attempts() {
        let mut calls = 0;
        let got = run(&RetryPolicy::attempts(5), 0, |attempt| {
            calls += 1;
            if attempt < 2 {
                Err("not yet")
            } else {
                Ok(attempt)
            }
        })
        .unwrap();
        assert_eq!(calls, 3);
        assert_eq!(got.attempts, 3);
        assert_eq!(got.value, 2);
    }

    #[test]
    fn exhaustion_is_typed_and_carries_the_last_error() {
        let err = run(&RetryPolicy::attempts(3), 0, |attempt| {
            Err::<(), String>(format!("fail {attempt}"))
        })
        .expect_err("must exhaust");
        assert_eq!(err.attempts, 3);
        assert_eq!(err.last, "fail 2");
        assert!(err.to_string().contains("exhausted after 3"));
    }

    #[test]
    fn zero_attempts_still_runs_once() {
        let mut calls = 0;
        let _ = run(&RetryPolicy::attempts(0), 0, |_| {
            calls += 1;
            Ok::<_, ()>(())
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_is_exponential_clamped_and_deterministic() {
        let p = RetryPolicy::attempts(8).with_backoff(
            Duration::from_millis(10),
            Duration::from_millis(45),
            0.0,
        );
        assert_eq!(p.backoff_for(0, 1), Duration::from_millis(10));
        assert_eq!(p.backoff_for(1, 1), Duration::from_millis(20));
        assert_eq!(p.backoff_for(2, 1), Duration::from_millis(40));
        assert_eq!(p.backoff_for(3, 1), Duration::from_millis(45), "clamped");
        assert_eq!(
            p.backoff_for(60, 1),
            Duration::from_millis(45),
            "no overflow"
        );

        let j = p.with_backoff(Duration::from_millis(10), Duration::from_millis(45), 0.5);
        for attempt in 0..4 {
            let a = j.backoff_for(attempt, 99);
            let b = j.backoff_for(attempt, 99);
            assert_eq!(a, b, "same seed, same jitter");
            let raw = p.backoff_for(attempt, 0).as_secs_f64();
            assert!(
                a.as_secs_f64() >= raw * 0.5 - 1e-9 && a.as_secs_f64() <= raw * 1.5 + 1e-9,
                "jitter bounds at attempt {attempt}: {a:?} vs raw {raw}"
            );
        }
        assert_ne!(
            j.backoff_for(0, 1),
            j.backoff_for(0, 2),
            "different seeds decorrelate"
        );
    }

    #[test]
    fn lease_contention_policy_is_jittered_and_deterministic() {
        let p = RetryPolicy::lease_contention();
        assert!(p.jitter > 0.0, "contention waits must decorrelate");
        assert!(!p.base_backoff.is_zero());
        // Deterministic per (attempt, seed); distinct across worker seeds.
        assert_eq!(p.backoff_for(3, 7), p.backoff_for(3, 7));
        assert_ne!(p.backoff_for(0, 1), p.backoff_for(0, 2));
        // Bounded even for clamped attempt indices far past the policy.
        assert!(p.backoff_for(1000, 9) <= p.max_backoff);
    }

    #[test]
    fn zero_base_backoff_never_sleeps() {
        let p = RetryPolicy::attempts(4);
        assert_eq!(p.backoff_for(3, 123), Duration::ZERO);
        let start = std::time::Instant::now();
        let _ = run(&p, 0, |_| Err::<(), _>(()));
        assert!(start.elapsed() < Duration::from_millis(50));
    }
}
