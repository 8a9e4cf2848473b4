//! Retry with capped exponential backoff and deterministic jitter.
//!
//! Transient failures — a canceled [`ExternalOp`](crate::ExternalOp), a
//! timed-out [`DeadlineOp`](crate::DeadlineOp), a reset connection from
//! the net crate — are the expected weather of a latency-hiding runtime:
//! the whole point of suspending instead of blocking is that waiting is
//! cheap, so *waiting again* after a failure is cheap too. [`RetryPolicy`]
//! packages the standard discipline:
//!
//! * **Capped exponential backoff**: attempt `k` sleeps
//!   `min(cap, base · 2^k)` before retrying, so a flapping dependency sees
//!   geometrically decreasing pressure without unbounded delays.
//! * **Deterministic jitter**: the delay is scattered over
//!   `[delay/2, delay]` ("equal jitter") by a [SplitMix64] stream seeded
//!   from `(seed, attempt)` — the same generator behind the fault plan's
//!   decision words, and deterministic for the same reason: a chaos run
//!   that interleaves injected faults with retry sleeps is exactly
//!   reproducible from its seeds.
//! * **Suspension, not blocking**: [`RetryPolicy::run`] sleeps between
//!   attempts through [`simulate_latency`](crate::simulate_latency), i.e.
//!   the runtime's own timer/deadline machinery. On a latency-hiding
//!   worker the retrying task suspends and the worker keeps scheduling;
//!   in Block mode it degrades to a thread sleep, like every other
//!   latency operation.
//!
//! The combinator is shape-agnostic: anything `FnMut(attempt) -> Future<
//! Output = Result<T, E>>` can be retried, which covers `external_op`
//! futures, deadline-bounded ops (`op.with_timeout(t)` inside the
//! factory), and the net crate's `ready(fd)`/connect paths.
//!
//! ```
//! use lhws_core::{Runtime, RetryPolicy};
//! use std::sync::atomic::{AtomicU32, Ordering};
//! use std::sync::Arc;
//!
//! let rt = Runtime::builder().workers(2).build().unwrap();
//! let flaky = Arc::new(AtomicU32::new(0));
//! let policy = RetryPolicy::new(5).base_delay(std::time::Duration::from_micros(50));
//! let got = rt.block_on(async move {
//!     policy
//!         .run(move |_attempt| {
//!             let flaky = flaky.clone();
//!             async move {
//!                 // Fails twice, then succeeds.
//!                 if flaky.fetch_add(1, Ordering::Relaxed) < 2 {
//!                     Err("transient")
//!                 } else {
//!                     Ok(42u32)
//!                 }
//!             }
//!         })
//!         .await
//! });
//! assert_eq!(got, Ok(42));
//! ```
//!
//! [SplitMix64]: crate::rng

use std::future::Future;
use std::time::Duration;

use crate::rng::splitmix64;

/// A retry discipline: how many attempts, how long between them.
///
/// Cheap to copy and `Send + Sync`; build one per operation class (e.g.
/// "connect", "request") and share it. All delay computation is pure —
/// [`delay_for`](Self::delay_for) is a function of `(policy, attempt)` —
/// so schedules can be tested, logged, or digested without running time
/// forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed (the first try counts; `1` means no retry).
    max_attempts: u32,
    /// Backoff base: the delay before the first retry (pre-jitter).
    base: Duration,
    /// Ceiling on any single backoff delay (pre-jitter).
    cap: Duration,
    /// Jitter stream seed; same seed → same schedule.
    seed: u64,
    /// Scatter delays over `[d/2, d]` when `true`; exact `d` otherwise.
    jitter: bool,
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total attempts (clamped to ≥ 1),
    /// with a 1 ms base, a 1 s cap, and jitter on under seed 0.
    pub fn new(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base: Duration::from_millis(1),
            cap: Duration::from_secs(1),
            seed: 0,
            jitter: true,
        }
    }

    /// Sets the backoff base — the (pre-jitter) delay before the first
    /// retry. Clamped to at least 1 µs so the exponential ladder is
    /// non-degenerate.
    pub fn base_delay(mut self, base: Duration) -> RetryPolicy {
        self.base = base.max(Duration::from_micros(1));
        self
    }

    /// Sets the per-delay ceiling (pre-jitter). Clamped to at least the
    /// base.
    pub fn max_delay(mut self, cap: Duration) -> RetryPolicy {
        self.cap = cap.max(self.base);
        self
    }

    /// Seeds the jitter stream. Two runs with the same seed produce the
    /// same delays — pair this with the fault plan's seed for fully
    /// reproducible chaos runs.
    pub fn seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// Disables jitter: delays become the exact capped exponential.
    pub fn no_jitter(mut self) -> RetryPolicy {
        self.jitter = false;
        self
    }

    /// Total attempts this policy allows.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The backoff delay taken **after** failed attempt `attempt`
    /// (0-based). Pure: `min(cap, base · 2^attempt)`, scattered over
    /// `[d/2, d]` by the seeded jitter stream when jitter is on.
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.cap);
        if !self.jitter {
            return exp;
        }
        let nanos = exp.as_nanos().min(u64::MAX as u128) as u64;
        let half = nanos / 2;
        // Equal jitter: d/2 + uniform(0, d/2]. The stream is keyed on
        // (seed, attempt) so delay k is the same whichever task asks.
        let word = splitmix64(self.seed ^ (attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        Duration::from_nanos(half + (word % (half + 1)))
    }

    /// The full backoff schedule (one delay per possible retry, i.e.
    /// `max_attempts - 1` entries).
    pub fn schedule(&self) -> impl Iterator<Item = Duration> + '_ {
        (0..self.max_attempts.saturating_sub(1)).map(|k| self.delay_for(k))
    }

    /// Runs `op` until it succeeds or the attempt budget is exhausted,
    /// sleeping the backoff schedule between failures **through the
    /// runtime's latency machinery** — the retrying task suspends (Hide
    /// mode) rather than blocking its worker. The factory receives the
    /// 0-based attempt number; the last failure's error is returned when
    /// the budget runs out.
    pub async fn run<T, E, F, Fut>(&self, mut op: F) -> Result<T, E>
    where
        F: FnMut(u32) -> Fut,
        Fut: Future<Output = Result<T, E>>,
    {
        let mut attempt = 0;
        loop {
            match op(attempt).await {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if attempt + 1 >= self.max_attempts {
                        return Err(e);
                    }
                    crate::simulate_latency(self.delay_for(attempt)).await;
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn schedule_is_capped_exponential_and_deterministic() {
        let p = RetryPolicy::new(6)
            .base_delay(Duration::from_millis(2))
            .max_delay(Duration::from_millis(10))
            .no_jitter();
        let delays: Vec<_> = p.schedule().collect();
        assert_eq!(
            delays,
            vec![
                Duration::from_millis(2),
                Duration::from_millis(4),
                Duration::from_millis(8),
                Duration::from_millis(10),
                Duration::from_millis(10),
            ]
        );
        // With jitter: bounded by [d/2, d] and reproducible per seed.
        let j = RetryPolicy::new(6)
            .base_delay(Duration::from_millis(2))
            .max_delay(Duration::from_millis(10))
            .seed(7);
        for (k, exact) in delays.iter().enumerate() {
            let d = j.delay_for(k as u32);
            assert!(d >= *exact / 2 && d <= *exact, "attempt {k}: {d:?}");
            assert_eq!(
                d,
                j.delay_for(k as u32),
                "same (seed, attempt) → same delay"
            );
        }
        assert_ne!(
            (0..5).map(|k| j.delay_for(k)).collect::<Vec<_>>(),
            (0..5).map(|k| j.seed(8).delay_for(k)).collect::<Vec<_>>(),
            "different seeds decorrelate"
        );
    }

    #[test]
    fn degenerate_policies_are_clamped() {
        let p = RetryPolicy::new(0);
        assert_eq!(p.max_attempts(), 1);
        assert_eq!(p.schedule().count(), 0);
        let p = RetryPolicy::new(40).base_delay(Duration::ZERO).no_jitter();
        assert!(p.delay_for(0) > Duration::ZERO);
        // Huge attempt numbers saturate at the cap instead of overflowing.
        assert_eq!(p.delay_for(u32::MAX), Duration::from_secs(1));
    }

    #[test]
    fn run_retries_until_success_by_suspending() {
        let rt = Runtime::builder().workers(2).build().unwrap();
        let tries = Arc::new(AtomicU32::new(0));
        let t2 = tries.clone();
        let policy = RetryPolicy::new(5).base_delay(Duration::from_micros(100));
        let got = rt.block_on(async move {
            policy
                .run(move |attempt| {
                    let t = t2.clone();
                    async move {
                        assert_eq!(attempt, t.load(Ordering::Relaxed));
                        if t.fetch_add(1, Ordering::Relaxed) < 3 {
                            Err("flap")
                        } else {
                            Ok(attempt)
                        }
                    }
                })
                .await
        });
        assert_eq!(got, Ok(3));
        assert_eq!(tries.load(Ordering::Relaxed), 4);
        // The backoff sleeps went through the suspension machinery.
        let m = rt.metrics();
        assert!(m.suspensions >= 3, "3 backoff sleeps suspended: {m:?}");
    }

    #[test]
    fn run_surfaces_last_error_when_exhausted() {
        let rt = Runtime::builder().workers(1).build().unwrap();
        let policy = RetryPolicy::new(3).base_delay(Duration::from_micros(50));
        let got: Result<(), String> = rt.block_on(async move {
            policy
                .run(|attempt| async move { Err(format!("attempt {attempt} failed")) })
                .await
        });
        assert_eq!(got, Err("attempt 2 failed".to_string()));
    }
}
