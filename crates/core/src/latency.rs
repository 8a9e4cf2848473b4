//! Latency-incurring operations.
//!
//! [`simulate_latency`] is the runtime's `input()` / `getValue()`: an
//! operation that completes after a wall-clock delay. Its behaviour follows
//! the runtime's [`LatencyMode`](crate::LatencyMode):
//!
//! * **Hide** — the task suspends without blocking the worker; a timer
//!   entry is registered against the current active deque and the task
//!   resumes through the `callback`/`addResumedVertices` machinery. This is
//!   the paper's algorithm.
//! * **Block** — the worker thread sleeps for the remaining latency, as a
//!   conventional work-stealing runtime does on a blocking call. This is
//!   the paper's experimental baseline, which "simulates a latency of δ
//!   milliseconds by sleeping for δ milliseconds".
//!
//! [`RemoteService`] wraps the same mechanism in a request/response shape
//! for the examples: a synthetic stand-in for the remote servers, users and
//! storage devices the paper's workloads talk to.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use crate::config::LatencyMode;
use crate::worker;

/// Sleeps for `d` without blocking the worker (in `Hide` mode) or by
/// blocking it (in `Block` mode). See the module docs.
///
/// Outside a runtime worker this falls back to a plain blocking sleep.
pub fn simulate_latency(d: Duration) -> LatencyFuture {
    LatencyFuture {
        deadline: Instant::now() + d,
        registered: false,
    }
}

/// Sleeps until `deadline` (same semantics as [`simulate_latency`]).
pub fn latency_until(deadline: Instant) -> LatencyFuture {
    LatencyFuture {
        deadline,
        registered: false,
    }
}

/// Future returned by [`simulate_latency`].
#[derive(Debug)]
pub struct LatencyFuture {
    deadline: Instant,
    /// Whether a timer registration is (or was) outstanding. In Hide mode
    /// the *first* on-worker poll always registers — even when the
    /// deadline has already passed (a past deadline is due at once, and
    /// the worker's next drain fires it). An expired-deadline `Ready` fast
    /// path here would race OS preemption between deadline computation
    /// and first poll and silently skip the suspension, losing a
    /// registration the trace invariants (and tests) expect to see.
    registered: bool,
}

impl Future for LatencyFuture {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.registered {
            // A poll after our timer registration: either the resume
            // (deadline reached, possibly early by one tick of timer
            // granularity) or a spurious wake.
            if Instant::now() >= this.deadline {
                return Poll::Ready(());
            }
            // Register again so suspendCtr increments and resume events
            // keep pairing one-to-one. Falls through to the unregistered
            // path (the task may have migrated off a worker in tests).
        }
        match worker::current_latency_mode() {
            Some(LatencyMode::Hide) => {
                // Register a fresh timer entry for this suspension; the
                // worker pairs it with a suspendCtr increment after the
                // poll. Past deadlines register too (see `registered`):
                // the worker's next drain fires them.
                if worker::register_latency(this.deadline) {
                    this.registered = true;
                    Poll::Pending
                } else {
                    // Not actually on a worker (e.g. polled during a test
                    // harness): degrade to blocking.
                    let now = Instant::now();
                    if now < this.deadline {
                        std::thread::sleep(this.deadline - now);
                    }
                    Poll::Ready(())
                }
            }
            Some(LatencyMode::Block) | None => {
                let now = Instant::now();
                if now < this.deadline {
                    std::thread::sleep(this.deadline - now);
                }
                Poll::Ready(())
            }
        }
    }
}

/// Latency distribution of a [`RemoteService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyProfile {
    /// Every request takes exactly this long.
    Fixed(Duration),
    /// Requests take a uniformly random duration in `[min, max]`, derived
    /// deterministically from the request key.
    Uniform(Duration, Duration),
}

impl LatencyProfile {
    fn sample(&self, key: u64) -> Duration {
        match *self {
            LatencyProfile::Fixed(d) => d,
            LatencyProfile::Uniform(lo, hi) => {
                if hi <= lo {
                    return lo;
                }
                // SplitMix64 on the key: deterministic per request,
                // well-distributed across requests.
                let z = crate::rng::splitmix64(key);
                let span = (hi - lo).as_nanos() as u64;
                lo + Duration::from_nanos(z % (span + 1))
            }
        }
    }
}

/// A synthetic remote endpoint: requests incur latency per the profile,
/// then produce a value. Substitutes for the paper's remote servers / user
/// input exactly the way the paper's own benchmark did (sleep, then
/// return).
#[derive(Debug, Clone)]
pub struct RemoteService {
    name: String,
    profile: LatencyProfile,
}

impl RemoteService {
    /// Creates a service with the given latency profile.
    pub fn new(name: impl Into<String>, profile: LatencyProfile) -> Self {
        RemoteService {
            name: name.into(),
            profile,
        }
    }

    /// The service's name (for logs and examples).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Issues request `key`: waits out the sampled latency (suspending in
    /// Hide mode), then computes the response with `f`.
    pub async fn request<T>(&self, key: u64, f: impl FnOnce(u64) -> T) -> T {
        let d = self.profile.sample(key);
        simulate_latency(d).await;
        f(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_profile_is_constant() {
        let p = LatencyProfile::Fixed(Duration::from_millis(7));
        assert_eq!(p.sample(0), Duration::from_millis(7));
        assert_eq!(p.sample(99), Duration::from_millis(7));
    }

    #[test]
    fn uniform_profile_in_range_and_deterministic() {
        let lo = Duration::from_millis(2);
        let hi = Duration::from_millis(10);
        let p = LatencyProfile::Uniform(lo, hi);
        for key in 0..200 {
            let d = p.sample(key);
            assert!(d >= lo && d <= hi, "key {key}: {d:?}");
            assert_eq!(d, p.sample(key), "deterministic per key");
        }
        // Different keys spread across the range.
        let distinct: std::collections::HashSet<_> = (0..50).map(|k| p.sample(k)).collect();
        assert!(distinct.len() > 10);
    }

    #[test]
    fn degenerate_uniform_range() {
        let d = Duration::from_millis(5);
        let p = LatencyProfile::Uniform(d, d);
        assert_eq!(p.sample(3), d);
        let inverted = LatencyProfile::Uniform(d, Duration::from_millis(1));
        assert_eq!(inverted.sample(3), d, "inverted range clamps to lo");
    }

    #[test]
    fn latency_future_off_worker_blocks() {
        // Off a worker thread the future degrades to a blocking sleep and
        // completes on first poll.
        use std::task::Wake;
        struct W;
        impl Wake for W {
            fn wake(self: std::sync::Arc<Self>) {}
        }
        let waker = std::task::Waker::from(std::sync::Arc::new(W));
        let mut cx = Context::from_waker(&waker);
        let start = Instant::now();
        let mut f = simulate_latency(Duration::from_millis(5));
        assert!(Pin::new(&mut f).poll(&mut cx).is_ready());
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn expired_deadline_ready_immediately() {
        use std::task::Wake;
        struct W;
        impl Wake for W {
            fn wake(self: std::sync::Arc<Self>) {}
        }
        let waker = std::task::Waker::from(std::sync::Arc::new(W));
        let mut cx = Context::from_waker(&waker);
        let mut f = latency_until(Instant::now() - Duration::from_millis(1));
        assert!(Pin::new(&mut f).poll(&mut cx).is_ready());
    }
}
