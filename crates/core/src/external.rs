//! External operations: latency-incurring operations completed by the
//! outside world.
//!
//! [`simulate_latency`](crate::simulate_latency) models latency with a
//! timer, as the paper's own benchmark did. Real programs wait on *events*:
//! a network reply, a user keystroke, a device interrupt. [`external_op`]
//! provides exactly that — a one-shot operation whose task side suspends
//! through the same heavy-edge machinery (the deque's `suspendCtr`, the
//! owner's inbox, `addResumedVertices`) and whose [`Completer`] can be
//! fired from **any** thread.
//!
//! Semantics:
//!
//! * On a latency-hiding worker, the first `Pending` poll registers the
//!   task against its current (worker, active deque) pair, exactly like a
//!   timer suspension. `Completer::complete` then routes a resume event to
//!   the owning worker's inbox.
//! * Re-polls before completion (spurious wakes) keep the original
//!   registration: one registration pairs with exactly one resume event,
//!   so suspension counters always balance. The deque recorded at first
//!   suspension remains the task's home deque for this operation.
//! * Off-worker (or in blocking mode), the future degrades to ordinary
//!   waker-based waiting — no deque bookkeeping, completion wakes the task
//!   through the injector.
//! * Dropping the `Completer` without completing cancels the operation:
//!   the future resolves to `Err(Canceled)`. **While the runtime is
//!   running**, the cancellation delivers a resume event like any
//!   completion, so the suspension count stays balanced. A completer
//!   dropped *after* the workers have stopped (during or after
//!   [`Runtime::shutdown`](crate::Runtime::shutdown)) still settles the
//!   state safely — the drop never panics and a later poll still observes
//!   `Err(Canceled)` — but the resume event has no live worker left to
//!   drain it, so the suspension is reported in
//!   [`ShutdownReport::leaked_suspensions`](crate::ShutdownReport::leaked_suspensions)
//!   rather than balanced. Drivers that hold completers (I/O reactors)
//!   avoid this by being shut down *before* the workers — see
//!   [`crate::driver`].
//! * [`DeadlineExt::with_deadline`] bounds the wait through the runtime
//!   timer: the resulting [`DeadlineOp`] resolves `Err(TimedOut)` if the
//!   completer has not fired by the deadline. The settle protocol is
//!   **idempotent** — the deadline and a racing completer both try to
//!   settle, exactly one wins, and the loser is a no-op (the completer
//!   reports which via [`Completer::complete`]'s return value).

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use crate::sync::Mutex;
use crate::worker::{self, SuspendWait};

/// The operation was canceled: its [`Completer`] was dropped unfired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Canceled;

impl std::fmt::Display for Canceled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "external operation canceled: completer dropped")
    }
}

impl std::error::Error for Canceled {}

/// Why an external operation resolved without a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// The [`Completer`] was dropped unfired (or the runtime shut down
    /// with the deadline still pending).
    Canceled,
    /// A [`DeadlineOp`] deadline expired before the completer fired.
    TimedOut,
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::Canceled => write!(f, "external operation canceled"),
            OpError::TimedOut => write!(f, "external operation timed out"),
        }
    }
}

impl std::error::Error for OpError {}

/// Extension trait unifying the deadline surface: every suspending
/// operation that can be bounded by the runtime timer — [`ExternalOp`],
/// [`OneshotReceiver`](crate::channel::OneshotReceiver), and the net crate's
/// readiness futures — implements it once, with one typed error path
/// ([`OpError`]) underneath.
///
/// `with_timeout` is provided in terms of `with_deadline`, so an
/// implementation defines the absolute form only and both spellings agree
/// by construction.
pub trait DeadlineExt: Sized {
    /// The deadline-bounded form of this operation.
    type Deadlined;

    /// Bounds the operation with an absolute deadline through the runtime
    /// timer: the result resolves with a timeout error if the operation
    /// has not completed by `deadline`. The settle protocol is idempotent —
    /// the deadline and a racing completion both try to settle, exactly
    /// one wins, and the loser is a no-op.
    fn with_deadline(self, deadline: Instant) -> Self::Deadlined;

    /// [`DeadlineExt::with_deadline`] with a relative timeout.
    fn with_timeout(self, timeout: Duration) -> Self::Deadlined {
        self.with_deadline(Instant::now() + timeout)
    }
}

enum OpState<T> {
    /// Created; not yet polled, not yet completed.
    Idle,
    /// Waiting: suspended on a worker deque or parked behind a waker
    /// (see [`worker::register_suspension`]).
    Parked(SuspendWait),
    /// Completed (or canceled / timed out); value not yet taken.
    Done(Result<T, OpError>),
    /// Value delivered to the future.
    Finished,
}

struct Shared<T> {
    state: Mutex<OpState<T>>,
}

/// Creates a one-shot external operation: the [`ExternalOp`] future
/// suspends until the [`Completer`] fires (from any thread).
pub fn external_op<T: Send + 'static>() -> (Completer<T>, ExternalOp<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(OpState::Idle),
    });
    (
        Completer {
            shared: Some(shared.clone()),
        },
        ExternalOp { shared },
    )
}

/// Completion side of an [`external_op`]. Firing it resumes the waiting
/// task; dropping it unfired cancels the operation.
pub struct Completer<T: Send + 'static> {
    shared: Option<Arc<Shared<T>>>,
}

impl<T: Send + 'static> std::fmt::Debug for Completer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completer").finish_non_exhaustive()
    }
}

impl<T: Send + 'static> Completer<T> {
    /// Completes the operation with `value`, resuming the waiting task.
    ///
    /// Returns `true` when this call **won** the settle race — the waiter
    /// will observe `Ok(value)` — and `false` when it lost (a deadline
    /// already timed the operation out), in which case `value` is dropped.
    pub fn complete(mut self, value: T) -> bool {
        match self.shared.take() {
            Some(shared) => settle(&shared, Ok(value)),
            None => false,
        }
    }
}

impl<T: Send + 'static> Drop for Completer<T> {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            settle(&shared, Err(OpError::Canceled));
        }
    }
}

/// Stores the outcome and resumes/wakes the waiter, if any. Idempotent:
/// the first settler wins and returns `true`; later settlers (a completer
/// racing a deadline, or vice versa) are no-ops returning `false`, so the
/// waiter is notified exactly once.
fn settle<T: Send + 'static>(shared: &Shared<T>, outcome: Result<T, OpError>) -> bool {
    let prev = {
        let mut st = shared.state.lock();
        if matches!(&*st, OpState::Done(_) | OpState::Finished) {
            return false; // already settled; this settler lost the race
        }
        std::mem::replace(&mut *st, OpState::Done(outcome))
    };
    match prev {
        OpState::Idle => {}
        // The paper's callback(v, q) on the deque path; a plain wake on
        // the waker path.
        OpState::Parked(wait) => wait.notify(),
        OpState::Done(_) | OpState::Finished => unreachable!("checked above"),
    }
    true
}

/// Future side of an [`external_op`]. Resolves when the completer fires.
pub struct ExternalOp<T: Send + 'static> {
    shared: Arc<Shared<T>>,
}

impl<T: Send + 'static> std::fmt::Debug for ExternalOp<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExternalOp").finish_non_exhaustive()
    }
}

impl<T: Send + 'static> DeadlineExt for ExternalOp<T> {
    type Deadlined = DeadlineOp<T>;

    /// The returned [`DeadlineOp`] resolves `Err(TimedOut)` if the
    /// completer has not fired by `deadline`. See [`DeadlineOp`] for the
    /// race and counter-balance semantics.
    fn with_deadline(self, deadline: Instant) -> DeadlineOp<T> {
        DeadlineOp {
            shared: self.shared,
            deadline,
            arm_attempted: false,
            timer_armed: false,
        }
    }
}

impl<T: Send + 'static> Future for ExternalOp<T> {
    type Output = Result<T, Canceled>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.shared.state.lock();
        match &mut *st {
            OpState::Done(_) => {
                let OpState::Done(v) = std::mem::replace(&mut *st, OpState::Finished) else {
                    unreachable!()
                };
                // A plain ExternalOp never arms a deadline, so the only
                // error it can observe is cancellation.
                Poll::Ready(v.map_err(|_| Canceled))
            }
            OpState::Finished => panic!("ExternalOp polled after completion"),
            OpState::Parked(SuspendWait::Deque(_)) => {
                // Spurious re-poll while suspended: keep the original
                // registration (it pairs with the one pending event).
                Poll::Pending
            }
            st_ref @ (OpState::Idle | OpState::Parked(SuspendWait::Waker(_))) => {
                *st_ref = OpState::Parked(worker::register_suspension(cx.waker()));
                Poll::Pending
            }
        }
    }
}

/// An [`ExternalOp`] bounded by a deadline (see
/// [`DeadlineExt::with_deadline`]).
///
/// Polled on a runtime worker, the first poll arms a one-shot deadline on
/// that worker's own timer shard; whichever of {completer, deadline, runtime shutdown}
/// settles first wins, and the suspension registered by the poll is
/// resumed exactly once regardless — counters stay balanced. Off any
/// runtime there is no timer, so the deadline is checked at each poll
/// (best effort): a completer firing still wakes the future, but a timeout
/// is only observed when something polls it.
pub struct DeadlineOp<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    deadline: Instant,
    /// First poll already tried to arm the timer (arm exactly once).
    arm_attempted: bool,
    /// A runtime timer holds the deadline; no per-poll deadline checks
    /// needed.
    timer_armed: bool,
}

impl<T: Send + 'static> std::fmt::Debug for DeadlineOp<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeadlineOp")
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> Future for DeadlineOp<T> {
    type Output = Result<T, OpError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if !this.arm_attempted {
            this.arm_attempted = true;
            // Arm before taking the state lock: the callback takes the
            // state lock, and it runs on this worker's own drain, never
            // inside this poll.
            this.timer_armed = worker::with_worker(|w| {
                let Some(w) = w else { return false };
                let shared = this.shared.clone();
                w.register_deadline(
                    this.deadline,
                    Box::new(move |expired| {
                        let outcome = if expired {
                            OpError::TimedOut
                        } else {
                            OpError::Canceled // the worker exited first
                        };
                        settle(&shared, Err(outcome));
                    }),
                );
                true
            });
        }
        let mut st = this.shared.state.lock();
        match &mut *st {
            OpState::Done(_) => {
                let OpState::Done(v) = std::mem::replace(&mut *st, OpState::Finished) else {
                    unreachable!()
                };
                Poll::Ready(v)
            }
            OpState::Finished => panic!("DeadlineOp polled after completion"),
            OpState::Parked(SuspendWait::Deque(_)) => Poll::Pending,
            st_ref @ (OpState::Idle | OpState::Parked(SuspendWait::Waker(_))) => {
                if !this.timer_armed && Instant::now() >= this.deadline {
                    // No timer to enforce the deadline (off-runtime poll):
                    // enforce it here. No suspension was registered on
                    // this path, so nothing needs resuming.
                    *st_ref = OpState::Finished;
                    return Poll::Ready(Err(OpError::TimedOut));
                }
                *st_ref = OpState::Parked(worker::register_suspension(cx.waker()));
                Poll::Pending
            }
        }
    }
}

/// Hooks for the model checker (`crates/check`, DESIGN.md §15). Hidden
/// from docs and not part of the public API contract.
///
/// The checker cannot exercise [`DeadlineOp`]'s timer path directly —
/// it reads `Instant::now()`, which is nondeterministic under schedule
/// exploration — so this exposes the *same* settle transition the timer
/// callback performs (settle with `Err(TimedOut)`), detached from
/// wall time. Scenarios race it against a [`Completer`] and a cancel to
/// verify first-settler-wins (`AtMostOnceSettle` in
/// `specs/tla/DeadlineSettle.tla`).
#[doc(hidden)]
pub mod check_hooks {
    use super::*;

    /// A deadline-settler for `op`: calling the returned closure performs
    /// exactly the timer-expiry settle, returning `true` iff it won.
    pub fn deadline_settler<T: Send + 'static>(op: &ExternalOp<T>) -> impl FnOnce() -> bool {
        let shared = op.shared.clone();
        move || settle(&shared, Err(OpError::TimedOut))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::task::Waker;
    use std::time::Duration;

    #[test]
    fn complete_before_poll() {
        let rt = Runtime::builder().workers(2).build().unwrap();
        let (c, op) = external_op::<u32>();
        c.complete(7);
        assert_eq!(rt.block_on(op), Ok(7));
    }

    #[test]
    fn complete_from_external_thread() {
        let rt = Runtime::builder().workers(2).build().unwrap();
        let (c, op) = external_op::<String>();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            c.complete("hello".to_string());
        });
        let got = rt.block_on(op);
        assert_eq!(got.as_deref(), Ok("hello"));
        t.join().unwrap();
        let m = rt.metrics();
        assert_eq!(m.suspensions, 1, "the op suspended through the deque path");
        assert_eq!(m.resumes, 1);
    }

    #[test]
    fn cancellation_surfaces() {
        let rt = Runtime::builder().workers(2).build().unwrap();
        let (c, op) = external_op::<u32>();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            drop(c);
        });
        assert_eq!(rt.block_on(op), Err(Canceled));
        t.join().unwrap();
    }

    #[test]
    fn many_external_ops_in_flight() {
        let rt = Runtime::builder().workers(2).build().unwrap();
        let n = 200;
        let mut completers = Vec::new();
        let mut ops = Vec::new();
        for _ in 0..n {
            let (c, op) = external_op::<u64>();
            completers.push(c);
            ops.push(op);
        }
        let firing = std::thread::spawn(move || {
            for (i, c) in completers.into_iter().enumerate() {
                c.complete(i as u64);
            }
        });
        let sum = rt.block_on(async move {
            let handles: Vec<_> = ops
                .into_iter()
                .map(|op| crate::spawn(async move { op.await.unwrap() }))
                .collect();
            let mut s = 0;
            for h in handles {
                s += h.await;
            }
            s
        });
        firing.join().unwrap();
        assert_eq!(sum, (0..n as u64).sum::<u64>());
    }

    #[test]
    fn deadline_times_out_and_completer_loses() {
        let rt = Runtime::builder().workers(2).build().unwrap();
        let (c, op) = external_op::<u32>();
        let got = rt.block_on(op.with_timeout(Duration::from_millis(20)));
        assert_eq!(got, Err(OpError::TimedOut));
        // The late completer loses the settle race, harmlessly.
        assert!(!c.complete(9), "completer must report it lost");
        // The suspension registered by the waiting poll was resumed by the
        // timeout settle: counters balance.
        let m = rt.metrics();
        assert_eq!(m.suspensions, m.resumes);
    }

    #[test]
    fn completer_beats_deadline() {
        let rt = Runtime::builder().workers(2).build().unwrap();
        let (c, op) = external_op::<u32>();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            assert!(c.complete(7), "completer fired well before the deadline");
        });
        let got = rt.block_on(op.with_timeout(Duration::from_secs(30)));
        assert_eq!(got, Ok(7));
        t.join().unwrap();
        // The armed deadline is canceled at shutdown and counted.
        let report = rt.shutdown();
        assert_eq!(report.canceled_ops, 1);
        assert_eq!(report.leaked_suspensions, 0);
    }

    #[test]
    fn deadline_cancellation_still_surfaces() {
        let rt = Runtime::builder().workers(2).build().unwrap();
        let (c, op) = external_op::<u32>();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            drop(c);
        });
        let got = rt.block_on(op.with_timeout(Duration::from_secs(30)));
        assert_eq!(got, Err(OpError::Canceled));
        t.join().unwrap();
    }

    #[test]
    fn off_runtime_deadline_checked_on_poll() {
        use std::task::Wake;
        struct Noop;
        impl Wake for Noop {
            fn wake(self: Arc<Self>) {}
        }
        let (_c, op) = external_op::<u32>();
        let mut d = op.with_deadline(Instant::now() - Duration::from_millis(1));
        let waker = Waker::from(Arc::new(Noop));
        let mut cx = Context::from_waker(&waker);
        // No runtime → no timer; the expired deadline is observed at poll.
        assert_eq!(
            Pin::new(&mut d).poll(&mut cx),
            Poll::Ready(Err(OpError::TimedOut))
        );
    }

    #[test]
    fn off_runtime_waiting_path() {
        // Completed op polled off any runtime resolves via the waker path.
        let (c, mut op) = external_op::<u32>();
        use std::task::Wake;
        struct Flag(std::sync::atomic::AtomicBool);
        impl Wake for Flag {
            fn wake(self: Arc<Self>) {
                self.0.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let flag = Arc::new(Flag(std::sync::atomic::AtomicBool::new(false)));
        let waker = Waker::from(flag.clone());
        let mut cx = Context::from_waker(&waker);
        assert!(Pin::new(&mut op).poll(&mut cx).is_pending());
        c.complete(5);
        assert!(flag.0.load(std::sync::atomic::Ordering::SeqCst));
        assert_eq!(Pin::new(&mut op).poll(&mut cx), Poll::Ready(Ok(5)));
    }
}
