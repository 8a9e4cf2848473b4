//! Tasks: suspendable user-level threads.
//!
//! A [`Task`] owns a boxed future and an atomic state machine. The state
//! machine serializes polling and makes wake-ups race-free:
//!
//! ```text
//!        wake            poll            Ready
//! IDLE ───────► QUEUED ───────► RUNNING ───────► DONE
//!   ▲                              │  ▲
//!   │        Pending (no wake)     │  │ wake while RUNNING
//!   └──────────────────────────────┘  └────► NOTIFIED ──► requeued
//! ```
//!
//! * `wake` on an `IDLE` task claims it (CAS) and delivers it to a
//!   scheduler queue — exactly once.
//! * `wake` on a `RUNNING` task sets `NOTIFIED`; the poller requeues it
//!   when the poll returns `Pending`, so no wake-up is lost.
//! * `wake` on `QUEUED`/`NOTIFIED`/`DONE` is a no-op.
//!
//! Wake *routing* implements the paper's split between light and heavy
//! enabling: a wake from a worker thread of the same runtime is an ordinary
//! enabling (the completer pushes the task onto its active deque — the
//! enabling-edge semantics of work stealing), while latency resumes bypass
//! wakers entirely and travel through the timer → inbox →
//! `addResumedVertices` path ([`crate::worker`]).

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::task::Wake;

use parking_lot::Mutex;

use crate::runtime::RtInner;
use crate::worker;

/// Boxed task body.
pub(crate) type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Shared reference to a task.
pub(crate) type TaskRef = Arc<Task>;

/// Task lifecycle states.
pub(crate) mod state {
    /// Suspended/waiting; not in any queue.
    pub const IDLE: u8 = 0;
    /// In a deque, inbox, or injector; will be polled.
    pub const QUEUED: u8 = 1;
    /// Currently being polled by a worker.
    pub const RUNNING: u8 = 2;
    /// Woken while running; requeue on `Pending`.
    pub const NOTIFIED: u8 = 3;
    /// Completed; the future has been dropped.
    pub const DONE: u8 = 4;
}

/// A suspendable user-level thread.
pub(crate) struct Task {
    state: AtomicU8,
    /// The future, present until completion. The lock is held only while
    /// polling (never by `wake`), so it is uncontended in practice.
    future: Mutex<Option<BoxFuture>>,
    /// Back-reference for wake routing. Weak: tasks must not keep the
    /// runtime alive.
    rt: Weak<RtInner>,
    /// Trace tag of the suspension this task was last resumed from (`0` =
    /// none). Set when the owner drains the resume event, consumed at the
    /// next poll to emit the `ResumeExec` trace event. Only touched while
    /// tracing is enabled.
    trace_seq: AtomicU64,
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("state", &self.state.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Task {
    /// Creates a task in the `QUEUED` state (about to be delivered to a
    /// scheduler queue by the caller).
    pub fn new_queued(rt: Weak<RtInner>, fut: BoxFuture) -> TaskRef {
        Arc::new(Task {
            state: AtomicU8::new(state::QUEUED),
            future: Mutex::new(Some(fut)),
            rt,
            trace_seq: AtomicU64::new(0),
        })
    }

    /// Tags the task with the trace seq of the suspension it resumes.
    #[inline]
    pub fn set_trace_seq(&self, seq: u64) {
        self.trace_seq.store(seq, Ordering::Relaxed);
    }

    /// Takes (and clears) the resume trace tag; `0` if none.
    #[inline]
    pub fn take_trace_seq(&self) -> u64 {
        self.trace_seq.swap(0, Ordering::Relaxed)
    }

    /// Claims an `IDLE` task for scheduling: `IDLE → QUEUED`. Returns true
    /// if this caller must now deliver the task to a queue.
    pub fn try_claim_for_queue(&self) -> bool {
        self.state
            .compare_exchange(
                state::IDLE,
                state::QUEUED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Transition `QUEUED → RUNNING` at the start of a poll.
    pub fn begin_poll(&self) {
        let prev = self.state.swap(state::RUNNING, Ordering::AcqRel);
        debug_assert_eq!(prev, state::QUEUED, "polling a task that was not queued");
    }

    /// Polls the task's future. Returns `true` if the future completed.
    ///
    /// Caller must have called [`Task::begin_poll`] and must follow up with
    /// [`Task::complete`] or [`Task::finish_pending`].
    pub fn poll_future(self: &TaskRef) -> std::task::Poll<()> {
        let waker = std::task::Waker::from(self.clone());
        let mut cx = std::task::Context::from_waker(&waker);
        let mut slot = self.future.lock();
        let fut = slot.as_mut().expect("polling a task whose future is gone");
        fut.as_mut().poll(&mut cx)
    }

    /// Marks the task complete and drops its future.
    pub fn complete(&self) {
        *self.future.lock() = None;
        self.state.store(state::DONE, Ordering::Release);
    }

    /// Settles a `Pending` poll: `RUNNING → IDLE`, unless a wake arrived
    /// during the poll (`NOTIFIED`), in which case the task transitions
    /// back to `QUEUED` and `true` is returned — the caller must requeue
    /// it immediately.
    pub fn finish_pending(&self) -> bool {
        match self.state.compare_exchange(
            state::RUNNING,
            state::IDLE,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => false,
            Err(actual) => {
                debug_assert_eq!(actual, state::NOTIFIED);
                self.state.store(state::QUEUED, Ordering::Release);
                true
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        wake_task(self);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        wake_task(self.clone());
    }
}

/// The wake protocol described in the module docs. `pub(crate)` so the
/// fault layer can inject spurious wakes through the real protocol.
pub(crate) fn wake_task(task: TaskRef) {
    loop {
        let s = task.state.load(Ordering::Acquire);
        match s {
            state::IDLE => {
                if task
                    .state
                    .compare_exchange(
                        state::IDLE,
                        state::QUEUED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    deliver(task);
                    return;
                }
            }
            state::RUNNING => {
                if task
                    .state
                    .compare_exchange(
                        state::RUNNING,
                        state::NOTIFIED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    return;
                }
            }
            state::QUEUED | state::NOTIFIED | state::DONE => return,
            _ => unreachable!("invalid task state {s}"),
        }
    }
}

/// Delivers a freshly claimed (`QUEUED`) task to a scheduler queue.
///
/// On a worker thread of the owning runtime, the task is enqueued onto
/// that worker's pending-enable buffer (flushed to the bottom of its
/// active deque) — this is the light-edge "completer enables the
/// continuation" path. From any other thread, the task goes to the global
/// injector and a worker is unparked.
fn deliver(task: TaskRef) {
    let Some(rt) = task.rt.upgrade() else {
        // Runtime shut down; drop the task.
        return;
    };
    if worker::enqueue_local_if_same_runtime(&rt, &task, false) {
        return;
    }
    rt.inject(task);
}
