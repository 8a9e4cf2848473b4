//! Tasks: suspendable user-level threads, one allocation each.
//!
//! A task is a single `Arc` allocation: a [`Header`] (state word, joiner
//! handshake, runtime id) followed by its body — the future while it runs,
//! its output once it has finished. Two views of that allocation exist:
//! the scheduler's [`TaskRef`] (one thin pointer to the header, which
//! carries the three functions that know the body's type: poll it, count
//! it, free it) and the [`JoinHandle`]'s (`Task<dyn Joinable<T>>`: read
//! its output).
//!
//! The state word serializes polling and makes wake-ups race-free:
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
//! Nothing in a task is behind a lock; two words decide who may touch the
//! two `UnsafeCell`s:
//!
//! * The **body** belongs to the poller from `QUEUED → RUNNING`
//!   ([`Header::begin_poll`]) until it leaves `RUNNING`
//!   ([`Header::finish_pending`] / [`Header::complete`]) — one poller at a
//!   time, whichever thread it is on. [`Header::complete`] publishes
//!   `COMPLETE` on the join word, after which the body (now the output)
//!   belongs to the one [`JoinHandle`].
//! * The **joiner's waker slot** belongs to the `JoinHandle` while the
//!   join word is `LOCKED`, and to the completer once its swap to
//!   `COMPLETE` has returned `WAITING` (see [`Header::register_joiner`]).
//!
//! Wake *routing* implements the paper's split between light and heavy
//! enabling: a wake from a worker thread of the same runtime is an ordinary
//! enabling (the completer pushes the task onto its active deque — the
//! enabling-edge semantics of work stealing), while latency resumes bypass
//! wakers entirely and travel through the timer → inbox →
//! `addResumedVertices` path ([`crate::worker`]).

use std::cell::UnsafeCell;
use std::future::Future;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::ptr::NonNull;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use crate::join::{JoinHandle, PanicPayload};
use crate::sync::{AtomicU32, Ordering};
use crate::worker;

/// Task lifecycle states.
mod state {
    /// Suspended/waiting; not in any queue.
    pub const IDLE: u32 = 0;
    /// In a deque, inbox, or injector; will be polled.
    pub const QUEUED: u32 = 1;
    /// Currently being polled by a worker.
    pub const RUNNING: u32 = 2;
    /// Woken while running; requeue on `Pending`.
    pub const NOTIFIED: u32 = 3;
    /// Completed; the body holds the output, not the future.
    pub const DONE: u32 = 4;
}

/// States of the completion / joiner-waker handshake.
mod join_word {
    /// Not complete, no waker published.
    pub const EMPTY: u32 = 0;
    /// The `JoinHandle` is writing the waker slot.
    pub const LOCKED: u32 = 1;
    /// Not complete, a waker is published for the completer to take.
    pub const WAITING: u32 = 2;
    /// Complete: the output is in the body. Never left again.
    pub const COMPLETE: u32 = 3;
}

/// The part of a task the scheduler uses without knowing the body's type.
pub(crate) struct Header {
    state: AtomicU32,
    join: AtomicU32,
    joiner: UnsafeCell<Option<Waker>>,
    /// What [`TaskRef`] needs of the body's type.
    vtable: &'static VTable,
    /// Which runtime's queues wake-ups deliver to ([`worker::route`]).
    /// An id, not a reference: a task neither keeps its runtime alive nor
    /// touches a count that all workers share.
    rt_id: u64,
    /// Trace tag of the suspension this task was last resumed from (`0` =
    /// none). Set when the owner drains the resume event, consumed at the
    /// next poll to emit the `ResumeExec` trace event. Only touched while
    /// tracing is enabled.
    trace_seq: AtomicU64,
}

// SAFETY: `joiner` is the one field that is not `Sync` by itself. The join
// word admits one accessor at a time (the `JoinHandle` under `LOCKED`, the
// completer after `WAITING → COMPLETE`; see `register_joiner`/`complete`),
// and a `Waker` may be used and dropped on any thread.
unsafe impl Sync for Header {}

impl Header {
    fn new(rt_id: u64, vtable: &'static VTable) -> Header {
        Header {
            vtable,
            state: AtomicU32::new(state::QUEUED),
            join: AtomicU32::new(join_word::EMPTY),
            joiner: UnsafeCell::new(None),
            rt_id,
            trace_seq: AtomicU64::new(0),
        }
    }

    /// Id of the runtime this task belongs to.
    #[inline]
    pub fn rt_id(&self) -> u64 {
        self.rt_id
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

    /// The wake protocol of the module docs. Returns true if this caller
    /// claimed the task (`IDLE → QUEUED`) and must deliver it to a queue.
    fn wake_claims(&self) -> bool {
        loop {
            let (from, to) = match self.state.load(Ordering::Acquire) {
                state::IDLE => (state::IDLE, state::QUEUED),
                state::RUNNING => (state::RUNNING, state::NOTIFIED),
                state::QUEUED | state::NOTIFIED | state::DONE => return false,
                s => unreachable!("invalid task state {s}"),
            };
            if self
                .state
                .compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return from == state::IDLE;
            }
        }
    }

    /// `QUEUED → RUNNING`: the caller is the poller until it calls
    /// [`Header::complete`] or [`Header::finish_pending`].
    fn begin_poll(&self) {
        let prev = self.state.swap(state::RUNNING, Ordering::AcqRel);
        debug_assert_eq!(prev, state::QUEUED, "polling a task that was not queued");
    }

    /// Settles a `Pending` poll: `RUNNING → IDLE`, unless a wake arrived
    /// during the poll (`NOTIFIED`), in which case the task goes back to
    /// `QUEUED` and `true` is returned — the caller must requeue it.
    fn finish_pending(&self) -> bool {
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

    /// Settles a `Ready` poll: publishes the output the poller left in
    /// the body and wakes the joiner if one is waiting.
    fn complete(&self) {
        self.state.store(state::DONE, Ordering::Release);
        // Release: the body write before this is what a joiner that reads
        // COMPLETE (Acquire) goes on to read.
        if self.join.swap(join_word::COMPLETE, Ordering::AcqRel) == join_word::WAITING {
            // SAFETY: WAITING → COMPLETE hands the slot to this thread:
            // the JoinHandle writes it only under LOCKED, which it can no
            // longer enter (COMPLETE is never left).
            if let Some(waker) = unsafe { (*self.joiner.get()).take() } {
                waker.wake();
            }
        }
    }

    /// True once the task has completed: the body holds its output (or
    /// the handle already took it).
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.join.load(Ordering::Acquire) == join_word::COMPLETE
    }

    /// Publishes `waker` for [`Header::complete`] to wake. Returns true if
    /// the task turned out complete instead (nothing will wake `waker`;
    /// the output is there to take).
    ///
    /// Only the task's one `JoinHandle` calls this (`&mut` in its `poll`),
    /// so the join word is `EMPTY`, `WAITING` or `COMPLETE` on entry.
    pub fn register_joiner(&self, waker: &Waker) -> bool {
        let seen = self.join.load(Ordering::Acquire);
        if seen == join_word::COMPLETE
            || self
                .join
                .compare_exchange(seen, join_word::LOCKED, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            return true;
        }
        // SAFETY: LOCKED is this thread's: the completer takes the slot
        // only if its swap returns WAITING, and no second JoinHandle
        // exists.
        unsafe {
            let slot = &mut *self.joiner.get();
            if !slot.as_ref().is_some_and(|w| w.will_wake(waker)) {
                *slot = Some(waker.clone());
            }
        }
        if self
            .join
            .compare_exchange(
                join_word::LOCKED,
                join_word::WAITING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            return false;
        }
        // SAFETY: the completer's swap saw LOCKED, so it left the slot
        // alone — for good, COMPLETE is never left.
        unsafe { *self.joiner.get() = None };
        true
    }
}

/// A task: header, then body. `repr(C)`, so a pointer to a task is a
/// pointer to its header ([`TaskRef`]); unsized over the body, so the same
/// allocation is a `Task<dyn Joinable<T>>` to its [`JoinHandle`].
#[repr(C)]
pub(crate) struct Task<B: ?Sized> {
    header: Header,
    body: B,
}

impl<B: ?Sized> Deref for Task<B> {
    type Target = Header;

    #[inline]
    fn deref(&self) -> &Header {
        &self.header
    }
}

/// The scheduler's view of a task body: what a [`TaskRef`] calls through
/// the header, one instance per future type ([`Body::VTABLE`]).
///
/// # Safety
/// All three take the header pointer of a live `Task<Body<F>>` for the `F`
/// the table was built for; `poll` additionally requires that the caller
/// holds `RUNNING` ([`Header::begin_poll`]).
struct VTable {
    /// Polls the body once; `Ready` means it now holds the output.
    poll: unsafe fn(&TaskRef) -> Poll<()>,
    /// Takes one more count on the allocation.
    clone: unsafe fn(NonNull<Header>),
    /// Gives one count back, freeing the task with the last.
    drop: unsafe fn(NonNull<Header>),
}

/// The join handle's view of a task body.
pub(crate) trait Joinable<T>: Send + Sync {
    /// Moves the output out of the body.
    ///
    /// # Safety
    /// The caller is the task's one `JoinHandle` and has observed
    /// `COMPLETE` ([`Header::is_complete`] or [`Header::register_joiner`]
    /// returning true).
    unsafe fn take_output(&self) -> Result<T, PanicPayload>;
}

impl<T> Task<dyn Joinable<T>> {
    /// See [`Joinable::take_output`].
    ///
    /// # Safety
    /// As for [`Joinable::take_output`].
    pub unsafe fn take_output(&self) -> Result<T, PanicPayload> {
        // SAFETY: forwarded contract.
        unsafe { self.body.take_output() }
    }
}

/// What a body holds over its life.
enum Stage<F: Future> {
    Running(F),
    /// The output, or the payload of the panic that ended the future —
    /// re-thrown at the join point.
    Finished(Result<F::Output, PanicPayload>),
    Taken,
}

/// The one concrete body type: a future, then its output, in place.
struct Body<F: Future> {
    stage: UnsafeCell<Stage<F>>,
}

// SAFETY: the stage has one accessor at a time (the poller holding
// RUNNING, then the JoinHandle after COMPLETE; module docs), and those may
// be different threads — which `F: Send` and `F::Output: Send` allow.
unsafe impl<F: Future + Send> Sync for Body<F> where F::Output: Send {}

impl<F> Body<F>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    const VTABLE: &'static VTable = &VTable {
        poll: Self::poll,
        clone: |task| {
            // SAFETY: `task` heads a live `Arc<Task<Self>>` (VTable contract).
            unsafe { Arc::increment_strong_count(task.as_ptr().cast_const().cast::<Task<Self>>()) }
        },
        drop: |task| {
            // SAFETY: as above; the caller gives up the count it held.
            drop(unsafe { Arc::from_raw(task.as_ptr().cast_const().cast::<Task<Self>>()) })
        },
    };

    /// [`VTable::poll`] for this body type.
    unsafe fn poll(me: &TaskRef) -> Poll<()> {
        let task = me.0.as_ptr().cast_const().cast::<Task<Self>>();
        // SAFETY: `me` heads a live `Arc<Task<Self>>` (VTable contract),
        // which is what `from_raw` asks for. The `Arc` made here stands
        // for a count it never took, so the waker built from it is never
        // dropped; clones take their own count.
        let waker = ManuallyDrop::new(Waker::from(unsafe { Arc::from_raw(task) }));
        let mut cx = Context::from_waker(&waker);
        // SAFETY: the caller holds RUNNING, which admits one poller, and
        // the JoinHandle stays off the stage until COMPLETE.
        let stage = unsafe { &mut *(*task).body.stage.get() };
        let Stage::Running(fut) = stage else {
            unreachable!("polling a task that already finished");
        };
        // SAFETY: the future lives in the task's heap allocation and is
        // only ever dropped in place (the assignment below, or `Drop`).
        let fut = unsafe { Pin::new_unchecked(fut) };
        // A panic in the future ends the task like a value does; it
        // surfaces at the join point and never unwinds into the worker.
        let out = match catch_unwind(AssertUnwindSafe(|| fut.poll(&mut cx))) {
            Ok(Poll::Pending) => return Poll::Pending,
            Ok(Poll::Ready(v)) => Ok(v),
            Err(payload) => Err(payload),
        };
        *stage = Stage::Finished(out);
        Poll::Ready(())
    }
}

impl<F> Joinable<F::Output> for Body<F>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    unsafe fn take_output(&self) -> Result<F::Output, PanicPayload> {
        // SAFETY: COMPLETE was observed, so the poller is done with the
        // stage for good, and the caller is the only JoinHandle.
        let stage = unsafe { &mut *self.stage.get() };
        match std::mem::replace(stage, Stage::Taken) {
            Stage::Finished(out) => out,
            Stage::Taken => panic!("JoinHandle polled after it returned the output"),
            Stage::Running(_) => unreachable!("COMPLETE published over a running body"),
        }
    }
}

impl<F> Wake for Task<Body<F>>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    fn wake(self: Arc<Self>) {
        if self.wake_claims() {
            deliver(TaskRef::from_arc(self));
        }
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if self.wake_claims() {
            deliver(TaskRef::from_arc(self.clone()));
        }
    }
}

/// What one scheduler poll left behind.
pub(crate) enum Polled {
    /// The task completed.
    Done,
    /// The task is suspended; a wake or resume will requeue it.
    Idle,
    /// A wake arrived during the poll: the caller must requeue the task.
    Requeue,
}

/// Owning reference to a task as the scheduler sees it: one of the
/// counts of its `Arc<Task<Body<F>>>`, kept as a thin pointer to the
/// header. Thin, so that queues full of them (deque rings, timer entries,
/// inboxes) cost a word per task, and raw, so that a deque slot's bit image
/// of one can be compared by address ([`TaskRef::image_addr`]) without
/// touching a task that may be gone.
#[repr(transparent)]
pub(crate) struct TaskRef(NonNull<Header>);

// SAFETY: a `TaskRef` is an `Arc<Task<Body<F>>>`, and every way to make one
// ([`allocate`]) requires `F: Send` and `F::Output: Send`, which make that
// task `Send + Sync` (`Body` and `Header` above).
unsafe impl Send for TaskRef {}
// SAFETY: as above.
unsafe impl Sync for TaskRef {}

impl TaskRef {
    fn from_arc<F>(task: Arc<Task<Body<F>>>) -> TaskRef
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        // `repr(C)`: the task's address is its header's.
        let header = Arc::into_raw(task).cast::<Header>().cast_mut();
        // SAFETY: `Arc::into_raw` never returns null.
        TaskRef(unsafe { NonNull::new_unchecked(header) })
    }

    /// The address of the task that the bit image of a `TaskRef` names
    /// (see `lhws_deque::WorkerHandle::pop_bottom_if`).
    #[inline]
    pub fn image_addr(image: &MaybeUninit<TaskRef>) -> *const () {
        // SAFETY: `TaskRef` is `repr(transparent)` over a raw pointer and
        // the image is a bit copy of a `TaskRef` that was pushed, so the
        // bytes are an initialised pointer value. Reading that value does
        // not follow it — the task may have been stolen and freed.
        unsafe { image.as_ptr().cast::<*const ()>().read() }
    }

    /// One scheduler poll: `QUEUED → RUNNING`, poll the body, settle.
    pub fn run(&self) -> Polled {
        self.begin_poll();
        // SAFETY: `begin_poll` took RUNNING, and the table is the one this
        // task was allocated with.
        match unsafe { (self.vtable.poll)(self) } {
            Poll::Ready(()) => {
                self.complete();
                Polled::Done
            }
            Poll::Pending if self.finish_pending() => Polled::Requeue,
            Poll::Pending => Polled::Idle,
        }
    }

    /// Wakes the task through the wake protocol (what its wakers do; the
    /// fault layer injects spurious wakes through it too).
    pub fn wake(&self) {
        if self.wake_claims() {
            deliver(self.clone());
        }
    }
}

impl Deref for TaskRef {
    type Target = Header;

    #[inline]
    fn deref(&self) -> &Header {
        // SAFETY: this `TaskRef` holds one of the allocation's counts.
        unsafe { self.0.as_ref() }
    }
}

impl Clone for TaskRef {
    fn clone(&self) -> TaskRef {
        // SAFETY: the count `self` holds keeps the task alive, and the
        // table is the one it was allocated with.
        unsafe { (self.vtable.clone)(self.0) };
        TaskRef(self.0)
    }
}

impl Drop for TaskRef {
    fn drop(&mut self) {
        // SAFETY: gives back the one count this `TaskRef` holds.
        unsafe { (self.vtable.drop)(self.0) };
    }
}

impl std::fmt::Debug for TaskRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("state", &self.state.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

fn allocate<F>(rt_id: u64, fut: F) -> Arc<Task<Body<F>>>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    Arc::new(Task {
        header: Header::new(rt_id, Body::<F>::VTABLE),
        body: Body {
            stage: UnsafeCell::new(Stage::Running(fut)),
        },
    })
}

/// Creates a task nobody joins, in the `QUEUED` state (about to be
/// delivered to a scheduler queue by the caller).
pub(crate) fn new_detached<F>(rt_id: u64, fut: F) -> TaskRef
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    TaskRef::from_arc(allocate(rt_id, fut))
}

/// Creates a `QUEUED` task and the handle that joins it: one allocation,
/// two views.
pub(crate) fn new_joinable<F>(rt_id: u64, fut: F) -> (TaskRef, JoinHandle<F::Output>)
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    let task = allocate(rt_id, fut);
    let handle = JoinHandle::new(task.clone());
    (TaskRef::from_arc(task), handle)
}

/// Delivers a freshly claimed (`QUEUED`) task to a scheduler queue.
///
/// On a worker thread of the owning runtime, the task is enqueued onto
/// that worker's pending-enable buffer (flushed to the bottom of its
/// active deque) — this is the light-edge "completer enables the
/// continuation" path. From any other thread, the task goes to the global
/// injector and a worker is unparked.
fn deliver(task: TaskRef) {
    worker::route(
        task.rt_id,
        task,
        |w, task| w.push_enabled(task),
        |rt, task| rt.inject(task),
    );
}

/// Model-checker entry points (`lhws-check`): one forked child on a real
/// deque, raced by its owner's pop-back, a thief, and the join handle.
pub mod check_hooks {
    use super::*;
    use lhws_deque::{DequeKind, StealerHandle, WorkerHandle};

    /// The forking side: the deque's owner end and the child's handle.
    pub struct Forked<T> {
        owner: WorkerHandle<TaskRef>,
        /// Joins the child; poll it off-runtime with any waker.
        pub handle: JoinHandle<T>,
    }

    /// The stealing side of the same deque.
    pub struct Thief(StealerHandle<TaskRef>);

    /// Forks `fut` as a worker's `spawn` does — one fused task, pushed on
    /// the bottom of a fresh deque — outside any runtime (wakes of the
    /// child itself go nowhere; its joiner's waker is the caller's).
    pub fn fork<F>(fut: F) -> (Forked<F::Output>, Thief)
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (owner, stealer) = WorkerHandle::new(DequeKind::ChaseLev);
        let (task, handle) = new_joinable(0, fut);
        owner.push_bottom(task);
        (Forked { owner, handle }, Thief(stealer))
    }

    impl<T> Forked<T> {
        /// The owner's pop-back at the join: runs the child here if it is
        /// still the deque's bottom element. True if it ran.
        pub fn join_inline(&self) -> bool {
            self.handle
                .pop_if_bottom(&self.owner)
                .map(|child| child.run())
                .is_some()
        }
    }

    impl Thief {
        /// One steal attempt; runs the child if it won it. True if it ran.
        pub fn steal_and_run(&self) -> bool {
            self.0.steal().success().map(|child| child.run()).is_some()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};

    struct Flag(AtomicBool);
    impl Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, SeqCst);
        }
    }

    fn noop() -> Waker {
        Waker::from(Arc::new(Flag(AtomicBool::new(false))))
    }

    fn poll_once<T>(h: &mut JoinHandle<T>, waker: &Waker) -> Poll<T> {
        Pin::new(h).poll(&mut Context::from_waker(waker))
    }

    #[test]
    fn complete_then_poll() {
        let (task, mut h) = new_joinable(0, async { 42 });
        assert!(matches!(task.run(), Polled::Done));
        assert!(matches!(poll_once(&mut h, &noop()), Poll::Ready(42)));
    }

    #[test]
    fn poll_then_complete_wakes() {
        let flag = Arc::new(Flag(AtomicBool::new(false)));
        let waker = Waker::from(flag.clone());
        let (task, mut h) = new_joinable(0, async { "done" });
        assert!(poll_once(&mut h, &waker).is_pending());
        assert!(!h.is_finished());
        // A second registration of the same waker keeps the first.
        assert!(poll_once(&mut h, &waker).is_pending());
        task.run();
        assert!(flag.0.load(SeqCst), "completion wakes the joiner");
        assert!(h.is_finished());
        assert!(matches!(poll_once(&mut h, &waker), Poll::Ready("done")));
    }

    #[test]
    #[should_panic(expected = "child panicked")]
    fn panic_propagates_at_join() {
        let (task, mut h) = new_joinable(0, async {
            if true {
                panic!("child panicked");
            }
        });
        // The task itself contains the panic ...
        assert!(matches!(task.run(), Polled::Done));
        // ... and the join point re-throws it.
        let _ = poll_once(&mut h, &noop());
    }

    #[test]
    fn wake_while_running_requeues() {
        struct YieldOnce(bool);
        impl Future for YieldOnce {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if std::mem::replace(&mut self.0, true) {
                    return Poll::Ready(());
                }
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
        let task = new_detached(0, YieldOnce(false));
        assert!(matches!(task.run(), Polled::Requeue));
        assert!(matches!(task.run(), Polled::Done));
        task.wake(); // DONE: a no-op, not a delivery
    }

    #[test]
    fn output_dropped_once_without_a_join() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let d = drops.clone();
        let (task, h) = new_joinable(0, async move { Counted(d) });
        drop(h);
        task.run();
        assert_eq!(drops.load(SeqCst), 0, "the output lives in the task");
        drop(task);
        assert_eq!(drops.load(SeqCst), 1);
    }
}
