//! Tasks: suspendable user-level threads, one block each.
//!
//! A task is one heap block: a [`Header`] (state word, join word,
//! reference count, joiner slot, runtime id) followed by its stage — the
//! future while it runs, its output once it has finished. The header
//! carries the functions that know the future's type (poll it, drop it in
//! place, free the block), and the [`JoinHandle`] carries the one that
//! knows the output's type (move it out), so every holder of the task is
//! one thin pointer to the header: the scheduler's [`TaskRef`], the
//! [`JoinHandle`], and the task's wakers (a [`RawWakerVTable`] over the
//! same pointer). Each holds one count of `refs`; a fork starts at 2 (its
//! `TaskRef` and its handle), a detached task at 1, and whoever gives back
//! the last count frees the block. A holder that finds `refs == 1` is the
//! only one left — nobody can take a count without holding one — and frees
//! without an atomic read-modify-write ([`release`]).
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
//! A spawned task and a promoted fork half also start with [`state::ROLL`]
//! set beside `QUEUED`: the first poll's swap to `RUNNING` clears it and
//! tells the poll to roll the fault plan's `TaskPanic` site
//! ([`TaskRef::run`]), so no future carries a fault field of its own.
//!
//! Nothing in a task is behind a lock; two words decide who may touch the
//! two `UnsafeCell`s:
//!
//! * The **stage** belongs to the poller from `QUEUED → RUNNING`
//!   ([`Header::begin_poll`]) until it leaves `RUNNING`
//!   ([`Header::finish_pending`] / [`Header::complete`]) — one poller at a
//!   time, whichever thread it is on. [`Header::complete`] publishes
//!   `COMPLETE` on the join word, after which the stage (now the output)
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
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use lhws_deque::WorkerHandle;

use crate::fault::{self, FaultInjector};
use crate::join::{JoinHandle, PanicPayload};
use crate::sync::{self, fence, AtomicBool, AtomicU32, Ordering};
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
    /// Completed; the stage holds the output, not the future.
    pub const DONE: u32 = 4;
    /// Set beside `QUEUED` on a task made by a spawn or a fork's promotion
    /// until its first poll, which rolls the `TaskPanic` fault site.
    pub const ROLL: u32 = 8;
    /// `QUEUED` before the first poll of a task made with [`ROLL`].
    pub const QUEUED_ROLL: u32 = QUEUED | ROLL;
}

/// States of the completion / joiner-waker handshake.
mod join_word {
    /// Not complete, no waker published.
    pub const EMPTY: u32 = 0;
    /// The `JoinHandle` is writing the waker slot.
    pub const LOCKED: u32 = 1;
    /// Not complete, a waker is published for the completer to take.
    pub const WAITING: u32 = 2;
    /// Complete: the output is in the stage. Never left again.
    pub const COMPLETE: u32 = 3;
}

/// `refs` of a task the model checker's quarantine has "freed"
/// ([`check_hooks`]); a later release of it is a use after free.
const FREED: u32 = u32::MAX;

/// The most counts a task may have. `refs` is 32 bits: a program that
/// leaks counts (wakers forgotten in a loop) would wrap it and free a live
/// task, so a clone past this aborts the process, as `Arc`'s does.
const MAX_REFS: u32 = i32::MAX as u32;

/// The part of a task the scheduler uses without knowing the stage's type.
pub(crate) struct Header {
    state: AtomicU32,
    join: AtomicU32,
    /// One count per [`TaskRef`], [`JoinHandle`] and waker.
    refs: AtomicU32,
    /// Which runtime's queues wake-ups deliver to ([`worker::route`]).
    /// An id, not a reference: a task neither keeps its runtime alive nor
    /// touches a count that all workers share.
    rt_id: u32,
    joiner: UnsafeCell<Option<Waker>>,
    /// What the holders need of the stage's type.
    vtable: &'static VTable,
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

// 48 bytes: four 32-bit words, the joiner slot, the table, the trace tag.
// The checker's instrumented atomics are larger.
#[cfg(all(target_pointer_width = "64", not(lhws_check)))]
const _: () = assert!(std::mem::size_of::<Header>() == 48);

impl Header {
    /// A header in `state` (`QUEUED`, or `QUEUED_ROLL`) with `refs` counts.
    fn new(rt_id: u32, state: u32, refs: u32, vtable: &'static VTable) -> Header {
        Header {
            vtable,
            state: AtomicU32::new(state),
            join: AtomicU32::new(join_word::EMPTY),
            refs: AtomicU32::new(refs),
            joiner: UnsafeCell::new(None),
            rt_id,
            trace_seq: AtomicU64::new(0),
        }
    }

    /// Id of the runtime this task belongs to.
    #[inline]
    pub fn rt_id(&self) -> u32 {
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
                state::QUEUED | state::QUEUED_ROLL | state::NOTIFIED | state::DONE => return false,
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
    /// [`Header::complete`] or [`Header::finish_pending`]. True if the swap
    /// cleared [`state::ROLL`]: this is the first poll of a task whose
    /// first poll rolls `TaskPanic`.
    fn begin_poll(&self) -> bool {
        let prev = self.state.swap(state::RUNNING, Ordering::AcqRel);
        debug_assert_eq!(
            prev & !state::ROLL,
            state::QUEUED,
            "polling a task that was not queued"
        );
        prev & state::ROLL != 0
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
    /// the stage and wakes the joiner if one is waiting.
    fn complete(&self) {
        self.state.store(state::DONE, Ordering::Release);
        // Release: the stage write before this is what a joiner that reads
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

    /// True once the task has completed: the stage holds its output (or
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

/// What a holder calls through the header, one table per future type
/// ([`Task::VTABLE`]).
///
/// # Safety
/// Each takes the header pointer of a live `Task<F>` for the `F` the table
/// was built for. `poll` also requires that the caller holds `RUNNING`
/// ([`Header::begin_poll`]); `drop_future` that no poller exists or ever
/// will; `free` that the caller gave back the last count.
struct VTable {
    /// Polls the future once; `Ready` means the stage now holds the output.
    /// With a plan, the poll first rolls its `TaskPanic` site inside the
    /// task's own `catch_unwind` ([`fault::roll_task_panic`]).
    poll: unsafe fn(NonNull<Header>, Option<&FaultInjector>) -> Poll<()>,
    /// Drops a future that will never be polled again in place.
    drop_future: unsafe fn(NonNull<Header>),
    /// Drops the task and frees its block.
    free: unsafe fn(NonNull<Header>),
}

/// What a task's stage holds over its life.
enum Stage<F: Future> {
    Running(F),
    /// The output, or the payload of the panic that ended the future —
    /// re-thrown at the join point.
    Finished(Result<F::Output, PanicPayload>),
    Taken,
}

/// A task: header, then stage. `repr(C)`, so a pointer to a task is a
/// pointer to its header.
#[repr(C)]
struct Task<F: Future> {
    header: Header,
    stage: UnsafeCell<Stage<F>>,
}

impl<F> Task<F>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    const VTABLE: &'static VTable = &VTable {
        poll: Self::poll,
        drop_future: Self::drop_future,
        free: Self::free,
    };

    /// A new task in its own block, in `state`, with `refs` counts.
    fn allocate(
        rt_id: u32,
        fut: F,
        state: u32,
        refs: u32,
        vtable: &'static VTable,
    ) -> NonNull<Header> {
        let task = Box::new(Task {
            header: Header::new(rt_id, state, refs, vtable),
            stage: UnsafeCell::new(Stage::Running(fut)),
        });
        NonNull::from(Box::leak(task)).cast()
    }

    /// The stage of the task at `ptr`.
    ///
    /// # Safety
    /// `ptr` heads a live `Task<F>`, and the caller is the stage's one
    /// accessor (module docs) for as long as it uses the reference.
    unsafe fn stage<'a>(ptr: NonNull<Header>) -> &'a mut Stage<F> {
        // SAFETY: forwarded contract.
        unsafe { &mut *(*ptr.cast::<Self>().as_ptr()).stage.get() }
    }

    /// [`VTable::poll`].
    ///
    /// # Safety
    /// `ptr` heads a live `Task<F>` and the caller holds `RUNNING`
    /// ([`Header::begin_poll`]) and one of the task's counts.
    unsafe fn poll(ptr: NonNull<Header>, roll: Option<&FaultInjector>) -> Poll<()> {
        // SAFETY: the waker stands for the count of the caller's
        // `TaskRef`, which outlives the poll; it is never dropped, and its
        // clones take their own counts.
        let waker = ManuallyDrop::new(unsafe { Waker::from_raw(raw_waker(ptr)) });
        let mut cx = Context::from_waker(&waker);
        // SAFETY: the caller holds RUNNING, which admits one poller, and
        // the JoinHandle stays off the stage until COMPLETE.
        let stage = unsafe { Self::stage(ptr) };
        let Stage::Running(fut) = stage else {
            unreachable!("polling a task that already finished");
        };
        // SAFETY: the future lives in the task's block and is only ever
        // dropped in place (the assignment below, `drop_future`, `free`).
        let fut = unsafe { Pin::new_unchecked(fut) };
        // A panic in the future ends the task like a value does; it
        // surfaces at the join point and never unwinds into the worker.
        let out = match catch_unwind(AssertUnwindSafe(|| {
            fault::roll_task_panic(roll);
            fut.poll(&mut cx)
        })) {
            Ok(Poll::Pending) => return Poll::Pending,
            Ok(Poll::Ready(v)) => Ok(v),
            Err(payload) => Err(payload),
        };
        *stage = Stage::Finished(out);
        Poll::Ready(())
    }

    /// Moves the output out of the stage — the [`JoinHandle`]'s
    /// [`ReadOutput`].
    ///
    /// # Safety
    /// `ptr` heads a live `Task<F>`; the caller is its one `JoinHandle`
    /// and has observed `COMPLETE`.
    unsafe fn read_output(ptr: NonNull<Header>) -> Result<F::Output, PanicPayload> {
        // SAFETY: COMPLETE was observed, so the poller is done with the
        // stage for good, and the caller is the only JoinHandle.
        let stage = unsafe { Self::stage(ptr) };
        if !matches!(stage, Stage::Finished(_)) {
            match stage {
                Stage::Taken => panic!("JoinHandle polled after it returned the output"),
                _ => unreachable!("COMPLETE published over a running task"),
            }
        }
        let Stage::Finished(output) = std::mem::replace(stage, Stage::Taken) else {
            unreachable!("checked above")
        };
        output
    }

    /// [`VTable::drop_future`]: an output stays for its handle.
    ///
    /// # Safety
    /// `ptr` heads a live `Task<F>` that no poller holds or ever will.
    unsafe fn drop_future(ptr: NonNull<Header>) {
        // SAFETY: a live task (VTable contract).
        if unsafe { ptr.as_ref() }.is_complete() {
            return;
        }
        // SAFETY: not complete, so the handle stays off the stage, and no
        // poller exists (VTable contract).
        let stage = unsafe { Self::stage(ptr) };
        if matches!(stage, Stage::Running(_)) {
            *stage = Stage::Taken;
        }
    }

    /// [`VTable::free`].
    ///
    /// # Safety
    /// `ptr` heads a `Task<F>` made by `allocate` whose last count the
    /// caller gave back.
    unsafe fn free(ptr: NonNull<Header>) {
        // SAFETY: the last count is given back, so nobody else can reach
        // the task, and its block came from the `Box` of `allocate`.
        drop(unsafe { Box::from_raw(ptr.cast::<Self>().as_ptr()) });
    }
}

/// Gives back one count of the task at `ptr`, freeing the task with the
/// last. The holder of the only count frees with a load, no RMW: nobody
/// else can take a count, so `refs` cannot change under it.
///
/// # Safety
/// The caller holds one count of a live task and gives it up.
pub(crate) unsafe fn release(ptr: NonNull<Header>) {
    // SAFETY: the caller's count keeps the task alive until here.
    let header = unsafe { ptr.as_ref() };
    let refs = header.refs.load(Ordering::Acquire);
    debug_assert_ne!(refs, FREED, "task released after it was freed");
    if refs != 1 {
        if header.refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Pairs with the other holders' Release decrements: their last
        // accesses happen before the free.
        fence(Ordering::Acquire);
    }
    let free = header.vtable.free;
    // SAFETY: that was the last count.
    unsafe { free(ptr) }
}

/// How a [`JoinHandle`] moves the output out of its completed task: the
/// task's own `Task::read_output`, typed by the output alone.
///
/// # Safety
/// `ptr` heads a live task of the future type the function was taken
/// from; the caller is its one `JoinHandle` and has observed `COMPLETE`.
pub(crate) type ReadOutput<T> = unsafe fn(NonNull<Header>) -> Result<T, PanicPayload>;

/// The wakers of every task: a waker is a header pointer holding one count.
static WAKER_VTABLE: RawWakerVTable =
    RawWakerVTable::new(waker_clone, waker_wake, waker_wake_by_ref, waker_drop);

fn raw_waker(ptr: NonNull<Header>) -> RawWaker {
    RawWaker::new(ptr.as_ptr().cast_const().cast(), &WAKER_VTABLE)
}

/// The task a waker's data pointer names.
///
/// # Safety
/// `data` came from [`raw_waker`].
unsafe fn waker_task(data: *const ()) -> TaskRef {
    // SAFETY: `raw_waker` made it from a `NonNull<Header>`.
    TaskRef(unsafe { NonNull::new_unchecked(data.cast_mut().cast()) })
}

/// [`RawWakerVTable`] `clone`.
///
/// # Safety
/// `data` is a live waker's: [`raw_waker`] made it and it holds a count.
unsafe fn waker_clone(data: *const ()) -> RawWaker {
    // SAFETY: the waker being cloned holds a count; the clone is another.
    let task = ManuallyDrop::new(unsafe { waker_task(data) });
    ManuallyDrop::into_inner(task.clone()).into_raw_waker()
}

/// [`RawWakerVTable`] `wake`: consumes the waker's count.
///
/// # Safety
/// As for [`waker_clone`].
unsafe fn waker_wake(data: *const ()) {
    // SAFETY: the waker's count becomes this `TaskRef`'s.
    unsafe { waker_task(data) }.wake_owned();
}

/// [`RawWakerVTable`] `wake_by_ref`.
///
/// # Safety
/// As for [`waker_clone`].
unsafe fn waker_wake_by_ref(data: *const ()) {
    // SAFETY: borrowed: the waker keeps its count.
    ManuallyDrop::new(unsafe { waker_task(data) }).wake();
}

/// [`RawWakerVTable`] `drop`: gives back the waker's count.
///
/// # Safety
/// As for [`waker_clone`].
unsafe fn waker_drop(data: *const ()) {
    // SAFETY: the waker's count is given back.
    drop(unsafe { waker_task(data) });
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

/// Owning reference to a task as the scheduler sees it: one count, kept as
/// a thin pointer to the header. Thin, so that queues full of them (deque
/// rings, timer entries, inboxes) cost a word per task, and raw, so that a
/// deque slot's bit image of one can be compared by address
/// ([`Job::image_addr`]) without touching a task that may be gone.
#[repr(transparent)]
pub(crate) struct TaskRef(NonNull<Header>);

// SAFETY: every way to make a task ([`Task::allocate`]) requires `F: Send`
// and `F::Output: Send`, the stage has one accessor at a time (module
// docs), and the header is `Sync`.
unsafe impl Send for TaskRef {}
// SAFETY: as above.
unsafe impl Sync for TaskRef {}

impl TaskRef {
    /// This count as a waker's.
    fn into_raw_waker(self) -> RawWaker {
        raw_waker(ManuallyDrop::new(self).0)
    }

    /// One scheduler poll: `QUEUED → RUNNING`, poll the future, settle.
    /// The first poll of a task made with [`state::ROLL`] rolls `faults`'
    /// `TaskPanic` site (one visit), and panics the task if it fires.
    pub fn run(&self, faults: Option<&FaultInjector>) -> Polled {
        let roll = if self.begin_poll() { faults } else { None };
        // SAFETY: `begin_poll` took RUNNING, and the table is the one this
        // task was allocated with.
        match unsafe { (self.vtable.poll)(self.0, roll) } {
            Poll::Ready(()) => {
                self.complete();
                Polled::Done
            }
            Poll::Pending if self.finish_pending() => Polled::Requeue,
            Poll::Pending => Polled::Idle,
        }
    }

    /// The seeded mutation of [`release`] for `lhws-check`
    /// (`join_inline_racy_release_unsound`): gives the count back with a
    /// load and a store instead of an RMW, as if no other holder could be
    /// releasing at the same time — which a waker that escaped the poll
    /// can. Never enable the cfg in production builds.
    #[cfg(lhws_check_mutation)]
    pub fn release_racy(self) {
        let this = ManuallyDrop::new(self);
        let refs = this.refs.load(Ordering::Acquire);
        if refs == 1 {
            // SAFETY: the only count, as in `release`.
            unsafe { (this.vtable.free)(this.0) }
        } else {
            this.refs.store(refs - 1, Ordering::Release);
        }
    }

    /// Wakes the task through the wake protocol (what its wakers do; the
    /// fault layer injects spurious wakes through it too).
    pub fn wake(&self) {
        if self.wake_claims() {
            deliver(self.clone());
        }
    }

    /// [`TaskRef::wake`], handing this count to the delivery.
    fn wake_owned(self) {
        if self.wake_claims() {
            deliver(self);
        }
    }

    /// Drops the task's future in place, unless it has completed — what
    /// a poisoned runtime does to each task it still holds, so that a
    /// cycle through its futures (parent → handle → child → joiner waker →
    /// parent) does not keep the tasks alive after the runtime.
    ///
    /// # Safety
    /// No poller exists and none ever will: every worker of the task's
    /// runtime has exited.
    pub unsafe fn drop_future(&self) {
        // SAFETY: forwarded contract; the count keeps the task alive.
        unsafe { (self.vtable.drop_future)(self.0) }
    }
}

impl Deref for TaskRef {
    type Target = Header;

    #[inline]
    fn deref(&self) -> &Header {
        // SAFETY: this `TaskRef` holds one of the task's counts.
        unsafe { self.0.as_ref() }
    }
}

impl Clone for TaskRef {
    fn clone(&self) -> TaskRef {
        // Relaxed: the new count is taken under one the caller holds.
        if self.refs.fetch_add(1, Ordering::Relaxed) > MAX_REFS {
            std::process::abort();
        }
        TaskRef(self.0)
    }
}

impl Drop for TaskRef {
    fn drop(&mut self) {
        // SAFETY: gives back the one count this `TaskRef` holds.
        unsafe { release(self.0) }
    }
}

impl std::fmt::Debug for TaskRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("state", &self.state.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// What a deque holds: a task, or the slot of a fork's right half that
/// the fork advertised for thieves ([`crate::join::Fork2`]). One word: a
/// task's header pointer, or a slot's head pointer with bit 0 set (both
/// are at least word-aligned).
///
/// A slot is lent, not owned: it lives inside the parent's `Fork2`, which
/// takes it back before the poll that advertised it returns ([`reclaim`]).
/// Chase–Lev alone decides who gets it off the deque — the owner's pop or
/// one thief's steal — and a thief promotes it before anything else sees
/// it ([`Job::into_stolen`]), so no other consumer of a deque ever holds
/// one.
#[repr(transparent)]
pub(crate) struct Job(NonNull<u8>);

/// Bit 0 of a [`Job`]: set for a slot.
const SLOT_TAG: usize = 1;

// SAFETY: a task job is a `TaskRef`, which is `Send`. A slot job is a
// loan of a slot whose right half is `Send` (`Fork2` requires it); the
// thread that wins it off the deque moves that half into a task and
// touches the slot no more after its publish.
unsafe impl Send for Job {}

impl Job {
    /// A task as a deque item; the job takes over the task's count.
    #[inline]
    pub fn task(task: TaskRef) -> Job {
        Job(ManuallyDrop::new(task).0.cast())
    }

    /// A fork's slot as a deque item.
    ///
    /// # Safety
    /// The caller is the owner of the deque it pushes the job on, is
    /// inside the poll that owns the slot, and calls [`reclaim`] for it on
    /// that deque before the poll returns or unwinds.
    #[inline]
    pub unsafe fn slot(head: NonNull<SlotHead>) -> Job {
        let tagged = head.as_ptr().cast::<u8>().wrapping_add(SLOT_TAG);
        // SAFETY: `head` is non-null and word-aligned, so adding 1 neither
        // wraps nor reaches null.
        Job(unsafe { NonNull::new_unchecked(tagged) })
    }

    /// The bit pattern of the job, as [`Job::image_addr`] reads it.
    #[inline]
    fn addr(&self) -> usize {
        self.0.as_ptr() as usize
    }

    /// The slot this job lends, if it is one.
    #[inline]
    fn as_slot(&self) -> Option<NonNull<SlotHead>> {
        if self.addr() & SLOT_TAG == 0 {
            return None;
        }
        let head = self.0.as_ptr().wrapping_sub(SLOT_TAG).cast::<SlotHead>();
        // SAFETY: `Job::slot` tagged a non-null pointer; untagging gives
        // it back.
        Some(unsafe { NonNull::new_unchecked(head) })
    }

    /// The task an owner pops off its own deque outside a poll: never a
    /// slot, since every slot is taken back inside the poll that
    /// advertised it.
    #[inline]
    pub fn task_of_owner(self) -> TaskRef {
        assert!(
            self.as_slot().is_none(),
            "a fork slot outlived the poll that advertised it"
        );
        TaskRef(ManuallyDrop::new(self).0.cast())
    }

    /// The task a thief stole: a task as it is, a slot promoted to a task
    /// of runtime `rt_id` and published to its owner. True if it
    /// promoted.
    pub fn into_stolen(self, rt_id: u32) -> (TaskRef, bool) {
        let job = ManuallyDrop::new(self);
        match job.as_slot() {
            None => (TaskRef(job.0.cast()), false),
            // SAFETY: the steal won the slot (Chase–Lev hands each index
            // to one thread), so its right half is this thread's, and its
            // owner cannot leave the poll that lent it before the publish.
            Some(head) => (unsafe { SlotHead::promote(head, rt_id) }, true),
        }
    }

    /// The bit pattern of the job whose bit image this is: a task's header
    /// address, or a slot's tagged one (see
    /// `lhws_deque::WorkerHandle::pop_bottom_if`).
    #[inline]
    pub fn image_addr(image: &MaybeUninit<Job>) -> *const () {
        // SAFETY: `Job` is `repr(transparent)` over a pointer and the image
        // is a bit copy of a pushed `Job`, so the bytes are an initialised
        // pointer value. Reading that value does not follow it — the task
        // may have been stolen and freed.
        unsafe { image.as_ptr().cast::<*const ()>().read() }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        // A slot owns nothing (and no consumer drops one: each promotes
        // it or takes it back); a task job holds one count.
        if self.as_slot().is_none() {
            // SAFETY: the task job's count, given back.
            unsafe { release(self.0.cast()) }
        }
    }
}

/// The type-erased head of a fork's right-half slot: `join::Slot<B>` is
/// `repr(C)` and starts with it, so a pointer to the head is one to the
/// slot.
pub(crate) struct SlotHead {
    /// Set (Release) by a thief once it has moved the right half out and
    /// left the new task's handle in the slot — its last touch of the
    /// slot. The owner reads it (Acquire) before it reads the handle.
    published: AtomicBool,
    /// Moves the right half into a new `QUEUED` task of the runtime with
    /// the given id and leaves the task's handle in the slot.
    ///
    /// Safety: the caller holds the slot's right half (it won the slot,
    /// or owns it and never advertised or took it back), which was never
    /// polled, and its owner's `Fork2` has not moved.
    promote: unsafe fn(NonNull<SlotHead>, u32) -> TaskRef,
}

impl SlotHead {
    /// A head whose slot is promoted by `promote` (see the field).
    pub fn new(promote: unsafe fn(NonNull<SlotHead>, u32) -> TaskRef) -> SlotHead {
        SlotHead {
            published: AtomicBool::new(false),
            promote,
        }
    }

    /// Promotes the slot at `head` to a task of runtime `rt_id`, then
    /// publishes, after which the caller must not touch the slot again.
    ///
    /// # Safety
    /// As for the `promote` field, once per slot.
    pub unsafe fn promote(head: NonNull<SlotHead>, rt_id: u32) -> TaskRef {
        // SAFETY: the slot lives until its owner has seen the publish.
        let promote = unsafe { head.as_ref() }.promote;
        // SAFETY: forwarded contract.
        let task = unsafe { promote(head, rt_id) };
        // SAFETY: as above; the store is the last access.
        unsafe { (*head.as_ptr()).published.store(true, Ordering::Release) };
        task
    }
}

/// The owner's half of the slot protocol: takes the slot at `head` back
/// off `deque` and returns true, or, if a thief stole it, waits until the
/// thief has published and returns false.
///
/// The slot need not be at the bottom: whatever the poll pushed after it
/// (detached spawns, slots that nested forks promoted) is popped off
/// first and re-pushed in its order afterwards, with `put_back`'s task —
/// if the owner got the slot and the closure returns one — going back in
/// the slot's place. Anything older than the slot is gone if the slot is:
/// thieves take from the top. What it pops past waits in `above`, the
/// owner's reusable buffer, which it leaves empty.
///
/// # Safety
/// The caller is `deque`'s owner, advertised `head` on it in the poll it
/// is in, and has not taken it back yet; every slot advertised after it
/// has been taken back.
pub(crate) unsafe fn reclaim(
    deque: &WorkerHandle<Job>,
    above: &mut Vec<Job>,
    head: NonNull<SlotHead>,
    put_back: impl FnOnce() -> Option<TaskRef>,
) -> bool {
    let mine = take_back(deque, above, head, put_back);
    if !mine {
        // SAFETY: the slot lives in the caller's own future.
        sync::spin_until(&unsafe { head.as_ref() }.published);
    }
    mine
}

/// [`reclaim`] without the wait for the thief's publish.
fn take_back(
    deque: &WorkerHandle<Job>,
    above: &mut Vec<Job>,
    head: NonNull<SlotHead>,
    put_back: impl FnOnce() -> Option<TaskRef>,
) -> bool {
    debug_assert!(above.is_empty());
    let me = head.as_ptr() as usize | SLOT_TAG;
    // Usually one pop: the slot is the bottom item, or gone.
    let mine = loop {
        let Some(job) = deque.pop_bottom() else {
            break false;
        };
        if job.addr() == me {
            // The owner's own loan, back: the job owns nothing.
            std::mem::forget(job);
            break true;
        }
        debug_assert!(job.as_slot().is_none(), "a nested slot outlived its poll");
        above.push(job);
    };
    if mine {
        if let Some(task) = put_back() {
            deque.push_bottom(Job::task(task));
        }
    }
    for job in above.drain(..).rev() {
        deque.push_bottom(job);
    }
    mine
}

/// Creates a task nobody joins, in the `QUEUED` state (about to be
/// delivered to a scheduler queue by the caller).
/// No fault roll: its first poll is not a spawned task's.
pub(crate) fn new_detached<F>(rt_id: u32, fut: F) -> TaskRef
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    TaskRef(Task::allocate(
        rt_id,
        fut,
        state::QUEUED,
        1,
        Task::<F>::VTABLE,
    ))
}

/// Creates a `QUEUED` task and the handle that joins it: one block, two
/// counts, no RMW. A spawn or a fork's promotion: its first poll rolls
/// `TaskPanic` ([`state::ROLL`]).
pub(crate) fn new_joinable<F>(rt_id: u32, fut: F) -> (TaskRef, JoinHandle<F::Output>)
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    joinable(rt_id, fut, Task::<F>::VTABLE)
}

fn joinable<F>(rt_id: u32, fut: F, vtable: &'static VTable) -> (TaskRef, JoinHandle<F::Output>)
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    let task = Task::allocate(rt_id, fut, state::QUEUED_ROLL, 2, vtable);
    // SAFETY: the second count is the handle's, and `read_output` is the
    // one of the task's future type.
    let handle = unsafe { JoinHandle::new(task, Task::<F>::read_output) };
    (TaskRef(task), handle)
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
/// deque, raced by its owner's pop-back, a thief, and the join handle; and
/// one fork's right-half slot, raced by its owner's take-back and a
/// thief's steal, promotion and publish.
///
/// The child's block is quarantined rather than freed: its last release
/// drops what a free drops and marks `refs` freed but keeps the memory,
/// so a second free, or a release after the free, fails an assertion
/// instead of touching reused memory, and a
/// [`Probe`](check_hooks::Probe) can tell whether the task was freed. A
/// slot is quarantined the same way ([`check_hooks::Advertised::retire`]).
pub mod check_hooks {
    use super::*;
    use crate::join::{RightHalf, Slot};
    use lhws_deque::{DequeKind, StealerHandle};

    /// The forking side: the deque's owner end and the child's handle.
    pub struct Forked<T> {
        owner: WorkerHandle<Job>,
        /// Joins the child; poll it off-runtime with any waker.
        pub handle: JoinHandle<T>,
    }

    /// The stealing side of the same deque.
    pub struct Thief(StealerHandle<Job>);

    /// Looks at a forked child after the fact: its block is never reused.
    pub struct Probe(NonNull<Header>);

    // SAFETY: reads an atomic of a block that is never deallocated.
    unsafe impl Send for Probe {}

    impl Probe {
        /// True once the child's last count was given back.
        pub fn is_freed(&self) -> bool {
            // SAFETY: quarantined blocks are never deallocated.
            unsafe { self.0.as_ref() }.refs.load(Ordering::SeqCst) == FREED
        }
    }

    /// [`VTable::free`] for checked tasks: drops the joiner slot and the
    /// stage as a free does, then marks the task freed.
    ///
    /// # Safety
    /// As for [`VTable::free`]: `ptr` heads a checked `Task<F>` whose
    /// last count the caller gave back.
    unsafe fn quarantine<F: Future>(ptr: NonNull<Header>) {
        // SAFETY: the block is never deallocated.
        let header = unsafe { ptr.as_ref() };
        assert_ne!(
            header.refs.load(Ordering::SeqCst),
            FREED,
            "task freed twice"
        );
        let task = ptr.cast::<Task<F>>().as_ptr();
        // SAFETY: the last count was given back: nobody else reaches the
        // slot or the stage.
        unsafe {
            *header.joiner.get() = None;
            *(*task).stage.get() = Stage::Taken;
        }
        header.refs.store(FREED, Ordering::SeqCst);
    }

    /// Forks `fut` as a worker's `spawn` does — one task, pushed on the
    /// bottom of a fresh deque — outside any runtime (wakes of the child
    /// itself go nowhere; its joiner's waker is the caller's).
    pub fn fork<F>(fut: F) -> (Forked<F::Output>, Thief)
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (owner, stealer) = WorkerHandle::new(DequeKind::ChaseLev);
        let (task, handle) = joinable(0, fut, Checked::<F>::VTABLE);
        owner.push_bottom(Job::task(task));
        (Forked { owner, handle }, Thief(stealer))
    }

    /// The quarantining table of one future type.
    struct Checked<F>(std::marker::PhantomData<F>);

    impl<F> Checked<F>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        const VTABLE: &'static VTable = &VTable {
            poll: Task::<F>::poll,
            drop_future: Task::<F>::drop_future,
            free: quarantine::<F>,
        };
    }

    impl<T> Forked<T> {
        /// A probe of the child, for after the scenario.
        pub fn probe(&self) -> Probe {
            Probe(self.handle.header_ptr())
        }

        /// The owner's pop-back at the join, as a worker's `join_inline`
        /// does it: runs the child here if it is still the deque's bottom
        /// element. True if it ran.
        pub fn join_inline(&self) -> bool {
            let Some(child) = self.handle.pop_if_bottom(&self.owner) else {
                return false;
            };
            child.run(None);
            true
        }

        /// The seeded mutation: [`Forked::join_inline`] giving the child's
        /// count back with `TaskRef::release_racy`.
        #[cfg(lhws_check_mutation)]
        pub fn join_inline_racy(&self) -> bool {
            let Some(child) = self.handle.pop_if_bottom(&self.owner) else {
                return false;
            };
            child.run(None);
            child.release_racy();
            true
        }
    }

    impl Thief {
        /// One steal attempt, as a worker's thief makes it: a stolen slot
        /// is promoted and published at once. Runs what it got; true if
        /// it ran something.
        pub fn steal_and_run(&self) -> bool {
            self.steal_slot_and_run().is_some()
        }

        /// [`Thief::steal_and_run`], telling what it ran: `Some(true)` for
        /// a promoted fork slot, `Some(false)` for a task, `None` if the
        /// steal got nothing.
        pub fn steal_slot_and_run(&self) -> Option<bool> {
            let job = self.0.steal().success()?;
            let (task, promoted) = job.into_stolen(0);
            task.run(None);
            Some(promoted)
        }
    }

    /// A fork's right half advertised on the bottom of a fresh deque, as
    /// `Fork2`'s first poll does it, outside any runtime. The slot is
    /// quarantined: never freed, so a thief's late write lands in live
    /// memory and [`Advertised::retire`] can tell it happened.
    pub struct Advertised<F: Future + 'static> {
        owner: WorkerHandle<Job>,
        /// Leaked: the quarantine.
        slot: NonNull<Slot<F>>,
        waits: bool,
    }

    // SAFETY: the owner side of one fork, moved to the thread that plays
    // the owner: the slot's right half and output are `Send`, and the
    // thief reaches the slot only through the protocol under check.
    unsafe impl<F> Send for Advertised<F>
    where
        F: Future + Send + 'static,
        F::Output: Send,
    {
    }

    /// How the owner's poll of the left half ended, which decides how it
    /// takes the slot back.
    #[derive(Clone, Copy, Debug)]
    pub enum Left {
        /// Ready: the owner wants the right half back to run in place.
        Ready,
        /// Pending: the owner promotes the right half in the slot's place.
        Pending,
        /// Panicked: the drop guard takes the slot back and leaves the
        /// right half to be dropped (or its task detached) with the fork.
        Panicked,
    }

    /// What the owner got when it took the slot back.
    pub enum Reclaimed<T> {
        /// The slot, with the right half unpolled in it.
        Mine,
        /// The promoted task's handle: a thief's, or the owner's own.
        Joined(JoinHandle<T>),
        /// Nothing to join: the fork unwound.
        Dropped,
    }

    /// Advertises `right`'s slot on a fresh deque, for a thief to race.
    pub fn advertise<F>(right: F) -> (Advertised<F>, Thief)
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (owner, stealer) = WorkerHandle::new(DequeKind::ChaseLev);
        let slot = NonNull::from(Box::leak(Box::new(Slot::new(right))));
        // SAFETY: the scenario takes the slot back (`reclaim`) before it
        // retires it, and the slot's memory is never freed.
        owner.push_bottom(unsafe { Job::slot(slot.cast()) });
        let adv = Advertised {
            owner,
            slot,
            waits: true,
        };
        (adv, Thief(stealer))
    }

    impl<F> Advertised<F>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        /// The quarantined slot, which is never freed.
        fn slot(&self) -> &Slot<F> {
            // SAFETY: leaked in `advertise`.
            unsafe { self.slot.as_ref() }
        }

        /// Pushes a detached task above the slot, as a spawn inside the
        /// left half does; the owner must then pop down to its slot.
        pub fn bury<G>(&self, fut: G)
        where
            G: Future<Output = ()> + Send + 'static,
        {
            let task = TaskRef(Task::allocate(
                0,
                fut,
                state::QUEUED,
                1,
                Checked::<G>::VTABLE,
            ));
            self.owner.push_bottom(Job::task(task));
        }

        /// The owner takes the slot back as `Fork2` does after `left`.
        pub fn reclaim(&self, left: Left) -> Reclaimed<F::Output> {
            let head = self.slot.cast::<SlotHead>();
            let promote = matches!(left, Left::Pending);
            let put_back = || {
                // SAFETY: called with the slot back: the owner's own.
                promote.then(|| unsafe { SlotHead::promote(head, 0) })
            };
            let above = &mut Vec::new();
            let mine = if self.waits {
                // SAFETY: advertised on this deque, not yet taken back,
                // and nothing advertised after it.
                unsafe { reclaim(&self.owner, above, head, put_back) }
            } else {
                take_back(&self.owner, above, head, put_back)
            };
            match left {
                Left::Panicked => Reclaimed::Dropped,
                Left::Ready if mine => Reclaimed::Mine,
                _ => {
                    // SAFETY: promoted by the owner, or published by the
                    // thief: the cell is the owner's.
                    let right = unsafe { &mut *self.slot().right.get() };
                    match std::mem::replace(right, RightHalf::Taken) {
                        RightHalf::Promoted(handle) => Reclaimed::Joined(handle),
                        _ => panic!("a promoted slot holds its handle"),
                    }
                }
            }
        }

        /// The seeded mutation: [`Advertised::reclaim`] treats a slot it
        /// did not find as published at once, without waiting for the
        /// thief's publish.
        #[cfg(lhws_check_mutation)]
        pub fn without_publish_wait(mut self) -> Self {
            self.waits = false;
            self
        }

        /// Polls the right half in place, once: a slot the owner got back.
        pub fn poll_in_place(&self, cx: &mut Context<'_>) -> Poll<F::Output> {
            // SAFETY: the slot is back (`Reclaimed::Mine`), so only the
            // owner reaches the right half, which never moves.
            let RightHalf::Future(fut) = (unsafe { &mut *self.slot().right.get() }) else {
                panic!("the right half is in its slot");
            };
            // SAFETY: as above.
            unsafe { Pin::new_unchecked(fut) }.poll(cx)
        }

        /// Pops and runs what is left on the owner's deque: buried tasks,
        /// a promoted right half nobody stole.
        pub fn run_leftovers(&self) {
            while let Some(job) = self.owner.pop_bottom() {
                job.task_of_owner().run(None);
            }
        }

        /// The fork is dropped: whatever is left in the slot goes with it.
        /// True if a thief's publish was already visible — which must hold
        /// if a thief promoted the slot, or its publish landed in freed
        /// memory.
        pub fn retire(self) -> bool {
            let slot = self.slot();
            let published = slot.head.published.load(Ordering::SeqCst);
            // SAFETY: the fork is gone: the owner drops what is left. A
            // thief still writing (the property under check) races only
            // on memory that stays allocated.
            unsafe { *slot.right.get() = RightHalf::Taken };
            published
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
    use std::sync::Arc;
    use std::task::Wake;

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

    /// Wakes itself and returns `Pending` once, then `Ready`.
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

    /// Counts its drops.
    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    #[test]
    fn complete_then_poll() {
        let (task, mut h) = new_joinable(0, async { 42 });
        assert!(matches!(task.run(None), Polled::Done));
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
        task.run(None);
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
        assert!(matches!(task.run(None), Polled::Done));
        // ... and the join point re-throws it.
        let _ = poll_once(&mut h, &noop());
    }

    #[test]
    fn wake_while_running_requeues() {
        let task = new_detached(0, YieldOnce(false));
        assert!(matches!(task.run(None), Polled::Requeue));
        assert!(matches!(task.run(None), Polled::Done));
        task.wake(); // DONE: a no-op, not a delivery
    }

    #[test]
    fn output_dropped_once_without_a_join() {
        let drops = Arc::new(AtomicUsize::new(0));
        let d = drops.clone();
        let (task, h) = new_joinable(0, async move { Counted(d) });
        drop(h);
        task.run(None);
        assert_eq!(drops.load(SeqCst), 0, "the output lives in the task");
        drop(task);
        assert_eq!(drops.load(SeqCst), 1);
    }

    #[test]
    fn a_fork_counts_two_and_its_last_holder_frees_it() {
        let drops = Arc::new(AtomicUsize::new(0));
        let d = drops.clone();
        let (task, mut h) = new_joinable(0, async move { Counted(d) });
        assert_eq!(h.header().refs.load(Ordering::Relaxed), 2, "task + handle");
        assert!(matches!(task.run(None), Polled::Done));
        drop(task);
        assert_eq!(h.header().refs.load(Ordering::Relaxed), 1);
        let Poll::Ready(out) = poll_once(&mut h, &noop()) else {
            panic!("the child completed");
        };
        drop(h);
        assert_eq!(drops.load(SeqCst), 0, "the output is the caller's");
        drop(out);
        assert_eq!(drops.load(SeqCst), 1);
    }

    #[test]
    fn escaped_waker_keeps_the_task_until_it_is_dropped() {
        let slot: Arc<std::sync::Mutex<Option<Waker>>> = Arc::default();
        let s = slot.clone();
        let (task, mut h) = new_joinable(
            0,
            std::future::poll_fn(move |cx| {
                *s.lock().unwrap() = Some(cx.waker().clone());
                Poll::Ready(7u32)
            }),
        );
        assert!(matches!(task.run(None), Polled::Done));
        drop(task);
        assert_eq!(h.header().refs.load(Ordering::Relaxed), 2, "handle + waker");
        assert!(matches!(poll_once(&mut h, &noop()), Poll::Ready(7)));
        drop(h);
        let waker = slot.lock().unwrap().take().unwrap();
        waker.wake_by_ref(); // DONE: a no-op on a live task
        drop(waker); // the last count: frees the task
    }

    #[test]
    fn an_over_aligned_future_gets_an_aligned_block() {
        #[repr(align(64))]
        struct Wide([u8; 64]);
        let wide = Wide([7; 64]);
        let (task, mut h) = new_joinable(0, async move {
            let wide = wide;
            wide.0[63]
        });
        assert_eq!(task.0.as_ptr() as usize % 64, 0);
        assert!(matches!(task.run(None), Polled::Done));
        drop(task);
        assert!(matches!(poll_once(&mut h, &noop()), Poll::Ready(7)));
    }

    #[test]
    fn a_task_is_freed_on_another_thread_than_the_one_that_made_it() {
        let drops = Arc::new(AtomicUsize::new(0));
        let d = drops.clone();
        let (task, h) = new_joinable(0, async move { Counted(d) });
        std::thread::spawn(move || {
            assert!(matches!(task.run(None), Polled::Done));
            drop(task);
        })
        .join()
        .unwrap();
        assert_eq!(drops.load(SeqCst), 0, "the handle still holds the output");
        std::thread::spawn(move || drop(h)).join().unwrap();
        assert_eq!(drops.load(SeqCst), 1);
    }

    #[test]
    fn a_header_is_48_bytes_and_a_64_byte_future_makes_at_most_a_120_byte_task() {
        /// A 64-byte future, the size of a `spawn-flat` leaf's.
        struct Pad([u64; 8]);
        impl Future for Pad {
            type Output = u64;
            fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<u64> {
                Poll::Ready(self.0[0])
            }
        }
        assert_eq!(std::mem::size_of::<Header>(), 48);
        assert_eq!(std::mem::size_of::<Pad>(), 64);
        // 120 B is a 128-B glibc chunk; 121 B would take a 144-B one.
        assert!(std::mem::size_of::<Task<Pad>>() <= 120);
    }

    #[test]
    fn only_the_first_poll_of_a_joinable_task_rolls_task_panic() {
        use crate::fault::{FaultInjector, FaultPlan, FaultSite};
        let always = FaultInjector::new(FaultPlan::new(1).with(FaultSite::TaskPanic, 1_000_000));
        // A detached task — a pfor batch, a `block_on` root — never rolls.
        let task = new_detached(0, YieldOnce(false));
        assert!(matches!(task.run(Some(&always)), Polled::Requeue));
        assert!(matches!(task.run(Some(&always)), Polled::Done));
        assert_eq!(always.injected_total(), 0);
        // A joinable one rolls at its first poll and panics there, without
        // polling its future; the panic is the join's.
        let (task, mut h) = new_joinable(0, async { 5u32 });
        assert!(matches!(task.run(Some(&always)), Polled::Done));
        assert_eq!(always.injected_total(), 1);
        let joined = catch_unwind(AssertUnwindSafe(|| poll_once(&mut h, &noop())));
        let payload = joined.expect_err("the injected panic surfaces at the join");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected task panic (fault plan)")
        );
        // Its later polls do not roll: the first swap cleared the bit.
        let off = FaultInjector::new(FaultPlan::new(1));
        let (task, mut h) = new_joinable(0, YieldOnce(false));
        assert!(matches!(task.run(Some(&off)), Polled::Requeue));
        assert!(matches!(task.run(Some(&always)), Polled::Done));
        assert_eq!(always.injected_total(), 1);
        assert!(matches!(poll_once(&mut h, &noop()), Poll::Ready(())));
    }
}
