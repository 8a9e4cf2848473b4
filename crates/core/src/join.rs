//! Joins: awaiting another task's result, and the binary fork that only
//! makes a task when a thief takes its right half.
//!
//! A join is Figure 3's pop-bottom. `spawn` pushed the child on the bottom
//! of the forking worker's active deque; if it is still there when its
//! [`JoinHandle`] is polled — nobody stole it — the worker pops it back
//! and runs it right there, inside the parent's poll, and the parent reads
//! the output without ever suspending. Only a child that *was* stolen (or
//! is itself suspended) makes the join a *light* synchronization edge in
//! the paper's model: the joining task suspends without charging the
//! active deque's suspension counter, and the completing child re-enables
//! it through the ordinary waker path (pushed onto the completer's active
//! deque — the enabling-edge semantics of work stealing).
//!
//! [`Fork2`] goes one step further, Cilk's work-first rule: its right half
//! waits in a slot inside the fork itself, and the deque holds only a
//! pointer to that slot while the left half runs. Popped back, the right
//! half is polled in place — no task, no count, no join word. Only a
//! thief that steals the slot, or a left half that suspends, turns it into
//! a task (DESIGN.md §16).

use std::any::Any;
use std::cell::UnsafeCell;
use std::future::Future;
use std::marker::PhantomPinned;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::ptr::NonNull;
use std::task::{ready, Context, Poll};

use lhws_deque::WorkerHandle;

use crate::fault;
use crate::task::{self, Header, Job, ReadOutput, SlotHead, TaskRef};
use crate::worker::{self, WorkerTls};

/// Payload of a propagated panic.
pub(crate) type PanicPayload = Box<dyn Any + Send + 'static>;

/// Handle to a spawned task. Awaiting it yields the task's output; if the
/// task panicked, the panic is propagated to the awaiter (matching the
/// fork-join semantics where a child's panic surfaces at the join point).
///
/// Dropping the handle detaches the task: it still runs, and its output is
/// dropped with it.
pub struct JoinHandle<T> {
    /// One count of the task, whose output type is `T`.
    task: NonNull<Header>,
    /// Moves the output out of the task, typed by `T` alone.
    read_output: ReadOutput<T>,
}

// SAFETY: `task` is a count of a task, which any thread may hold and give
// back; the thread holding the handle moves the `T` out, or drops it with
// the task's last count, hence `T: Send`. `read_output` is a plain fn
// pointer. `&JoinHandle` only reads the join word.
unsafe impl<T: Send> Send for JoinHandle<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for JoinHandle<T> {}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("finished", &self.is_finished())
            .finish_non_exhaustive()
    }
}

impl<T> JoinHandle<T> {
    /// # Safety
    /// `task` heads a live task that `read_output` was taken from, and the
    /// handle takes over one of its counts.
    pub(crate) unsafe fn new(task: NonNull<Header>, read_output: ReadOutput<T>) -> Self {
        JoinHandle { task, read_output }
    }

    #[inline]
    pub(crate) fn header(&self) -> &Header {
        // SAFETY: the handle's count keeps the task alive.
        unsafe { self.task.as_ref() }
    }

    /// The task's address, for the model checker's probe.
    pub(crate) fn header_ptr(&self) -> NonNull<Header> {
        self.task
    }

    /// True if the task has completed (successfully or by panic).
    pub fn is_finished(&self) -> bool {
        self.header().is_complete()
    }

    /// The pop-back half of the join: takes the awaited task off the owner
    /// end of `deque` if it is the bottom element — still queued, never
    /// started — for the caller to run. Anything else at the bottom costs
    /// a peek and stays where it is.
    pub(crate) fn pop_if_bottom(&self, deque: &WorkerHandle<Job>) -> Option<TaskRef> {
        let me: *const () = self.task.as_ptr().cast_const().cast();
        deque
            .pop_bottom_if(|image| Job::image_addr(image) == me)
            .map(Job::task_of_owner)
    }
}

impl<T> Drop for JoinHandle<T> {
    fn drop(&mut self) {
        // SAFETY: gives back the handle's count.
        unsafe { task::release(self.task) }
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let task = self.header();
        if !task.is_complete() {
            worker::join_inline(&*self);
            if !task.is_complete() && !task.register_joiner(cx.waker()) {
                return Poll::Pending;
            }
        }
        // SAFETY: `&mut self` is the task's only handle, `read_output` is
        // its task's, and COMPLETE was observed on every path here
        // (`is_complete`, or `register_joiner` returning true).
        match unsafe { (self.read_output)(self.task) } {
            Ok(v) => Poll::Ready(v),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// The future of [`fork2`](crate::fork2): runs `left` here as the
/// continuation and `right` here too, unless a thief takes it first.
///
/// On its first poll it advertises the right half — a slot inside this
/// future — on the bottom of the worker's active deque, polls `left`, and
/// takes the slot back. Then:
///
/// * `left` ready, slot back: `right` is polled in place, inside this
///   future, as part of the parent task — no allocation, no count, no
///   join word. Past the inline-depth cap the fork promotes instead.
/// * slot stolen: the thief moved `right` into a task and published its
///   handle; the parent awaits the handle, as for a `spawn`.
/// * `left` pending, slot back: the owner promotes `right` itself and
///   puts the task where the slot was, so the deque reads as if `right`
///   had been spawned before `left` ran.
///
/// **No advertised slot outlives the poll that pushed it**: before that
/// poll returns, or unwinds (a drop guard), the slot is back or its
/// thief's publish was seen — so a thief only ever touches the slot while
/// the parent is inside that poll, and a dropped `Fork2` leaves no pointer
/// in any deque. The thief writes the slot while the parent holds `Pin<&mut
/// Fork2>`, hence the slot's `UnsafeCell`s and `PhantomPinned` (no
/// `noalias` on `&mut` to an `!Unpin` type), as in intrusive waiter lists.
#[must_use = "futures do nothing unless polled"]
pub struct Fork2<A: Future, B: Future> {
    left: Half<A>,
    slot: Slot<B>,
    phase: Phase,
    _pinned: PhantomPinned,
}

/// The left half, then its output.
enum Half<F: Future> {
    Running(F),
    Done(F::Output),
    Taken,
}

impl<F: Future> Half<F> {
    /// Polls a running half, keeping its output; true once there is one.
    ///
    /// # Safety
    /// `self` is pinned: it is never moved while `Running`.
    unsafe fn poll(&mut self, cx: &mut Context<'_>) -> bool {
        if let Half::Running(fut) = self {
            // SAFETY: pinned by the caller; the future is only ever
            // dropped in place (the assignment below, or with `self`).
            match unsafe { Pin::new_unchecked(fut) }.poll(cx) {
                Poll::Ready(v) => *self = Half::Done(v),
                Poll::Pending => return false,
            }
        }
        true
    }

    fn take(&mut self) -> F::Output {
        match std::mem::replace(self, Half::Taken) {
            Half::Done(v) => v,
            _ => panic!("Fork2 polled after completion"),
        }
    }
}

/// How far a [`Fork2`] got.
enum Phase {
    /// Not polled yet: the first poll advertises the slot.
    Unforked,
    /// The slot is the owner's again: the right half is in it, to run in
    /// place, or its task's handle is. Nothing has polled it here yet.
    Forked,
    /// [`Phase::Forked`] after the first poll of the right half here.
    Joining,
    /// Done, or the first poll unwound.
    Spent,
}

/// A fork's right half where thieves find it. `repr(C)`: a pointer to the
/// head is a pointer to the slot.
#[repr(C)]
pub(crate) struct Slot<B: Future> {
    pub(crate) head: SlotHead,
    pub(crate) right: UnsafeCell<RightHalf<B>>,
}

/// What a slot holds over its life.
pub(crate) enum RightHalf<B: Future> {
    /// The right half, until it is promoted or finishes in place.
    Future(B),
    /// The promoted task's handle, written before the promoter publishes.
    Promoted(JoinHandle<B::Output>),
    /// Finished in place, or joined.
    Taken,
}

impl<B> Slot<B>
where
    B: Future + Send + 'static,
    B::Output: Send + 'static,
{
    pub(crate) fn new(fut: B) -> Slot<B> {
        Slot {
            head: SlotHead::new(Self::promote),
            right: UnsafeCell::new(RightHalf::Future(fut)),
        }
    }

    /// The head's `promote` for this right half's type.
    ///
    /// # Safety
    /// As for `SlotHead`'s `promote`: `head` heads a `Slot<B>` whose right
    /// half the caller holds and nobody polled.
    unsafe fn promote(head: NonNull<SlotHead>, rt_id: u32) -> TaskRef {
        // SAFETY: `Slot` is `repr(C)` with the head first, and the slot
        // lives until its owner has seen the publish or taken it back.
        let slot = unsafe { head.cast::<Self>().as_ref() };
        // SAFETY: the caller holds the right half: nobody else reads or
        // writes the cell until the publish (or ever, if the caller is the
        // owner).
        let right = unsafe { &mut *slot.right.get() };
        let RightHalf::Future(fut) = std::mem::replace(right, RightHalf::Taken) else {
            unreachable!("a slot is promoted at most once, and never after a poll");
        };
        let (task, handle) = task::new_joinable(rt_id, fut);
        *right = RightHalf::Promoted(handle);
        task
    }
}

impl<A, B> Fork2<A, B>
where
    A: Future,
    B: Future + Send + 'static,
    B::Output: Send + 'static,
{
    pub(crate) fn new(left: A, right: B) -> Self {
        Fork2 {
            left: Half::Running(left),
            slot: Slot::new(right),
            phase: Phase::Unforked,
            _pinned: PhantomPinned,
        }
    }

    /// The first poll up to the join: advertises the slot, polls `left`
    /// once, takes the slot back. True if `left` is done.
    fn fork(&mut self, w: &WorkerTls, cx: &mut Context<'_>) -> bool {
        // From the whole slot, not its head: a promoter reaches past the
        // head into `right`.
        let head = NonNull::from(&self.slot).cast::<SlotHead>();
        self.phase = Phase::Spent;
        // SAFETY: this poll takes the slot back below, or in `Reclaim` if
        // `left` unwinds.
        if !unsafe { w.advertise(head) } {
            // SAFETY: never advertised: the right half is the owner's.
            unsafe { w.promote(head) };
            self.phase = Phase::Forked;
            // SAFETY: `self` is pinned (the caller's `Pin`).
            return unsafe { self.left.poll(cx) };
        }
        /// Takes the slot back if `left` unwinds.
        struct Reclaim<'a>(&'a WorkerTls, NonNull<SlotHead>);
        impl Drop for Reclaim<'_> {
            fn drop(&mut self) {
                // SAFETY: advertised by this poll, not yet taken back. A
                // stolen right half's handle is dropped with the fork,
                // which detaches its task.
                unsafe { self.0.reclaim(self.1, false) };
            }
        }
        let guard = Reclaim(w, head);
        // SAFETY: `self` is pinned (the caller's `Pin`).
        let left_ready = unsafe { self.left.poll(cx) };
        std::mem::forget(guard);
        // SAFETY: advertised by this poll, not yet taken back; every slot
        // a fork inside `left` advertised was taken back in its own poll.
        unsafe { w.reclaim(head, !left_ready) };
        self.phase = Phase::Forked;
        left_ready
    }

    /// Polls the right half wherever it is; its output once it has one.
    /// The first poll of a right half in place rolls `TaskPanic`, as a
    /// promoted one's task does at its first poll.
    fn poll_right(&mut self, w: Option<&WorkerTls>, cx: &mut Context<'_>) -> Poll<B::Output> {
        let first = match self.phase {
            Phase::Forked => true,
            Phase::Joining => false,
            _ => panic!("Fork2 polled after completion or after a panic"),
        };
        self.phase = Phase::Joining;
        // SAFETY: taken back by the owner, promoted by it, or promoted by
        // a thief whose publish the owner saw: the cell is this future's
        // alone.
        let right = unsafe { &mut *self.slot.right.get() };
        let out = match right {
            RightHalf::Future(fut) => {
                // SAFETY: pinned: `self` is, and the right half stays in
                // place until it is dropped there (the assignment below).
                let fut = unsafe { Pin::new_unchecked(fut) };
                ready!(match w {
                    Some(w) => w.inline(|| {
                        if first {
                            fault::roll_task_panic(w.rt().faults.as_deref());
                        }
                        fut.poll(cx)
                    }),
                    None => fut.poll(cx),
                })
            }
            RightHalf::Promoted(handle) => ready!(Pin::new(handle).poll(cx)),
            RightHalf::Taken => unreachable!("the right half finished already"),
        };
        *right = RightHalf::Taken;
        Poll::Ready(out)
    }
}

impl<A, B> Future for Fork2<A, B>
where
    A: Future,
    B: Future + Send + 'static,
    B::Output: Send + 'static,
{
    type Output = (A::Output, B::Output);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: nothing pinned moves: `left` is polled and dropped in
        // place (`Half`), the right half stays in its slot until it is
        // promoted (moved out before anyone polled it) or dropped there,
        // and `Fork2` has no `Unpin` impl.
        let this = unsafe { self.get_unchecked_mut() };
        worker::with_worker(|w| {
            let left_ready = match this.phase {
                Phase::Unforked => this.fork(w.expect(worker::NOT_ON_WORKER), cx),
                // SAFETY: pinned, as above.
                _ => unsafe { this.left.poll(cx) },
            };
            if !left_ready {
                return Poll::Pending;
            }
            let b = ready!(this.poll_right(w, cx));
            this.phase = Phase::Spent;
            Poll::Ready((this.left.take(), b))
        })
    }
}

/// Future adapter that converts a panic during `poll` into a
/// `Ready(Err(payload))`: `Runtime::block_on` carries a panic in its
/// future back to the blocked thread with it.
pub(crate) struct CatchUnwind<F> {
    inner: F,
}

impl<F> CatchUnwind<F> {
    pub fn new(inner: F) -> Self {
        CatchUnwind { inner }
    }
}

impl<F: Future> Future for CatchUnwind<F> {
    type Output = Result<F::Output, PanicPayload>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: `inner` is pinned structurally: it is the only field,
        // never moved out, and `CatchUnwind` has no `Drop` or `Unpin` impl
        // of its own that could move it.
        let inner = unsafe { self.map_unchecked_mut(|s| &mut s.inner) };
        match catch_unwind(AssertUnwindSafe(|| inner.poll(cx))) {
            Ok(Poll::Ready(v)) => Poll::Ready(Ok(v)),
            Ok(Poll::Pending) => Poll::Pending,
            Err(payload) => Poll::Ready(Err(payload)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::task::{Wake, Waker};

    struct NoopWake;
    impl Wake for NoopWake {
        fn wake(self: Arc<Self>) {}
    }

    fn noop_cx_waker() -> Waker {
        Waker::from(Arc::new(NoopWake))
    }

    #[test]
    fn catch_unwind_maps_panic() {
        struct Bomb;
        impl Future for Bomb {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
                panic!("boom");
            }
        }
        let mut f = CatchUnwind::new(Bomb);
        let waker = noop_cx_waker();
        let mut cx = Context::from_waker(&waker);
        // Silence the default panic hook for this expected panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = Pin::new(&mut f).poll(&mut cx);
        std::panic::set_hook(prev);
        assert!(matches!(out, Poll::Ready(Err(_))));
    }

    #[test]
    fn catch_unwind_passes_values() {
        let mut f = CatchUnwind::new(std::future::ready(5));
        let waker = noop_cx_waker();
        let mut cx = Context::from_waker(&waker);
        assert!(matches!(Pin::new(&mut f).poll(&mut cx), Poll::Ready(Ok(5))));
    }
}
