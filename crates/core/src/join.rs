//! Join handles: awaiting another task's result.
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

use std::any::Any;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::ptr::NonNull;
use std::task::{Context, Poll};

use lhws_deque::WorkerHandle;

use crate::task::{self, Header, ReadOutput, TaskRef};
use crate::worker;

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
    pub(crate) fn pop_if_bottom(&self, deque: &WorkerHandle<TaskRef>) -> Option<TaskRef> {
        let me: *const () = self.task.as_ptr().cast_const().cast();
        deque.pop_bottom_if(|image| TaskRef::image_addr(image) == me)
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
        // Safety: structural pinning of the only field.
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
