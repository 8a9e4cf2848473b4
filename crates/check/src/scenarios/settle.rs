//! External-op settlement scenarios: the completer / deadline / cancel
//! triangle from [`lhws_core::external`].
//!
//! The structure under test is the real `settle` transition (first
//! settler wins, loser's write is dropped) — the AtMostOnceSettle
//! invariant of `specs/tla/DeadlineSettle.tla`. The deadline side uses
//! [`check_hooks::deadline_settler`], which performs exactly the
//! timer-expiry settle but detached from wall-clock time, because
//! `Instant::now()` is nondeterministic under schedule exploration.
//!
//! The waiting side polls the real [`ExternalOp`] future off-runtime:
//!
//! [`ExternalOp`]: lhws_core::external::ExternalOp
//! its waker is backed by a checker [`Event`], so "the op woke its
//! waiter" is itself a modeled transition the explorer can reorder.

use std::future::Future;
use std::pin::pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use lhws_checkrt::sync::Event;
use lhws_checkrt::thread;
use lhws_core::external::check_hooks;
use lhws_core::external_op;

/// A waker that sets a checker [`Event`]; `wake` is called by whichever
/// settler wins, making the wake-up a schedule point.
pub(crate) struct EventWake(pub(crate) Arc<Event>);

impl Wake for EventWake {
    fn wake(self: Arc<Self>) {
        self.0.set();
    }
}

/// Polls `fut` to completion with an [`Event`]-backed waker. The event
/// is one-shot, which suffices: the op registers its waker on the first
/// `Pending` poll and wakes it at most once, on settle.
pub(crate) fn block_on_op<F: Future>(fut: F) -> F::Output {
    let ev = Arc::new(Event::new());
    let waker = Waker::from(Arc::new(EventWake(Arc::clone(&ev))));
    let mut cx = Context::from_waker(&waker);
    let mut fut = pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => ev.wait(),
        }
    }
}

/// Completer and deadline race to settle one op while the waiter polls.
/// Exactly one side may win, and the op's resolution must match the
/// winner: the completer's value iff the completer won.
pub fn completer_vs_deadline() {
    let (completer, op) = external_op::<u32>();
    let deadline = check_hooks::deadline_settler(&op);

    let c = thread::spawn(move || completer.complete(42));
    let d = thread::spawn(deadline);
    let got = block_on_op(op);

    let completer_won = c.join().expect("completer thread panicked");
    let deadline_won = d.join().expect("deadline thread panicked");
    assert!(
        completer_won ^ deadline_won,
        "settle must happen exactly once: completer won = {completer_won}, \
         deadline won = {deadline_won}"
    );
    match got {
        Ok(v) => {
            assert_eq!(v, 42);
            assert!(
                completer_won,
                "op delivered the value but the completer lost the settle race"
            );
        }
        Err(_) => assert!(
            deadline_won,
            "op resolved canceled but the deadline lost the settle race"
        ),
    }
}

/// Cancellation (dropping the completer) races the deadline settler.
/// Both settle with an error, so the op must resolve `Err` — and resolve
/// exactly once, whichever error wins (polling a settled op twice would
/// trip the state machine's own `Finished` panic).
pub fn cancel_vs_deadline() {
    let (completer, op) = external_op::<u32>();
    let deadline = check_hooks::deadline_settler(&op);

    let c = thread::spawn(move || drop(completer));
    let d = thread::spawn(deadline);
    let got = block_on_op(op);

    c.join().expect("cancel thread panicked");
    d.join().expect("deadline thread panicked");
    assert!(
        got.is_err(),
        "op settled by cancel-vs-deadline must resolve Err, got {got:?}"
    );
}
