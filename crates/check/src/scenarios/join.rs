//! Fork/join scenarios: the fused task from [`lhws_core`] on a real
//! Chase–Lev deque.
//!
//! `spawn` pushes a child on the bottom of the forking worker's deque and
//! the join pops it back if it is still there. Nothing in a task is behind
//! a lock, so everything rests on two protocols, both explored here at
//! their real atomics (fine-grained mode): the owner's peek-then-pop
//! against a thief's steal, and the completion / joiner-waker handshake
//! of the task header. [`task_check_hooks::fork`] builds exactly what a
//! worker's `spawn` builds, outside any runtime; the joining side polls
//! the real [`JoinHandle`](lhws_core::JoinHandle) with an
//! [`Event`]-backed waker, so "the completer woke the joiner" is a
//! modeled transition and a lost wake-up is a reported deadlock.
//!
//! The task's reference count is checked the same way: a forked child's
//! block is quarantined instead of freed
//! ([`Probe`](task_check_hooks::Probe)), so a second free or
//! a release after the free fails an assertion inside the scenario, and
//! each scenario ends by asserting the child was freed exactly once.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use lhws_checkrt::sync::{Event, Mutex};
use lhws_checkrt::thread;
use lhws_core::task_check_hooks::{self, Forked};

use super::settle::{block_on_op, EventWake};

/// The child's output: counts its drops, so "read exactly once" and
/// "freed exactly once" are checkable.
struct Output {
    value: u32,
    drops: Arc<AtomicUsize>,
}

impl Drop for Output {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// Forks a child that counts its polls and returns an [`Output`] of 7.
/// The counters are scenario bookkeeping: raw std atomics, no schedule
/// points.
fn fork_counted() -> (
    Forked<Output>,
    task_check_hooks::Thief,
    Arc<AtomicUsize>,
    Arc<AtomicUsize>,
) {
    let polls = Arc::new(AtomicUsize::new(0));
    let drops = Arc::new(AtomicUsize::new(0));
    let (p, d) = (Arc::clone(&polls), Arc::clone(&drops));
    let (parent, thief) = task_check_hooks::fork(async move {
        p.fetch_add(1, Ordering::SeqCst);
        Output { value: 7, drops: d }
    });
    (parent, thief, polls, drops)
}

/// The owner's pop-back and one thief race for the single child. Exactly
/// one of them polls it; the parent reads the output exactly once,
/// inline if its pop won and through its waker if the thief won — also
/// when the thief's CAS lands between the owner's peek and its pop.
pub fn fast_path_vs_steal() {
    let (parent, thief, polls, drops) = fork_counted();
    let probe = parent.probe();

    // Both sides are spawned and the scenario thread only joins them, so
    // whichever runs first does so without spending a preemption: the
    // lost-wake window (completion landing inside the joiner's waker
    // registration) is then two preemptions deep, inside the default bound.
    let t = thread::spawn(move || thief.steal_and_run());
    let p = thread::spawn(move || {
        let inline = parent.join_inline();
        (inline, block_on_op(parent.handle))
    });
    let stolen = t.join().expect("thief panicked");
    let (inline, out) = p.join().expect("parent panicked");

    assert!(
        inline ^ stolen,
        "the child must run exactly once: inline = {inline}, stolen = {stolen}"
    );
    assert_eq!(polls.load(Ordering::SeqCst), 1, "child polled once");
    assert_eq!(out.value, 7);
    assert_eq!(
        drops.load(Ordering::SeqCst),
        0,
        "the parent holds the output"
    );
    drop(out);
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    assert!(
        probe.is_freed(),
        "the child is freed once both counts are back"
    );
}

/// `complete` vs `poll` vs `drop(JoinHandle)` in every order: the joiner
/// polls once and lets go of the handle while another thread runs the
/// child to completion. The output is read at most once and freed exactly
/// once, whoever touches the waker slot last; the waker fires only if it
/// was published.
pub fn join_handshake() {
    let (parent, thief, polls, drops) = fork_counted();
    let probe = parent.probe();
    let ev = Arc::new(Event::new());
    let waker = Waker::from(Arc::new(EventWake(Arc::clone(&ev))));

    let t = thread::spawn(move || thief.steal_and_run());
    let mut handle = parent.handle;
    let first = Pin::new(&mut handle).poll(&mut Context::from_waker(&waker));
    let read = match first {
        Poll::Ready(out) => {
            assert_eq!(out.value, 7);
            true
        }
        Poll::Pending => false,
    };
    drop(handle);
    assert!(t.join().expect("completer panicked"), "nobody else pops");

    assert_eq!(polls.load(Ordering::SeqCst), 1, "child polled once");
    assert_eq!(
        drops.load(Ordering::SeqCst),
        1,
        "output freed exactly once (read by the joiner: {read})"
    );
    assert!(
        !(read && ev.is_set()),
        "a joiner that read the output was woken as well"
    );
    assert!(
        probe.is_freed(),
        "the child is freed once both counts are back"
    );
}

/// Forks a child that clones its own waker into a slot, signals, and
/// completes in the same poll, and a helper thread that takes the waker
/// once signalled, wakes it and drops it — at any point of the parent's
/// inline run. The child's poll counts and its output's drops are
/// scenario bookkeeping, as in [`fork_counted`].
fn escaped_waker_race(join: impl FnOnce(&Forked<Output>) -> bool) {
    let polls = Arc::new(AtomicUsize::new(0));
    let drops = Arc::new(AtomicUsize::new(0));
    let slot = Arc::new(Mutex::new(None::<Waker>));
    let sent = Arc::new(Event::new());
    let (p, d, s, ev) = (
        Arc::clone(&polls),
        Arc::clone(&drops),
        Arc::clone(&slot),
        Arc::clone(&sent),
    );
    let (parent, _thief) = task_check_hooks::fork(std::future::poll_fn(move |cx| {
        p.fetch_add(1, Ordering::SeqCst);
        *s.lock() = Some(cx.waker().clone());
        ev.set();
        Poll::Ready(Output {
            value: 7,
            drops: Arc::clone(&d),
        })
    }));
    let probe = parent.probe();

    let t = thread::spawn(move || {
        sent.wait();
        let waker = slot.lock().take().expect("the child sent its waker");
        waker.wake();
    });
    assert!(join(&parent), "nobody else pops the child");
    let out = block_on_op(parent.handle);
    t.join().expect("waker thread panicked");

    assert_eq!(polls.load(Ordering::SeqCst), 1, "child polled once");
    assert_eq!(out.value, 7);
    drop(out);
    assert_eq!(drops.load(Ordering::SeqCst), 1, "output read once");
    assert!(
        probe.is_freed(),
        "the child is freed once the handle and the escaped waker are gone"
    );
}

/// The owner's inline run against a waker that escaped it: the child's
/// block outlives the last waker, is freed exactly once after it, and the
/// output is read once — whether the waker is woken and dropped before,
/// during or after the owner gives back its count.
pub fn inline_escaped_waker() {
    escaped_waker_race(Forked::join_inline);
}

/// The seeded mutation: the inline run gives back its count with a load
/// and a store instead of an RMW, so a concurrent release by the escaped
/// waker is lost and the task is never freed — the checker must refute
/// it.
#[cfg(all(lhws_check, lhws_check_mutation))]
pub fn inline_racy_release_unsound() {
    escaped_waker_race(Forked::join_inline_racy);
}
