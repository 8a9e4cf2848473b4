//! The fork → run → join fast path: a spawned child is stealable at once,
//! and a join pops an unstolen child back and runs it inline, inside the
//! parent's poll (Figure 3's push-bottom / pop-bottom).
//!
//! The checks are counts (`polls`, `tasks_spawned`, `steals_succeeded`
//! repeat exactly on one worker); the one check that needs a clock lives
//! in `fork_overlap_tests.rs`, a test binary of its own.

use std::any::Any;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use lhws_core::channel::mpsc;
use lhws_core::{fork2, join_all, simulate_latency, spawn, JoinHandle, Runtime};

type BoxFut<T> = Pin<Box<dyn Future<Output = T> + Send>>;

fn rt(workers: usize) -> Runtime {
    Runtime::builder().workers(workers).build().unwrap()
}

fn traced(workers: usize) -> Runtime {
    Runtime::builder()
        .workers(workers)
        .trace_capacity(1 << 14)
        .build()
        .unwrap()
}

fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

fn par_fib(n: u64, cutoff: u64) -> BoxFut<u64> {
    Box::pin(async move {
        if n <= cutoff {
            return fib(n);
        }
        let (a, b) = fork2(par_fib(n - 1, cutoff), par_fib(n - 2, cutoff)).await;
        a + b
    })
}

/// Polls `F` under `catch_unwind`, so a test task can look at a panic that
/// surfaces at one of its own joins.
struct Caught<F>(F);

impl<F: Future + Unpin> Future for Caught<F> {
    type Output = Result<F::Output, Box<dyn Any + Send>>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let inner = Pin::new(&mut self.0);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inner.poll(cx))) {
            Ok(Poll::Pending) => Poll::Pending,
            Ok(Poll::Ready(v)) => Poll::Ready(Ok(v)),
            Err(payload) => Poll::Ready(Err(payload)),
        }
    }
}

// (a) With nobody to steal, every join finds its child at the bottom of
// the deque and runs it inline: no task is ever polled twice.
#[test]
fn one_worker_polls_every_task_exactly_once() {
    let rt = rt(1);
    assert_eq!(rt.block_on(par_fib(22, 8)), fib(22));
    let m = rt.metrics();
    assert_eq!(m.tasks_spawned, 987, "986 forks and the root: {m:?}");
    assert_eq!(
        m.polls, m.tasks_spawned,
        "the root and every forked child are polled once: no parent suspends at a join"
    );
    assert_eq!(m.steals_succeeded, 0);
    assert_eq!(m.suspensions, 0);
}

// (c) Inline runs nest on the worker's stack, one level per join; the cap
// on that nesting is what lets a chain far deeper than any stack finish.
#[test]
fn right_leaning_chain_runs_in_bounded_stack() {
    fn chain(n: u32) -> BoxFut<u32> {
        Box::pin(async move {
            if n == 0 {
                return 0;
            }
            let (one, rest) = fork2(async { 1 }, chain(n - 1)).await;
            one + rest
        })
    }
    let rt = rt(2);
    assert_eq!(rt.block_on(chain(100_000)), 100_000);
}

#[test]
fn spawn_loop_then_join_all() {
    let rt = rt(2);
    let sum = rt.block_on(async {
        let handles: Vec<_> = (0..100_000u64).map(|i| spawn(async move { i })).collect();
        join_all(handles).await.into_iter().sum::<u64>()
    });
    assert_eq!(sum, 100_000 * 99_999 / 2);
}

// (d) A child run inline may suspend. The suspension is charged to the
// deque the child ran on (the parent's active deque), the parent falls
// back to its waker, and the books balance.
#[test]
fn inline_child_suspending_on_latency() {
    let rt = traced(1);
    let got = rt.block_on(fork2(async { 1 }, async {
        simulate_latency(Duration::from_millis(2)).await;
        2
    }));
    assert_eq!(got, (1, 2));
    let report = rt.shutdown();
    let m = &report.metrics;
    assert_eq!((m.suspensions, m.resumes), (1, 1));
    // Root (with the child inside it), the resumed child, the woken root.
    assert_eq!(m.polls, 4, "{m:?}");
    assert_eq!(m.tasks_spawned, 2);
    assert!(m.max_deques_per_worker <= 2, "Lemma 7 with U = 1: {m:?}");
    assert_eq!(report.leaked_suspensions, 0);
    let audit = report.trace.expect("tracing enabled").audit();
    assert!(audit.passed(), "auditor rejected the trace:\n{audit}");
    assert_eq!(audit.unresolved, 0);
}

#[test]
fn inline_child_suspending_on_channel_receive() {
    let rt = traced(1);
    let got = rt.block_on(async {
        let (tx, mut rx) = mpsc::<u32>();
        let sender = spawn(async move {
            simulate_latency(Duration::from_millis(2)).await;
            tx.send(7).unwrap();
        });
        // The receiver is the bottom of the deque when it is joined: it
        // runs inline, finds the channel empty and parks on this deque.
        let receiver = spawn(async move { rx.recv().await });
        let got = receiver.await;
        sender.await;
        got
    });
    assert_eq!(got, Some(7));
    let report = rt.shutdown();
    let m = &report.metrics;
    assert_eq!((m.suspensions, m.resumes), (2, 2));
    assert!(m.max_deques_per_worker <= 3, "Lemma 7 with U = 2: {m:?}");
    assert_eq!(report.leaked_suspensions, 0);
    let audit = report.trace.expect("tracing enabled").audit();
    assert!(audit.passed(), "auditor rejected the trace:\n{audit}");
    assert_eq!(audit.unresolved, 0);
}

// (e) A panic in a child that ran inline is contained by the child's own
// task, not by whatever poll happened to be on the stack around it: it
// surfaces where the child is joined, and only there.
#[test]
fn panic_in_inline_child_surfaces_at_its_join_only() {
    let rt = rt(1);
    let (sibling, parent) = rt.block_on(async {
        let parent = spawn(async {
            let child = spawn(async {
                if true {
                    panic!("inline child");
                }
                0
            });
            // Bottom of the deque: runs right here, and panics.
            let at_join = Caught(child).await;
            let payload = at_join.expect_err("the child's panic re-thrown at its join");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"inline child"));
            "parent survived"
        });
        let sibling = spawn(async { 5 });
        (sibling.await, Caught(parent).await)
    });
    assert_eq!(sibling, 5);
    assert_eq!(parent.ok(), Some("parent survived"));
    let m = rt.metrics();
    assert_eq!(m.polls, m.tasks_spawned, "every task ran inline: {m:?}");
    assert_eq!(m.workers_restarted, 0);
    assert_eq!(rt.block_on(async { 3 }), 3);
}

// (f) A handle that is never awaited: the task still runs, and its output
// is dropped once.
#[test]
fn dropped_handle_detaches_the_task() {
    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
        }
    }
    let ran = Arc::new(AtomicBool::new(false));
    let drops = Arc::new(AtomicUsize::new(0));
    let rt = rt(1);
    let (r, d) = (ran.clone(), drops.clone());
    rt.block_on(async move {
        drop(spawn(async move {
            r.store(true, SeqCst);
            Counted(d)
        }));
    });
    // One worker: the root has completed, so the child is next in line;
    // a second job cannot finish before it has run.
    rt.block_on(async {});
    assert!(ran.load(SeqCst), "a detached task still runs");
    drop(rt);
    assert_eq!(drops.load(SeqCst), 1);
}

// (f) A handle awaited on another worker than the one that spawned the
// task: worker A forks the child and the joiner and then keeps itself
// busy, so both have to be stolen.
#[test]
fn handle_awaited_from_another_worker() {
    let rt = rt(2);
    let joined = Arc::new(AtomicBool::new(false));
    let threads = Arc::new(Mutex::new(Vec::new()));
    let (j, t) = (joined.clone(), threads.clone());
    let got = rt.block_on(async move {
        t.lock().unwrap().push(std::thread::current().id());
        let child: JoinHandle<u32> = spawn(async { 7 });
        let (j2, t2) = (j.clone(), t.clone());
        let joiner = spawn(async move {
            t2.lock().unwrap().push(std::thread::current().id());
            let v = child.await;
            j2.store(true, SeqCst);
            v
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !j.load(SeqCst) {
            assert!(Instant::now() < deadline, "the other worker never joined");
            std::hint::spin_loop();
        }
        joiner.await
    });
    assert_eq!(got, 7);
    let threads = threads.lock().unwrap();
    assert_ne!(threads[0], threads[1], "the joiner ran on the other worker");
    assert_eq!(rt.metrics().steals_succeeded, 2);
}

// (g) A child run inline that returns `Pending` leaves the pop-back for
// the waker path and is resumed exactly once: woken during its own poll
// (requeued at once), or woken later from another thread.
#[test]
fn inline_child_that_returns_pending_is_resumed_exactly_once() {
    /// Pending on its first poll; `handoff` decides who wakes it.
    fn pending_once(
        polls: Arc<AtomicUsize>,
        handoff: fn(&std::task::Waker),
    ) -> impl Future<Output = u32> + Send {
        std::future::poll_fn(move |cx| {
            if polls.fetch_add(1, SeqCst) == 0 {
                handoff(cx.waker());
                Poll::Pending
            } else {
                Poll::Ready(7)
            }
        })
    }
    fn during_the_poll(waker: &std::task::Waker) {
        waker.wake_by_ref();
    }
    fn from_another_thread(waker: &std::task::Waker) {
        let waker = waker.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            waker.wake();
        });
    }
    for handoff in [during_the_poll as fn(&_), from_another_thread] {
        let rt = rt(1);
        let polls = Arc::new(AtomicUsize::new(0));
        let p = polls.clone();
        let got = rt.block_on(async move { spawn(pending_once(p, handoff)).await });
        assert_eq!(got, 7);
        assert_eq!(polls.load(SeqCst), 2, "one Pending poll, one resume");
        drop(rt);
        assert_eq!(polls.load(SeqCst), 2);
    }
}

// (h) Thieves take a few subtrees; every other fork is popped back and
// run inline, so a task is polled about once.
#[test]
fn par_fib_polls_each_task_about_once_with_a_thief() {
    let rt = rt(2);
    assert_eq!(rt.block_on(par_fib(27, 10)), fib(27));
    let m = rt.metrics();
    let per_task = m.polls as f64 / m.tasks_spawned as f64;
    assert!(
        (per_task - 1.0).abs() <= 0.01,
        "{per_task:.4} polls per task: {m:?}"
    );
}
