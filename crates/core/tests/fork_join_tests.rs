//! The fork → run → join fast path: a fork's right half (or a spawned
//! child) is stealable at once, and a join takes an unstolen one back and
//! runs it inline, inside the parent's poll (Figure 3's push-bottom /
//! pop-bottom). A `fork2` right half that nobody steals is not even a
//! task: it runs in place, in the parent's future.
//!
//! The checks are counts (`polls`, `tasks_spawned`, `forks_promoted`,
//! `steals_succeeded` repeat exactly on one worker); the one check that
//! needs a clock lives in `fork_overlap_tests.rs`, a test binary of its
//! own.

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

// (a) With nobody to steal, every fork takes its right half back and runs
// it in place: the 986 forks make no task, and the one task there is —
// the root — is polled once.
#[test]
fn one_worker_polls_every_task_exactly_once() {
    let rt = rt(1);
    assert_eq!(rt.block_on(par_fib(22, 8)), fib(22));
    let m = rt.metrics();
    assert_eq!(m.forks_promoted, 0, "no fork of 986 became a task: {m:?}");
    assert_eq!(m.tasks_spawned, 1, "the root is the only task: {m:?}");
    assert_eq!(
        m.polls, m.tasks_spawned,
        "the root is polled once: no fork suspends it"
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

// (d) A right half run inline may suspend. The suspension is charged to
// the parent's active deque — the right half is part of the parent's
// poll — the resume re-polls the parent, and the books balance.
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
    // The root (with the right half inside it), and the resumed root.
    assert_eq!(m.polls, 2, "{m:?}");
    assert_eq!((m.tasks_spawned, m.forks_promoted), (1, 0));
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

// (h) Thieves take a few subtrees; every other fork takes its right half
// back and runs it in place. Only a stolen right half becomes a task, and
// a task is polled once, plus once more per stolen child its join had to
// wait for.
#[test]
fn par_fib_polls_each_task_about_once_with_a_thief() {
    fn forks(n: u64, cutoff: u64) -> u64 {
        if n <= cutoff {
            0
        } else {
            1 + forks(n - 1, cutoff) + forks(n - 2, cutoff)
        }
    }
    let rt = rt(2);
    assert_eq!(rt.block_on(par_fib(27, 10)), fib(27));
    let m = rt.metrics();
    assert!(
        m.forks_promoted * 100 <= forks(27, 10),
        "at most 1 % of the {} forks became tasks: {m:?}",
        forks(27, 10)
    );
    assert_eq!(
        m.tasks_spawned,
        1 + m.forks_promoted,
        "the root and the stolen right halves are the only tasks: {m:?}"
    );
    assert!(
        m.polls <= m.tasks_spawned + m.forks_promoted,
        "a task is polled once, plus once per stolen child it waits for: {m:?}"
    );
}

/// Counts its drops.
#[derive(Debug)]
struct DropFlag(Arc<AtomicUsize>);

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.0.fetch_add(1, SeqCst);
    }
}

/// Spins until `flag` is set; panics after 10 s.
fn spin_until(flag: &AtomicBool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !flag.load(SeqCst) {
        assert!(Instant::now() < deadline, "{what} never happened");
        std::hint::spin_loop();
    }
}

/// A race combinator that loses interest: polls its future once and
/// drops it, Ready or not. True if it was Ready.
struct PollOnceThenDrop<F>(Option<Pin<Box<F>>>);

impl<F: Future> Future for PollOnceThenDrop<F> {
    type Output = bool;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        let mut fut = self.0.take().expect("polled once");
        let ready = fut.as_mut().poll(cx).is_ready();
        drop(fut);
        Poll::Ready(ready)
    }
}

/// A left half that returns `Pending` once `go` holds, and never wakes.
fn pending_left(go: impl Fn() + Send + 'static) -> impl Future<Output = ()> + Send {
    std::future::poll_fn(move |_| {
        go();
        Poll::Pending
    })
}

// (i) A `fork2` dropped mid-flight takes no pointer into itself out of
// the poll that advertised it: a right half a thief is running when its
// parent drops the fork keeps running as a detached task, and one whose
// left half suspended first was promoted by its owner and runs detached
// too. (Under ASan, a thief writing its handle into the dropped fork is
// a use after free.)
#[test]
fn a_fork2_dropped_mid_flight_detaches_its_right_half() {
    for workers in [1, 2] {
        let rt = rt(workers);
        let started = Arc::new(AtomicBool::new(false));
        let outputs = Arc::new(AtomicUsize::new(0));
        let (s1, s2, out) = (started.clone(), started.clone(), outputs.clone());
        let ready = rt.block_on(async move {
            let fork = fork2(
                pending_left(move || {
                    // With a thief, hold the slot out until it is stolen.
                    if workers > 1 {
                        spin_until(&s1, "the steal of the right half");
                    }
                }),
                async move {
                    s2.store(true, SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    DropFlag(out)
                },
            );
            PollOnceThenDrop(Some(Box::pin(fork))).await
        });
        assert!(!ready, "the left half never finishes");
        // The detached right half finishes by itself (on one worker, once
        // the root is done).
        let deadline = Instant::now() + Duration::from_secs(10);
        while outputs.load(SeqCst) == 0 {
            assert!(Instant::now() < deadline, "the right half never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        let m = rt.metrics();
        assert_eq!(m.forks_promoted, 1, "{workers} workers: {m:?}");
        drop(rt);
        assert_eq!(outputs.load(SeqCst), 1, "output dropped once");
    }
}

// (j) A runtime shut down while a fork is in flight — its slot advertised
// on one worker, or its right half running on the other — lets the polls
// finish and frees everything once.
#[test]
fn runtime_shutdown_mid_fork2() {
    for workers in [1, 2] {
        let rt = rt(workers);
        let (forked, stop) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let stolen = Arc::new(AtomicBool::new(false));
        let outputs = Arc::new(AtomicUsize::new(0));
        let (f1, st1, st2) = (forked.clone(), stolen.clone(), stolen.clone());
        let (stop1, stop2, out) = (stop.clone(), stop.clone(), outputs.clone());
        drop(rt.spawn(async move {
            let (_, right) = fork2(
                async move {
                    f1.store(true, SeqCst);
                    if workers > 1 {
                        spin_until(&st1, "the steal of the right half");
                    }
                    spin_until(&stop1, "the stop");
                },
                async move {
                    st2.store(true, SeqCst);
                    spin_until(&stop2, "the stop");
                    DropFlag(out)
                },
            )
            .await;
            drop(right);
        }));
        // Shut down with the left half running and the right half's slot
        // advertised (one worker) or stolen and running (two).
        spin_until(&forked, "the fork");
        if workers > 1 {
            spin_until(&stolen, "the steal of the right half");
        }
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            stop.store(true, SeqCst);
        });
        drop(rt);
        stopper.join().unwrap();
        assert_eq!(
            outputs.load(SeqCst),
            1,
            "{workers} workers: right half ran once"
        );
    }
}

// (k) A panic in `left` while the right half's slot is advertised (or
// stolen) takes the slot back on the way out and surfaces at the parent;
// a stolen right half runs to completion, detached.
#[test]
fn a_panic_in_left_surfaces_at_the_parent() {
    for workers in [1, 2] {
        let rt = rt(workers);
        let started = Arc::new(AtomicBool::new(false));
        let outputs = Arc::new(AtomicUsize::new(0));
        let (s1, s2, out) = (started.clone(), started.clone(), outputs.clone());
        let caught = rt.block_on(async move {
            Caught(Box::pin(fork2(
                async move {
                    if workers > 1 {
                        spin_until(&s1, "the steal of the right half");
                    }
                    if true {
                        panic!("left");
                    }
                },
                async move {
                    s2.store(true, SeqCst);
                    DropFlag(out)
                },
            )))
            .await
        });
        let payload = caught.expect_err("the left half's panic reaches the parent");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"left"));
        let m = rt.metrics();
        assert_eq!(m.forks_promoted as usize, workers - 1, "{m:?}");
        // The runtime is healthy, and a stolen right half ran once.
        assert_eq!(rt.block_on(async { 3 }), 3);
        drop(rt);
        assert_eq!(outputs.load(SeqCst), workers - 1);
    }
}

// (l) The fault layer's injected task panic still fires in a right half
// that runs in place: the fork rolls it at that half's first poll, as a
// task's first poll does.
#[test]
fn injected_task_panic_fires_in_an_inline_right_half() {
    use lhws_core::{FaultPlan, FaultSite};
    let rt = Runtime::builder()
        .workers(1)
        .fault_plan(FaultPlan::new(3).with(FaultSite::TaskPanic, 1_000_000))
        .build()
        .unwrap();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.block_on(fork2(async { 1u32 }, async { 2u32 }))
    }));
    assert!(caught.is_err(), "the injected panic reaches the parent");
    let report = rt.shutdown();
    assert_eq!(
        report.metrics.forks_promoted, 0,
        "the right half ran inline"
    );
    assert!(report.faults_injected >= 1);
    assert!(report.poisoned_worker.is_none());
}
