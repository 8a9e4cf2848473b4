//! The worker is the timer: each worker fires its own timer shard where it
//! drains its resume inbox, so an expiry needs no other thread and no
//! unpark; and a parked thief still finds stealable work once per park
//! interval, because a push onto a deque wakes nobody.
//!
//! Every blocking step here sleeps the OS thread rather than spinning, so
//! the tests leave the CPUs to the workers they measure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use lhws_core::{join_all, simulate_latency, spawn, Runtime};

/// 1 000 latencies on a one-worker runtime with nothing else to run: each
/// resumes exactly once, never early, and the worker — parked until its
/// own next deadline — wakes itself: no unpark at all.
#[test]
fn timers_alone_resume_once_on_time_without_unparks() {
    const TASKS: u64 = 1_000;
    let rt = Runtime::builder().workers(1).build().unwrap();
    let obs = rt.observe();
    let (unparks, early) = rt.block_on(async move {
        let before = obs.metrics().expect("runtime alive");
        let early = Arc::new(AtomicU64::new(0));
        let hs: Vec<_> = (0..TASKS)
            .map(|_| {
                let early = early.clone();
                spawn(async move {
                    let start = Instant::now();
                    simulate_latency(Duration::from_millis(1)).await;
                    if start.elapsed() < Duration::from_millis(1) {
                        early.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        join_all(hs).await;
        let d = obs.metrics().expect("runtime alive").delta(&before);
        assert_eq!(d.suspensions, TASKS, "each latency registers once");
        assert_eq!(d.resumes, TASKS, "each registration resumes once");
        (d.unparks, early.load(Ordering::Relaxed))
    });
    assert_eq!(early, 0, "a latency resumed before its deadline");
    assert_eq!(unparks, 0, "a timer expiry unparked the worker");
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0);
    assert_eq!(report.canceled_ops, 0);
}

/// A worker stuck in a 30 ms poll that never yields cannot fire its shard
/// until the poll returns: the latency that falls due 1 ms in is delivered
/// after the stuck poll, exactly once.
#[test]
fn due_resume_waits_for_a_stuck_poll_then_arrives_once() {
    let rt = Runtime::builder().workers(1).build().unwrap();
    let obs = rt.observe();
    rt.block_on(async move {
        let before = obs.metrics().expect("runtime alive");
        // Deque after both spawns: [stuck, timed]. Joining `timed` first
        // pops it back and runs its first poll inline, which registers the
        // 1 ms latency; the worker then polls `stuck`.
        let stuck = spawn(async {
            let started = Instant::now();
            std::thread::sleep(Duration::from_millis(30));
            (started, Instant::now())
        });
        let timed = spawn(async {
            let due = Instant::now() + Duration::from_millis(1);
            simulate_latency(Duration::from_millis(1)).await;
            (due, Instant::now())
        });
        let (due, resumed_at) = timed.await;
        let (stuck_from, stuck_until) = stuck.await;
        // Only when the deadline fell inside the stuck poll is there
        // anything to check; a thread preempted for over 1 ms before the
        // stuck poll began fires the timer first, correctly.
        if stuck_from < due {
            assert!(
                resumed_at >= stuck_until,
                "the resume landed during the stuck poll"
            );
        }
        let d = obs.metrics().expect("runtime alive").delta(&before);
        assert_eq!((d.suspensions, d.resumes), (1, 1));
    });
}

/// The park interval is a parked thief's steal-poll interval: worker 0
/// spawns 1 000 children onto its own deque — which wakes nobody — and
/// stays inside that one poll, yet the parked worker 1 steals a child
/// within 10 ms. Deleting the timed park without a wake on push fails
/// this test.
#[test]
fn parked_thief_steals_from_a_busy_worker_within_one_park_poll() {
    const CHILDREN: usize = 1_000;
    let rt = Runtime::builder().workers(2).build().unwrap();
    // Let both workers park.
    std::thread::sleep(Duration::from_millis(20));
    let (spawned_at, stolen_at) = rt.block_on(async {
        let owner = std::thread::current().id();
        let stolen_at = Arc::new(OnceLock::new());
        let spawned_at = Instant::now();
        let hs: Vec<_> = (0..CHILDREN)
            .map(|_| {
                let stolen_at = stolen_at.clone();
                spawn(async move {
                    if std::thread::current().id() != owner {
                        let _ = stolen_at.set(Instant::now());
                    }
                })
            })
            .collect();
        // Stay inside this poll, without yielding the worker, until a
        // child runs elsewhere (or give up after a generous bound).
        let give_up = Instant::now() + Duration::from_secs(2);
        while stolen_at.get().is_none() && Instant::now() < give_up {
            std::thread::sleep(Duration::from_micros(200));
        }
        let stolen_at = stolen_at.get().copied();
        join_all(hs).await;
        (spawned_at, stolen_at)
    });
    let stolen_at = stolen_at.expect("the parked worker never stole a child");
    let waited = stolen_at - spawned_at;
    assert!(
        waited < Duration::from_millis(10),
        "the parked worker took {waited:?} to steal"
    );
}
