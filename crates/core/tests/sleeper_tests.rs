//! Integration tests for the lock-free sleeper set: injected work must
//! always wake a parked worker (no lost-wakeup race), wake-ups are
//! targeted — at most one unpark per injected task, never a broadcast, and
//! none at all for a timer expiry, which its owning worker fires itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhws_core::{join_all, simulate_latency, spawn, Runtime};

/// An injected task always wakes a parked worker. The park timeout is
/// cranked to 500ms so the fallback cannot mask a lost wake-up: if the
/// unpark raced with parking and lost, the task would sit in the injector
/// for ~500ms; with the `prepare_park` → re-check → park handshake it must
/// start promptly. Repeated so a racy handshake would be caught.
#[test]
fn injected_task_always_wakes_a_parked_worker() {
    let rt = Runtime::builder()
        .workers(8)
        .park_micros(500_000) // fallback far beyond the assertion bound
        .build()
        .unwrap();
    let before = rt.metrics();

    for round in 0..30 {
        // Let every worker go to sleep.
        std::thread::sleep(Duration::from_millis(10));
        let t0 = Instant::now();
        let v = rt.block_on(async move { round * 2 });
        let took = t0.elapsed();
        assert_eq!(v, round * 2);
        assert!(
            took < Duration::from_millis(250),
            "round {round}: injected task took {took:?} — only the park \
             timeout fallback picked it up, so the wake-up was lost"
        );
    }

    let d = rt.metrics().delta(&before);
    assert!(
        d.unparks >= 1,
        "injections into an idle runtime must go through the sleeper set"
    );
}

/// At most one unpark per injected task: injections into an 8-worker
/// runtime never broadcast. The seed runtime called `unpark_all` on every
/// inject (≈ 8 wake-ups each); the sleeper set wakes at most one.
#[test]
fn at_most_one_unpark_per_injected_task() {
    const ROUNDS: u64 = 50;
    let rt = Runtime::builder().workers(8).build().unwrap();
    let before = rt.metrics();

    for _ in 0..ROUNDS {
        // Each `block_on` injects exactly one task (its body); the body
        // spawns nothing and incurs no latency, so no other wake-up
        // source runs.
        std::thread::sleep(Duration::from_millis(2));
        rt.block_on(async { std::hint::black_box(1u64) });
    }

    let d = rt.metrics().delta(&before);
    assert!(
        d.unparks <= ROUNDS,
        "{} unparks for {ROUNDS} injections: inject wakes more than one \
         worker per task",
        d.unparks
    );
}

/// A wave of timer suspensions wakes far fewer workers than it resumes:
/// each worker fires its own timer shard, so an expiry wakes nobody.
#[test]
fn resume_batches_do_not_broadcast_unparks() {
    const TASKS: u64 = 400;
    let rt = Runtime::builder().workers(8).build().unwrap();
    let before = rt.metrics();

    let total = rt.block_on(async {
        let hs: Vec<_> = (0..TASKS)
            .map(|_| {
                spawn(async {
                    simulate_latency(Duration::from_millis(5)).await;
                    1u64
                })
            })
            .collect();
        join_all(hs).await.into_iter().sum::<u64>()
    });
    assert_eq!(total, TASKS);

    let d = rt.metrics().delta(&before);
    assert_eq!(d.resumes, TASKS);
    // Only the one block_on injection and join wake-ups unpark; the
    // expiries are fired by their owners. A per-event (or broadcast)
    // wake-up policy would show hundreds.
    assert!(
        d.unparks < TASKS / 2,
        "{} unparks for {TASKS} resumed tasks: resume delivery is waking \
         per event, not per batch",
        d.unparks
    );
}

/// The wake-up is not just *some* unpark — the woken worker actually runs
/// the injected task even when every other worker stays parked forever
/// (park timeout of ~17 minutes disables the scavenging fallback
/// entirely).
#[test]
fn wakeup_is_sufficient_without_timeout_fallback() {
    let rt = Runtime::builder()
        .workers(4)
        .park_micros(1_000_000_000) // no fallback within test lifetime
        .build()
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));

    let hits = Arc::new(AtomicU64::new(0));
    for i in 0..10 {
        let hits2 = hits.clone();
        let h = rt.spawn(async move {
            hits2.fetch_add(1, Ordering::Relaxed);
        });
        drop(h);
        let t0 = Instant::now();
        while hits.load(Ordering::Relaxed) != i + 1 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "injected task {i} never ran: lost wake-up with the park \
                 fallback disabled"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}
