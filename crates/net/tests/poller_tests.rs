//! No lost wake-up with the poller: a worker blocked in the reactor's
//! epoll wait (the poller role) must be woken by every producer — a
//! foreign-thread `Completer::complete` and a user-thread
//! `Runtime::spawn` — through the reactor's kick, not by its park timeout.
//! `park_micros` is one second, so a timed park cannot hide a lost wake.

use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lhws_core::{external_op, Runtime};
use lhws_net::Reactor;

const ROUNDS: usize = 2_000;
/// Far below the one-second park: only a delivered kick meets it.
const ROUND_LIMIT: Duration = Duration::from_millis(50);

/// Held for each test's body: the tests time 50 ms rounds, and run side
/// by side their runtimes' workers would compete for the same CPUs.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the others still run, one by one.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn poller_rt(workers: usize) -> (Runtime, Reactor) {
    let rt = Runtime::builder()
        .workers(workers)
        .park_micros(1_000_000)
        .build()
        .unwrap();
    let reactor = Reactor::builder(&rt).build().unwrap();
    (rt, reactor)
}

/// Gives the workers time to go idle: with nothing to run, one of them
/// blocks in the reactor as the poller (the rest on their futexes).
fn let_workers_park() {
    std::thread::sleep(Duration::from_micros(300));
}

/// A task suspended on an external op, completed from this (non-worker)
/// thread while every worker is parked.
fn foreign_complete_rounds(workers: usize) {
    let (rt, _reactor) = poller_rt(workers);
    let (tx, rx) = mpsc::channel();
    for round in 0..ROUNDS {
        let (completer, op) = external_op::<usize>();
        let tx = tx.clone();
        drop(rt.spawn(async move {
            let _ = tx.send(op.await.unwrap());
        }));
        let_workers_park();
        let started = Instant::now();
        completer.complete(round);
        let got = rx
            .recv_timeout(ROUND_LIMIT)
            .unwrap_or_else(|_| panic!("round {round}: completion lost ({workers} workers)"));
        assert_eq!(got, round);
        assert!(started.elapsed() < ROUND_LIMIT, "round {round} too slow");
    }
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// A task spawned from this (non-worker) thread while every worker is
/// parked.
fn user_spawn_rounds(workers: usize) {
    let (rt, _reactor) = poller_rt(workers);
    let (tx, rx) = mpsc::channel();
    for round in 0..ROUNDS {
        let_workers_park();
        let started = Instant::now();
        let tx = tx.clone();
        drop(rt.spawn(async move {
            let _ = tx.send(round);
        }));
        let got = rx
            .recv_timeout(ROUND_LIMIT)
            .unwrap_or_else(|_| panic!("round {round}: spawn never ran ({workers} workers)"));
        assert_eq!(got, round);
        assert!(started.elapsed() < ROUND_LIMIT, "round {round} too slow");
    }
    rt.shutdown();
}

#[test]
fn foreign_completion_wakes_the_lone_poller() {
    let _serial = serial();
    foreign_complete_rounds(1);
}

#[test]
fn user_spawn_wakes_the_lone_poller() {
    let _serial = serial();
    user_spawn_rounds(1);
}

#[test]
fn foreign_completion_wakes_a_poller_among_two() {
    let _serial = serial();
    foreign_complete_rounds(2);
}

#[test]
fn user_spawn_wakes_a_poller_among_two() {
    let _serial = serial();
    user_spawn_rounds(2);
}
