//! Off-worker completion stress: external threads firing [`Completer`]s
//! concurrently with deadline expiry and runtime shutdown. Pins the
//! exactly-one-settle guarantee and the completer-drop orderings that the
//! I/O reactor relies on (a reactor thread is just another external
//! completer as far as the scheduler is concerned).

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use lhws_core::{external_op, join_all, Canceled, DeadlineExt, LatencyMode, OpError, Runtime};

fn hide_rt(workers: usize) -> Runtime {
    Runtime::builder()
        .workers(workers)
        .mode(LatencyMode::Hide)
        .build()
        .unwrap()
}

struct Noop;
impl Wake for Noop {
    fn wake(self: Arc<Self>) {}
}

fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    let waker = Waker::from(Arc::new(Noop));
    let mut cx = Context::from_waker(&waker);
    Pin::new(fut).poll(&mut cx)
}

/// N external threads race completers against armed deadlines: for every
/// operation, the task's observed outcome agrees with the completer's
/// reported settle-race result, and the counters balance at shutdown.
#[test]
fn concurrent_completers_vs_deadlines_settle_exactly_once() {
    const OPS: usize = 64;
    const FIRERS: usize = 4;
    let rt = hide_rt(2);

    let mut completers = Vec::with_capacity(OPS);
    let mut handles = Vec::with_capacity(OPS);
    for i in 0..OPS {
        let (c, op) = external_op::<u64>();
        completers.push(Some(c));
        // Half the deadlines are tight enough that many expire before
        // their completer fires; the other half comfortably lose.
        let timeout = Duration::from_millis(if i % 2 == 0 { 2 } else { 500 });
        handles.push(rt.spawn(async move {
            match op.with_timeout(timeout).await {
                Ok(v) => (true, v),
                Err(OpError::TimedOut) => (false, 0),
                Err(OpError::Canceled) => panic!("op {i}: nothing cancels in this test"),
            }
        }));
    }

    // Fire every completer from external threads, with enough jitter that
    // the tight deadlines genuinely race the completions.
    let firers: Vec<_> = (0..FIRERS)
        .map(|f| {
            let batch: Vec<(usize, lhws_core::Completer<u64>)> = completers
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| i % FIRERS == f)
                .map(|(i, c)| (i, c.take().unwrap()))
                .collect();
            std::thread::spawn(move || {
                let mut won = Vec::new();
                for (i, c) in batch {
                    std::thread::sleep(Duration::from_micros(300));
                    won.push((i, c.complete(i as u64 + 1)));
                }
                won
            })
        })
        .collect();
    let mut won = [false; OPS];
    for t in firers {
        for (i, w) in t.join().unwrap() {
            won[i] = w;
        }
    }

    let outcomes = rt.block_on(async move { join_all(handles).await });
    let mut timed_out = 0;
    for (i, (got_value, v)) in outcomes.into_iter().enumerate() {
        // Exactly-one-settle: the waiter saw Ok(v) if and only if the
        // completer reported winning the race, and the value is intact.
        assert_eq!(
            got_value, won[i],
            "op {i}: task outcome disagrees with completer's settle result"
        );
        if got_value {
            assert_eq!(v, i as u64 + 1);
        } else {
            timed_out += 1;
        }
    }
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
    assert_eq!(
        report.metrics.suspensions, report.metrics.resumes,
        "every suspension resumed exactly once ({timed_out}/{OPS} timed out)"
    );
}

/// Completers fired from external threads while the runtime is being shut
/// down: never hangs, never double-settles, and whatever was still parked
/// is accounted as leaked rather than lost.
#[test]
fn completers_racing_shutdown_stay_consistent() {
    const OPS: usize = 32;
    for round in 0..4u64 {
        let rt = hide_rt(2);
        let mut completers = Vec::with_capacity(OPS);
        let mut handles = Vec::with_capacity(OPS);
        for _ in 0..OPS {
            let (c, op) = external_op::<u64>();
            completers.push(c);
            handles.push(rt.spawn(op));
        }
        drop(handles);
        // Let some tasks reach their parked state before racing.
        std::thread::sleep(Duration::from_millis(2 + round));
        let firer = std::thread::spawn(move || {
            for (i, c) in completers.into_iter().enumerate() {
                c.complete(i as u64);
            }
        });
        let report = rt.shutdown();
        firer.join().unwrap();
        assert!(
            report.leaked_suspensions <= OPS as u64,
            "round {round}: {report:?}"
        );
        assert!(
            report.poisoned_worker.is_none(),
            "round {round}: {report:?}"
        );
    }
}

/// A completer dropped from an external thread while the runtime runs:
/// the cancellation is a real resume event — the waiter observes
/// `Err(Canceled)` and the ledger stays balanced.
#[test]
fn completer_drop_from_external_thread_cancels_cleanly() {
    let rt = hide_rt(2);
    let (c, op) = external_op::<u64>();
    let h = rt.spawn(op);
    let dropper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        drop(c); // settles Err(Canceled) from off-worker
    });
    let got = rt.block_on(h);
    assert_eq!(got, Err(Canceled));
    dropper.join().unwrap();
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
    assert_eq!(report.metrics.suspensions, report.metrics.resumes);
}

/// Hard shutdown with a suspension in flight, then the completer dropped
/// *after* the workers have stopped: the drop settles safely (no panic),
/// and the undeliverable resume is reported as leaked — the ordering the
/// driver protocol exists to avoid (drivers drain *before* workers stop).
#[test]
fn completer_drop_after_shutdown_is_safe_and_reported() {
    let rt = hide_rt(2);
    let (c, op) = external_op::<u64>();
    let h = rt.spawn(op);
    // Wait until the task has parked its suspension.
    for _ in 0..200 {
        if rt.metrics().suspensions > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(rt.metrics().suspensions > 0, "task never parked");
    drop(h);
    let report = rt.shutdown();
    assert_eq!(
        report.leaked_suspensions, 1,
        "the in-flight wait is cut off: {report:?}"
    );
    // Workers are gone; the settle must still be safe.
    drop(c);
}

/// A completer dropped after shutdown with the op still held: a later
/// off-runtime poll observes `Err(Canceled)` — the op is never stranded.
#[test]
fn completer_drop_after_shutdown_later_poll_sees_canceled() {
    let rt = hide_rt(1);
    let (c, mut op) = external_op::<u64>();
    rt.shutdown();
    drop(c); // no runtime, no waiter: settles in place
    assert_eq!(poll_once(&mut op), Poll::Ready(Err(Canceled)));
}
