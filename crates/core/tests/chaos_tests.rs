//! Chaos-layer integration tests: deterministic fault injection, runtime
//! supervision, deadline-aware external ops, and the trace auditor,
//! exercised end to end on real runtimes.
//!
//! The fault layer's promise is twofold: with a fixed seed the fault
//! *schedule* is a pure function (the k-th visit of a site always gets the
//! same decision), and no injected fault — delays, reorders, steal storms,
//! spurious wakes, dropped unparks, forced deque switches — may break a
//! scheduler invariant. These tests run chaotic workloads and let the
//! trace auditor ([`lhws_core::audit`]) hold the line.

use std::time::{Duration, Instant};

use lhws_core::channel::{mpsc, oneshot};
use lhws_core::{
    external_op, join_all, simulate_latency, DeadlineExt, FaultPlan, FaultSite, Runtime,
    RuntimeError,
};

const TRACE_CAPACITY: usize = 1 << 17;

fn wait_until(deadline_secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(deadline_secs);
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

// ---------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------

#[test]
fn fault_schedule_is_a_pure_function_of_the_seed() {
    // Two independently constructed plans with the same seed agree on
    // every decision; a different seed diverges. This is the property
    // that makes a chaos run's fault schedule bit-for-bit reproducible.
    let a = FaultPlan::chaos(42);
    let b = FaultPlan::chaos(42);
    assert_eq!(a.schedule_digest(10_000), b.schedule_digest(10_000));
    assert_ne!(
        a.schedule_digest(10_000),
        FaultPlan::chaos(43).schedule_digest(10_000)
    );
}

// ---------------------------------------------------------------------
// Chaos soak: the full plan, audited.
// ---------------------------------------------------------------------

/// A spurious wake makes a task register its latency a second time, on
/// whichever worker re-polls it; the duplicate's resume can still be in
/// the other worker's inbox (or held back by an injected resume delay)
/// when the first one has completed the task and the job. Bounded window
/// for it to drain, as the chaos soak binary has, so that the balance
/// checks after shutdown test the scheduler and not shutdown's timing.
fn settle_duplicate_resumes(rt: &Runtime) {
    let drain_by = std::time::Instant::now() + Duration::from_millis(250);
    while rt.metrics().resumes < rt.metrics().suspensions && std::time::Instant::now() < drain_by {
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn chaos_run(seed: u64) -> (u64, lhws_core::AuditReport) {
    let rt = Runtime::builder()
        .workers(2)
        .trace_capacity(TRACE_CAPACITY)
        .fault_plan(FaultPlan::chaos(seed))
        .build()
        .unwrap();
    let sum = rt.block_on(async {
        let handles: Vec<_> = (0..64u64)
            .map(|i| {
                lhws_core::spawn(async move {
                    simulate_latency(Duration::from_micros(200 + (i % 7) * 100)).await;
                    i
                })
            })
            .collect();
        join_all(handles).await.into_iter().sum::<u64>()
    });
    settle_duplicate_resumes(&rt);
    let report = rt.shutdown();
    assert!(report.poisoned_worker.is_none());
    let audit = report.trace.expect("tracing enabled").audit();
    (sum, audit)
}

#[test]
fn chaos_plan_preserves_results_and_audits_clean() {
    let expect: u64 = (0..64).sum();
    for seed in [1u64, 7, 1234] {
        // Two runs per seed: the faults are chaotic but the invariants —
        // and the computed result — must hold every time.
        for round in 0..2 {
            let (sum, audit) = chaos_run(seed);
            assert_eq!(sum, expect, "seed {seed} round {round}: wrong result");
            assert!(
                audit.passed(),
                "seed {seed} round {round}: auditor rejected the trace:\n{audit}"
            );
            assert_eq!(
                audit.unresolved, 0,
                "seed {seed} round {round}: a suspension never resumed"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Supervision: worker-loop panics poison the runtime instead of hanging.
// ---------------------------------------------------------------------

#[test]
fn worker_panic_unblocks_try_block_on() {
    // A worker's scheduler loop panics mid-run while block_on waits on an
    // external op that will never complete. Without supervision this
    // hangs forever; with it, the error surfaces within roughly a park
    // interval of the poison.
    let rt = Runtime::builder()
        .workers(2)
        .fault_plan(FaultPlan::new(11).worker_panic_after(50))
        .build()
        .unwrap();
    let (completer, op) = external_op::<u32>();
    let start = Instant::now();
    let err = rt
        .try_block_on(op)
        .expect_err("the runtime was poisoned; the blocked call must fail");
    assert!(
        matches!(err, RuntimeError::WorkerPanicked { .. }),
        "unexpected error: {err:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "poison took too long to surface: {:?}",
        start.elapsed()
    );
    drop(completer);
    let report = rt.shutdown();
    assert!(report.poisoned_worker.is_some());
    // `worker_panic_after` counts per worker and the first panic poisons:
    // the other worker can reach its own 50th iteration before that
    // poison lands, so between one and `workers` panics are injected.
    assert!(
        (1..=2).contains(&report.faults_injected),
        "one to `workers` worker-loop panics, got {}",
        report.faults_injected
    );
}

#[test]
fn try_block_on_on_a_healthy_runtime_returns_ok() {
    let rt = Runtime::builder().workers(2).build().unwrap();
    let got = rt.try_block_on(async {
        simulate_latency(Duration::from_millis(1)).await;
        7u32
    });
    assert_eq!(got.unwrap(), 7);
}

#[test]
fn injected_task_panic_surfaces_at_join_without_poisoning() {
    // task_panic at 100%: every spawned task panics on first poll. The
    // panic takes the normal CatchUnwind path — it propagates through the
    // join, and the *workers* stay healthy.
    let rt = Runtime::builder()
        .workers(2)
        .fault_plan(FaultPlan::new(3).with(FaultSite::TaskPanic, 1_000_000))
        .build()
        .unwrap();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.block_on(async {
            let h = lhws_core::spawn(async { 42u32 });
            h.await
        })
    }));
    assert!(caught.is_err(), "the injected panic reaches the join point");
    let report = rt.shutdown();
    assert!(
        report.poisoned_worker.is_none(),
        "a task panic must not poison the runtime"
    );
    assert!(report.faults_injected >= 1);
}

/// Runs `body` on a one-worker runtime whose plan rolls `TaskPanic` at
/// `ppm`: whether the root saw a panic, the faults injected, and how many
/// right halves were promoted.
fn task_panic_site<F>(ppm: u32, body: impl FnOnce() -> F) -> (bool, u64, u64)
where
    F: std::future::Future + Send + 'static,
    F::Output: Send + 'static,
{
    let rt = Runtime::builder()
        .workers(1)
        .fault_plan(FaultPlan::new(3).with(FaultSite::TaskPanic, ppm))
        .build()
        .unwrap();
    let fut = body();
    let panicked =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.block_on(fut))).is_err();
    let report = rt.shutdown();
    assert!(report.poisoned_worker.is_none());
    (
        panicked,
        report.faults_injected,
        report.metrics.forks_promoted,
    )
}

#[test]
fn task_panic_rolls_once_at_each_first_poll_site_and_never_at_rate_zero() {
    // The three first polls the site covers: a spawned task, a fork's
    // right half promoted into a task (its left half suspends, one
    // worker, no thief), and a right half popped back and run in place.
    // The root is a `block_on` root and never rolls.
    for (ppm, want) in [(1_000_000, (true, 1)), (0, (false, 0))] {
        let (panicked, injected, _) =
            task_panic_site(ppm, || async { lhws_core::spawn(async { 1u32 }).await });
        assert_eq!((panicked, injected), want, "spawned task at {ppm} ppm");
        let (panicked, injected, promoted) = task_panic_site(ppm, || {
            lhws_core::fork2(
                async {
                    lhws_core::yield_now().await;
                    1u32
                },
                async { 2u32 },
            )
        });
        assert_eq!(promoted, 1, "the right half was promoted");
        assert_eq!(
            (panicked, injected),
            want,
            "promoted right half at {ppm} ppm"
        );
        let (panicked, injected, promoted) =
            task_panic_site(ppm, || lhws_core::fork2(async { 1u32 }, async { 2u32 }));
        assert_eq!(promoted, 0, "the right half ran in place");
        assert_eq!(
            (panicked, injected),
            want,
            "in-place right half at {ppm} ppm"
        );
    }
}

// ---------------------------------------------------------------------
// Panic-in-task coverage across every suspension path (timer, channel,
// external op): counters stay balanced and the trace audits clean.
// ---------------------------------------------------------------------

#[test]
fn panics_after_each_suspension_path_balance_and_audit_clean() {
    let rt = Runtime::builder()
        .workers(2)
        .trace_capacity(TRACE_CAPACITY)
        .build()
        .unwrap();

    // Timer path: suspend on a latency, resume, panic.
    let _h1 = rt.spawn(async {
        simulate_latency(Duration::from_millis(2)).await;
        panic!("panic after timer suspension");
    });
    // Channel path: suspend on an empty mpsc, resume on send, panic.
    let (tx, mut rx) = mpsc::<u32>();
    let _h2 = rt.spawn(async move {
        let _ = rx.recv().await;
        panic!("panic after channel suspension");
    });
    // External-op path: suspend on registration, resume on completion,
    // panic.
    let (completer, op) = external_op::<u32>();
    let _h3 = rt.spawn(async move {
        let _ = op.await;
        panic!("panic after external-op suspension");
    });

    // All three must be parked before we fulfill them, or the channel and
    // op paths would complete without ever suspending.
    assert!(
        wait_until(10, || rt.metrics().suspensions >= 3),
        "tasks failed to suspend: {:?}",
        rt.metrics()
    );
    tx.send(1).unwrap();
    assert!(completer.complete(2), "first settle wins");

    // Every suspension resumes even though the resumed tasks then panic.
    assert!(
        wait_until(10, || {
            let m = rt.metrics();
            m.resumes >= m.suspensions && m.suspensions >= 3
        }),
        "resumes never balanced: {:?}",
        rt.metrics()
    );

    let report = rt.shutdown();
    assert_eq!(report.metrics.suspensions, report.metrics.resumes);
    assert_eq!(report.leaked_suspensions, 0);
    assert!(report.poisoned_worker.is_none());
    let audit = report.trace.expect("tracing enabled").audit();
    assert!(audit.passed(), "auditor rejected the trace:\n{audit}");
    assert_eq!(audit.unresolved, 0);
}

// ---------------------------------------------------------------------
// The resume_path flake, pinned: an already-expired deadline must still
// register its suspension (the lost-registration race).
// ---------------------------------------------------------------------

#[test]
fn expired_deadline_still_registers_on_worker() {
    // Reproduces the 47999/48000 "every task registered once" flake
    // deterministically: the deadline is already past at first poll
    // (in the wild, OS preemption between deadline computation and poll).
    // The fix registers anyway — the timer clamps past deadlines to its
    // next tick — so no registration is ever silently skipped.
    const N: u64 = 16;
    let rt = Runtime::builder()
        .workers(2)
        .trace_capacity(TRACE_CAPACITY)
        .build()
        .unwrap();
    rt.block_on(async {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                lhws_core::spawn(async {
                    lhws_core::latency_until(Instant::now() - Duration::from_millis(1)).await;
                })
            })
            .collect();
        join_all(handles).await;
    });
    let report = rt.shutdown();
    assert!(
        report.metrics.suspensions >= N,
        "an expired-at-first-poll latency skipped its registration: {:?}",
        report.metrics
    );
    assert_eq!(report.metrics.suspensions, report.metrics.resumes);
    let audit = report.trace.expect("tracing enabled").audit();
    assert!(audit.passed(), "auditor rejected the trace:\n{audit}");
}

// ---------------------------------------------------------------------
// Shutdown with pending suspensions and external ops.
// ---------------------------------------------------------------------

#[test]
fn shutdown_reports_leaked_suspensions_and_canceled_ops() {
    const N: u64 = 8;
    let rt = Runtime::builder().workers(2).build().unwrap();
    let handles: Vec<_> = (0..N)
        .map(|_| {
            rt.spawn(async {
                simulate_latency(Duration::from_secs(60)).await;
            })
        })
        .collect();
    assert!(
        wait_until(10, || rt.metrics().suspensions >= N),
        "tasks failed to suspend: {:?}",
        rt.metrics()
    );
    drop(handles);
    let report = rt.shutdown();
    assert_eq!(
        report.leaked_suspensions, N,
        "each parked task is one leaked suspension"
    );
    assert_eq!(
        report.canceled_ops, N,
        "each resident timer entry is canceled, deterministically"
    );
    assert!(report.poisoned_worker.is_none());
}

#[test]
fn shutdown_cancels_pending_deadline_ops() {
    let rt = Runtime::builder().workers(2).build().unwrap();
    let (completer, op) = external_op::<u32>();
    let h = rt.spawn(async move {
        // A deadline far in the future: shutdown must cancel it (rather
        // than deliver it), and the op resolves as canceled, not hung.
        op.with_timeout(Duration::from_secs(3600)).await
    });
    assert!(
        wait_until(10, || rt.metrics().suspensions >= 1),
        "op failed to suspend"
    );
    drop(h);
    drop(completer); // cancels the op, resuming the task
    assert!(wait_until(10, || {
        let m = rt.metrics();
        m.resumes >= m.suspensions
    }));
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0);
    assert_eq!(
        report.canceled_ops, 1,
        "the armed deadline callback is canceled at shutdown"
    );
}

// ---------------------------------------------------------------------
// Targeted single-fault runs: each knob alone, audited.
// ---------------------------------------------------------------------

fn single_fault_run(plan: FaultPlan) -> lhws_core::AuditReport {
    let rt = Runtime::builder()
        .workers(2)
        .trace_capacity(TRACE_CAPACITY)
        .fault_plan(plan)
        .build()
        .unwrap();
    let out = rt.block_on(async {
        let handles: Vec<_> = (0..32u64)
            .map(|i| {
                lhws_core::spawn(async move {
                    simulate_latency(Duration::from_micros(300)).await;
                    i * 2
                })
            })
            .collect();
        join_all(handles).await.into_iter().sum::<u64>()
    });
    assert_eq!(out, (0..32u64).map(|i| i * 2).sum::<u64>());
    settle_duplicate_resumes(&rt);
    let report = rt.shutdown();
    assert_eq!(report.metrics.suspensions, report.metrics.resumes);
    report.trace.expect("tracing enabled").audit()
}

#[test]
fn spurious_wakes_alone_audit_clean() {
    let audit = single_fault_run(FaultPlan::new(21).with(FaultSite::SpuriousWake, 500_000));
    assert!(audit.passed(), "{audit}");
}

#[test]
fn forced_deque_switches_alone_audit_clean() {
    let audit = single_fault_run(FaultPlan::new(22).with(FaultSite::DequeSwitch, 500_000));
    assert!(audit.passed(), "{audit}");
}

#[test]
fn steal_storms_alone_audit_clean() {
    let audit = single_fault_run(FaultPlan::new(23).with(FaultSite::StealFail, 800_000));
    assert!(audit.passed(), "{audit}");
}

#[test]
fn delayed_and_reordered_resumes_alone_audit_clean() {
    let audit = single_fault_run(FaultPlan {
        resume_delay_micros: 500,
        ..FaultPlan::new(24)
            .with(FaultSite::ResumeDelay, 400_000)
            .with(FaultSite::ResumeReorder, 1_000_000)
    });
    assert!(audit.passed(), "{audit}");
}

#[test]
fn oneshot_deadline_under_chaos_still_settles_exactly_once() {
    // A hostile thread completes the oneshot with jitter while a short
    // deadline races it: exactly one side wins, every time.
    let rt = Runtime::builder()
        .workers(2)
        .fault_plan(FaultPlan::chaos(77))
        .build()
        .unwrap();
    for i in 0..20u64 {
        let (tx, rx) = oneshot::<u64>();
        let hostile = std::thread::spawn(move || {
            // Jitter derived from the loop index: sometimes before the
            // deadline, sometimes after.
            std::thread::sleep(Duration::from_micros((i % 5) * 400));
            tx.send(i);
        });
        let got = rt.block_on(async move { rx.with_timeout(Duration::from_millis(1)).await });
        hostile.join().unwrap();
        // Either the send won (the value) or the deadline did (TimedOut);
        // a canceled verdict would mean the settle protocol lost an edge.
        match got {
            Ok(v) => assert_eq!(v, i),
            Err(lhws_core::OpError::TimedOut) => {}
            Err(other) => panic!("iteration {i}: unexpected verdict {other:?}"),
        }
    }
    let report = rt.shutdown();
    assert_eq!(report.metrics.suspensions, report.metrics.resumes);
}
