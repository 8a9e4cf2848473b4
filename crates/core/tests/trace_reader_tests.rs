//! Incremental trace-reader property tests, over the public API only.
//!
//! The reader plane's contract ([`Observer::trace_reader`]) is exactness
//! under concurrency: a reader's live polls plus its one poll after
//! shutdown cover every recorded event exactly once; overflow is
//! *accounted* (per reader, as `dropped`) rather than silently lost;
//! independent readers have independent cursors; and an audit fed
//! incrementally during the run reaches the same verdict as the post-hoc
//! auditor over the complete trace.

use std::time::{Duration, Instant};

use lhws_core::trace::{EventKind, TraceEvent};
use lhws_core::{join_all, simulate_latency, AuditState, FaultPlan, Runtime, Trace};

const CAPACITY: usize = 1 << 16;
const TASKS: u64 = 64;

fn latency_workload(rt: &Runtime) -> Vec<lhws_core::JoinHandle<u64>> {
    (0..TASKS)
        .map(|i| {
            rt.spawn(async move {
                simulate_latency(Duration::from_micros(200 + (i % 7) * 100)).await;
                i
            })
        })
        .collect()
}

fn count(events: &[TraceEvent], pred: impl Fn(&EventKind) -> bool) -> u64 {
    events.iter().filter(|e| pred(&e.kind)).count() as u64
}

fn suspends(events: &[TraceEvent]) -> u64 {
    count(events, |k| matches!(k, EventKind::Suspend { .. }))
}

/// Deadline-bounded spin so a regression fails loudly instead of hanging.
fn deadline() -> Instant {
    Instant::now() + Duration::from_secs(30)
}

// ---------------------------------------------------------------------
// Exactly-once under a concurrent producer.
// ---------------------------------------------------------------------

#[test]
fn reader_sees_every_event_exactly_once_under_concurrent_load() {
    let rt = Runtime::builder()
        .workers(4)
        .trace_capacity(CAPACITY)
        .build()
        .unwrap();
    let mut reader = rt.observe().trace_reader().expect("tracing enabled");

    // Poll concurrently with the producers from this thread while the
    // workload suspends and resumes on the workers.
    let handles = latency_workload(&rt);
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut lost = 0u64;
    let stop = deadline();
    while rt.metrics().resumes < TASKS {
        let batch = reader.poll_events();
        lost += batch.dropped;
        events.extend(batch.events);
        assert!(Instant::now() < stop, "workload failed to finish");
        std::thread::sleep(Duration::from_micros(200));
    }
    let sum: u64 = rt.block_on(join_all(handles)).into_iter().sum();
    assert_eq!(sum, (0..TASKS).sum::<u64>());

    // One poll after shutdown returns exactly what the live polls did
    // not see: the shutdown trace starts at this reader's cursor.
    let report = rt.shutdown();
    let rest = reader.poll_events();
    assert_eq!(rest.events, report.trace.expect("tracing enabled").events);
    lost += rest.dropped;
    assert_eq!(lost, 0, "the ring was sized for the workload");
    events.extend(rest.events);
    events.sort_by_key(|e| e.ts);

    // Exactly-once, checked against the independent metrics plane: a
    // duplicated event would overshoot the counter, a lost one would
    // undershoot it.
    assert_eq!(suspends(&events), report.metrics.suspensions);
    assert_eq!(suspends(&events), TASKS);
    let delivered: u64 = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Resume { batch_len, .. } => Some(batch_len as u64),
            _ => None,
        })
        .sum();
    assert_eq!(delivered, report.metrics.resumes);
    assert_eq!(
        count(&events, |k| matches!(k, EventKind::Steal { .. })),
        report.metrics.steals_attempted
    );

    // And the combined stream is coherent end to end: the full auditor
    // accepts it as if it had been one post-hoc trace.
    let combined = Trace {
        events,
        dropped: 0,
        workers: rest.workers,
    };
    let audit = combined.audit();
    assert!(audit.passed(), "combined stream must audit clean:\n{audit}");
    assert_eq!(audit.unresolved, 0);
}

// ---------------------------------------------------------------------
// Polls after shutdown; overflow is accounted, never silent.
// ---------------------------------------------------------------------

#[test]
fn poll_after_shutdown_holds_the_shutdown_trace() {
    // A reader that never polls during the run: the shutdown trace reads
    // the rings without consuming them, so the reader's first poll after
    // shutdown holds the very same events and the same loss.
    let rt = Runtime::builder()
        .workers(2)
        .trace_capacity(CAPACITY)
        .build()
        .unwrap();
    let mut reader = rt.observe().trace_reader().expect("tracing enabled");
    let handles = latency_workload(&rt);
    rt.block_on(join_all(handles));

    let report = rt.shutdown();
    let trace = report.trace.expect("tracing enabled");
    let batch = reader.poll_events();
    assert_eq!(suspends(&batch.events), report.metrics.suspensions);
    assert_eq!(batch.events, trace.events);
    assert_eq!(batch.dropped, trace.dropped);
    assert!(batch.audit().passed());
    // And the reader has now seen everything.
    assert!(reader.poll_events().events.is_empty());
}

#[test]
fn overflow_during_slow_reads_is_counted_not_lost() {
    // A ring far too small for the workload, and a reader that never
    // polls while the run is hot: producers must drop (drop-newest), and
    // every drop must surface in the reader's accounting.
    let rt = Runtime::builder()
        .workers(2)
        .trace_capacity(16)
        .build()
        .unwrap();
    let mut reader = rt.observe().trace_reader().expect("tracing enabled");
    let handles = latency_workload(&rt);
    let sum: u64 = rt.block_on(join_all(handles)).into_iter().sum();
    assert_eq!(sum, (0..TASKS).sum::<u64>());

    let report = rt.shutdown();
    let trace = report.trace.expect("tracing enabled");
    assert!(
        trace.dropped > 0,
        "a 16-slot ring must overflow under {TASKS} suspending tasks"
    );

    // The lagging reader's poll after shutdown holds what the rings
    // kept, and accounts for every producer-side drop.
    let batch = reader.poll_events();
    assert_eq!(
        batch.dropped, trace.dropped,
        "every producer-side drop is surfaced to the reader"
    );
    assert_eq!(batch.events, trace.events);
    assert_eq!(
        batch.events.len() as u64 + batch.dropped,
        trace.events.len() as u64 + trace.dropped
    );

    // The loss makes the auditor refuse to certify rather than pass on
    // absence of evidence.
    let audit = batch.audit();
    assert!(audit.inconclusive, "loss must make the audit inconclusive");
    assert!(!audit.passed());
}

// ---------------------------------------------------------------------
// Independent cursors.
// ---------------------------------------------------------------------

#[test]
fn two_readers_poll_independent_cursors() {
    let rt = Runtime::builder()
        .workers(2)
        .trace_capacity(CAPACITY)
        .build()
        .unwrap();
    let mut r1 = rt.observe().trace_reader().expect("tracing enabled");
    let mut r2 = rt.observe().trace_reader().expect("tracing enabled");

    let handles = latency_workload(&rt);
    rt.block_on(join_all(handles));

    // Exhaust r1 first — including the reclaim its polls trigger — then
    // check r2 still sees the whole workload: slots are only freed
    // behind the slowest cursor, so a fast co-reader cannot starve a
    // slow one.
    let b1 = r1.poll_events();
    assert_eq!(b1.dropped, 0);
    assert_eq!(suspends(&b1.events), TASKS);

    let b2 = r2.poll_events();
    assert_eq!(b2.dropped, 0);
    assert_eq!(
        suspends(&b2.events),
        TASKS,
        "r1's polls must not consume r2's view"
    );

    // Cursors advance per reader: neither sees the workload twice.
    assert_eq!(suspends(&r1.poll_events().events), 0);
    assert_eq!(suspends(&r2.poll_events().events), 0);
}

// ---------------------------------------------------------------------
// Continuous audit == post-hoc audit.
// ---------------------------------------------------------------------

#[test]
fn continuous_audit_matches_posthoc_audit_on_the_same_run() {
    // One chaotic run, observed two ways at once: an AuditState fed
    // batch-by-batch *while the faults fire*, and the standard post-hoc
    // auditor over the reassembled complete stream. Both views must
    // agree exactly — verdict and every count.
    let rt = Runtime::builder()
        .workers(2)
        .trace_capacity(CAPACITY)
        .fault_plan(FaultPlan::chaos(1234))
        .build()
        .unwrap();
    let mut reader = rt.observe().trace_reader().expect("tracing enabled");
    let mut state = AuditState::new(reader.workers());
    let mut all_events: Vec<TraceEvent> = Vec::new();

    let handles = latency_workload(&rt);
    let stop = deadline();
    while rt.metrics().resumes < TASKS {
        let batch = reader.poll_events();
        state.observe(&batch.events);
        state.observe_dropped(batch.dropped);
        all_events.extend(batch.events);
        assert!(Instant::now() < stop, "chaos workload failed to finish");
        std::thread::sleep(Duration::from_micros(200));
    }
    rt.block_on(join_all(handles));

    let report = rt.shutdown();
    assert!(report.poisoned_worker.is_none());
    let rest = reader.poll_events();
    assert_eq!(rest.dropped, 0);
    state.observe(&rest.events);
    all_events.extend(rest.events);

    let live = state.report();
    all_events.sort_by_key(|e| e.ts);
    let posthoc = Trace {
        events: all_events,
        dropped: 0,
        workers: reader.workers(),
    }
    .audit();

    assert!(
        posthoc.passed(),
        "post-hoc audit rejected the run:\n{posthoc}"
    );
    assert!(live.passed(), "continuous audit diverged:\n{live}");
    assert_eq!(live.suspensions, posthoc.suspensions);
    assert_eq!(live.readies, posthoc.readies);
    assert_eq!(live.execs, posthoc.execs);
    assert_eq!(live.unresolved, posthoc.unresolved);
    assert_eq!(live.max_inflight, posthoc.max_inflight);
    assert_eq!(live.deque_high_water, posthoc.deque_high_water);
    assert_eq!(live.violation_count, 0);
}

#[test]
fn live_audit_verdict_matches_posthoc_across_runs_with_same_seed() {
    // The `LiveAudit` convenience path, across two runs of the same
    // seeded fault schedule: the verdict of an audit streamed during the
    // chaos soak matches the verdict of the classic shutdown-time audit.
    let seed = 77u64;

    // Run A: continuous — poll during the run, and once more after
    // shutdown.
    let rt = Runtime::builder()
        .workers(2)
        .trace_capacity(CAPACITY)
        .fault_plan(FaultPlan::chaos(seed))
        .build()
        .unwrap();
    let mut la = rt.observe().audit_incremental().expect("tracing enabled");
    let handles = latency_workload(&rt);
    let stop = deadline();
    while rt.metrics().resumes < TASKS {
        la.poll();
        assert!(Instant::now() < stop, "chaos workload failed to finish");
        std::thread::sleep(Duration::from_micros(200));
    }
    rt.block_on(join_all(handles));
    rt.shutdown();
    la.poll();
    let live = la.report();

    // Run B: classic — same seed, audit only after shutdown.
    let rt = Runtime::builder()
        .workers(2)
        .trace_capacity(CAPACITY)
        .fault_plan(FaultPlan::chaos(seed))
        .build()
        .unwrap();
    let handles = latency_workload(&rt);
    rt.block_on(join_all(handles));
    let posthoc = rt.shutdown().trace.expect("tracing enabled").audit();

    assert!(
        posthoc.passed(),
        "post-hoc audit rejected seed {seed}:\n{posthoc}"
    );
    assert!(
        live.passed(),
        "continuous audit rejected seed {seed}:\n{live}"
    );
    assert_eq!(live.unresolved, 0);
    assert_eq!(posthoc.unresolved, 0);
    // The fault *schedule* is seed-stable but the suspension count is
    // not exactly so: a timer resume racing a task's first poll under
    // real wall-clock latency can elide (or, via an injected spurious
    // wake, add) a suspension. Every task suspends at least once, and
    // the two runs must agree to within that race's slack.
    assert!(
        live.suspensions >= TASKS && posthoc.suspensions >= TASKS,
        "every latency task suspends at least once (live {}, posthoc {})",
        live.suspensions,
        posthoc.suspensions
    );
    assert!(
        live.suspensions.abs_diff(posthoc.suspensions) <= TASKS / 8,
        "same-seed suspension counts diverged beyond timer-race slack: live {}, posthoc {}",
        live.suspensions,
        posthoc.suspensions
    );
}
