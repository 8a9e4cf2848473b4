//! Integration test for the steal path's batching: the thief draws a
//! uniform victim and takes half of what it finds, up to the cap.

use lhws_core::{join_all, spawn, Runtime};

/// Spawns `n` trivial tasks from one producer task (building one deep
/// deque for thieves to batch against) and sums the results.
fn scatter(rt: &Runtime, n: u64) -> u64 {
    rt.block_on(async move {
        let handles: Vec<_> = (0..n).map(|i| spawn(async move { i })).collect();
        join_all(handles).await.into_iter().sum()
    })
}

#[test]
fn uniform_steal_half_lands_batches() {
    // One producer builds a deep deque; three thieves must claim
    // multi-task batches from it, none larger than the cap of 8.
    let rt = Runtime::builder()
        .workers(4)
        .trace_capacity(1 << 16)
        .build()
        .unwrap();
    for _ in 0..5 {
        assert_eq!(scatter(&rt, 4_000), 4_000 * 3_999 / 2);
    }
    let m = rt.metrics();
    assert!(
        m.steal_batch_tasks >= 2,
        "deep-deque run should land at least one multi-task batch: {m}"
    );
    // The StealBatch trace stream agrees with the counter when no events
    // were dropped.
    let trace = rt
        .observe()
        .trace_reader()
        .expect("tracing enabled")
        .poll_events();
    if trace.dropped == 0 {
        let s = trace.stats();
        assert_eq!(s.steal_batch_tasks, m.steal_batch_tasks, "{s}");
        assert!(s.max_steal_batch <= 8, "cap respected: {s}");
        assert!(s.steal_batches <= s.steal_attempts, "{s}");
    }
}
