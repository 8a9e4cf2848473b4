//! Integration tests for the steal-policy layer: victim affinity,
//! steal-half batching, and the `AffinityStale` chaos fault.

use lhws_core::{join_all, spawn, FaultPlan, Runtime, StealPolicy};

/// Spawns `n` trivial tasks from one producer task (building one deep
/// deque for thieves to batch against) and sums the results.
fn scatter(rt: &Runtime, n: u64) -> u64 {
    rt.block_on(async move {
        let handles: Vec<_> = (0..n).map(|i| spawn(async move { i })).collect();
        join_all(handles).await.into_iter().sum()
    })
}

fn expected(n: u64) -> u64 {
    n * (n - 1) / 2
}

#[test]
fn affinity_policy_completes_and_accounts_attempts() {
    let rt = Runtime::builder()
        .workers(4)
        .steal_policy(StealPolicy::Affinity)
        .build()
        .unwrap();
    for _ in 0..5 {
        assert_eq!(scatter(&rt, 2_000), expected(2_000));
    }
    // Quiescent counters: idle workers keep probing, and a live snapshot
    // can land between an attempt's two bumps.
    let m = rt.shutdown().metrics;
    // Every attempt resolves through exactly one of the affinity chain's
    // terminals: a cached/shard hit or the uniform fallback (misses along
    // the chain end in the fallback).
    assert!(
        m.steal_affinity_hits + m.steal_fallbacks <= m.steals_attempted,
        "hits {} + fallbacks {} exceed attempts {}",
        m.steal_affinity_hits,
        m.steal_fallbacks,
        m.steals_attempted
    );
    // Each worker's first-ever attempt has an empty cache, so any steal
    // activity at all implies fallbacks were taken.
    if m.steals_attempted > 0 {
        assert!(m.steal_fallbacks > 0, "{m}");
    }
}

#[test]
fn affinity_stale_fault_forces_the_fallback_path() {
    // With the cache poisoned on every consult, the cached-victim and
    // same-shard paths can never produce a hit: every attempt must run
    // the uniform fallback.
    let rt = Runtime::builder()
        .workers(4)
        .steal_policy(StealPolicy::Affinity)
        .fault_plan(FaultPlan::new(9).affinity_stale(1_000_000))
        .build()
        .unwrap();
    for _ in 0..5 {
        assert_eq!(scatter(&rt, 2_000), expected(2_000));
    }
    // Quiescent counters (see above): the equality below is exact.
    let m = rt.shutdown().metrics;
    assert!(m.steals_attempted > 0, "workload never stole: {m}");
    assert_eq!(
        m.steal_affinity_hits, 0,
        "poisoned cache must never serve a hit: {m}"
    );
    assert_eq!(
        m.steal_fallbacks, m.steals_attempted,
        "every attempt must fall back: {m}"
    );
}

#[test]
fn uniform_steal_half_lands_batches() {
    // One producer builds a deep deque; three thieves with a batch cap
    // of 8 must claim multi-task batches from it.
    let rt = Runtime::builder()
        .workers(4)
        .steal_policy(StealPolicy::Uniform)
        .steal_batch_limit(8)
        .trace_capacity(1 << 16)
        .build()
        .unwrap();
    for _ in 0..5 {
        assert_eq!(scatter(&rt, 4_000), expected(4_000));
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
        .poll_events()
        .into_trace();
    if trace.dropped == 0 {
        let s = trace.stats();
        assert_eq!(s.steal_batch_tasks, m.steal_batch_tasks, "{s}");
        assert!(s.max_steal_batch <= 8, "cap respected: {s}");
        assert!(s.steal_batches <= s.steal_attempts, "{s}");
    }
}

#[test]
fn affinity_policy_completes_with_batching_and_faults() {
    let rt = Runtime::builder()
        .workers(4)
        .steal_policy(StealPolicy::Affinity)
        .steal_batch_limit(16)
        .fault_plan(
            FaultPlan::new(5)
                .affinity_stale(300_000)
                .steal_fail(100_000),
        )
        .build()
        .unwrap();
    for _ in 0..10 {
        assert_eq!(scatter(&rt, 2_000), expected(2_000));
    }
    let m = rt.shutdown().metrics;
    assert!(
        m.steal_affinity_hits + m.steal_fallbacks <= m.steals_attempted,
        "{m}"
    );
    assert_eq!(m.suspensions, m.resumes);
}

#[test]
fn default_config_keeps_single_steals() {
    // The default (Uniform, steal_batch_limit 1) must never take the
    // batch path: no batch tasks, no affinity traffic.
    let rt = Runtime::builder().workers(4).build().unwrap();
    assert_eq!(scatter(&rt, 2_000), expected(2_000));
    let m = rt.metrics();
    assert_eq!(m.steal_batch_tasks, 0, "{m}");
    assert_eq!(m.steal_affinity_hits, 0, "{m}");
    assert_eq!(m.steal_fallbacks, 0, "{m}");
}
