//! End-to-end tests of the latency-hiding work-stealing runtime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhws_core::{
    fork2, par_map_reduce, simulate_latency, spawn, yield_now, LatencyMode, LatencyProfile,
    RemoteService, Runtime,
};

fn rt(workers: usize) -> Runtime {
    Runtime::builder().workers(workers).build().unwrap()
}

/// Sequential fib for cross-checking.
fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

/// Parallel fib on the runtime.
fn pfib(n: u64) -> std::pin::Pin<Box<dyn std::future::Future<Output = u64> + Send>> {
    Box::pin(async move {
        if n < 10 {
            fib(n)
        } else {
            let (a, b) = fork2(pfib(n - 1), pfib(n - 2)).await;
            a + b
        }
    })
}

#[test]
fn block_on_simple_value() {
    let rt = rt(2);
    assert_eq!(rt.block_on(async { 7 }), 7);
}

#[test]
fn block_on_repeatedly() {
    let rt = rt(2);
    for i in 0..50 {
        assert_eq!(rt.block_on(async move { i * 2 }), i * 2);
    }
}

#[test]
fn fork_join_fib_matches_sequential() {
    let rt = rt(4);
    for n in [10u64, 15, 20] {
        assert_eq!(rt.block_on(pfib(n)), fib(n), "fib({n})");
    }
}

#[test]
fn fork_join_on_one_worker() {
    let rt = rt(1);
    assert_eq!(rt.block_on(pfib(15)), fib(15));
}

#[test]
fn spawn_many_tasks() {
    let rt = rt(4);
    let total = rt.block_on(async {
        let handles: Vec<_> = (0..500u64).map(|i| spawn(async move { i })).collect();
        let mut sum = 0;
        for h in handles {
            sum += h.await;
        }
        sum
    });
    assert_eq!(total, 500 * 499 / 2);
}

#[test]
fn external_spawn_from_non_worker() {
    let rt = rt(2);
    let h = rt.spawn(async { 99u32 });
    assert_eq!(rt.block_on(h), 99);
}

#[test]
fn latency_hiding_overlaps_sleeps() {
    // 8 parallel 40ms latencies on 2 workers: blocking would need
    // >= 160ms; hiding completes in roughly one latency.
    let rt = rt(2);
    let start = Instant::now();
    rt.block_on(async {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                spawn(async {
                    simulate_latency(Duration::from_millis(40)).await;
                })
            })
            .collect();
        for h in handles {
            h.await;
        }
    });
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(160),
        "latency was not hidden: {elapsed:?}"
    );
}

#[test]
fn blocking_mode_serializes_latency() {
    let rt = Runtime::builder()
        .workers(2)
        .mode(LatencyMode::Block)
        .build()
        .unwrap();
    let start = Instant::now();
    rt.block_on(async {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                spawn(async {
                    simulate_latency(Duration::from_millis(20)).await;
                })
            })
            .collect();
        for h in handles {
            h.await;
        }
    });
    let elapsed = start.elapsed();
    // 8 × 20ms over 2 blocked workers ≥ 80ms.
    assert!(
        elapsed >= Duration::from_millis(75),
        "blocking mode should pay the latency: {elapsed:?}"
    );
}

#[test]
fn latency_mixed_with_compute() {
    let rt = rt(4);
    let out = rt.block_on(async {
        let (a, b) = fork2(pfib(18), async {
            simulate_latency(Duration::from_millis(10)).await;
            1000u64
        })
        .await;
        a + b
    });
    assert_eq!(out, fib(18) + 1000);
}

#[test]
fn many_concurrent_suspensions() {
    // Far more suspended tasks than workers: stresses the multi-deque and
    // resume machinery (the paper: "can handle computations with large
    // numbers of suspended threads").
    let rt = rt(4);
    let n = 2_000u64;
    let counter = Arc::new(AtomicU64::new(0));
    let c2 = counter.clone();
    rt.block_on(async move {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let c = c2.clone();
                spawn(async move {
                    simulate_latency(Duration::from_millis(5)).await;
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.await;
        }
    });
    assert_eq!(counter.load(Ordering::Relaxed), n);
    let m = rt.metrics();
    assert_eq!(m.suspensions, n, "each task suspended exactly once");
    assert_eq!(m.resumes, n, "each suspension resumed exactly once");
}

#[test]
fn map_reduce_with_remote_service() {
    // The paper's Figure 8 program against a synthetic remote server.
    let rt = rt(4);
    let svc = Arc::new(RemoteService::new(
        "kv",
        LatencyProfile::Fixed(Duration::from_millis(3)),
    ));
    let sum = rt.block_on(async move {
        par_map_reduce(
            0,
            64,
            move |i| {
                let svc = svc.clone();
                async move { svc.request(i, |k| k * 2).await }
            },
            |a, b| a + b,
            0,
        )
        .await
    });
    assert_eq!(sum, (0..64).map(|i| i * 2).sum::<u64>());
}

#[test]
fn par_map_reduce_empty_and_singleton() {
    let rt = rt(2);
    let empty =
        rt.block_on(async { par_map_reduce(5, 5, |i| async move { i }, |a, b| a + b, 1234).await });
    assert_eq!(empty, 1234, "empty range returns the identity");
    let single = rt
        .block_on(async { par_map_reduce(7, 8, |i| async move { i * 3 }, |a, b| a + b, 0).await });
    assert_eq!(single, 21);
}

#[test]
fn lemma7_deques_bounded_in_practice() {
    // U = 0 computation: exactly one deque per worker, ever.
    let rt = rt(4);
    rt.block_on(pfib(20));
    let m = rt.metrics();
    assert_eq!(
        m.max_deques_per_worker, 1,
        "no suspensions => one deque per worker (the U=0 reduction)"
    );
    assert_eq!(m.suspensions, 0);
    assert_eq!(m.pfor_batches, 0);
}

#[test]
fn suspension_width_one_server_loop() {
    // The paper's server: at most one outstanding input at a time.
    let rt = rt(2);
    let out = rt.block_on(async {
        let mut acc = 0u64;
        for i in 0..20 {
            simulate_latency(Duration::from_millis(1)).await;
            let (a, rest) = fork2(async move { i }, async move { 1u64 }).await;
            acc += a + rest;
        }
        acc
    });
    assert_eq!(out, (0..20).sum::<u64>() + 20);
    let m = rt.metrics();
    // One suspension at a time: deque count per worker stays <= U+1 = 2.
    assert!(
        m.max_deques_per_worker <= 2,
        "server has U=1; got {} deques",
        m.max_deques_per_worker
    );
}

#[test]
fn panic_in_spawned_task_propagates_at_join() {
    let rt = rt(2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.block_on(async {
            let h = spawn(async {
                panic!("child exploded");
            });
            h.await;
        });
    }));
    assert!(result.is_err(), "panic must propagate through block_on");
}

#[test]
fn panic_in_block_on_future_propagates() {
    let rt = rt(2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.block_on(async {
            panic!("root exploded");
        });
    }));
    assert!(result.is_err());
}

#[test]
fn runtime_survives_panicked_task() {
    let rt = rt(2);
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.block_on(async {
            spawn(async { panic!("detached panic") }).await;
        });
    }));
    // The runtime must still schedule new work.
    assert_eq!(rt.block_on(async { 5 }), 5);
}

#[test]
fn yield_now_roundtrip() {
    let rt = rt(2);
    let v = rt.block_on(async {
        let mut x = 0;
        for _ in 0..10 {
            yield_now().await;
            x += 1;
        }
        x
    });
    assert_eq!(v, 10);
}

#[test]
fn nested_fork2() {
    let rt = rt(4);
    let v = rt.block_on(async {
        let ((a, b), (c, d)) = fork2(
            fork2(async { 1 }, async { 2 }),
            fork2(async { 3 }, async { 4 }),
        )
        .await;
        a + b + c + d
    });
    assert_eq!(v, 10);
}

#[test]
fn remote_service_uniform_latency() {
    let rt = rt(4);
    let svc = Arc::new(RemoteService::new(
        "jittery",
        LatencyProfile::Uniform(Duration::from_millis(1), Duration::from_millis(8)),
    ));
    let n = 32;
    let sum = rt.block_on(async move {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let svc = svc.clone();
                spawn(async move { svc.request(i, |k| k + 1).await })
            })
            .collect();
        let mut s = 0;
        for h in handles {
            s += h.await;
        }
        s
    });
    assert_eq!(sum, (0..n).map(|i| i + 1).sum::<u64>());
}

#[test]
fn metrics_accumulate_sensibly() {
    let rt = rt(2);
    let before = rt.metrics();
    rt.block_on(pfib(16));
    let after = rt.metrics();
    let d = after.delta(&before);
    assert!(d.polls > 0);
    assert!(d.tasks_spawned > 0);
    // Absolute, not since `before`: the workers open their first deques
    // as they start up, which may be before or after that snapshot, and
    // every later deque is recycled.
    assert!(after.deques_allocated >= 1);
}

#[test]
fn live_set_draw_keeps_dead_steal_targets_near_zero() {
    // Phase 1 inflates the registry's allocated prefix with a burst of
    // concurrent suspensions (each suspension parks a deque; the worker
    // moves on to a fresh one). Phase 2 holds one long latency while every
    // other deque sits freed, so idle thieves probe a registry that is
    // mostly dead slots. The live-set draw never returns an already-freed
    // slot; the only dead targets left are victims that retire between
    // the draw and the steal, a vanishing share of the probes.
    let rt = rt(4);
    rt.block_on(async {
        let hs: Vec<_> = (0..200)
            .map(|_| spawn(async { simulate_latency(Duration::from_millis(10)).await }))
            .collect();
        for h in hs {
            h.await;
        }
        simulate_latency(Duration::from_millis(80)).await;
    });
    let m = rt.metrics();
    assert!(m.steals_attempted > 0, "idle thieves must have probed: {m}");
    assert!(
        m.steals_dead_target * 100 <= m.steals_attempted,
        "dead targets must stay under 1% of probes: {m}"
    );
    // The registry-backed gauges flow through the snapshot. (The absolute
    // high water is workload-shaped — a fast owner absorbs most
    // suspensions onto one deque — so only pin that it is plumbed.)
    assert!(m.live_deques_high_water >= 1, "gauge must be plumbed");
}

#[test]
fn sequential_latencies_in_one_task() {
    let rt = rt(2);
    let start = Instant::now();
    rt.block_on(async {
        for _ in 0..5 {
            simulate_latency(Duration::from_millis(5)).await;
        }
    });
    let elapsed = start.elapsed();
    assert!(elapsed >= Duration::from_millis(25), "latencies are real");
    let m = rt.metrics();
    assert_eq!(m.suspensions, 5);
    assert_eq!(m.resumes, 5);
}

#[test]
fn drop_runtime_with_pending_detached_work() {
    let rt = rt(2);
    // Spawn tasks that will still be suspended when we drop the runtime.
    let _h = rt.spawn(async {
        simulate_latency(Duration::from_secs(30)).await;
    });
    std::thread::sleep(Duration::from_millis(20));
    drop(rt); // must not hang or crash
}

#[test]
fn two_runtimes_coexist() {
    let a = rt(2);
    let b = rt(2);
    let va = a.block_on(async { 1 });
    let vb = b.block_on(async { 2 });
    assert_eq!(va + vb, 3);
}

#[test]
fn deep_recursion_many_small_tasks() {
    let rt = rt(4);
    // A deep spawn chain exercising join wake-ups across workers.
    fn chain(n: u32) -> std::pin::Pin<Box<dyn std::future::Future<Output = u32> + Send>> {
        Box::pin(async move {
            if n == 0 {
                0
            } else {
                let h = spawn(chain(n - 1));
                h.await + 1
            }
        })
    }
    assert_eq!(rt.block_on(chain(300)), 300);
}

#[test]
fn stress_mixed_workload() {
    let rt = rt(4);
    let svc = Arc::new(RemoteService::new(
        "mix",
        LatencyProfile::Uniform(Duration::from_micros(200), Duration::from_millis(4)),
    ));
    let expect: u64 = (0..128u64).map(|i| i % 7 + fib(10)).sum();
    let got = rt.block_on(async move {
        par_map_reduce(
            0,
            128,
            move |i| {
                let svc = svc.clone();
                async move {
                    let r = svc.request(i, |k| k % 7).await;
                    r + pfib_local(10)
                }
            },
            |a, b| a + b,
            0,
        )
        .await
    });
    fn pfib_local(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            pfib_local(n - 1) + pfib_local(n - 2)
        }
    }
    assert_eq!(got, expect);
}

#[test]
fn left_child_priority_non_preemptive() {
    // With one worker, fork2's continuation (left child) runs to
    // completion before the spawned right child starts — the paper's
    // edge-ordering/priority property ("the current task continues
    // running until it finishes").
    let rt = rt(1);
    let log = Arc::new(std::sync::Mutex::new(Vec::new()));
    let l2 = log.clone();
    rt.block_on(async move {
        let log_left = l2.clone();
        let log_right = l2.clone();
        let (_, _) = fork2(
            async move {
                log_left.lock().unwrap().push("left-start");
                yield_now().await; // even across yields, left keeps priority
                log_left.lock().unwrap().push("left-end");
            },
            async move {
                log_right.lock().unwrap().push("right");
            },
        )
        .await;
    });
    let got = log.lock().unwrap().clone();
    assert_eq!(got[0], "left-start");
    // The right child must not run before the left part finished its
    // first segment; after a yield the left task re-queues at the bottom,
    // so "left-end" still precedes "right".
    assert_eq!(got, vec!["left-start", "left-end", "right"]);
}

#[test]
fn fork2_left_runs_inline_same_task() {
    // The left branch is the continuation of the same task: no extra task
    // is spawned for it.
    let rt = rt(2);
    let before = rt.metrics();
    rt.block_on(async {
        let (a, b) = fork2(async { 1 }, async { 2 }).await;
        assert_eq!(a + b, 3);
    });
    let d = rt.metrics().delta(&before);
    // Exactly one task, the block_on root: the left child is its
    // continuation, and the right one ran in place unless a thief took it.
    assert_eq!(
        d.tasks_spawned,
        1 + d.forks_promoted,
        "left child must not spawn a task"
    );
}
