//! Stress tests: high task counts, deep recursion, steal storms, mass
//! suspension, channels under load, and repeated runtime lifecycles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lhws_core::channel::{mpsc, oneshot};
use lhws_core::{external_op, fork2, join_all, simulate_latency, spawn, LatencyMode, Runtime};

fn rt(workers: usize) -> Runtime {
    Runtime::builder().workers(workers).build().unwrap()
}

#[test]
fn ten_thousand_tiny_tasks() {
    let rt = rt(4);
    let n = 10_000u64;
    let sum = rt.block_on(async move {
        let handles: Vec<_> = (0..n).map(|i| spawn(async move { i })).collect();
        join_all(handles).await.into_iter().sum::<u64>()
    });
    assert_eq!(sum, n * (n - 1) / 2);
}

#[test]
fn wide_and_deep_fork_tree() {
    let rt = rt(4);
    fn tree(depth: u32) -> std::pin::Pin<Box<dyn std::future::Future<Output = u64> + Send>> {
        Box::pin(async move {
            if depth == 0 {
                1
            } else {
                let (a, b) = fork2(tree(depth - 1), tree(depth - 1)).await;
                a + b
            }
        })
    }
    assert_eq!(rt.block_on(tree(12)), 1 << 12);
}

#[test]
fn five_thousand_suspensions_multiple_waves() {
    let rt = rt(4);
    let counter = Arc::new(AtomicU64::new(0));
    for _wave in 0..5 {
        let c = counter.clone();
        rt.block_on(async move {
            let hs: Vec<_> = (0..1000)
                .map(|i| {
                    let c = c.clone();
                    spawn(async move {
                        simulate_latency(Duration::from_micros(500 + (i % 7) * 300)).await;
                        c.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            join_all(hs).await;
        });
    }
    assert_eq!(counter.load(Ordering::Relaxed), 5_000);
    let m = rt.metrics();
    assert_eq!(m.suspensions, 5_000);
    assert_eq!(m.resumes, 5_000);
}

#[test]
fn interleaved_suspend_resume_cycles_per_task() {
    // Each task suspends repeatedly: deques must recycle correctly.
    let rt = rt(2);
    let total = rt.block_on(async {
        let hs: Vec<_> = (0..64)
            .map(|i| {
                spawn(async move {
                    let mut acc = 0u64;
                    for k in 0..8 {
                        simulate_latency(Duration::from_micros(300)).await;
                        acc += i * k;
                    }
                    acc
                })
            })
            .collect();
        join_all(hs).await.into_iter().sum::<u64>()
    });
    let expect: u64 = (0..64u64)
        .map(|i| (0..8u64).map(|k| i * k).sum::<u64>())
        .sum();
    assert_eq!(total, expect);
    let m = rt.metrics();
    assert_eq!(m.suspensions, 64 * 8);
}

#[test]
fn steal_storm_single_producer() {
    // One task floods its own deque; the other workers must drain it by
    // stealing. More workers than cores is fine (they interleave).
    // Each leaf spins for 10 µs of wall time: the producer alone would
    // need 40 ms, hundreds of the thieves' 100 µs park intervals, so "no
    // thief woke up in time" cannot be what a zero below means (with empty
    // leaves the whole job is over in about one millisecond).
    let rt = Runtime::builder().workers(8).build().unwrap();
    let done = rt.block_on(async {
        let hs: Vec<_> = (0..4_000)
            .map(|i| {
                spawn(async move {
                    let start = std::time::Instant::now();
                    while start.elapsed() < Duration::from_micros(10) {
                        std::hint::spin_loop();
                    }
                    std::hint::black_box(i) & 1
                })
            })
            .collect();
        join_all(hs).await.len()
    });
    assert_eq!(done, 4_000);
    let m = rt.metrics();
    assert!(m.steals_succeeded > 0, "someone must have stolen: {m:?}");
}

#[test]
fn mpsc_heavy_traffic_many_producers() {
    let rt = rt(4);
    let (count, sum) = rt.block_on(async {
        let (tx, mut rx) = mpsc::<u64>();
        let producers: Vec<_> = (0..8)
            .map(|p| {
                let tx = tx.clone();
                spawn(async move {
                    for i in 0..500u64 {
                        tx.send(p * 10_000 + i).unwrap();
                        if i % 100 == 37 {
                            lhws_core::yield_now().await;
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        let mut count = 0u64;
        let mut sum = 0u64;
        while let Some(v) = rx.recv().await {
            count += 1;
            sum = sum.wrapping_add(v);
        }
        join_all(producers).await;
        (count, sum)
    });
    assert_eq!(count, 8 * 500);
    let expect: u64 = (0..8u64)
        .flat_map(|p| (0..500u64).map(move |i| p * 10_000 + i))
        .fold(0, u64::wrapping_add);
    assert_eq!(sum, expect);
}

#[test]
fn oneshot_chains() {
    // A relay race of oneshot channels across tasks.
    let rt = rt(4);
    let out = rt.block_on(async {
        let (first_tx, mut prev_rx) = oneshot::<u64>();
        let mut relays = Vec::new();
        for _ in 0..100 {
            let (tx, rx) = oneshot::<u64>();
            relays.push(spawn(async move {
                let v = prev_rx.await.unwrap();
                tx.send(v + 1);
            }));
            prev_rx = rx;
        }
        first_tx.send(0);
        let got = prev_rx.await.unwrap();
        join_all(relays).await;
        got
    });
    assert_eq!(out, 100);
}

#[test]
fn runtime_churn() {
    // Create and destroy many runtimes with pending latency work.
    for i in 0..20 {
        let rt = Runtime::builder().workers(2).build().unwrap();
        let v = rt.block_on(async move {
            let (a, b) = fork2(async { 1u64 }, async {
                simulate_latency(Duration::from_micros(500)).await;
                2u64
            })
            .await;
            a + b
        });
        assert_eq!(v, 3);
        // Leave a detached suspended task behind on odd iterations.
        if i % 2 == 1 {
            drop(rt.spawn(async {
                simulate_latency(Duration::from_secs(60)).await;
            }));
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(rt);
    }
}

#[test]
fn blocking_mode_stress_correctness() {
    // Blocking mode must still compute correct results with many tasks.
    let rt = Runtime::builder()
        .workers(8)
        .mode(LatencyMode::Block)
        .build()
        .unwrap();
    let sum = rt.block_on(async {
        let hs: Vec<_> = (0..64)
            .map(|i| {
                spawn(async move {
                    simulate_latency(Duration::from_micros(200)).await;
                    i
                })
            })
            .collect();
        join_all(hs).await.into_iter().sum::<u64>()
    });
    assert_eq!(sum, (0..64).sum::<u64>());
}

#[test]
fn hundred_thousand_concurrent_suspensions() {
    // The headline stress for the per-worker timer heaps: 100k suspensions
    // live in the heaps *at the same time* across 8 workers, then all
    // expire and reinject. A watcher thread samples `suspensions -
    // resumes` to certify the peak actually reached 100k.
    use std::time::Instant;

    const N: u64 = 100_000;
    let rt = Runtime::builder().workers(8).build().unwrap();

    // Warm-up wave, which also calibrates the common deadline: every task
    // must register *before* the first expiration for the peak to hit N,
    // so size the margin from measured spawn+register throughput.
    let t0 = Instant::now();
    rt.block_on(async {
        let hs: Vec<_> = (0..2_000)
            .map(|_| {
                spawn(async {
                    simulate_latency(Duration::from_millis(1)).await;
                })
            })
            .collect();
        join_all(hs).await;
    });
    let margin = (t0.elapsed() / 2_000) * (N as u32) * 5 + Duration::from_millis(500);
    let before = rt.metrics();

    let stop = AtomicU64::new(0);
    let peak = AtomicU64::new(0);
    let sum = std::thread::scope(|scope| {
        scope.spawn(|| {
            while stop.load(Ordering::Acquire) == 0 {
                let m = rt.metrics().delta(&before);
                // Saturating: the two counters are read at slightly
                // different instants, so a racing register+resume pair can
                // transiently make `resumes` the larger read.
                peak.fetch_max(m.suspensions.saturating_sub(m.resumes), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let deadline = Instant::now() + margin;
        let sum = rt.block_on(async move {
            let hs: Vec<_> = (0..N)
                .map(|_| {
                    spawn(async move {
                        lhws_core::latency_until(deadline).await;
                        1u64
                    })
                })
                .collect();
            join_all(hs).await.into_iter().sum::<u64>()
        });
        stop.store(1, Ordering::Release);
        sum
    });

    assert_eq!(sum, N, "every suspended task resumed and completed");
    let m = rt.metrics().delta(&before);
    assert_eq!(m.suspensions, N, "one timer registration per task");
    assert_eq!(m.resumes, N, "one resume per registration");
    assert_eq!(
        peak.load(Ordering::Relaxed),
        N,
        "all {N} suspensions were live in the timer heaps concurrently \
         (margin was {margin:?})"
    );
}

#[test]
fn suspended_deques_past_the_old_registry_cap() {
    // Tasks injected from outside that all suspend at once each leave a
    // suspended deque behind, so the live deque count is the task count
    // (Lemma 7's `P · (U + 1)` with `U` set by the program), and no cap
    // on the registry may stop it short: N is past 2¹⁶, a cap a fixed
    // default could pick. Each task waits on an external op that is
    // completed only once every task has suspended, so no deque is freed
    // and recycled early however slowly the build runs.
    const N: u64 = 70_000;
    let rt = rt(2);
    let (completers, handles): (Vec<_>, Vec<_>) = (0..N)
        .map(|_| {
            let (done, op) = external_op::<u64>();
            (done, rt.spawn(async move { op.await.expect("completed") }))
        })
        .unzip();
    // Until all N have suspended, or the count stops growing (a poisoned
    // runtime suspends nothing more).
    let mut seen = 0;
    loop {
        std::thread::sleep(Duration::from_secs(1));
        let now = rt.metrics().suspensions;
        if now >= N || now == seen {
            break;
        }
        seen = now;
    }
    for done in completers {
        done.complete(1);
    }
    let sum = rt.try_block_on(async move {
        let mut sum = 0;
        for h in handles {
            sum += h.await;
        }
        sum
    });
    assert_eq!(sum, Ok(N));
    let allocated = rt.metrics().deques_allocated;
    assert!(allocated > 1 << 16, "only {allocated} deques allocated");
}

#[test]
fn mixed_modes_coexisting_runtimes() {
    let hide = Runtime::builder().workers(2).build().unwrap();
    let block = Runtime::builder()
        .workers(2)
        .mode(LatencyMode::Block)
        .build()
        .unwrap();
    let a = hide.block_on(async {
        simulate_latency(Duration::from_millis(2)).await;
        1
    });
    let b = block.block_on(async {
        simulate_latency(Duration::from_millis(2)).await;
        2
    });
    assert_eq!(a + b, 3);
}
