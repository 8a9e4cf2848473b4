//! Cross-crate integration tests: the dag model, the simulator, and the
//! real runtime must tell one consistent story.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lhws::dag::gen::{
    fib, map_reduce, pipeline, random_sp, scatter_gather, server, RandomSpParams,
};
use lhws::dag::offline::{greedy_bound, greedy_schedule, validate_schedule};
use lhws::dag::{suspension_width, Metrics};
use lhws::sim::speedup::{run_lhws, run_ws, speedup_sweep};
use lhws::sim::{LhwsSim, SimConfig};
use lhws::{
    fork2, par_map_reduce, simulate_latency, LatencyMode, LatencyProfile, RemoteService, Runtime,
};

// ---------------------------------------------------------------------
// Model ↔ simulator consistency.
// ---------------------------------------------------------------------

#[test]
fn every_family_validates_under_both_simulators() {
    let dags = [
        map_reduce(32, 30, 6, 1).dag,
        server(20, 25, 6, 1).dag,
        fib(12, 4).dag,
        pipeline(6, 3, 20, 2).dag,
        scatter_gather(32, 80, 3).dag,
    ];
    for (i, dag) in dags.iter().enumerate() {
        for p in [1usize, 2, 5, 9] {
            let lh = run_lhws(dag, p, i as u64);
            validate_schedule(dag, &lh.schedule)
                .unwrap_or_else(|e| panic!("LHWS dag {i} P={p}: {e}"));
            let ws = run_ws(dag, p, i as u64);
            validate_schedule(dag, &ws.schedule)
                .unwrap_or_else(|e| panic!("WS dag {i} P={p}: {e}"));
        }
    }
}

#[test]
fn greedy_is_a_lower_envelope_for_online_schedulers() {
    // The centralized greedy scheduler (perfect knowledge, no steal
    // overhead) should never lose to the online ones by running longer
    // than its own bound, and the online LHWS should stay within a modest
    // multiple of greedy on parallel workloads.
    let wl = map_reduce(64, 50, 8, 1);
    for p in [2usize, 4, 8] {
        let g = greedy_schedule(&wl.dag, p);
        let lh = run_lhws(&wl.dag, p, 3);
        assert!(g.length <= greedy_bound(&wl.dag, p));
        assert!(
            lh.rounds >= g.length,
            "online cannot beat offline greedy: {} < {}",
            lh.rounds,
            g.length
        );
    }
}

#[test]
fn suspension_width_bounds_live_suspensions_everywhere() {
    for seed in 0..10 {
        let wl = random_sp(RandomSpParams::default().seed(seed).target_leaves(40));
        let u = suspension_width(&wl.dag);
        for p in [1usize, 4] {
            let s = run_lhws(&wl.dag, p, seed);
            assert!(s.max_live_suspended <= u, "seed {seed} P={p}");
            assert!(
                s.max_deques_per_worker <= u + 1,
                "Lemma 7, seed {seed} P={p}"
            );
        }
    }
}

#[test]
fn figure11_shape_holds_in_simulation() {
    // High latency: LHWS superlinear, far above WS. Low latency: close.
    let high = map_reduce(128, 2_000, 20, 1);
    let pts = speedup_sweep(&high.dag, &[8], 1);
    assert!(
        pts[0].lhws_speedup_x100 > 3 * pts[0].ws_speedup_x100,
        "delta >> work: LHWS should be >3x WS ({} vs {})",
        pts[0].lhws_speedup_x100,
        pts[0].ws_speedup_x100
    );

    let low = map_reduce(128, 5, 20, 1);
    let pts = speedup_sweep(&low.dag, &[8], 1);
    assert!(
        pts[0].lhws_speedup_x100 < 2 * pts[0].ws_speedup_x100,
        "delta << work: curves should be close"
    );
}

// ---------------------------------------------------------------------
// Simulator ↔ runtime consistency.
// ---------------------------------------------------------------------

#[test]
fn runtime_and_simulator_agree_on_who_wins() {
    // Same workload shape on both: map-reduce with latency >> leaf work.
    // The simulator says LHWS wins big; the real runtime must too.
    let wl = map_reduce(32, 4_000, 10, 1);
    let sim_lh = run_lhws(&wl.dag, 2, 5).rounds;
    let sim_ws = run_ws(&wl.dag, 2, 5).rounds;
    assert!(sim_ws > 2 * sim_lh, "simulator: LHWS wins");

    let run = |mode| {
        let rt = Runtime::builder().workers(2).mode(mode).build().unwrap();
        let start = Instant::now();
        rt.block_on(async {
            let hs: Vec<_> = (0..32)
                .map(|_| {
                    lhws::spawn(async {
                        simulate_latency(Duration::from_millis(20)).await;
                    })
                })
                .collect();
            for h in hs {
                h.await;
            }
        });
        start.elapsed()
    };
    let hide = run(LatencyMode::Hide);
    let block = run(LatencyMode::Block);
    assert!(
        block > hide * 2,
        "runtime: LHWS must win too (hide {hide:?}, block {block:?})"
    );
}

#[test]
fn u_zero_reduction_on_both() {
    let wl = fib(13, 4);
    let s = run_lhws(&wl.dag, 4, 2);
    assert_eq!(s.max_deques_per_worker, 1);
    assert_eq!(s.pfor_vertices, 0);

    let rt = Runtime::builder().workers(4).build().unwrap();
    fn pfib(n: u64) -> std::pin::Pin<Box<dyn std::future::Future<Output = u64> + Send>> {
        Box::pin(async move {
            if n < 10 {
                (0..n).fold((0u64, 1u64), |(a, b), _| (b, a + b)).0
            } else {
                let (a, b) = fork2(pfib(n - 1), pfib(n - 2)).await;
                a + b
            }
        })
    }
    rt.block_on(pfib(18));
    let m = rt.metrics();
    assert_eq!(m.max_deques_per_worker, 1, "runtime U=0 reduction");
    assert_eq!(m.suspensions, 0);
}

// ---------------------------------------------------------------------
// End-to-end through the facade.
// ---------------------------------------------------------------------

#[test]
fn facade_map_reduce_end_to_end() {
    let rt = Runtime::builder().workers(3).build().unwrap();
    let svc = Arc::new(RemoteService::new(
        "s",
        LatencyProfile::Uniform(Duration::from_millis(1), Duration::from_millis(6)),
    ));
    let got = rt.block_on(async move {
        par_map_reduce(
            0,
            48,
            move |i| {
                let svc = svc.clone();
                async move { svc.request(i, |k| k * k).await }
            },
            |a, b| a + b,
            0,
        )
        .await
    });
    assert_eq!(got, (0..48).map(|i| i * i).sum::<u64>());
    let m = rt.metrics();
    assert_eq!(m.suspensions, 48);
    assert_eq!(m.resumes, 48);
}

#[test]
fn metrics_pair_suspensions_and_resumes() {
    let rt = Runtime::builder().workers(2).build().unwrap();
    rt.block_on(async {
        for _ in 0..3 {
            let (_, _) = fork2(
                async { simulate_latency(Duration::from_millis(2)).await },
                async { simulate_latency(Duration::from_millis(3)).await },
            )
            .await;
        }
    });
    // Give the timer a beat in case the last resume raced block_on's end.
    std::thread::sleep(Duration::from_millis(20));
    let m = rt.metrics();
    assert_eq!(m.suspensions, 6);
    assert_eq!(m.resumes, 6);
}

#[test]
fn dag_metrics_are_consistent_across_crates() {
    // The facade re-exports must expose one coherent view.
    let wl = map_reduce(16, 40, 4, 1);
    let m = Metrics::compute(&wl.dag);
    assert_eq!(m.work, wl.dag.work());
    assert_eq!(suspension_width(&wl.dag), 16);
    let stats = LhwsSim::new(&wl.dag, SimConfig::new(4)).run();
    assert_eq!(
        stats.schedule.entries.len() as u64,
        m.work,
        "every vertex executed exactly once"
    );
}
