//! The U = 0 reduction: on computations with no latency, LHWS must match
//! standard work stealing ("without penalizing the computations that don't
//! incur such latency" — paper, §8).
//!
//! Two views:
//!
//! 1. **Simulator** — identical round counts modulo steal randomness, and
//!    exactly one deque per worker for both schedulers.
//! 2. **Real runtime** — wall-clock parallel fib in Hide vs. Block mode
//!    (identical code paths except the suspension machinery, which must
//!    stay cold).
//!
//! ```text
//! cargo run -p lhws-bench --release --bin overhead [-- --fib 30 --reps 3]
//! ```

use std::time::Instant;

use lhws_bench::{fib, fmt_x100, host_sweep, Args};
use lhws_core::{fork2, LatencyMode, Runtime};
use lhws_dag::gen;
use lhws_sim::speedup::{run_lhws, run_ws};

fn pfib(n: u64) -> std::pin::Pin<Box<dyn std::future::Future<Output = u64> + Send>> {
    Box::pin(async move {
        if n < 18 {
            fib(n)
        } else {
            let (a, b) = fork2(pfib(n - 1), pfib(n - 2)).await;
            a + b
        }
    })
}

fn main() {
    let args = Args::parse();
    let fib_n: u64 = args.get("fib", 30);
    let reps: usize = args.get("reps", 3);
    let seed: u64 = args.get("seed", 13);

    println!("# U = 0 reduction: LHWS vs WS on pure fork-join fib");

    // --- Simulator view -------------------------------------------------
    let wl = gen::fib(16, 5);
    println!(
        "\n## simulator: fib dag, W={} (rounds; deques/worker)",
        wl.dag.work()
    );
    println!(
        "{:>4}  {:>12}  {:>12}  {:>10}  {:>10}",
        "P", "LHWS(rnds)", "WS(rnds)", "LHWS-dq", "WS-dq"
    );
    for p in [1usize, 2, 4, 8, 16] {
        let lh = run_lhws(&wl.dag, p, seed);
        let ws = run_ws(&wl.dag, p, seed);
        assert_eq!(lh.max_deques_per_worker, 1, "U=0 => one deque per worker");
        println!(
            "{:>4}  {:>12}  {:>12}  {:>10}  {:>10}",
            p, lh.rounds, ws.rounds, lh.max_deques_per_worker, ws.max_deques_per_worker
        );
    }

    // --- Real runtime view ----------------------------------------------
    let expect = fib(fib_n);
    println!("\n## real runtime: parallel fib({fib_n}) wall clock (best of {reps})");
    println!(
        "{:>4}  {:>12}  {:>12}  {:>10}",
        "P", "Hide(ms)", "Block(ms)", "ratio"
    );
    for p in host_sweep() {
        let mut best = [u128::MAX; 2];
        for (mi, mode) in [LatencyMode::Hide, LatencyMode::Block]
            .into_iter()
            .enumerate()
        {
            for _ in 0..reps {
                let rt = Runtime::builder().workers(p).mode(mode).build().unwrap();
                let start = Instant::now();
                let got = rt.block_on(pfib(fib_n));
                assert_eq!(got, expect);
                best[mi] = best[mi].min(start.elapsed().as_micros());
            }
        }
        let ratio_x100 = (best[0] * 100 / best[1].max(1)) as u64;
        println!(
            "{:>4}  {:>12}  {:>12}  {:>10}",
            p,
            best[0] / 1000,
            best[1] / 1000,
            fmt_x100(ratio_x100)
        );
    }
    println!("\n# ratio ~1.00 means latency-hiding machinery costs nothing when unused");
}
