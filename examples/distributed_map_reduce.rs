//! Distributed map-and-reduce — the paper's Figure 8, run for real.
//!
//! ```text
//! cargo run --release --example distributed_map_reduce [-- n delta_ms fib_n]
//! ```
//!
//! `n` values live on remote servers (simulated by [`RemoteService`] with a
//! fixed round-trip latency). Each is fetched (`getValue` — may suspend!),
//! mapped through `f` (a naive Fibonacci, as in the paper's evaluation),
//! and the results are combined with an associative `g` up a balanced
//! fork-join tree. All `n` fetches can be outstanding at once, so the
//! suspension width is `n` — the paper's maximal-`U` example.
//!
//! The example runs the identical program under latency-hiding and
//! blocking work stealing and prints both times.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lhws::{par_map_reduce, LatencyMode, LatencyProfile, RemoteService, Runtime};

fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

const MODULUS: u64 = 1_000_000_007;

fn run(workers: usize, mode: LatencyMode, n: u64, delta: Duration, fib_n: u64) -> Duration {
    let rt = Runtime::builder()
        .workers(workers)
        .mode(mode)
        .build()
        .unwrap();
    let svc = Arc::new(RemoteService::new("values", LatencyProfile::Fixed(delta)));
    let start = Instant::now();
    let sum = rt.block_on(async move {
        par_map_reduce(
            0,
            n,
            move |i| {
                let svc = svc.clone();
                async move {
                    // x = getValue(i): fetch from the remote server; the
                    // task suspends for the round trip in Hide mode.
                    let x = svc.request(i, |k| k).await;
                    // return f(x)
                    fib(fib_n).wrapping_add(x) % MODULUS
                }
            },
            // g(res1, res2)
            |a, b| (a + b) % MODULUS,
            0,
        )
        .await
    });
    let elapsed = start.elapsed();
    let expect = (0..n).fold(0u64, |acc, i| {
        (acc + (fib(fib_n).wrapping_add(i) % MODULUS)) % MODULUS
    });
    assert_eq!(sum, expect, "checksum");
    elapsed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(128);
    let delta_ms: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(50);
    let fib_n: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(20);
    let delta = Duration::from_millis(delta_ms);
    let workers = 4;

    println!("distMapReduce: n={n}, delta={delta_ms}ms, f=fib({fib_n}), P={workers}");
    println!("suspension width U = n = {n}\n");

    let hide = run(workers, LatencyMode::Hide, n, delta, fib_n);
    println!("latency-hiding work stealing: {hide:?}");

    let block = run(workers, LatencyMode::Block, n, delta, fib_n);
    println!("blocking work stealing:       {block:?}");

    let ratio = block.as_secs_f64() / hide.as_secs_f64();
    println!("\nLHWS is {ratio:.1}x faster on this configuration");
    println!(
        "(lower bound for WS: n*delta/P = {:?}; LHWS needs ~one delta = {:?})",
        delta * (n as u32) / workers as u32,
        delta
    );
}
