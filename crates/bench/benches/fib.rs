//! U = 0 scaling: parallel fib on the runtime in Hide vs Block mode vs
//! sequential. Demonstrates the "no penalty when no task suspends" claim
//! at microbenchmark precision.

use criterion::{criterion_group, criterion_main, Criterion};
use lhws_bench::fib;
use lhws_core::{fork2, LatencyMode, Runtime};

fn pfib(n: u64) -> std::pin::Pin<Box<dyn std::future::Future<Output = u64> + Send>> {
    Box::pin(async move {
        if n < 16 {
            fib(n)
        } else {
            let (a, b) = fork2(pfib(n - 1), pfib(n - 2)).await;
            a + b
        }
    })
}

fn bench_fib(c: &mut Criterion) {
    const N: u64 = 26;
    let mut g = c.benchmark_group("fib26");
    g.sample_size(10);
    let expect = fib(N);

    g.bench_function("sequential", |b| b.iter(|| assert_eq!(fib(N), expect)));

    let p = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    for (name, mode) in [
        ("lhws_hide", LatencyMode::Hide),
        ("ws_block", LatencyMode::Block),
    ] {
        g.bench_function(name, |b| {
            let rt = Runtime::builder().workers(p).mode(mode).build().unwrap();
            b.iter(|| assert_eq!(rt.block_on(pfib(N)), expect));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fib);
criterion_main!(benches);
