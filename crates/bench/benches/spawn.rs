//! Task spawn/join overhead of the runtime.

use criterion::{criterion_group, criterion_main, Criterion};
use lhws_core::{spawn, Runtime};

fn bench_spawn_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("spawn_join");
    g.sample_size(20);
    for p in [1usize, 4] {
        g.bench_function(format!("chain_1000_p{p}"), |b| {
            let rt = Runtime::builder().workers(p).build().unwrap();
            b.iter(|| {
                rt.block_on(async {
                    let mut acc = 0u64;
                    for i in 0..1000u64 {
                        acc += spawn(async move { i }).await;
                    }
                    acc
                })
            });
        });
        g.bench_function(format!("fanout_1000_p{p}"), |b| {
            let rt = Runtime::builder().workers(p).build().unwrap();
            b.iter(|| {
                rt.block_on(async {
                    let hs: Vec<_> = (0..1000u64).map(|i| spawn(async move { i })).collect();
                    let mut acc = 0u64;
                    for h in hs {
                        acc += h.await;
                    }
                    acc
                })
            });
        });
    }
    g.finish();
}

fn bench_block_on(c: &mut Criterion) {
    let rt = Runtime::builder().workers(2).build().unwrap();
    c.bench_function("block_on_trivial", |b| {
        b.iter(|| rt.block_on(async { 1u32 }));
    });
}

criterion_group!(benches, bench_spawn_join, bench_block_on);
criterion_main!(benches);
