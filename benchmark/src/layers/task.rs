//! `core.task` / `join`: the cost of a spawn + join, of a `fork2`, and of
//! one `block_on` round trip from an outside thread (inject → unpark →
//! complete → notify).

use std::hint::black_box;
use std::time::Instant;

use lhws::{fork2, spawn};

use super::{batch_workers, repeat, runtime, Scale};
use crate::report::Metrics;

pub fn probe(scale: &Scale, m: &mut Metrics) {
    let rt = runtime(batch_workers());
    let n = scale.iters(20_000);
    m.put_summary(
        "core.spawn_join_ns",
        repeat(scale, || {
            rt.block_on(async move {
                let start = Instant::now();
                for i in 0..n {
                    black_box(spawn(async move { i }).await);
                }
                start.elapsed().as_nanos() as f64 / n as f64
            })
        }),
    );
    m.put_summary(
        "core.fork2_ns",
        repeat(scale, || {
            rt.block_on(async move {
                let start = Instant::now();
                for i in 0..n {
                    black_box(fork2(async move { i }, async move { i + 1 }).await);
                }
                start.elapsed().as_nanos() as f64 / n as f64
            })
        }),
    );
    let trips = scale.iters(400);
    m.put_summary(
        "core.block_on_roundtrip_us",
        repeat(scale, || {
            let start = Instant::now();
            for i in 0..trips {
                black_box(rt.block_on(async move { i }));
            }
            start.elapsed().as_nanos() as f64 / 1e3 / trips as f64
        }),
    );
}
