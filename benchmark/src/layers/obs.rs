//! `obs`: what one Prometheus export costs its caller.

use std::hint::black_box;
use std::time::Instant;

use super::{repeat, runtime, server_workers, Scale};
use crate::report::Metrics;

pub fn probe(scale: &Scale, m: &mut Metrics) {
    let rt = runtime(server_workers());
    let observer = rt.observe();
    let calls = scale.iters(400);
    m.put_summary(
        "obs.export_prometheus_us",
        repeat(scale, || {
            let start = Instant::now();
            for _ in 0..calls {
                black_box(observer.export_prometheus());
            }
            start.elapsed().as_nanos() as f64 / 1e3 / calls as f64
        }),
    );
}
