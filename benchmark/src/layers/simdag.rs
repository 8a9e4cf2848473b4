//! `sim` / `dag`: no runtime workload runs these; they price the
//! simulator tables in EXPERIMENTS.md.

use std::hint::black_box;
use std::time::Instant;

use lhws::dag::gen::map_reduce;
use lhws::dag::Metrics as DagMetrics;
use lhws::sim::{LhwsSim, SimConfig};

use super::{repeat, Scale};
use crate::report::Metrics;

pub fn probe(scale: &Scale, m: &mut Metrics) {
    let leaves = scale.iters(1024) as u64;
    let workload = map_reduce(leaves, 40, 6, 2);
    m.put_summary(
        "sim.rounds_per_s",
        repeat(scale, || {
            let start = Instant::now();
            let stats = LhwsSim::new(&workload.dag, SimConfig::new(8)).run();
            stats.rounds as f64 / start.elapsed().as_secs_f64()
        }),
    );
    m.put_summary(
        "dag.build_metrics_us_per_kvertex",
        repeat(scale, || {
            let start = Instant::now();
            let built = map_reduce(leaves, 40, 6, 2);
            black_box(DagMetrics::compute(&built.dag));
            start.elapsed().as_nanos() as f64 / 1e3 / (built.dag.len() as f64 / 1e3)
        }),
    );
}
