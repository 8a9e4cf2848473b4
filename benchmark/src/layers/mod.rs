//! The per-layer probes: one small function per metric, each timing
//! public calls into one layer from outside. Every probe is warmed (one
//! discarded repetition) and repeated; the reported value is the median of
//! the repetitions, with quartiles and count next to it.
//!
//! `DequeKind::ChaseLev` and the default `Config` only — no ablation arms.

mod channel;
mod deque;
mod external;
mod net;
mod obs;
mod registry;
mod simdag;
mod sleep;
mod task;
mod timer;

use std::time::Instant;

use lhws::Runtime;

use crate::host;
use crate::report::Metrics;
use crate::stats::{self, Summary};

/// How hard the probes work: full, or the `--quick` smoke sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Measured repetitions per probe (after one warm-up repetition).
    pub reps: usize,
    quick: bool,
}

impl Scale {
    /// Iterations inside one repetition: `full`, or a twentieth of it.
    pub fn iters(&self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(8)
        } else {
            full
        }
    }
}

/// Runs `rep` once to warm, then `scale.reps` times; summarises what it
/// returned.
pub fn repeat(scale: &Scale, mut rep: impl FnMut() -> f64) -> Summary {
    rep();
    let mut values: Vec<f64> = (0..scale.reps).map(|_| rep()).collect();
    stats::summarize(&mut values)
}

/// Like [`repeat`] for a probe that yields two values per repetition.
pub fn repeat_pair(scale: &Scale, mut rep: impl FnMut() -> (f64, f64)) -> (Summary, Summary) {
    rep();
    let (mut a, mut b): (Vec<f64>, Vec<f64>) = (0..scale.reps).map(|_| rep()).unzip();
    (stats::summarize(&mut a), stats::summarize(&mut b))
}

/// Like [`repeat`] for a probe whose repetition yields latency samples:
/// summarises each repetition's p50 and p99 across the repetitions.
pub fn repeat_percentiles(scale: &Scale, mut rep: impl FnMut() -> Vec<f64>) -> (Summary, Summary) {
    repeat_pair(scale, || {
        let mut samples = rep();
        let sorted = stats::sorted(&mut samples);
        (
            stats::percentile(sorted, 0.5),
            stats::percentile(sorted, 0.99),
        )
    })
}

/// Nanoseconds per iteration of `body` run `iters` times.
pub fn ns_per_iter(iters: usize, body: impl FnOnce()) -> f64 {
    let start = Instant::now();
    body();
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// A default-config runtime with `workers` workers.
pub fn runtime(workers: usize) -> Runtime {
    Runtime::builder()
        .workers(workers)
        .build()
        .expect("default config with a worker count is valid")
}

/// Worker count of the batch workloads and of the server workload.
pub fn batch_workers() -> usize {
    host::nproc()
}

pub fn server_workers() -> usize {
    host::nproc().saturating_sub(1).max(1)
}

/// Every workload-independent per-layer metric.
pub fn run_all(quick: bool) -> Metrics {
    let scale = Scale {
        reps: if quick { 3 } else { 11 },
        quick,
    };
    let mut m = Metrics::default();
    deque::probe(&scale, &mut m);
    registry::probe(&scale, &mut m);
    task::probe(&scale, &mut m);
    timer::probe(&scale, &mut m);
    external::probe(&scale, &mut m);
    channel::probe(&scale, &mut m);
    sleep::probe(&scale, &mut m);
    net::probe(&scale, &mut m);
    obs::probe(&scale, &mut m);
    simdag::probe(&scale, &mut m);
    m
}
