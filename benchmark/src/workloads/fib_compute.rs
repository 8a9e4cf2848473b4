//! `fib-compute`: fork-join `fib(n)` through `fork2` down to a sequential
//! cutoff. No latency anywhere (`U = 0`), so this is ordinary work
//! stealing: deque push/pop and spawn/join do all the work.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use lhws::fork2;

use super::batch::{Batch, JobFuture};
use crate::inputs::{self, fib};
use crate::spans::SpanSink;
use crate::spec::Sizes;

pub struct FibCompute {
    n: u64,
    cutoff: u64,
    /// The job's one seeded input: the weight its result is folded with.
    weight: u64,
    expected: u64,
}

impl FibCompute {
    pub fn new(seed: u64, sizes: &Sizes) -> FibCompute {
        let weight = inputs::single_weight(seed);
        let unit = inputs::fib_table(sizes.fib_n)[sizes.fib_n as usize];
        FibCompute {
            n: sizes.fib_n,
            cutoff: sizes.fib_cutoff,
            weight,
            expected: inputs::weighted_checksum(&[weight], unit),
        }
    }
}

fn par_fib(n: u64, cutoff: u64) -> Pin<Box<dyn Future<Output = u64> + Send>> {
    Box::pin(async move {
        if n <= cutoff {
            return fib(n);
        }
        let (a, b) = fork2(par_fib(n - 1, cutoff), par_fib(n - 2, cutoff)).await;
        a + b
    })
}

/// Tasks forked by `par_fib(n)`: one per call above the cutoff.
fn forks(n: u64, cutoff: u64) -> u64 {
    if n <= cutoff {
        0
    } else {
        1 + forks(n - 1, cutoff) + forks(n - 2, cutoff)
    }
}

impl Batch for FibCompute {
    fn name(&self) -> &'static str {
        "fib-compute"
    }

    fn suspension_width(&self) -> u64 {
        0
    }

    fn ops_per_job(&self) -> u64 {
        forks(self.n, self.cutoff).max(1)
    }

    fn warm_jobs(&self, quick: bool) -> usize {
        if quick {
            2
        } else {
            8
        }
    }

    fn expected(&self) -> u64 {
        self.expected
    }

    fn job(&self, _id: u64, _spans: Option<Arc<SpanSink>>) -> JobFuture {
        // No elements to span: the job span the driver records is the
        // whole budget.
        let (n, cutoff, weight) = (self.n, self.cutoff, self.weight);
        Box::pin(async move { inputs::elem_value(0, weight, par_fib(n, cutoff).await) })
    }
}
