//! `mapreduce-latency`: the paper's Figure 11. `par_map_reduce` over `n`
//! elements, each incurring `simulate_latency(δ)` and then computing
//! `fib`. Suspension width `U = n`: the timer wheel, inbox and resume
//! batching, pfor re-injection and deque switching carry the run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lhws::{par_map_reduce, simulate_latency, Runtime};

use super::batch::{Batch, JobFuture};
use super::{check_report, RunCfg};
use crate::host::{self, now_ns};
use crate::inputs::{self, fib};
use crate::report::Outcome;
use crate::spans::{Span, SpanSink};
use crate::spec::Sizes;
use crate::stats;

/// Ring capacity per worker for the runtime's own trace plane in
/// `trace.on_over_off`: large enough that a round does not overflow it,
/// so the ratio prices recording rather than dropping.
const TRACE_CAPACITY: usize = 1 << 20;
/// Rounds per arm of the trace-plane comparison.
const TRACE_ROUNDS: usize = 3;

pub struct MapReduceLatency {
    weights: Arc<Vec<u64>>,
    delta: Duration,
    fib_n: u64,
    expected: u64,
}

impl MapReduceLatency {
    pub fn new(seed: u64, sizes: &Sizes) -> MapReduceLatency {
        let weights = inputs::weights(seed, sizes.mr_elems);
        let unit = inputs::fib_table(sizes.mr_fib)[sizes.mr_fib as usize];
        MapReduceLatency {
            expected: inputs::weighted_checksum(&weights, unit),
            weights: Arc::new(weights),
            delta: sizes.mr_delta,
            fib_n: sizes.mr_fib,
        }
    }
}

impl Batch for MapReduceLatency {
    fn name(&self) -> &'static str {
        "mapreduce-latency"
    }

    fn suspension_width(&self) -> u64 {
        self.weights.len() as u64
    }

    fn ops_per_job(&self) -> u64 {
        self.weights.len() as u64
    }

    fn warm_jobs(&self, quick: bool) -> usize {
        if quick {
            2
        } else {
            8
        }
    }

    fn block_jobs(&self, _quick: bool) -> usize {
        // One Block job sleeps n·δ/P (5 s at the full size): dominated by
        // the sleeps, so one sample is steady.
        1
    }

    fn expected(&self) -> u64 {
        self.expected
    }

    fn elem_latency(&self) -> Duration {
        self.delta
    }

    fn job(&self, id: u64, spans: Option<Arc<SpanSink>>) -> JobFuture {
        let weights = self.weights.clone();
        let (delta, fib_n) = (self.delta, self.fib_n);
        let delta_ns = delta.as_nanos() as u64;
        par_map_reduce(
            0,
            weights.len() as u64,
            move |i| {
                let w = weights[i as usize];
                let spans = spans.clone();
                async move {
                    let begun = spans.as_ref().map(|_| now_ns());
                    simulate_latency(delta).await;
                    let resumed = spans.as_ref().map(|_| now_ns());
                    let v = inputs::elem_value(i as usize, w, fib(std::hint::black_box(fib_n)));
                    if let (Some(sink), Some(begun), Some(resumed)) = (spans, begun, resumed) {
                        let elem = i as u32;
                        sink.extend([
                            // Resume lateness: from when the latency was
                            // due to end until the element ran again.
                            Span {
                                name: "elem.suspend",
                                parent: "job",
                                id,
                                elem,
                                start_ns: (begun + delta_ns).min(resumed),
                                end_ns: resumed,
                            },
                            Span {
                                name: "elem.compute",
                                parent: "job",
                                id,
                                elem,
                                start_ns: resumed,
                                end_ns: now_ns(),
                            },
                        ]);
                    }
                    v
                }
            },
            inputs::add_mod,
            0,
        )
    }

    /// `trace.*`: the same jobs on a runtime whose own trace plane records
    /// (`trace_capacity > 0`, nobody reading) against one with tracing off.
    /// The two arms alternate in short rounds, each on a fresh runtime, so
    /// a slow phase of the host falls on both.
    fn trace_extras(&self, cfg: RunCfg, out: &mut Outcome) {
        let jobs_per_round = if cfg.quick { 2 } else { 16 };
        let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
        let (mut events, mut dropped, mut traced_ops) = (0u64, 0u64, 0u64);
        for round in 0..TRACE_ROUNDS * 2 {
            let tracing = round % 2 == 0;
            let capacity = if tracing { TRACE_CAPACITY } else { 0 };
            let rt = Runtime::builder()
                .workers(host::nproc())
                .trace_capacity(capacity)
                .build()
                .expect("tracing config is valid");
            let run = |out: &mut Outcome| {
                let start = Instant::now();
                let got = rt.block_on(self.job(0, None));
                out.attempted += self.ops_per_job();
                if got != self.expected {
                    out.violate(format!("trace-plane job: checksum {got}"));
                }
                start.elapsed().as_secs_f64() * 1e3
            };
            for _ in 0..self.warm_jobs(cfg.quick) {
                run(out);
            }
            let times = if tracing { &mut on_ms } else { &mut off_ms };
            times.extend((0..jobs_per_round).map(|_| run(out)));
            let report = rt.shutdown();
            check_report(&report, self.suspension_width(), "trace-plane runtime", out);
            if let Some(trace) = &report.trace {
                events += trace.events.len() as u64;
                dropped += trace.dropped;
                traced_ops +=
                    (self.warm_jobs(cfg.quick) + jobs_per_round) as u64 * self.ops_per_job();
            }
        }
        let m = &mut out.metrics;
        m.put(
            "trace.on_over_off",
            stats::median(&mut off_ms) / stats::median(&mut on_ms),
        );
        m.put(
            "trace.events_per_op",
            (events + dropped) as f64 / traced_ops.max(1) as f64,
        );
        m.put(
            "trace.dropped_ratio",
            dropped as f64 / (events + dropped).max(1) as f64,
        );
    }
}
