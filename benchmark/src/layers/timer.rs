//! `core.timer` and the resume pipeline: what one suspension costs beyond
//! its latency, and how late the timer resumes a lone sleeper.

use std::time::{Duration, Instant};

use lhws::{join_all, simulate_latency, spawn};

use super::{batch_workers, repeat, repeat_percentiles, runtime, Scale};
use crate::report::Metrics;

pub fn probe(scale: &Scale, m: &mut Metrics) {
    let rt = runtime(batch_workers());

    // A wave of tasks that all suspend for δ at once: elapsed minus δ,
    // per task, is spawn + suspend + timer + inbox + resume + join.
    let wave = scale.iters(2000);
    let delta = Duration::from_millis(1);
    m.put_summary(
        "core.suspend_resume_ns",
        repeat(scale, || {
            rt.block_on(async move {
                let start = Instant::now();
                let tasks: Vec<_> = (0..wave)
                    .map(|_| spawn(async move { simulate_latency(delta).await }))
                    .collect();
                join_all(tasks).await;
                start.elapsed().saturating_sub(delta).as_nanos() as f64 / wave as f64
            })
        }),
    );

    // Four sleepers, each timing simulate_latency(δ) against δ.
    let naps = scale.iters(250);
    let nap = Duration::from_micros(200);
    let (p50, p99) = repeat_percentiles(scale, || {
        rt.block_on(async move {
            let sleepers: Vec<_> = (0..4)
                .map(|_| {
                    spawn(async move {
                        let mut over = Vec::with_capacity(naps);
                        for _ in 0..naps {
                            let start = Instant::now();
                            simulate_latency(nap).await;
                            over.push(start.elapsed().saturating_sub(nap).as_nanos() as f64 / 1e3);
                        }
                        over
                    })
                })
                .collect();
            join_all(sleepers).await.concat()
        })
    });
    m.put_summary("core.timer_overshoot_us_p50", p50);
    m.put_summary("core.timer_overshoot_us_p99", p99);
}
