//! `core.sleep`: what idle workers cost, and how long a parked runtime
//! takes to start a task spawned from outside.

use std::time::Duration;

use super::{batch_workers, repeat, repeat_percentiles, runtime, Scale};
use crate::host::{self, now_ns};
use crate::report::Metrics;

pub fn probe(scale: &Scale, m: &mut Metrics) {
    let rt = runtime(batch_workers());
    // CPU the whole process burns while the runtime has nothing to do
    // (this thread sleeps), scaled to one second.
    let idle = Duration::from_millis(if scale.reps < 11 { 20 } else { 200 });
    m.put_summary(
        "core.idle_cpu_ms_per_s",
        repeat(scale, || {
            let cpu0 = host::process_cpu_ms();
            std::thread::sleep(idle);
            (host::process_cpu_ms() - cpu0) / idle.as_secs_f64()
        }),
    );
    let wakes = scale.iters(200);
    let (p50, p99) = repeat_percentiles(scale, || {
        (0..wakes)
            .map(|_| {
                // Let every worker park again before the next spawn.
                std::thread::sleep(Duration::from_micros(300));
                let spawned_at = now_ns();
                let first_poll = rt.spawn(async move { now_ns() - spawned_at });
                rt.block_on(first_poll) as f64 / 1e3
            })
            .collect()
    });
    m.put_summary("core.wake_latency_us_p50", p50);
    m.put_summary("core.wake_latency_us_p99", p99);
}
