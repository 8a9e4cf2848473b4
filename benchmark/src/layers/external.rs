//! `core.external`: from `Completer::complete` on an OS thread to the
//! awaiting task running again — the inbox/unpark path reactor resumes
//! take too.

use std::sync::mpsc;
use std::time::Duration;

use lhws::{external_op, Completer};

use super::{repeat_percentiles, runtime, server_workers, Scale};
use crate::host::now_ns;
use crate::report::Metrics;

pub fn probe(scale: &Scale, m: &mut Metrics) {
    let rt = runtime(server_workers());
    let n = scale.iters(300);
    let (p50, p99) = repeat_percentiles(scale, || {
        let (tx, rx) = mpsc::channel::<Completer<u64>>();
        let waiter = rt.spawn(async move {
            let mut settle_us = Vec::with_capacity(n);
            for _ in 0..n {
                let (completer, op) = external_op::<u64>();
                if tx.send(completer).is_err() {
                    break;
                }
                if let Ok(completed_at) = op.await {
                    settle_us.push((now_ns() - completed_at) as f64 / 1e3);
                }
            }
            settle_us
        });
        for completer in rx {
            // Long enough for the task to have suspended and its worker to
            // have parked: the state a reactor resume usually finds.
            std::thread::sleep(Duration::from_micros(200));
            completer.complete(now_ns());
        }
        rt.block_on(waiter)
    });
    m.put_summary("core.external_settle_us_p50", p50);
    m.put_summary("core.external_settle_us_p99", p99);
}
