//! `core.channel`: a message through `mpsc` between two tasks, and a
//! `oneshot` whose receiver really suspends before the send.

use std::hint::black_box;
use std::time::Instant;

use lhws::channel::{mpsc, oneshot};
use lhws::fork2;

use super::{batch_workers, repeat, runtime, Scale};
use crate::report::Metrics;

pub fn probe(scale: &Scale, m: &mut Metrics) {
    let rt = runtime(batch_workers());
    let msgs = scale.iters(200_000);
    m.put_summary(
        "core.mpsc_send_recv_ns",
        repeat(scale, || {
            rt.block_on(async move {
                let (tx, mut rx) = mpsc::<usize>();
                let start = Instant::now();
                fork2(
                    async move {
                        let mut sum = 0usize;
                        while let Some(v) = rx.recv().await {
                            sum += v;
                        }
                        black_box(sum);
                    },
                    async move {
                        for i in 0..msgs {
                            if tx.send(i).is_err() {
                                break;
                            }
                        }
                    },
                )
                .await;
                start.elapsed().as_nanos() as f64 / msgs as f64
            })
        }),
    );
    let shots = scale.iters(20_000);
    m.put_summary(
        "core.oneshot_ns",
        repeat(scale, || {
            rt.block_on(async move {
                let start = Instant::now();
                for i in 0..shots {
                    let (tx, rx) = oneshot::<usize>();
                    // The receiver runs inline first and suspends; the
                    // spawned sender then resumes it.
                    let (got, ()) = fork2(rx, async move { tx.send(i) }).await;
                    black_box(got.ok());
                }
                start.elapsed().as_nanos() as f64 / shots as f64
            })
        }),
    );
}
