//! `spawn-flat`: one root task `spawn`s every leaf in a loop, then
//! `join_all`. The root's deque is the only source of work, so nearly
//! every task another worker runs is stolen: the deque layer used from the
//! thief's end.

use std::sync::Arc;

use lhws::{join_all, spawn};

use super::batch::{Batch, JobFuture};
use crate::host::now_ns;
use crate::inputs::{self, fib};
use crate::spans::{Span, SpanSink};
use crate::spec::Sizes;

/// One leaf in this many records spans in the traced window (a span per
/// ~2 µs leaf would measure the sink, not the scheduler).
const SPAN_EVERY: usize = 16;

pub struct SpawnFlat {
    weights: Arc<Vec<u64>>,
    fib_n: u64,
    expected: u64,
}

impl SpawnFlat {
    pub fn new(seed: u64, sizes: &Sizes) -> SpawnFlat {
        let weights = inputs::weights(seed, sizes.flat_leaves);
        let unit = inputs::fib_table(sizes.flat_fib)[sizes.flat_fib as usize];
        SpawnFlat {
            expected: inputs::weighted_checksum(&weights, unit),
            weights: Arc::new(weights),
            fib_n: sizes.flat_fib,
        }
    }
}

impl Batch for SpawnFlat {
    fn name(&self) -> &'static str {
        "spawn-flat"
    }

    fn suspension_width(&self) -> u64 {
        0
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

    fn expected(&self) -> u64 {
        self.expected
    }

    fn job(&self, id: u64, spans: Option<Arc<SpanSink>>) -> JobFuture {
        let weights = self.weights.clone();
        let fib_n = self.fib_n;
        Box::pin(async move {
            let mut handles = Vec::with_capacity(weights.len());
            for (i, &w) in weights.iter().enumerate() {
                let sink = spans.clone().filter(|_| i % SPAN_EVERY == 0);
                let spawned = sink.as_ref().map(|_| now_ns());
                handles.push(spawn(async move {
                    let started = sink.as_ref().map(|_| now_ns());
                    let v = inputs::elem_value(i, w, fib(std::hint::black_box(fib_n)));
                    if let (Some(sink), Some(spawned), Some(started)) = (sink, spawned, started) {
                        let elem = i as u32;
                        sink.extend([
                            // Queue wait: spawned on the root's deque until
                            // some worker (usually a thief) first polls it.
                            Span {
                                name: "elem.suspend",
                                parent: "job",
                                id,
                                elem,
                                start_ns: spawned,
                                end_ns: started,
                            },
                            Span {
                                name: "elem.compute",
                                parent: "job",
                                id,
                                elem,
                                start_ns: started,
                                end_ns: now_ns(),
                            },
                        ]);
                    }
                    v
                }));
            }
            join_all(handles).await.into_iter().fold(0, inputs::add_mod)
        })
    }
}
