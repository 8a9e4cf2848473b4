//! `pipeline-channel`: stages linked by `channel::mpsc`, every message
//! doing a little compute at each stage. Receivers suspend on an empty
//! channel and are resumed by the sibling task that sends — the
//! suspend/resume layer driven by wakers, with the timer idle.
//!
//! A job runs several such pipelines side by side, each on its own slice
//! of the messages. One pipeline alone is a serial chain: a single worker
//! runs it while the other tries to steal, and the job's time (125–305 ms
//! for the same input) is set by whether a steal happened to split the
//! chain across the workers. With many lanes every worker always has a
//! lane to run and the same work repeats within a few percent.

use std::ops::Range;
use std::sync::Arc;

use lhws::channel::{mpsc, MpscReceiver, MpscSender};
use lhws::{join_all, spawn};

use super::batch::{Batch, JobFuture};
use crate::host::now_ns;
use crate::inputs::{self, fib};
use crate::spans::{Span, SpanSink};
use crate::spec::{Sizes, MODULUS, PIPE_STAGES};

/// One message in this many carries a stamp in the traced window.
const SPAN_EVERY: usize = 64;
/// Bursts the source may have in flight before it waits for the sink to
/// acknowledge one. Bounds the messages queued in the channels (and so the
/// job's memory) and makes the source, too, suspend on a channel.
const WINDOW_BURSTS: usize = 16;

struct Msg {
    value: u64,
    /// `(created_ns, compute_ns so far)` on sampled messages.
    stamp: Option<(u64, u64)>,
}

pub struct PipelineChannel {
    weights: Arc<Vec<u64>>,
    fib_n: u64,
    burst: usize,
    lanes: usize,
    expected: u64,
}

impl PipelineChannel {
    pub fn new(seed: u64, sizes: &Sizes) -> PipelineChannel {
        let weights = inputs::weights(seed, sizes.pipe_msgs);
        let per_stage = inputs::fib_table(sizes.pipe_fib)[sizes.pipe_fib as usize];
        let expected = weights.iter().enumerate().fold(0, |acc, (i, w)| {
            inputs::add_mod(acc, fold(i, w + PIPE_STAGES as u64 * per_stage))
        });
        PipelineChannel {
            weights: Arc::new(weights),
            fib_n: sizes.pipe_fib,
            burst: sizes.pipe_burst,
            lanes: sizes.pipe_lanes,
            expected,
        }
    }
}

/// What message `index` adds to the sink's checksum: order-sensitive, so
/// a channel that reorders or drops shows.
fn fold(index: usize, value: u64) -> u64 {
    (index as u64 + 1) % MODULUS * (value % MODULUS) % MODULUS
}

/// One stage's compute on one message.
fn work(msg: &mut Msg, fib_n: u64) {
    let started = msg.stamp.map(|_| now_ns());
    msg.value += fib(std::hint::black_box(fib_n));
    if let (Some((_, compute)), Some(started)) = (msg.stamp.as_mut(), started) {
        *compute += now_ns() - started;
    }
}

async fn middle_stage(mut rx: MpscReceiver<Msg>, tx: MpscSender<Msg>, fib_n: u64) {
    while let Some(mut msg) = rx.recv().await {
        work(&mut msg, fib_n);
        if tx.send(msg).is_err() {
            return; // downstream gone; the sink's short count fails the checksum
        }
    }
}

async fn sink_stage(
    mut rx: MpscReceiver<Msg>,
    acks: MpscSender<()>,
    burst: usize,
    fib_n: u64,
    id: u64,
    first: usize,
    spans: Option<Arc<SpanSink>>,
) -> u64 {
    let mut acc = 0;
    let mut index = first;
    while let Some(mut msg) = rx.recv().await {
        work(&mut msg, fib_n);
        acc = inputs::add_mod(acc, fold(index, msg.value));
        if let (Some(sink), Some((created, compute))) = (&spans, msg.stamp) {
            let done = now_ns();
            let split = done.saturating_sub(compute).max(created);
            let elem = index as u32;
            sink.extend([
                // Everything that was not stage compute: waiting in the
                // three channels and for the receiving stages to resume.
                Span {
                    name: "elem.suspend",
                    parent: "job",
                    id,
                    elem,
                    start_ns: created,
                    end_ns: split,
                },
                Span {
                    name: "elem.compute",
                    parent: "job",
                    id,
                    elem,
                    start_ns: split,
                    end_ns: done,
                },
            ]);
        }
        index += 1;
        if (index - first).is_multiple_of(burst) {
            // The source may have finished and dropped its end already.
            let _ = acks.send(());
        }
    }
    acc
}

impl Batch for PipelineChannel {
    fn name(&self) -> &'static str {
        "pipeline-channel"
    }

    fn suspension_width(&self) -> u64 {
        // Every stage of every lane can be suspended on a channel at once:
        // the three receivers on their inputs, the source on the
        // acknowledgements.
        (self.lanes * PIPE_STAGES) as u64
    }

    fn ops_per_job(&self) -> u64 {
        self.weights.len() as u64
    }

    fn warm_jobs(&self, _quick: bool) -> usize {
        2
    }

    fn expected(&self) -> u64 {
        self.expected
    }

    fn job(&self, id: u64, spans: Option<Arc<SpanSink>>) -> JobFuture {
        let weights = self.weights.clone();
        let (fib_n, burst, lanes) = (self.fib_n, self.burst, self.lanes);
        Box::pin(async move {
            let per_lane = weights.len().div_ceil(lanes);
            let handles: Vec<_> = (0..lanes)
                .map(|lane| {
                    let first = (lane * per_lane).min(weights.len());
                    let end = (first + per_lane).min(weights.len());
                    spawn(lane_job(
                        weights.clone(),
                        first..end,
                        fib_n,
                        burst,
                        id,
                        spans.clone(),
                    ))
                })
                .collect();
            join_all(handles).await.into_iter().fold(0, inputs::add_mod)
        })
    }
}

/// One pipeline over `weights[range]`: this task is the source, then two
/// middle stages, then the sink (`PIPE_STAGES` stages). Returns the
/// sink's checksum, folded with each message's index in the whole job.
async fn lane_job(
    weights: Arc<Vec<u64>>,
    range: Range<usize>,
    fib_n: u64,
    burst: usize,
    id: u64,
    spans: Option<Arc<SpanSink>>,
) -> u64 {
    let first = range.start;
    let (tx0, rx0) = mpsc::<Msg>();
    let (tx1, rx1) = mpsc::<Msg>();
    let (tx2, rx2) = mpsc::<Msg>();
    let (ack_tx, mut ack_rx) = mpsc::<()>();
    let s1 = spawn(middle_stage(rx0, tx1, fib_n));
    let s2 = spawn(middle_stage(rx1, tx2, fib_n));
    let sink = spawn(sink_stage(
        rx2,
        ack_tx,
        burst,
        fib_n,
        id,
        first,
        spans.clone(),
    ));
    let mut unacked = 0;
    for i in range {
        let sampled = spans.is_some() && i % SPAN_EVERY == 0;
        let mut msg = Msg {
            value: weights[i],
            stamp: sampled.then(|| (now_ns(), 0)),
        };
        work(&mut msg, fib_n);
        if tx0.send(msg).is_err() {
            break;
        }
        if (i - first + 1).is_multiple_of(burst) {
            unacked += 1;
            if unacked == WINDOW_BURSTS && ack_rx.recv().await.is_some() {
                unacked -= 1;
            }
        }
    }
    drop(tx0);
    s1.await;
    s2.await;
    sink.await
}
