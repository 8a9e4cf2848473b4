//! The mpsc receive path: the receiver's local buffer (refilled by one
//! swap of the shared queue), and the registration a receive future may
//! or may not hold when it is dropped.

use std::future::{poll_fn, Future};
use std::pin::pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::Poll;
use std::time::{Duration, Instant};

use lhws_core::channel::mpsc;
use lhws_core::{spawn, yield_now, Runtime};

fn wait_until(deadline_secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(deadline_secs);
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Polls `fut` exactly once from inside a task: `Some` if it was ready.
async fn poll_once<F: Future + Unpin>(fut: &mut F) -> Option<F::Output> {
    poll_fn(|cx| {
        Poll::Ready(match std::pin::Pin::new(&mut *fut).poll(cx) {
            Poll::Ready(v) => Some(v),
            Poll::Pending => None,
        })
    })
    .await
}

#[test]
fn per_sender_fifo_across_swaps_with_mixed_receives() {
    const SENDERS: usize = 4;
    const PER_SENDER: u64 = 25_000;
    let rt = Runtime::builder().workers(2).build().unwrap();
    let received = rt.block_on(async {
        let (tx, mut rx) = mpsc::<(usize, u64)>();
        let producers: Vec<_> = (0..SENDERS)
            .map(|s| {
                let tx = tx.clone();
                spawn(async move {
                    for i in 0..PER_SENDER {
                        tx.send((s, i)).unwrap();
                        if i % 97 == 0 {
                            yield_now().await;
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = [0u64; SENDERS];
        let mut received = 0u64;
        let mut step = 0u64;
        loop {
            step += 1;
            let msg = if step.is_multiple_of(3) {
                match rx.try_recv() {
                    Some(m) => m,
                    None => continue,
                }
            } else {
                match rx.recv().await {
                    Some(m) => m,
                    None => break,
                }
            };
            let (s, i) = msg;
            assert_eq!(i, next[s], "sender {s} out of order");
            next[s] += 1;
            received += 1;
        }
        for p in producers {
            p.await;
        }
        assert!(next.iter().all(|&n| n == PER_SENDER), "{next:?}");
        received
    });
    assert_eq!(received, SENDERS as u64 * PER_SENDER);
}

/// Counts its drops.
struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn receiver_drop_frees_buffered_messages_once() {
    let drops = Arc::new(AtomicUsize::new(0));
    let (tx, mut rx) = mpsc::<Counted>();
    for _ in 0..10 {
        assert!(tx.send(Counted(drops.clone())).is_ok());
    }
    // The first receive swaps all ten into the receiver's buffer.
    drop(rx.try_recv().expect("ten queued"));
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    // Five more wait in the shared queue, behind the nine buffered ones.
    for _ in 0..5 {
        assert!(tx.send(Counted(drops.clone())).is_ok());
    }
    drop(rx);
    assert_eq!(
        drops.load(Ordering::SeqCst),
        15,
        "each message dropped once"
    );
    let rejected = tx.send(Counted(drops.clone()));
    assert!(
        rejected.is_err(),
        "send after the receiver is gone must fail"
    );
    drop(rejected);
    assert_eq!(drops.load(Ordering::SeqCst), 16);
}

#[test]
fn receive_dropped_after_pending_balances_its_suspension() {
    let rt = Runtime::builder().workers(2).build().unwrap();
    // Both halves outlive the runtime, so no later send, closure or
    // receiver drop can deliver the resume in the future's place.
    let channel = rt.block_on(async {
        let (tx, mut rx) = mpsc::<u32>();
        {
            let mut fut = pin!(rx.recv());
            assert!(
                poll_once(&mut fut).await.is_none(),
                "empty channel: the receive parks"
            );
            // Dropped while registered: the drop owes the resume.
        }
        (tx, rx)
    });
    let report = rt.shutdown();
    let m = &report.metrics;
    assert_eq!(m.suspensions, 1, "the receive parked on a deque: {m:?}");
    assert_eq!(m.suspensions, m.resumes, "{m:?}");
    assert_eq!(report.leaked_suspensions, 0);
    drop(channel);
}

#[test]
fn receive_dropped_after_ready_delivers_no_extra_resume() {
    let rt = Runtime::builder().workers(2).build().unwrap();
    let (tx, mut rx) = mpsc::<u32>();
    let own_tx = tx.clone();
    let receiver = rt.spawn(async move {
        // Parks once, then resolves on the send below.
        let first = rx.recv().await;
        own_tx.send(2).unwrap();
        // Ready on its first poll: never parked, nothing to balance.
        let second = rx.recv().await;
        (first, second)
    });
    assert!(
        wait_until(10, || rt.metrics().suspensions >= 1),
        "receiver never parked: {:?}",
        rt.metrics()
    );
    tx.send(1).unwrap();
    assert_eq!(rt.block_on(receiver), (Some(1), Some(2)));
    let report = rt.shutdown();
    let m = &report.metrics;
    assert_eq!((m.suspensions, m.resumes), (1, 1), "{m:?}");
    assert_eq!(report.leaked_suspensions, 0);
}
