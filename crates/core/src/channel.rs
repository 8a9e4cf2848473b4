//! Message channels whose receive operations suspend through the
//! latency-hiding machinery.
//!
//! The paper's title is about *interacting* parallel computations: threads
//! that wait for messages from other threads, clients, or devices. These
//! channels make that interaction first-class:
//!
//! * [`oneshot`] — a single-value channel (a future/promise pair).
//! * [`mpsc`] — an unbounded multi-producer single-consumer queue.
//!
//! A receive on an empty channel registers the task against its current
//! active deque (a heavy edge: `suspendCtr` rises, the worker moves on);
//! the send that fulfills it routes a resume event to the owning worker —
//! the same `callback(v, q)` / `addResumedVertices` path as timer-driven
//! latency. Off-worker (or in blocking mode) receives degrade to ordinary
//! waker-based waiting.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use crate::external::{external_op, Canceled, Completer, DeadlineExt, DeadlineOp, ExternalOp};
use crate::sync::Mutex;
use crate::worker::{self, SuspendWait};

// ---------------------------------------------------------------------
// Oneshot.
// ---------------------------------------------------------------------

/// Creates a oneshot channel: `tx.send(v)` fulfills `rx.await`.
pub fn oneshot<T: Send + 'static>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let (completer, op) = external_op();
    (OneshotSender { completer }, OneshotReceiver { op })
}

/// Sending half of a [`oneshot`] channel.
#[derive(Debug)]
pub struct OneshotSender<T: Send + 'static> {
    completer: Completer<T>,
}

impl<T: Send + 'static> OneshotSender<T> {
    /// Sends the value, resuming the receiver. Consumes the sender.
    pub fn send(self, value: T) {
        self.completer.complete(value);
    }
}

/// Receiving half of a [`oneshot`] channel. Awaiting it yields
/// `Err(Canceled)` if the sender was dropped without sending.
#[derive(Debug)]
pub struct OneshotReceiver<T: Send + 'static> {
    op: ExternalOp<T>,
}

impl<T: Send + 'static> DeadlineExt for OneshotReceiver<T> {
    type Deadlined = DeadlineOp<T>;

    /// Bounds the receive by a wall-clock deadline: the returned future
    /// resolves `Err(OpError::TimedOut)` if no send arrives in time.
    fn with_deadline(self, deadline: std::time::Instant) -> DeadlineOp<T> {
        self.op.with_deadline(deadline)
    }
}

impl<T: Send + 'static> Future for OneshotReceiver<T> {
    type Output = Result<T, Canceled>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: `op` is pinned structurally: it is the only field,
        // never moved out, and the receiver has no `Drop` or `Unpin` impl
        // of its own that could move it.
        unsafe { self.map_unchecked_mut(|s| &mut s.op) }.poll(cx)
    }
}

// ---------------------------------------------------------------------
// MPSC.
// ---------------------------------------------------------------------

struct MpscState<T> {
    queue: VecDeque<T>,
    /// Set while the (single) receiver is parked on an empty queue
    /// (see [`worker::register_suspension`]).
    wait: Option<SuspendWait>,
    senders: usize,
    receiver_alive: bool,
}

struct Mpsc<T> {
    state: Mutex<MpscState<T>>,
}

impl<T> Mpsc<T> {
    /// Wakes a parked receiver, if any. Must be called after a state
    /// change that could unblock it (new message, channel closure).
    fn notify(wait: Option<SuspendWait>) {
        if let Some(wait) = wait {
            wait.notify();
        }
    }
}

/// Creates an unbounded multi-producer single-consumer channel.
pub fn mpsc<T: Send + 'static>() -> (MpscSender<T>, MpscReceiver<T>) {
    let shared = Arc::new(Mpsc {
        state: Mutex::new(MpscState {
            queue: VecDeque::new(),
            wait: None,
            senders: 1,
            receiver_alive: true,
        }),
    });
    (
        MpscSender {
            shared: shared.clone(),
        },
        MpscReceiver {
            shared,
            local: VecDeque::new(),
        },
    )
}

/// Error returned by [`MpscSender::send`] when the receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mpsc send failed: receiver dropped")
    }
}

impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

/// Sending half of an [`mpsc`] channel. Clone freely.
pub struct MpscSender<T: Send + 'static> {
    shared: Arc<Mpsc<T>>,
}

impl<T: Send + 'static> std::fmt::Debug for MpscSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpscSender").finish_non_exhaustive()
    }
}

impl<T: Send + 'static> Clone for MpscSender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().senders += 1;
        MpscSender {
            shared: self.shared.clone(),
        }
    }
}

impl<T: Send + 'static> MpscSender<T> {
    /// Enqueues a message, resuming a parked receiver. Non-blocking (the
    /// channel is unbounded). One lock round-trip per message.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let wait = {
            let mut st = self.shared.state.lock();
            if !st.receiver_alive {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            st.wait.take()
        };
        Mpsc::<T>::notify(wait);
        Ok(())
    }
}

impl<T: Send + 'static> Drop for MpscSender<T> {
    fn drop(&mut self) {
        let wait = {
            let mut st = self.shared.state.lock();
            st.senders -= 1;
            if st.senders == 0 {
                // Closure unblocks a parked receiver (it will see the
                // empty+closed state and resolve to None).
                st.wait.take()
            } else {
                None
            }
        };
        Mpsc::<T>::notify(wait);
    }
}

/// Receiving half of an [`mpsc`] channel. Not cloneable.
///
/// Messages reach the receiver in batches: when its own buffer runs dry,
/// one lock swaps the whole shared queue into it, and the receives after
/// that pop without locking (DESIGN.md §7 "Channels").
pub struct MpscReceiver<T: Send + 'static> {
    shared: Arc<Mpsc<T>>,
    /// Messages already taken from the shared queue, in send order.
    local: VecDeque<T>,
}

impl<T: Send + 'static> std::fmt::Debug for MpscReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpscReceiver").finish_non_exhaustive()
    }
}

impl<T: Send + 'static> MpscReceiver<T> {
    /// Receives the next message; `None` once the channel is empty and all
    /// senders are gone.
    pub fn recv(&mut self) -> RecvFuture<'_, T> {
        RecvFuture {
            rx: self,
            parked: false,
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<T> {
        if self.local.is_empty() {
            std::mem::swap(&mut self.shared.state.lock().queue, &mut self.local);
        }
        self.local.pop_front()
    }
}

impl<T: Send + 'static> Drop for MpscReceiver<T> {
    fn drop(&mut self) {
        let (queued, wait) = {
            let mut st = self.shared.state.lock();
            st.receiver_alive = false;
            // A registration that will never be fulfilled must still
            // deliver its event so the deque's suspension counter balances.
            (std::mem::take(&mut st.queue), st.wait.take())
        };
        // Undelivered messages (these and `local`) drop outside the lock.
        drop(queued);
        Mpsc::<T>::notify(wait);
    }
}

/// Future returned by [`MpscReceiver::recv`].
pub struct RecvFuture<'a, T: Send + 'static> {
    rx: &'a mut MpscReceiver<T>,
    /// Returned `Pending` since the last `Ready`: only then can the
    /// channel hold a deque registration this future must balance on drop.
    parked: bool,
}

impl<T: Send + 'static> Future for RecvFuture<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let this = self.get_mut();
        let rx = &mut *this.rx;
        if let Some(v) = rx.local.pop_front() {
            this.parked = false;
            return Poll::Ready(Some(v));
        }
        let mut st = rx.shared.state.lock();
        if !st.queue.is_empty() {
            std::mem::swap(&mut st.queue, &mut rx.local);
            drop(st);
            this.parked = false;
            return Poll::Ready(rx.local.pop_front());
        }
        if st.senders == 0 {
            this.parked = false;
            return Poll::Ready(None);
        }
        match &st.wait {
            Some(SuspendWait::Deque(_)) => {
                // Still registered from an earlier poll; the pending event
                // pairs with that registration.
            }
            _ => st.wait = Some(worker::register_suspension(cx.waker())),
        }
        this.parked = true;
        Poll::Pending
    }
}

impl<T: Send + 'static> Drop for RecvFuture<'_, T> {
    fn drop(&mut self) {
        // Every message and the channel's closure take the registration
        // under the lock before the receive can see them, so a future
        // that last returned `Ready` (or never ran) holds none.
        if !self.parked {
            return;
        }
        // A canceled receive must balance its deque registration: deliver
        // the event now (the task is woken spuriously, which is harmless).
        let wait = {
            let mut st = self.rx.shared.state.lock();
            match st.wait.take() {
                Some(SuspendWait::Deque(reg)) => Some(SuspendWait::Deque(reg)),
                other => {
                    st.wait = other;
                    None
                }
            }
        };
        Mpsc::<T>::notify(wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fork2, spawn, Runtime};
    use std::time::Duration;

    fn rt(workers: usize) -> Runtime {
        Runtime::builder().workers(workers).build().unwrap()
    }

    #[test]
    fn oneshot_roundtrip() {
        let rt = rt(2);
        let out = rt.block_on(async {
            let (tx, rx) = oneshot::<u32>();
            let (_, got) = fork2(async move { tx.send(41) }, rx).await;
            got.unwrap() + 1
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn oneshot_sender_dropped() {
        let rt = rt(2);
        let out = rt.block_on(async {
            let (tx, rx) = oneshot::<u32>();
            drop(tx);
            rx.await
        });
        assert_eq!(out, Err(Canceled));
    }

    #[test]
    fn oneshot_with_timeout_times_out_then_send_is_harmless() {
        use crate::external::OpError;
        let rt = rt(2);
        let out = rt.block_on(async {
            let (tx, rx) = oneshot::<u32>();
            let got = rx.with_timeout(Duration::from_millis(10)).await;
            // The late send loses the settle race silently.
            tx.send(5);
            got
        });
        assert_eq!(out, Err(OpError::TimedOut));
    }

    #[test]
    fn oneshot_with_timeout_receives_in_time() {
        let rt = rt(2);
        let out = rt.block_on(async {
            let (tx, rx) = oneshot::<u32>();
            let (_, got) = fork2(
                async move { tx.send(41) },
                rx.with_timeout(Duration::from_secs(30)),
            )
            .await;
            got.unwrap() + 1
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn mpsc_pingpong() {
        let rt = rt(2);
        let total = rt.block_on(async {
            let (tx, mut rx) = mpsc::<u64>();
            let producer = spawn(async move {
                for i in 0..100 {
                    tx.send(i).unwrap();
                    if i % 10 == 0 {
                        crate::yield_now().await;
                    }
                }
            });
            let mut sum = 0;
            while let Some(v) = rx.recv().await {
                sum += v;
            }
            producer.await;
            sum
        });
        assert_eq!(total, (0..100).sum::<u64>());
    }

    #[test]
    fn mpsc_multiple_producers() {
        let rt = rt(4);
        let total = rt.block_on(async {
            let (tx, mut rx) = mpsc::<u64>();
            let producers: Vec<_> = (0..4)
                .map(|p| {
                    let tx = tx.clone();
                    spawn(async move {
                        for i in 0..50u64 {
                            crate::simulate_latency(Duration::from_micros(200)).await;
                            tx.send(p * 1000 + i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut count = 0u64;
            let mut sum = 0u64;
            while let Some(v) = rx.recv().await {
                count += 1;
                sum += v;
            }
            for p in producers {
                p.await;
            }
            (count, sum)
        });
        assert_eq!(total.0, 200);
        let expect: u64 = (0..4u64)
            .map(|p| (0..50).map(|i| p * 1000 + i).sum::<u64>())
            .sum();
        assert_eq!(total.1, expect);
    }

    #[test]
    fn mpsc_close_unblocks_receiver() {
        let rt = rt(2);
        let out = rt.block_on(async {
            let (tx, mut rx) = mpsc::<u32>();
            let closer = spawn(async move {
                crate::simulate_latency(Duration::from_millis(5)).await;
                drop(tx);
            });
            let got = rx.recv().await;
            closer.await;
            got
        });
        assert_eq!(out, None);
    }

    #[test]
    fn mpsc_send_after_receiver_drop_fails() {
        let rt = rt(2);
        rt.block_on(async {
            let (tx, rx) = mpsc::<u32>();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
        });
    }

    #[test]
    fn mpsc_try_recv() {
        let rt = rt(2);
        rt.block_on(async {
            let (tx, mut rx) = mpsc::<u32>();
            assert_eq!(rx.try_recv(), None);
            tx.send(9).unwrap();
            assert_eq!(rx.try_recv(), Some(9));
        });
    }

    #[test]
    fn mpsc_from_external_thread() {
        // Senders living entirely outside the runtime: the receiver
        // suspends on its deque; sends resume it via the inbox.
        let rt = rt(2);
        let (tx, mut rx) = mpsc::<u64>();
        let feeder = std::thread::spawn(move || {
            for i in 0..64 {
                tx.send(i).unwrap();
                if i % 8 == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        let sum = rt.block_on(async move {
            let mut s = 0;
            while let Some(v) = rx.recv().await {
                s += v;
            }
            s
        });
        feeder.join().unwrap();
        assert_eq!(sum, (0..64).sum::<u64>());
    }

    #[test]
    fn receiver_suspension_uses_deque_path() {
        let rt = rt(2);
        let (tx, mut rx) = mpsc::<u32>();
        let feeder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(1).unwrap();
        });
        rt.block_on(async move {
            assert_eq!(rx.recv().await, Some(1));
        });
        feeder.join().unwrap();
        let m = rt.metrics();
        assert!(
            m.suspensions >= 1 && m.resumes >= m.suspensions,
            "the parked receive went through the suspension machinery: {m:?}"
        );
    }
}
