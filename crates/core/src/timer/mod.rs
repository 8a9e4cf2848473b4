//! The timer substrate: delivers latency expirations.
//!
//! The paper's model assumes an external world (remote servers, users,
//! storage) that makes suspended vertices ready again after their latency.
//! This module is that world's stand-in, realized with the "polling in a
//! separate (system) thread" option the paper's §3 footnote describes.
//! Expirations are routed to the worker owning the suspended task's deque
//! — the paper's `callback(v, q)` — in **batches**: all of a worker's
//! expirations that fall due together arrive as one [`Vec<ResumeEvent>`],
//! so the worker pays one inbox transfer and one wake-up per burst instead
//! of per suspension, and can build a single pfor reinjection tree over
//! the burst.
//!
//! The implementation is [`wheel`]: a sharded hierarchical timer wheel with
//! per-shard locks, amortized O(1) insertion, and per-(worker, tick) batch
//! delivery.

mod wheel;

use std::time::Instant;

use crate::task::TaskRef;

pub(crate) use wheel::WheelTimer;

/// A latency expiration to deliver.
#[derive(Debug)]
pub(crate) struct TimerEntry {
    /// When the latency expires.
    pub deadline: Instant,
    /// Worker owning the deque the task suspended on.
    pub worker: usize,
    /// The suspended task.
    pub task: TaskRef,
    /// The owner's local index of that deque.
    pub local_deque: usize,
    /// Trace suspension id pairing this expiration with its `Suspend`
    /// event (`0` when tracing is off). Carried opaquely by the timer.
    pub seq: u64,
    /// Incarnation of `worker` at registration time. If the worker died
    /// and respawned before delivery, its owner-local deque numbering is
    /// void — the delivery path detects the mismatch and re-routes the
    /// task instead of touching `local_deque`. Carried opaquely.
    pub epoch: u64,
}

/// A deadline notification callback, invoked exactly once by the timer:
/// with `true` when the deadline expired, or `false` when the timer shut
/// down (or was already shut down at registration) before the deadline.
/// Used by [`crate::external::DeadlineOp`] to settle `Err(TimedOut)` /
/// `Err(Canceled)` without a dedicated suspension.
pub(crate) type DeadlineCallback = Box<dyn FnOnce(bool) + Send + 'static>;

/// Resume event delivered to a worker inbox: the paper's `callback(v, q)`
/// arguments.
#[derive(Debug)]
pub(crate) struct ResumeEvent {
    /// The resumed task (`v`).
    pub task: TaskRef,
    /// The owner's local index of the deque it belongs to (`q`).
    pub local_deque: usize,
    /// Trace suspension id (`0` when tracing is off).
    pub seq: u64,
    /// Trace timestamp at which the event was handed to the runtime (the
    /// suspension's *enable* time). Stamped by the sink; `0` from timers.
    pub enabled_at: u64,
    /// Worker incarnation the registration was made under (see
    /// [`TimerEntry::epoch`]). A mismatch at drain time marks the event
    /// as orphaned: `local_deque` indexes a dead incarnation's state.
    pub epoch: u64,
}

/// Where the timer delivers expirations. Provided by the runtime.
pub(crate) trait ResumeSink: Send + Sync + 'static {
    /// Delivers a non-empty batch of events to worker `worker`'s inbox and
    /// wakes it (at most one unpark for the whole batch). `tick` is the
    /// timer tick the batch expired on; it only labels trace events.
    fn deliver_batch(&self, worker: usize, tick: u64, events: Vec<ResumeEvent>);
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Helpers for the timer wheel's tests.

    use std::sync::Arc;

    use super::*;
    use parking_lot::Mutex;

    /// Records delivered batches: `(worker, events, batch_len)` per event,
    /// plus the batch boundaries.
    pub struct CollectSink {
        /// One `(worker, local_deque)` per delivered event, in order.
        pub events: Mutex<Vec<(usize, usize)>>,
        /// One `(worker, len)` per delivered batch, in order.
        pub batches: Mutex<Vec<(usize, usize)>>,
    }

    impl CollectSink {
        pub fn new() -> Arc<Self> {
            Arc::new(CollectSink {
                events: Mutex::new(Vec::new()),
                batches: Mutex::new(Vec::new()),
            })
        }

        pub fn total_events(&self) -> usize {
            self.events.lock().len()
        }
    }

    impl ResumeSink for CollectSink {
        fn deliver_batch(&self, worker: usize, _tick: u64, events: Vec<ResumeEvent>) {
            assert!(!events.is_empty(), "empty batch delivered");
            self.batches.lock().push((worker, events.len()));
            let mut got = self.events.lock();
            for e in events {
                got.push((worker, e.local_deque));
            }
        }
    }

    pub fn dummy_task() -> TaskRef {
        crate::task::new_detached(0, async {})
    }

    pub fn entry(deadline: Instant, worker: usize, local_deque: usize) -> TimerEntry {
        TimerEntry {
            deadline,
            worker,
            task: dummy_task(),
            local_deque,
            seq: 0,
            epoch: 0,
        }
    }

    /// Polls until `sink` has `n` events or `secs` elapse.
    pub fn wait_for_events(sink: &CollectSink, n: usize, secs: u64) {
        let deadline = Instant::now() + std::time::Duration::from_secs(secs);
        while sink.total_events() < n && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}
