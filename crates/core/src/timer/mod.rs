//! The timer substrate: delivers latency expirations.
//!
//! The paper's model assumes an external world (remote servers, users,
//! storage) that makes suspended vertices ready again after their latency.
//! This module is that world's stand-in, and it has no thread of its own:
//! **the worker is the timer**. Each worker owns one [`TimerHeap`] shard in
//! its thread-local state and is the only thread that touches it — it files
//! its own latency and deadline registrations into it, fires it where it
//! drains its resume inbox (after every poll and on every idle step), and
//! cancels it when it exits. An expiration therefore reaches its owning
//! deque — the paper's `callback(v, q)` — with no hop through another
//! thread: everything one drain finds due joins the same batch of
//! [`ResumeEvent`]s, so the worker builds a single pfor reinjection tree
//! over the burst. An idle worker parks no longer than its shard's next
//! deadline.
//!
//! The one registration from another thread — a resume held back by the
//! `ResumeDelay` fault — does not reach into the shard: it travels through
//! the owner's inbox, and the owner files it into its own shard.
//!
//! # Why a heap per worker
//!
//! The shard is a [`BinaryHeap`] keyed by `(expiry tick, registration
//! order)`. Only its owner touches it, so it needs no lock. An insert or
//! a firing costs O(log r) for the r ≤ U timers resident on that worker,
//! no more than the lg U-deep pfor tree each resumed batch already pays.
//! The heap's top is the exact next deadline, so an idle worker parks
//! until then and no longer. The heap a timer wheel once beat was a single
//! heap behind one global mutex (EXPERIMENTS.md "Retired arms").
//!
//! Deadlines are rounded **up** to the next [`TICK`] boundary; an entry
//! never fires early, and fires at most one tick late plus however long
//! its owner takes to reach its next drain. Entries due on one tick fire
//! first-in first-out.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crate::task::TaskRef;

/// Tick granularity. Deadlines are rounded up to the next tick boundary,
/// so this bounds resume slop and is the window within which expiries
/// fire together. A constant, not a knob: nothing outside the shard's own
/// tests ever set it.
const TICK: Duration = Duration::from_micros(50);

/// A deadline notification callback, invoked exactly once by the owning
/// worker: with `true` when the deadline expired, or `false` when the
/// worker exited (shutdown, poison) before the deadline. Used by
/// [`crate::external::DeadlineOp`] to settle `Err(TimedOut)` /
/// `Err(Canceled)` without a dedicated suspension.
pub(crate) type DeadlineCallback = Box<dyn FnOnce(bool) + Send + 'static>;

/// Resume event delivered to a worker: the paper's `callback(v, q)`
/// arguments.
#[derive(Debug)]
pub(crate) struct ResumeEvent {
    /// The resumed task (`v`).
    pub task: TaskRef,
    /// The owner's local index of the deque it belongs to (`q`).
    pub local_deque: usize,
    /// Trace suspension id pairing this event with its `Suspend` event
    /// (`0` when tracing is off).
    pub seq: u64,
    /// Trace timestamp at which the event was handed to the runtime (the
    /// suspension's *enable* time). Stamped at delivery or at firing.
    pub enabled_at: u64,
    /// Incarnation of the owning worker at registration time. If the
    /// worker died and respawned before the event was drained, its
    /// owner-local deque numbering is void — the drain detects the
    /// mismatch and re-routes the task instead of touching `local_deque`.
    pub epoch: u64,
}

/// What a timer entry holds.
pub(crate) enum Payload {
    /// A latency expiration; traced with the batch it fires in.
    Resume(ResumeEvent),
    /// A resume the `ResumeDelay` fault held back at the owner's inbox
    /// drain: it was traced when it was delivered, and it is not rolled
    /// again when it fires.
    Delayed(ResumeEvent),
    /// A deadline callback: `cb(true)` when it fires, `cb(false)` when it
    /// is canceled.
    Deadline(DeadlineCallback),
}

/// An entry resident in a shard, its deadline quantized to an absolute
/// tick.
pub(crate) struct Pending {
    /// Absolute expiry tick (deadline rounded up).
    expiry: u64,
    /// Registration order, breaking ties within a tick.
    order: u64,
    pub payload: Payload,
}

/// Reversed, so the max-heap's top is the earliest `(expiry, order)`.
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.expiry, other.order).cmp(&(self.expiry, self.order))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Pending {}

/// One worker's timer shard.
pub(crate) struct TimerHeap {
    heap: BinaryHeap<Pending>,
    /// Registrations so far: the next entry's `order`.
    registered: u64,
    /// Tick 0.
    origin: Instant,
}

impl TimerHeap {
    pub fn new() -> TimerHeap {
        TimerHeap::with_origin(Instant::now())
    }

    fn with_origin(origin: Instant) -> TimerHeap {
        TimerHeap {
            heap: BinaryHeap::new(),
            registered: 0,
            origin,
        }
    }

    /// True when nothing is resident: the owner's drain skips the clock.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Current tick (floor): every expiry tick ≤ this is due.
    pub fn now_tick(&self) -> u64 {
        (self.origin.elapsed().as_nanos() / TICK.as_nanos()) as u64
    }

    /// Deadline → absolute expiry tick, rounded up (never fires early).
    fn expiry_tick(&self, deadline: Instant) -> u64 {
        let delay = deadline.saturating_duration_since(self.origin).as_nanos();
        delay.div_ceil(TICK.as_nanos()).min(u64::MAX as u128) as u64
    }

    /// Files `payload` to fire at `deadline`. A past deadline fires at the
    /// next [`advance`](Self::advance).
    pub fn insert(&mut self, deadline: Instant, payload: Payload) {
        self.file(self.expiry_tick(deadline), payload);
    }

    /// Files `payload` at tick `expiry`.
    fn file(&mut self, expiry: u64, payload: Payload) {
        let order = self.registered;
        self.registered += 1;
        self.heap.push(Pending {
            expiry,
            order,
            payload,
        });
    }

    /// Appends every entry due by tick `now` to `due`: in expiry order,
    /// and in registration order within a tick.
    pub fn advance(&mut self, now: u64, due: &mut Vec<Pending>) {
        while self.heap.peek().is_some_and(|p| p.expiry <= now) {
            due.extend(self.heap.pop());
        }
    }

    /// When the earliest resident entry fires, or `None` when the shard is
    /// empty.
    pub fn next_deadline(&self) -> Option<Instant> {
        let tick = self.heap.peek()?.expiry;
        let nanos = (TICK.as_nanos() as u64).saturating_mul(tick);
        Some(self.origin + Duration::from_nanos(nanos))
    }

    /// Removes every resident entry (the owner is exiting).
    pub fn drain_all(&mut self) -> Vec<Pending> {
        std::mem::take(&mut self.heap).into_vec()
    }
}

#[cfg(test)]
mod tests {
    //! Deterministic: every test drives [`TimerHeap::advance`] with
    //! synthetic ticks (or pins the shard's origin), never a sleep.

    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::rng::SplitMix64;

    fn resume(id: usize) -> Payload {
        Payload::Resume(ResumeEvent {
            task: crate::task::new_detached(0, async {}),
            local_deque: id,
            seq: 0,
            enabled_at: 0,
            epoch: 0,
        })
    }

    /// The ids (`local_deque`) of a due list's resumes, in order.
    fn ids(due: &[Pending]) -> Vec<usize> {
        due.iter()
            .map(|p| match &p.payload {
                Payload::Resume(ev) | Payload::Delayed(ev) => ev.local_deque,
                Payload::Deadline(_) => usize::MAX,
            })
            .collect()
    }

    /// A deadline callback recording its verdict: 1 = fired, 2 = canceled.
    fn deadline(verdict: &Arc<AtomicU32>) -> Payload {
        let v = verdict.clone();
        Payload::Deadline(Box::new(move |expired| {
            v.store(if expired { 1 } else { 2 }, Ordering::SeqCst);
        }))
    }

    fn run_callbacks(due: Vec<Pending>, expired: bool) {
        for p in due {
            if let Payload::Deadline(cb) = p.payload {
                cb(expired);
            }
        }
    }

    #[test]
    fn delivers_in_deadline_order() {
        let mut w = TimerHeap::new();
        w.file(30, resume(20));
        w.file(10, resume(10));
        let mut due = Vec::new();
        w.advance(9, &mut due);
        assert!(due.is_empty());
        w.advance(10, &mut due);
        assert_eq!(ids(&due), [10]);
        w.advance(100, &mut due);
        assert_eq!(ids(&due), [10, 20]);
        assert!(w.is_empty());
    }

    #[test]
    fn past_deadline_fires_immediately() {
        // Synthetic: a tick already passed fires at the next advance.
        let mut w = TimerHeap::new();
        let mut due = Vec::new();
        w.advance(50, &mut due);
        w.file(5, resume(7));
        w.advance(50, &mut due);
        assert_eq!(ids(&due), [7]);

        // Through the clock: a deadline in the past is already due.
        let mut w = TimerHeap::new();
        let past = Instant::now() - Duration::from_millis(5);
        w.insert(past, resume(8));
        assert!(w.next_deadline().is_some_and(|d| d <= Instant::now()));
        w.advance(w.now_tick(), &mut due);
        assert_eq!(ids(&due), [7, 8]);
    }

    #[test]
    fn same_tick_same_worker_is_one_batch() {
        // Everything due on one tick comes back from one advance, in
        // registration order.
        let mut w = TimerHeap::new();
        for i in 0..10 {
            w.file(25, resume(i));
        }
        let mut due = Vec::new();
        w.advance(24, &mut due);
        assert!(due.is_empty());
        w.advance(25, &mut due);
        assert_eq!(ids(&due), (0..10).collect::<Vec<_>>());
        assert!(w.is_empty());
    }

    #[test]
    fn random_deadlines_none_lost_none_duplicated() {
        // Every registration fires exactly once and never before its
        // tick: expiries reach up to ~12 000 ticks out, and inserts land
        // between uneven runs of ticks.
        let mut rng = SplitMix64::new(0x57EE1);
        let mut w = TimerHeap::new();
        let n = 400;
        let mut expiry = vec![0u64; n];
        let mut fired_at = vec![None; n];
        let mut due = Vec::new();
        let mut i = 0;
        let mut now = 0;
        while i < n || !w.is_empty() {
            for _ in 0..rng.next_below(8) {
                if i < n {
                    expiry[i] = now + rng.next_below(12_000);
                    w.file(expiry[i], resume(i));
                    i += 1;
                }
            }
            for _ in 0..1 + rng.next_below(299) {
                now += 1;
                w.advance(now, &mut due);
                for id in ids(&due) {
                    assert!(fired_at[id].is_none(), "entry {id} fired twice");
                    fired_at[id] = Some(now);
                }
                due.clear();
            }
        }
        for (id, at) in fired_at.iter().enumerate() {
            let at = at.unwrap_or_else(|| panic!("entry {id} was lost"));
            assert!(at >= expiry[id], "entry {id} fired early");
        }
    }

    #[test]
    fn deadlines_never_fire_early() {
        // 1ns past a tick boundary rounds up to the next tick.
        let origin = Instant::now();
        let mut w = TimerHeap::with_origin(origin);
        w.insert(origin + TICK * 800 + Duration::from_nanos(1), resume(0));
        let mut due = Vec::new();
        w.advance(800, &mut due);
        assert!(due.is_empty(), "fired before its deadline");
        w.advance(801, &mut due);
        assert_eq!(ids(&due), [0]);
    }

    #[test]
    fn next_deadline_is_the_earliest_entry() {
        // Exact, not a coarser boundary at or before it.
        let origin = Instant::now();
        let mut w = TimerHeap::with_origin(origin);
        w.file(300, resume(1));
        w.file(100, resume(0));
        assert_eq!(w.next_deadline(), Some(origin + TICK * 100));
        let mut due = Vec::new();
        w.advance(100, &mut due);
        assert_eq!(ids(&due), [0]);
        assert_eq!(w.next_deadline(), Some(origin + TICK * 300));
    }

    #[test]
    fn deadline_callbacks_fire_and_cancel() {
        let mut w = TimerHeap::new();
        let fired = Arc::new(AtomicU32::new(0));
        let canceled = Arc::new(AtomicU32::new(0));
        w.file(100, deadline(&fired));
        w.file(1_000_000, deadline(&canceled));
        w.file(100, resume(3));
        let mut due = Vec::new();
        w.advance(100, &mut due);
        // The callback rides the due list next to the resume, in
        // registration order; the owner calls it after the advance.
        assert_eq!(ids(&due), [usize::MAX, 3]);
        run_callbacks(due, true);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "deadline expired");
        // Exit cancels the far one.
        run_callbacks(w.drain_all(), false);
        assert_eq!(canceled.load(Ordering::SeqCst), 2, "canceled at exit");
        assert!(w.is_empty());
    }

    #[test]
    fn shutdown_counts_dropped_resume_entries() {
        // Near, far and very far entries: drain_all finds all.
        let mut w = TimerHeap::new();
        let far = [5, 100, 5_000, 300_000, 1 << 30, 7];
        for (i, &t) in far.iter().enumerate() {
            w.file(t, resume(i));
        }
        let mut drained = ids(&w.drain_all());
        drained.sort_unstable();
        assert_eq!(drained, (0..far.len()).collect::<Vec<_>>());
        assert!(w.is_empty());
        assert_eq!(w.next_deadline(), None);
        let mut due = Vec::new();
        w.advance(u64::MAX, &mut due);
        assert!(due.is_empty());
    }
}
