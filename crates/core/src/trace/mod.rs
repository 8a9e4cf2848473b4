//! Per-event scheduler tracing: the observability layer for the paper's
//! schedule-shaped claims.
//!
//! Every quantity the paper reasons about — steal attempts `R`, suspension
//! width `U`, the ≤ `U + 1` live deques per worker of Lemma 7, the delay
//! between a heavy edge becoming *enabled* and its vertex being *ready*
//! and then *executed* — is a property of the schedule, not of any
//! aggregate counter. This module records the schedule itself:
//!
//! * Each worker owns a **lock-free, fixed-capacity SPSC ring**
//!   (cache-padded): the worker is its only producer. Recording an
//!   event is a clock read plus two relaxed-ish atomics and one slot
//!   write — never a lock, never an allocation.
//! * Events produced off the worker threads (injections, external
//!   completions' resume deliveries, unparks from arbitrary producers) go
//!   to one more ring, ring `P`, whose producers a mutex serializes;
//!   those paths already take locks, so the mutex adds nothing.
//! * When a ring is full the **newest event is dropped** and counted
//!   ([`Trace::dropped`]); existing events are never overwritten, so the
//!   recorded prefix of each ring's history is always contiguous.
//! * Nothing consumes an event but reclaim. A [`TraceReader`] holds a
//!   cursor per ring and polls while producers keep recording
//!   ([`TraceReader::poll_events`]); slots are reclaimed at the slowest
//!   registered reader's cursor, so two readers see every event
//!   independently and no reader is ever passed. The shutdown trace is
//!   a read of every ring from its reclaim frontier to its tail: with no
//!   reader registered it is the whole run, and a reader's poll after
//!   shutdown returns every event that reader has not yet seen.
//! * Tracing is enabled by [`crate::Config::trace_capacity`] (or
//!   `RuntimeBuilder::trace_capacity`); when disabled (the default) every record
//!   site is one branch on an `Option` that is always `None` — the hot
//!   path cost is indistinguishable from the untraced build.
//!
//! Suspension lifecycle events are linked by a per-registration **`seq`**
//! tag so the collector can reconstruct per-suspension latency:
//!
//! ```text
//! Suspend{seq}          worker registers the suspension   (suspend time)
//!   └─ Resume{batch}    timer/completer delivers          (enable time)
//!       └─ ResumeReady{seq, enabled_at}  owner drains it  (ready time)
//!           └─ ResumeExec{seq}           task re-polled   (executed time)
//! ```
//!
//! [`Trace::stats`] derives the paper-facing statistics (steal success
//! rate, enable→ready→executed histograms, per-worker deque high-water
//! marks against Lemma 7), [`audit()`] checks the invariants the fault
//! plan attacks (exactly-once resume by `seq`, deque balance, Lemma 7)
//! and [`Trace::export_chrome`] writes the raw events as
//! Chrome-trace/Perfetto JSON.

mod audit;
mod export;
mod ring;
mod stats;

pub use audit::{audit, AuditReport, AuditState};
pub use stats::{LatencyHistogram, LiveStats, TraceStats};

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::CachePadded;
use crate::sync::Mutex;
use ring::Ring;

/// Sentinel worker/deque index for "not applicable / off-runtime".
pub const NONE_ID: u32 = u32::MAX;

/// Outcome of one steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealOutcome {
    /// The attempt returned a task.
    Success,
    /// The victim deque was empty (or freed, or not yet selectable).
    Empty,
    /// The pop-top raced with another thief/the owner and the bounded
    /// retry budget ran out.
    LostRace,
    /// The victim deque was dead: freed into its owner's recycling pool
    /// and not yet reused. The live-set draw never returns a freed deque,
    /// so this only happens when the victim retires between the draw and
    /// the steal.
    Dead,
}

/// What kind of latency-incurring operation a suspension came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspendKind {
    /// A timer-backed latency ([`crate::simulate_latency`]).
    Timer,
    /// An externally completed operation ([`crate::external_op`],
    /// channel receives).
    External,
}

/// One scheduler event. Field conventions:
///
/// * deque indices named `deque` are **owner-local** (the worker's own
///   numbering, the same space Lemma 7's `U + 1` bound lives in);
/// * `victim_deque` in [`EventKind::Steal`] is the **global registry id**
///   ([`lhws_deque::DequeId`]), since thieves address deques globally;
/// * [`NONE_ID`] marks "no such index" (e.g. a steal attempt drawn from
///   an empty registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// One steal attempt (exactly one per `steals_attempted` bump).
    Steal {
        /// Global registry id of the victim deque, or [`NONE_ID`].
        victim_deque: u32,
        /// Worker owning the victim deque, or [`NONE_ID`].
        victim_worker: u32,
        /// How the attempt ended.
        outcome: StealOutcome,
    },
    /// A steal attempt claimed a multi-task batch (steal-half). Emitted
    /// **in addition to** the per-attempt [`EventKind::Steal`] event, so
    /// `Steal` events still count attempts exactly; only batches of two or
    /// more tasks are recorded (a single-task claim is just a steal).
    StealBatch {
        /// Global registry id of the victim deque.
        victim: u32,
        /// Number of tasks claimed in the batch (≥ 2).
        n: u32,
    },
    /// A task registered a suspension against its active deque.
    Suspend {
        /// Owner-local index of the deque the task suspended on.
        deque: u32,
        /// Timer- or externally-completed suspension.
        kind: SuspendKind,
        /// Per-registration tag linking the later `ResumeReady` /
        /// `ResumeExec` events.
        seq: u64,
    },
    /// A batch of resume events reached a worker: fired from its own timer
    /// shard, or one external completion delivered to its inbox (the
    /// timestamp is the **enable** time of every event in the batch).
    Resume {
        /// Number of events in the delivered batch.
        batch_len: u32,
        /// Timer tick the owner fired the batch at (0 for external
        /// deliveries).
        tick: u64,
    },
    /// The owning worker drained one resume event into its deque — the
    /// suspension's vertex is now **ready**.
    ResumeReady {
        /// Tag of the matching `Suspend`.
        seq: u64,
        /// Enable timestamp stamped at delivery (nanoseconds on the
        /// trace clock), for the enable→ready latency.
        enabled_at: u64,
    },
    /// A resumed task reached its next poll — the vertex **executed**.
    ResumeExec {
        /// Tag of the matching `Suspend`.
        seq: u64,
    },
    /// An idle worker switched to one of its ready deques.
    DequeSwitch {
        /// Owner-local index of the deque switched to.
        deque: u32,
    },
    /// The worker brought a deque live (fresh or recycled).
    DequeAlloc {
        /// Live deques owned by this worker **after** the allocation —
        /// running maximum is the Lemma 7 high-water mark.
        live: u32,
    },
    /// The worker freed an empty, suspension-less deque.
    DequeRelease {
        /// Live deques owned by this worker after the release.
        live: u32,
    },
    /// Releasing a deque compacted a live-set registry shard (its dense
    /// id list shrank after mass releases).
    RegistryCompact {
        /// Global registry id of the deque whose release triggered the
        /// compaction.
        deque: u32,
    },
    /// The worker found no work anywhere and parked.
    Park,
    /// A producer unparked a worker (at most one per published event).
    Unpark {
        /// The worker that was woken.
        worker: u32,
    },
    /// A task entered the global injector from outside any worker.
    Inject,
    /// An I/O readiness wait was filed with a reactor driver (the socket
    /// was not ready and the task is about to suspend on it).
    IoRegister {
        /// Driver-unique wait token linking the later `IoReady` or
        /// `IoDeregister`.
        token: u64,
    },
    /// The reactor consumed a kernel readiness event for a wait and fired
    /// its completer (exactly one of `IoReady`/`IoDeregister` per token).
    IoReady {
        /// Token of the matching `IoRegister`.
        token: u64,
    },
    /// A wait was withdrawn without readiness: canceled by drop, timeout,
    /// or the shutdown drain of the registration table.
    IoDeregister {
        /// Token of the matching `IoRegister`.
        token: u64,
    },
    /// A worker's scheduler loop panicked. Recorded by the respawned
    /// incarnation (same OS thread, so the ring's single-producer
    /// contract holds) **before** its `WorkerRespawn`; the dead
    /// incarnation's owner-local deque numbering is void from here on.
    WorkerDeath {
        /// Index of the worker that died.
        worker: u32,
    },
    /// A supervised worker came back after a death: orphaned deques were
    /// rescued, salvageable tasks re-injected, and the worker rejoined
    /// the sleeper set with a fresh deque numbering (audit resets its
    /// live-deque expectation on the preceding `WorkerDeath`).
    WorkerRespawn {
        /// Index of the worker that respawned.
        worker: u32,
        /// Deques rescued from the dead incarnation via
        /// `Registry::rescue` (tallies against `deques_rescued`).
        rescued: u32,
    },
}

/// A timestamped event recorded by worker `worker` (or, for side-ring
/// events, *concerning* that worker; [`NONE_ID`] when unattributable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the runtime's trace epoch.
    pub ts: u64,
    /// Worker index (ring index for worker-recorded events).
    pub worker: u32,
    /// The event.
    pub kind: EventKind,
}

/// One registered reader's cursor state. Lives inside the `collect`
/// mutex, so every read — reader polls and the shutdown trace — is
/// serialized against reclaim.
struct ReaderCursors {
    id: u64,
    /// Next absolute position to read, one cursor per ring.
    rings: Vec<usize>,
    /// Producer-side overflow total already surfaced to this reader
    /// (baseline for per-poll `dropped` deltas).
    dropped_seen: u64,
}

/// The set of registered incremental readers.
#[derive(Default)]
struct ReaderSet {
    readers: Vec<ReaderCursors>,
    next_id: u64,
}

/// The runtime's event recorder: one ring per worker, then ring `P` for
/// events recorded off the worker threads. Lives behind
/// `Option<Arc<_>>` in the runtime — `None` is the entire cost of
/// disabled tracing.
pub(crate) struct Tracer {
    rings: Box<[CachePadded<Ring>]>,
    /// Serializes the producers of ring `P` (injections, deliveries,
    /// unparks), keeping it single-producer.
    shared: Mutex<()>,
    /// Serializes reads against reclaim, and registers the readers'
    /// cursors.
    collect: Mutex<ReaderSet>,
    epoch: Instant,
}

impl Tracer {
    /// Creates a tracer for `workers` rings, plus the side ring, of (at
    /// least) `capacity` events each.
    pub fn new(workers: usize, capacity: usize) -> Tracer {
        Tracer {
            rings: (0..=workers)
                .map(|_| CachePadded::new(Ring::with_capacity(capacity)))
                .collect(),
            shared: Mutex::new(()),
            collect: Mutex::new(ReaderSet::default()),
            epoch: Instant::now(),
        }
    }

    /// Number of worker rings (the side ring not counted).
    fn workers(&self) -> usize {
        self.rings.len() - 1
    }

    /// Nanoseconds since the trace epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an event from worker `worker`'s own thread (the SPSC
    /// producer for its ring).
    #[inline]
    pub fn record(&self, worker: usize, kind: EventKind) {
        self.rings[worker].push(TraceEvent {
            ts: self.now(),
            worker: worker as u32,
            kind,
        });
    }

    /// Records an event from an arbitrary thread, attributed to `worker`
    /// (or [`NONE_ID`]). Goes to the side ring, under its producer lock.
    pub fn record_shared(&self, worker: u32, kind: EventKind) {
        let ev = TraceEvent {
            ts: self.now(),
            worker,
            kind,
        };
        let _producer = self.shared.lock();
        self.rings[self.workers()].push(ev);
    }

    /// Total events lost to producer-side overflow over the tracer's
    /// lifetime.
    pub fn dropped_total(&self) -> u64 {
        self.rings
            .iter()
            .map(|ring| ring.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Every event not yet reclaimed — each ring from its reclaim
    /// frontier to its tail — as a [`Trace`] sorted by timestamp.
    /// Consumes nothing: a registered reader still sees these events on
    /// its next poll.
    pub fn snapshot(&self) -> Trace {
        let _guard = self.collect.lock();
        self.read(&mut self.frontier(), self.dropped_total())
    }

    /// Each ring's reclaim frontier. Callers hold the collector lock.
    fn frontier(&self) -> Vec<usize> {
        self.rings
            .iter()
            .map(|r| r.head.load(Ordering::Relaxed))
            .collect()
    }

    /// Reads every ring from its cursor to its tail, moving the cursors
    /// there, into a [`Trace`] sorted by timestamp. Callers hold the
    /// collector lock.
    fn read(&self, cursors: &mut [usize], dropped: u64) -> Trace {
        let mut events = Vec::new();
        for (ring, cur) in self.rings.iter().zip(cursors) {
            *cur = ring.read_to_tail(*cur, &mut events);
        }
        events.sort_by_key(|e| e.ts);
        Trace {
            events,
            dropped,
            workers: self.workers(),
        }
    }

    /// Registers a new incremental reader. Its cursors start at the
    /// current reclaim frontier: everything not yet reclaimed is visible,
    /// nothing is delivered twice.
    pub fn new_reader(self: &Arc<Self>) -> TraceReader {
        let mut set = self.collect.lock();
        let id = set.next_id;
        set.next_id += 1;
        set.readers.push(ReaderCursors {
            id,
            rings: self.frontier(),
            dropped_seen: self.dropped_total(),
        });
        drop(set);
        TraceReader {
            tracer: self.clone(),
            id,
        }
    }

    /// One poll for reader `id`: reads every ring up to its current tail,
    /// advances the reader's cursors, then reclaims slots behind the
    /// slowest reader.
    fn poll_reader(&self, id: u64) -> Trace {
        let mut set = self.collect.lock();
        let reader = set
            .readers
            .iter_mut()
            .find(|r| r.id == id)
            .expect("reader is registered until dropped");
        let total = self.dropped_total();
        let dropped = total.saturating_sub(reader.dropped_seen);
        reader.dropped_seen = total;
        let trace = self.read(&mut reader.rings, dropped);
        self.reclaim(&set);
        trace
    }

    /// Moves each ring's reclaim frontier to the slowest registered
    /// reader's cursor, freeing the slots every reader has passed. With
    /// no readers the frontier stays put, so no reader is ever passed.
    fn reclaim(&self, set: &ReaderSet) {
        for (r, ring) in self.rings.iter().enumerate() {
            if let Some(min) = set.readers.iter().map(|c| c.rings[r]).min() {
                ring.head.store(min, Ordering::Release);
            }
        }
    }

    /// Unregisters reader `id` and reclaims anything it alone was
    /// holding back.
    fn drop_reader(&self, id: u64) {
        let mut set = self.collect.lock();
        set.readers.retain(|c| c.id != id);
        self.reclaim(&set);
    }
}

/// A cursor-based, non-destructive reader over the tracer's rings.
///
/// Obtained from [`Observer::trace_reader`](crate::obs::Observer::trace_reader).
/// Each [`poll_events`](TraceReader::poll_events) call returns every event
/// recorded since the previous call (across all rings, timestamp-sorted),
/// concurrently with producers — no event is ever returned twice to the
/// same reader, and multiple readers on the same runtime each get an
/// independent cursor. Slots are only reclaimed once every registered
/// reader has passed them, so a second reader costs ring capacity, not
/// correctness, and no reader is ever passed. The reader outlives the
/// runtime: a poll after [`Runtime::shutdown`](crate::Runtime::shutdown)
/// returns every event it has not yet seen.
///
/// Loss is accounted, never silent: a poll's [`Trace::dropped`] reports
/// producer-side ring overflow since the last poll (raise
/// [`Config::trace_capacity`](crate::Config::trace_capacity) or poll more
/// often).
pub struct TraceReader {
    tracer: Arc<Tracer>,
    id: u64,
}

impl fmt::Debug for TraceReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceReader")
            .field("id", &self.id)
            .field("workers", &self.tracer.workers())
            .finish()
    }
}

impl TraceReader {
    /// Polls every ring for events recorded since the last poll. Each
    /// result is a consistent cut (every ring read up to its tail at poll
    /// time), sorted by timestamp; its `dropped` counts the overflow
    /// since the last poll.
    pub fn poll_events(&mut self) -> Trace {
        self.tracer.poll_reader(self.id)
    }

    /// Number of worker rings this reader covers.
    pub fn workers(&self) -> usize {
        self.tracer.workers()
    }
}

impl Drop for TraceReader {
    fn drop(&mut self) {
        self.tracer.drop_reader(self.id);
    }
}

/// A read of the runtime's event history.
///
/// Obtained from [`Runtime::shutdown`](crate::Runtime::shutdown) (every
/// event not yet reclaimed, quiescent) or from
/// [`TraceReader::poll_events`] (the events since that reader's last
/// poll).
#[derive(Debug, Clone)]
pub struct Trace {
    /// All recorded events, sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow: the lifetime total in a shutdown
    /// trace, the total since the last poll in a reader's (raise
    /// [`Config::trace_capacity`](crate::Config::trace_capacity) if
    /// non-zero and completeness matters).
    pub dropped: u64,
    /// Number of worker rings the trace was collected from.
    pub workers: usize,
}

impl Trace {
    /// Derives the paper-facing statistics from the recorded events.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_events(&self.events, self.workers)
    }

    /// Writes the events as Chrome-trace/Perfetto JSON (load via
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn export_chrome<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        export::write_chrome_trace(self, w)
    }

    /// Runs the invariant auditor over this trace — suspension/resume
    /// pairing, deque alloc/release balance, the Lemma 7 high-water bound.
    /// Convenience for [`audit()`].
    pub fn audit(&self) -> AuditReport {
        audit::audit(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            ts,
            worker: 0,
            kind,
        }
    }

    fn timestamps(events: &[TraceEvent]) -> Vec<u64> {
        events.iter().map(|e| e.ts).collect()
    }

    #[test]
    fn ring_roundtrip_in_order() {
        let r = Ring::with_capacity(8);
        for i in 0..5 {
            r.push(ev(i, EventKind::Park));
        }
        let mut got = Vec::new();
        assert_eq!(r.read_to_tail(0, &mut got), 5);
        assert_eq!(timestamps(&got), vec![0, 1, 2, 3, 4]);
        // A read consumes nothing: the same range reads the same again.
        let mut again = Vec::new();
        r.read_to_tail(0, &mut again);
        assert_eq!(again, got);
    }

    #[test]
    fn ring_drops_newest_when_full() {
        let r = Ring::with_capacity(4); // rounded to 4
        for i in 0..6 {
            r.push(ev(i, EventKind::Park));
        }
        assert_eq!(r.dropped.load(Ordering::Relaxed), 2);
        // The *oldest* events survive.
        let mut got = Vec::new();
        r.read_to_tail(0, &mut got);
        assert_eq!(timestamps(&got), vec![0, 1, 2, 3]);
    }

    #[test]
    fn ring_wraps_after_drain() {
        let r = Ring::with_capacity(4);
        let mut got = Vec::new();
        for round in 0..10u64 {
            r.push(ev(round, EventKind::Park));
            // Read the event, then free its slot as reclaim does.
            let tail = r.read_to_tail(r.head.load(Ordering::Relaxed), &mut got);
            r.head.store(tail, Ordering::Release);
        }
        assert_eq!(timestamps(&got), (0..10).collect::<Vec<_>>());
        assert_eq!(r.dropped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn tracer_snapshot_merges_and_sorts() {
        let t = Tracer::new(2, 64);
        t.record(1, EventKind::Park);
        t.record(0, EventKind::Park);
        t.record_shared(NONE_ID, EventKind::Inject);
        let trace = t.snapshot();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.workers, 2);
        assert!(trace.events.windows(2).all(|w| w[0].ts <= w[1].ts));
        // A snapshot consumes nothing.
        assert_eq!(t.snapshot().events, trace.events);
    }

    #[test]
    fn snapshot_leaves_every_event_to_readers() {
        let t = std::sync::Arc::new(Tracer::new(1, 64));
        let mut r = t.new_reader();
        t.record(0, EventKind::Park);
        t.record(0, EventKind::Park);
        t.record_shared(NONE_ID, EventKind::Inject);
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 3);
        // The reader still sees exactly what the snapshot read.
        let b = r.poll_events();
        assert_eq!(b.events, snap.events);
        assert_eq!(b.dropped, snap.dropped);
        // Its poll moved the frontier: a later snapshot starts there.
        assert!(t.snapshot().events.is_empty());
        t.record(0, EventKind::Park);
        assert_eq!(t.snapshot().events.len(), 1);
        assert_eq!(r.poll_events().events.len(), 1);
    }

    #[test]
    fn reader_polls_each_event_exactly_once() {
        let t = std::sync::Arc::new(Tracer::new(2, 64));
        let mut r = t.new_reader();
        t.record(0, EventKind::Park);
        t.record(1, EventKind::Park);
        t.record_shared(NONE_ID, EventKind::Inject);
        let b = r.poll_events();
        assert_eq!(b.events.len(), 3);
        assert_eq!(b.dropped, 0);
        assert!(r.poll_events().events.is_empty());
        t.record(0, EventKind::Park);
        assert_eq!(r.poll_events().events.len(), 1);
    }

    #[test]
    fn reader_reclaims_so_ring_never_fills_when_polled() {
        let t = std::sync::Arc::new(Tracer::new(1, 4));
        let mut r = t.new_reader();
        // 10 rounds of capacity-filling bursts, polled between bursts:
        // reclaim frees the slots so nothing is ever dropped.
        let mut seen = 0;
        for _ in 0..10 {
            for _ in 0..4 {
                t.record(0, EventKind::Park);
            }
            seen += r.poll_events().events.len();
        }
        assert_eq!(seen, 40);
        assert_eq!(t.dropped_total(), 0);
    }

    #[test]
    fn slow_reader_overflow_is_counted_not_lost() {
        let t = std::sync::Arc::new(Tracer::new(1, 4));
        let mut r = t.new_reader();
        // Burst past capacity without polling, on a worker ring and on
        // the side ring: 4 + 4 stored, 6 + 2 dropped.
        for _ in 0..10 {
            t.record(0, EventKind::Park);
        }
        for _ in 0..6 {
            t.record_shared(NONE_ID, EventKind::Inject);
        }
        let b = r.poll_events();
        assert_eq!(b.events.len(), 8);
        assert_eq!(b.dropped, 8);
        assert_eq!(b.workers, 1);
        // events + dropped account for every push — nothing silent.
        assert_eq!(b.events.len() as u64 + b.dropped, 16);
        // The delta was consumed; the next poll reports no new drops.
        let next = r.poll_events();
        assert!(next.events.is_empty());
        assert_eq!(next.dropped, 0);
    }

    #[test]
    fn two_readers_have_independent_cursors() {
        let t = std::sync::Arc::new(Tracer::new(1, 64));
        let mut a = t.new_reader();
        let mut b = t.new_reader();
        for _ in 0..5 {
            t.record(0, EventKind::Park);
        }
        assert_eq!(a.poll_events().events.len(), 5);
        // Reader b still sees all 5: slots reclaim at the slowest cursor.
        assert_eq!(b.poll_events().events.len(), 5);
        for _ in 0..3 {
            t.record(0, EventKind::Park);
        }
        assert_eq!(b.poll_events().events.len(), 3);
        assert_eq!(a.poll_events().events.len(), 3);
        assert_eq!(t.dropped_total(), 0);
    }

    #[test]
    fn dropped_reader_stops_holding_back_reclaim() {
        let t = std::sync::Arc::new(Tracer::new(1, 4));
        let mut fast = t.new_reader();
        let slow = t.new_reader();
        for _ in 0..4 {
            t.record(0, EventKind::Park);
        }
        assert_eq!(fast.poll_events().events.len(), 4);
        // The lagging reader pins the slots: the ring is still full.
        t.record(0, EventKind::Park);
        assert_eq!(t.dropped_total(), 1);
        drop(slow);
        // Its cursor no longer pins the frontier; capacity is back. The
        // overflowed push is gone (drop-newest), surfaced as a count.
        t.record(0, EventKind::Park);
        assert_eq!(t.dropped_total(), 1);
        let b = fast.poll_events();
        assert_eq!(b.events.len(), 1);
        assert_eq!(b.dropped, 1);
    }

    #[test]
    fn reader_poll_concurrent_with_producer_sees_everything() {
        let t = std::sync::Arc::new(Tracer::new(1, 1 << 12));
        let n = 50_000u64;
        // Register the reader before the producer starts so every overflow
        // drop lands in this reader's accounting window.
        let mut r = t.new_reader();
        let producer = {
            let t = t.clone();
            std::thread::spawn(move || {
                for i in 0..n {
                    // Tag pushes via the Unpark worker field so the reader
                    // can verify order and exactly-once delivery.
                    t.record(0, EventKind::Unpark { worker: i as u32 });
                }
            })
        };
        let mut seen = 0u64;
        let mut dropped = 0u64;
        let mut last: Option<u32> = None;
        while seen + dropped < n {
            let b = r.poll_events();
            for ev in &b.events {
                let EventKind::Unpark { worker } = ev.kind else {
                    panic!("unexpected event {ev:?}");
                };
                if let Some(prev) = last {
                    assert!(worker > prev, "duplicate or reordered event");
                }
                last = Some(worker);
            }
            seen += b.events.len() as u64;
            dropped += b.dropped;
        }
        producer.join().unwrap();
        let tail = r.poll_events();
        assert_eq!(seen + tail.events.len() as u64 + dropped + tail.dropped, n);
    }
}
