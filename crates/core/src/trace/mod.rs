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
//!   (cache-padded): the worker is the only producer, the
//!   collector ([`Trace`] snapshots) the only consumer. Recording an
//!   event is a clock read plus two relaxed-ish atomics and one slot
//!   write — never a lock, never an allocation.
//! * Events produced off the worker threads (injections, external
//!   completions' resume deliveries, unparks from arbitrary producers) go
//!   to a bounded mutex-protected side buffer; those paths already take
//!   locks, so the mutex adds nothing.
//! * When the ring is full the **newest event is dropped** and counted
//!   ([`Trace::dropped`]); existing events are never overwritten, so the
//!   recorded prefix of each worker's history is always contiguous.
//! * Consumption is either **destructive** (the shutdown drain into a
//!   [`Trace`]) or **incremental**: a [`TraceReader`] holds a cursor per
//!   ring and polls non-destructively while producers keep recording
//!   ([`TraceReader::poll_events`]). Slots are reclaimed at the slowest
//!   reader's cursor, so two readers on one ring see every event
//!   independently, and a reader that falls behind a drain (or another
//!   consumer's reclaim) is told exactly how many events it *missed* —
//!   loss is always counted, never silent.
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
mod stats;

pub use audit::{audit, AuditReport, AuditState};
pub use stats::{LatencyHistogram, LiveStats, TraceStats};

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::CachePadded;
use crate::sync::Mutex;

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

/// A timestamped event recorded by worker `worker` (or, for side-buffer
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

/// Fixed-capacity SPSC ring. The producing worker writes `tail`, the
/// (mutex-serialized) consumers advance `head`. Full ring ⇒ the new
/// event is dropped and counted, never overwriting history.
///
/// `head` and `tail` are *absolute* monotonically increasing positions
/// (masked into the slot array on access), which is what makes cursor
/// readers possible: a reader remembers the next absolute position it
/// has not yet seen, and `head` is simply the reclaim frontier — the
/// position below which slots may be reused by the producer.
struct Ring {
    slots: Box<[UnsafeCell<MaybeUninit<TraceEvent>>]>,
    mask: usize,
    head: AtomicUsize,
    tail: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: the slots hold `TraceEvent`s, which are plain `Copy` data that
// any thread may own.
unsafe impl Send for Ring {}
// SAFETY: a slot is written only by the ring's one producer, and only
// outside `head..tail`; it is read only by the one consumer (callers hold
// the collector lock), and only inside `head..tail`. The Release store
// that moves `tail` past a write, and the one that moves `head` past a
// read, hand the slot from one side to the other, so no slot is written
// and read at once. `TraceEvent` is `Copy`: a read never sees a
// half-dropped value.
unsafe impl Sync for Ring {}

impl Ring {
    fn with_capacity(capacity: usize) -> Ring {
        let capacity = capacity.max(2).next_power_of_two();
        Ring {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: capacity - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Producer side: append or drop-and-count.
    #[inline]
    fn push(&self, ev: TraceEvent) {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > self.mask {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: this is the one producer, and `tail` is outside
        // `head..tail` with room to spare (checked above against the
        // Acquire load of `head`, which the consumer moves past a slot
        // only after reading it), so no reader touches the slot.
        unsafe { (*self.slots[tail & self.mask].get()).write(ev) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
    }

    /// Consumer side (callers hold the collector lock).
    fn pop(&self) -> Option<TraceEvent> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: this is the one consumer and `head < tail`: the
        // producer wrote the slot before its Release store of `tail`,
        // which the Acquire load above saw, and will not rewrite it until
        // `head` moves past it.
        let ev = unsafe { (*self.slots[head & self.mask].get()).assume_init_read() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(ev)
    }

    /// Non-destructive read of absolute position `pos`. Caller holds the
    /// collector lock and has checked `head <= pos < tail`: the producer
    /// never rewrites a slot in that range (push refuses when the ring is
    /// full rather than overwrite), and `head` only moves under the same
    /// lock, so the slot is stable for the duration of the read.
    fn read_at(&self, pos: usize) -> TraceEvent {
        // SAFETY: the caller's contract above: the slot is initialised and
        // stable for the read.
        unsafe { (*self.slots[pos & self.mask].get()).assume_init_read() }
    }
}

/// Off-worker events with an absolute base index, so cursor readers can
/// address the side buffer the same way they address the rings.
#[derive(Default)]
struct SharedBuf {
    events: VecDeque<TraceEvent>,
    /// Absolute position of `events[0]`: `base` events have already been
    /// reclaimed (drained or passed by every reader).
    base: usize,
}

/// One registered reader's cursor state. Lives inside the `collect`
/// mutex so every consumer — readers and the destructive drain — is
/// serialized and the rings stay single-consumer.
struct ReaderCursors {
    id: u64,
    /// Next absolute position to read, one cursor per worker ring.
    rings: Vec<usize>,
    /// Next absolute side-buffer position to read.
    shared: usize,
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

/// The runtime's event recorder: one ring per worker plus the shared side
/// buffer. Lives behind `Option<Arc<_>>` in the runtime — `None` is the
/// entire cost of disabled tracing.
pub(crate) struct Tracer {
    rings: Box<[CachePadded<Ring>]>,
    /// Off-worker events (injections, deliveries, unparks).
    shared: Mutex<SharedBuf>,
    shared_capacity: usize,
    shared_dropped: AtomicU64,
    /// Serializes consumers (readers and the destructive drain) so the
    /// rings stay single-consumer, and registers the readers' cursors.
    collect: Mutex<ReaderSet>,
    epoch: Instant,
}

impl Tracer {
    /// Creates a tracer for `workers` rings of (at least) `capacity`
    /// events each.
    pub fn new(workers: usize, capacity: usize) -> Tracer {
        Tracer {
            rings: (0..workers)
                .map(|_| CachePadded::new(Ring::with_capacity(capacity)))
                .collect(),
            shared: Mutex::new(SharedBuf::default()),
            shared_capacity: capacity.max(2).next_power_of_two(),
            shared_dropped: AtomicU64::new(0),
            collect: Mutex::new(ReaderSet::default()),
            epoch: Instant::now(),
        }
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
    /// (or [`NONE_ID`]). Goes to the mutex-protected side buffer.
    pub fn record_shared(&self, worker: u32, kind: EventKind) {
        let ev = TraceEvent {
            ts: self.now(),
            worker,
            kind,
        };
        let mut buf = self.shared.lock();
        if buf.events.len() >= self.shared_capacity {
            self.shared_dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            buf.events.push_back(ev);
        }
    }

    /// Total events lost to producer-side overflow (ring full, side
    /// buffer full) over the tracer's lifetime.
    pub fn dropped_total(&self) -> u64 {
        let mut d = self.shared_dropped.load(Ordering::Relaxed);
        for ring in self.rings.iter() {
            d += ring.dropped.load(Ordering::Relaxed);
        }
        d
    }

    /// Drains every ring and the side buffer into a [`Trace`] snapshot,
    /// sorted by timestamp. Events recorded concurrently with the drain
    /// land in the next snapshot. Destructive: registered readers that
    /// had not yet seen the drained events count them as missed on their
    /// next poll.
    pub fn drain(&self) -> Trace {
        let _guard = self.collect.lock();
        let mut events = Vec::new();
        for ring in self.rings.iter() {
            while let Some(ev) = ring.pop() {
                events.push(ev);
            }
        }
        {
            let mut buf = self.shared.lock();
            let n = buf.events.len();
            events.extend(buf.events.drain(..));
            buf.base += n;
        }
        events.sort_by_key(|e| e.ts);
        Trace {
            events,
            dropped: self.dropped_total(),
            workers: self.rings.len(),
        }
    }

    /// Registers a new incremental reader. Its cursors start at the
    /// current reclaim frontier: everything not yet consumed is visible,
    /// nothing is delivered twice.
    pub fn new_reader(self: &Arc<Self>) -> TraceReader {
        let mut set = self.collect.lock();
        let id = set.next_id;
        set.next_id += 1;
        set.readers.push(ReaderCursors {
            id,
            rings: self
                .rings
                .iter()
                .map(|r| r.head.load(Ordering::Acquire))
                .collect(),
            shared: self.shared.lock().base,
            dropped_seen: self.dropped_total(),
        });
        drop(set);
        TraceReader {
            tracer: self.clone(),
            id,
        }
    }

    /// One non-destructive poll for reader `id`: reads every ring and the
    /// side buffer up to their current tails, advances the reader's
    /// cursors, then reclaims slots behind the slowest reader.
    fn poll_reader(&self, id: u64) -> TraceBatch {
        let mut set = self.collect.lock();
        let idx = set
            .readers
            .iter()
            .position(|r| r.id == id)
            .expect("reader is registered until dropped");
        let mut events = Vec::new();
        let mut missed = 0u64;
        for (r, ring) in self.rings.iter().enumerate() {
            let head = ring.head.load(Ordering::Acquire);
            let tail = ring.tail.load(Ordering::Acquire);
            let cur = &mut set.readers[idx].rings[r];
            if *cur < head {
                // Another consumer (a drain, or reclaim on behalf of a
                // faster co-reader that has since unregistered) freed
                // events this reader never saw.
                missed += (head - *cur) as u64;
                *cur = head;
            }
            while *cur < tail {
                events.push(ring.read_at(*cur));
                *cur += 1;
            }
        }
        {
            let buf = self.shared.lock();
            let cur = &mut set.readers[idx].shared;
            if *cur < buf.base {
                missed += (buf.base - *cur) as u64;
                *cur = buf.base;
            }
            while *cur < buf.base + buf.events.len() {
                events.push(buf.events[*cur - buf.base]);
                *cur += 1;
            }
        }
        let total = self.dropped_total();
        let dropped = total.saturating_sub(set.readers[idx].dropped_seen);
        set.readers[idx].dropped_seen = total;
        self.reclaim(&set);
        events.sort_by_key(|e| e.ts);
        TraceBatch {
            events,
            dropped,
            missed,
            workers: self.rings.len(),
        }
    }

    /// Overflow total already surfaced to reader `id` through its poll
    /// deltas (the baseline for folding a final destructive drain into an
    /// incremental consumer without double-counting drops).
    fn reader_dropped_seen(&self, id: u64) -> u64 {
        self.collect
            .lock()
            .readers
            .iter()
            .find(|r| r.id == id)
            .map_or(0, |r| r.dropped_seen)
    }

    /// Advances each ring's head (and the side buffer's base) to the
    /// slowest registered reader's cursor, freeing the slots every reader
    /// has passed. With no readers the frontier is left alone — only the
    /// destructive drain consumes then.
    fn reclaim(&self, set: &ReaderSet) {
        if set.readers.is_empty() {
            return;
        }
        for (r, ring) in self.rings.iter().enumerate() {
            let min = set.readers.iter().map(|c| c.rings[r]).min().unwrap();
            if min > ring.head.load(Ordering::Relaxed) {
                ring.head.store(min, Ordering::Release);
            }
        }
        let min = set.readers.iter().map(|c| c.shared).min().unwrap();
        let mut buf = self.shared.lock();
        while buf.base < min && buf.events.pop_front().is_some() {
            buf.base += 1;
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
/// recorded since the previous call (across all rings and the side
/// buffer, timestamp-sorted), concurrently with producers — no event is
/// ever returned twice to the same reader, and multiple readers on the
/// same runtime each get an independent cursor. Slots are only reclaimed
/// once every registered reader has passed them, so a second reader costs
/// ring capacity, not correctness.
///
/// Loss is accounted, never silent: [`TraceBatch::dropped`] reports
/// producer-side ring overflow since the last poll (raise
/// [`Config::trace_capacity`](crate::Config::trace_capacity) or poll more
/// often), and [`TraceBatch::missed`] reports events another consumer (a
/// destructive drain) freed before this reader saw them.
pub struct TraceReader {
    tracer: Arc<Tracer>,
    id: u64,
}

impl fmt::Debug for TraceReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceReader")
            .field("id", &self.id)
            .field("workers", &self.tracer.rings.len())
            .finish()
    }
}

impl TraceReader {
    /// Polls every ring and the side buffer for events recorded since the
    /// last poll. Non-destructive with respect to other readers; each
    /// batch is a consistent cut (every ring read up to its tail at poll
    /// time), sorted by timestamp.
    pub fn poll_events(&mut self) -> TraceBatch {
        self.tracer.poll_reader(self.id)
    }

    /// Number of worker rings this reader covers.
    pub fn workers(&self) -> usize {
        self.tracer.rings.len()
    }

    /// Producer-side overflow total already surfaced through this
    /// reader's poll deltas.
    pub(crate) fn dropped_seen(&self) -> u64 {
        self.tracer.reader_dropped_seen(self.id)
    }
}

impl Drop for TraceReader {
    fn drop(&mut self) {
        self.tracer.drop_reader(self.id);
    }
}

/// One [`TraceReader::poll_events`] result: the events recorded since the
/// previous poll, plus per-reader loss accounting.
#[derive(Debug, Clone, Default)]
pub struct TraceBatch {
    /// Events recorded since the last poll, sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Events lost to producer-side ring overflow since the last poll
    /// (recorded nowhere; raise the trace capacity or poll faster).
    pub dropped: u64,
    /// Events another consumer (a destructive drain) reclaimed before
    /// this reader saw them — they exist in that consumer's snapshot,
    /// just not in this reader's stream.
    pub missed: u64,
    /// Number of worker rings polled.
    pub workers: usize,
}

impl TraceBatch {
    /// True when the poll returned nothing and lost nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0 && self.missed == 0
    }

    /// Converts the batch into a standalone [`Trace`]. Both loss kinds
    /// fold into [`Trace::dropped`]: from this batch's point of view a
    /// missed event is as gone as an overflowed one, and the auditor must
    /// treat the trace as incomplete either way.
    pub fn into_trace(self) -> Trace {
        Trace {
            events: self.events,
            dropped: self.dropped + self.missed,
            workers: self.workers,
        }
    }
}

/// A drained snapshot of the runtime's event history.
///
/// Obtained from [`Runtime::shutdown`](crate::Runtime::shutdown) (complete
/// and quiescent) or from [`TraceBatch::into_trace`] (one incremental
/// reader poll).
#[derive(Debug, Clone)]
pub struct Trace {
    /// All recorded events, sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow (raise
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

    #[test]
    fn ring_roundtrip_in_order() {
        let r = Ring::with_capacity(8);
        for i in 0..5 {
            r.push(ev(i, EventKind::Park));
        }
        for i in 0..5 {
            assert_eq!(r.pop().unwrap().ts, i);
        }
        assert!(r.pop().is_none());
    }

    #[test]
    fn ring_drops_newest_when_full() {
        let r = Ring::with_capacity(4); // rounded to 4
        for i in 0..6 {
            r.push(ev(i, EventKind::Park));
        }
        assert_eq!(r.dropped.load(Ordering::Relaxed), 2);
        // The *oldest* events survive.
        let got: Vec<u64> = std::iter::from_fn(|| r.pop()).map(|e| e.ts).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ring_wraps_after_drain() {
        let r = Ring::with_capacity(4);
        for round in 0..10u64 {
            r.push(ev(round, EventKind::Park));
            assert_eq!(r.pop().unwrap().ts, round);
        }
        assert_eq!(r.dropped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn ring_spsc_concurrent() {
        let r = std::sync::Arc::new(Ring::with_capacity(1 << 12));
        let n = 100_000u64;
        let producer = {
            let r = r.clone();
            std::thread::spawn(move || {
                for i in 0..n {
                    r.push(ev(i, EventKind::Park));
                }
            })
        };
        let mut last = None;
        let mut got = 0u64;
        while got < n {
            if let Some(e) = r.pop() {
                // Order is preserved even if overflow dropped some.
                if let Some(prev) = last {
                    assert!(e.ts > prev);
                }
                last = Some(e.ts);
                got += 1;
            }
            if got + r.dropped.load(Ordering::Relaxed) >= n && r.pop().is_none() {
                break;
            }
        }
        producer.join().unwrap();
        while r.pop().is_some() {
            got += 1;
        }
        assert_eq!(got + r.dropped.load(Ordering::Relaxed), n);
    }

    #[test]
    fn tracer_drain_merges_and_sorts() {
        let t = Tracer::new(2, 64);
        t.record(1, EventKind::Park);
        t.record(0, EventKind::Park);
        t.record_shared(NONE_ID, EventKind::Inject);
        let trace = t.drain();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.workers, 2);
        assert!(trace.events.windows(2).all(|w| w[0].ts <= w[1].ts));
        // Second drain starts empty.
        assert!(t.drain().events.is_empty());
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
        assert_eq!((b.dropped, b.missed), (0, 0));
        assert!(r.poll_events().is_empty());
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
        // Burst past capacity without polling: 4 stored, 6 dropped.
        for _ in 0..10 {
            t.record(0, EventKind::Park);
        }
        let b = r.poll_events();
        assert_eq!(b.events.len(), 4);
        assert_eq!(b.dropped, 6);
        assert_eq!(b.missed, 0);
        // events + dropped account for every push — nothing silent.
        assert_eq!(b.events.len() as u64 + b.dropped, 10);
        // The delta was consumed; the next poll reports no new drops.
        assert!(r.poll_events().is_empty());
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
    fn drain_past_reader_counts_missed() {
        let t = std::sync::Arc::new(Tracer::new(1, 64));
        let mut r = t.new_reader();
        t.record(0, EventKind::Park);
        t.record(0, EventKind::Park);
        t.record_shared(NONE_ID, EventKind::Inject);
        // A destructive drain consumes events the reader never saw.
        assert_eq!(t.drain().events.len(), 3);
        let b = r.poll_events();
        assert!(b.events.is_empty());
        assert_eq!(b.missed, 3);
        // Fresh events flow to the reader again afterwards.
        t.record(0, EventKind::Park);
        assert_eq!(r.poll_events().events.len(), 1);
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
            assert_eq!(b.missed, 0);
        }
        producer.join().unwrap();
        let tail = r.poll_events();
        assert_eq!(seen + tail.events.len() as u64 + dropped + tail.dropped, n);
    }

    #[test]
    fn batch_into_trace_folds_loss() {
        let t = std::sync::Arc::new(Tracer::new(1, 4));
        let mut r = t.new_reader();
        for _ in 0..6 {
            t.record(0, EventKind::Park);
        }
        let trace = r.poll_events().into_trace();
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.dropped, 2);
        assert_eq!(trace.workers, 1);
    }
}
