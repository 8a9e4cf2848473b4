//! The per-ring storage of the trace plane: a fixed-capacity,
//! single-producer ring read by cursor, never consumed in place.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use super::TraceEvent;

/// Fixed-capacity SPSC ring. The producer writes `tail`; `head` is the
/// reclaim frontier, moved only by `Tracer::reclaim`. Full ring ⇒ the
/// new event is dropped and counted, never overwriting history.
///
/// `head` and `tail` are *absolute* monotonically increasing positions
/// (masked into the slot array on access), which is what makes cursor
/// readers possible: a reader remembers the next absolute position it
/// has not yet seen, and `head` is the position below which slots may be
/// reused by the producer.
pub(super) struct Ring {
    slots: Box<[UnsafeCell<MaybeUninit<TraceEvent>>]>,
    mask: usize,
    pub(super) head: AtomicUsize,
    tail: AtomicUsize,
    pub(super) dropped: AtomicU64,
}

// SAFETY: the slots hold `TraceEvent`s, which are plain `Copy` data that
// any thread may own.
unsafe impl Send for Ring {}
// SAFETY: a slot is written only by the ring's one producer (a worker, or
// whoever holds the side-ring lock), and only outside `head..tail`; it is
// read only under the collector lock, and only inside `head..tail`. The
// Release store that moves `tail` past a write, and the one that moves
// `head` past every reader, hand the slot from one side to the other, so
// no slot is written and read at once. `TraceEvent` is `Copy`: a read
// never sees a half-dropped value.
unsafe impl Sync for Ring {}

impl Ring {
    pub(super) fn with_capacity(capacity: usize) -> Ring {
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
    pub(super) fn push(&self, ev: TraceEvent) {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > self.mask {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: this is the one producer, and `tail` is outside
        // `head..tail` with room to spare (checked above against the
        // Acquire load of `head`, which moves past a slot only once every
        // reader has read it), so no reader touches the slot.
        unsafe { (*self.slots[tail & self.mask].get()).write(ev) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
    }

    /// Appends the events at absolute positions `from..tail` to `out` and
    /// returns `tail`. Consumes nothing. Callers hold the collector lock,
    /// under which alone `head` moves, and pass `from >= head`.
    pub(super) fn read_to_tail(&self, from: usize, out: &mut Vec<TraceEvent>) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        for pos in from..tail {
            // SAFETY: `head <= pos < tail`: the producer wrote the slot
            // before its Release store of `tail`, which the Acquire load
            // above saw, and never rewrites a slot in `head..tail` (push
            // refuses when the ring is full); `head` cannot move during
            // the read, since the caller holds the collector lock.
            out.push(unsafe { (*self.slots[pos & self.mask].get()).assume_init_read() });
        }
        tail
    }
}
