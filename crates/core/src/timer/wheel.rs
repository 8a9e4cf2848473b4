//! Hierarchical timer wheel — one worker's shard of the runtime's timer.
//!
//! # Why a wheel
//!
//! Under latency-hiding work stealing every suspension registers a timer,
//! so with P workers each suspending at rate λ the timers see P·λ
//! insertions per second. A binary heap behind one mutex serializes all of
//! them and pays O(log n) per insert; at P ≥ 8 the lock is the bottleneck
//! of the whole suspend path (1.21–2.43× slower, EXPERIMENTS.md "Retired
//! arms"). The wheel removes both costs:
//!
//! * **One shard per worker, owned by it** — a worker's shard lives in its
//!   thread-local state, and only that worker inserts, fires and cancels,
//!   so the shard needs no lock at all.
//! * **Hashed hierarchical slots** — the shard keeps [`LEVELS`] rings of
//!   [`SLOTS`] slots. Level `l` slots are `64^l` ticks wide; an entry
//!   lands in the lowest level whose span covers its remaining delay, and
//!   cascades one level down each time its slot's boundary passes.
//!   Insertion is O(1): compute the level from the delta, push onto a
//!   `Vec`.
//! * **Batched expiry** — [`Wheel::advance`] hands back everything due by
//!   a tick in one list, in expiry order and registration order within a
//!   tick, so the worker resumes a burst as one batch.
//!
//! Deadlines are rounded **up** to the next [`TICK`] boundary; an entry
//! never fires early, and fires at most one tick late plus however long
//! its owner takes to reach its next drain.

use std::time::{Duration, Instant};

use super::{DeadlineCallback, ResumeEvent};

/// Tick granularity. Deadlines are rounded up to the next tick boundary,
/// so this bounds resume slop and is the window within which expiries
/// fire together. A constant, not a knob: nothing outside the wheel's own
/// tests ever set it.
const TICK: Duration = Duration::from_micros(50);
/// Slots per level. 64 keeps slot indexing a mask and shift.
const SLOTS: usize = 64;
/// Wheel levels. Four levels cover `64^4` ticks (≈ 14 days at the 50µs
/// tick); later deadlines sit in an overflow list.
const LEVELS: usize = 4;
/// log2(SLOTS), for shift-based slot math.
const SLOT_BITS: u32 = 6;

/// What a wheel slot holds.
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

/// An entry resident in the wheel, its deadline quantized to an absolute
/// tick.
pub(crate) struct Pending {
    /// Absolute expiry tick (deadline rounded up).
    expiry: u64,
    pub payload: Payload,
}

/// Width of a level-`l` slot, in ticks.
#[inline]
fn slot_width(level: usize) -> u64 {
    1u64 << (SLOT_BITS * level as u32)
}

/// Ticks covered by all of level `l` (64 slots).
#[inline]
fn level_span(level: usize) -> u64 {
    1u64 << (SLOT_BITS * (level as u32 + 1))
}

/// One worker's timer shard.
pub(crate) struct Wheel {
    /// `slots[level][slot]` — entries awaiting that slot's turn.
    slots: Vec<Vec<Vec<Pending>>>,
    /// Entries beyond the top level's span.
    overflow: Vec<Pending>,
    /// All ticks ≤ `current` have been drained.
    current: u64,
    /// Entries resident (slots + overflow).
    count: usize,
    /// Tick 0.
    origin: Instant,
}

impl Wheel {
    pub fn new() -> Wheel {
        Wheel::with_origin(Instant::now())
    }

    fn with_origin(origin: Instant) -> Wheel {
        Wheel {
            slots: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            overflow: Vec::new(),
            current: 0,
            count: 0,
            origin,
        }
    }

    /// True when nothing is resident: the owner's drain skips the clock.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
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

    /// Files `payload` to fire at `deadline`. An insert into an empty
    /// wheel first catches the cursor up to now in O(1), so the next
    /// [`advance`](Self::advance) does not step through the idle gap.
    pub fn insert(&mut self, deadline: Instant, payload: Payload) {
        if self.count == 0 {
            self.current = self.current.max(self.now_tick());
        }
        self.file(self.expiry_tick(deadline), payload);
    }

    /// Files `payload` at tick `expiry`, clamped to the next tick so a
    /// past deadline still fires through [`advance`](Self::advance).
    fn file(&mut self, expiry: u64, payload: Payload) {
        let p = Pending {
            expiry: expiry.max(self.current + 1),
            payload,
        };
        let mut due = Vec::new();
        self.place(p, &mut due);
        debug_assert!(due.is_empty(), "clamped expiry cannot be due");
        self.count += 1;
    }

    /// Moves the cursor to tick `now`, appending every entry due by then
    /// to `due`: in expiry order, and in registration order within a
    /// tick. Once the wheel runs empty the rest of the gap is skipped.
    pub fn advance(&mut self, now: u64, due: &mut Vec<Pending>) {
        while self.current < now {
            if self.count == 0 {
                self.current = now;
                break;
            }
            self.current += 1;
            self.step(due);
        }
    }

    /// When the next entry can fire, or `None` when the wheel is empty.
    /// Conservative — a cascade boundary counts — so a worker that parks
    /// until then may wake early, but never late.
    pub fn next_deadline(&self) -> Option<Instant> {
        let tick = self.next_event_tick()?;
        let nanos = (TICK.as_nanos() as u64).saturating_mul(tick);
        Some(self.origin + Duration::from_nanos(nanos))
    }

    /// Removes every resident entry (the owner is exiting).
    pub fn drain_all(&mut self) -> Vec<Pending> {
        let mut out = Vec::with_capacity(self.count);
        for level in &mut self.slots {
            for slot in level {
                out.append(slot);
            }
        }
        out.append(&mut self.overflow);
        self.count = 0;
        out
    }

    /// Files `p` into the lowest level covering its remaining delay, or
    /// `due` if it has already expired. Does not touch `count`.
    fn place(&mut self, p: Pending, due: &mut Vec<Pending>) {
        if p.expiry <= self.current {
            due.push(p);
            return;
        }
        let delta = p.expiry - self.current;
        for level in 0..LEVELS {
            if delta < level_span(level) {
                let slot = ((p.expiry >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
                self.slots[level][slot].push(p);
                return;
            }
        }
        self.overflow.push(p);
    }

    /// Processes tick `current`: cascades any slot whose boundary it
    /// crosses, then drains the level-0 slot into `due`.
    fn step(&mut self, due: &mut Vec<Pending>) {
        let due_before = due.len();
        let c = self.current;
        if c.is_multiple_of(slot_width(LEVELS - 1)) && !self.overflow.is_empty() {
            let overflow = std::mem::take(&mut self.overflow);
            for p in overflow {
                self.place(p, due);
            }
        }
        for level in (1..LEVELS).rev() {
            if c.is_multiple_of(slot_width(level)) {
                let slot = ((c >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
                let entries = std::mem::take(&mut self.slots[level][slot]);
                for p in entries {
                    self.place(p, due);
                }
            }
        }
        let slot = (c & (SLOTS as u64 - 1)) as usize;
        if !self.slots[0][slot].is_empty() {
            for p in self.slots[0][slot].drain(..) {
                debug_assert_eq!(p.expiry, c, "level-0 slot holds a foreign tick");
                due.push(p);
            }
        }
        let drained = due.len() - due_before;
        self.count -= drained.min(self.count);
    }

    /// Earliest tick at which something can happen: a level-0 expiry, a
    /// higher-level cascade, or an overflow re-scan. `None` = empty.
    fn next_event_tick(&self) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let mut best: Option<u64> = None;
        for level in 0..LEVELS {
            let pos = self.current >> (SLOT_BITS * level as u32);
            for j in 1..=SLOTS as u64 {
                let candidate = (pos + j) << (SLOT_BITS * level as u32);
                if best.is_some_and(|b| candidate >= b) {
                    break;
                }
                if !self.slots[level][((pos + j) & (SLOTS as u64 - 1)) as usize].is_empty() {
                    best = Some(candidate);
                    break;
                }
            }
        }
        if !self.overflow.is_empty() {
            let width = slot_width(LEVELS - 1);
            let candidate = (self.current / width + 1) * width;
            if best.is_none_or(|b| candidate < b) {
                best = Some(candidate);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    //! Deterministic: every test drives [`Wheel::advance`] with synthetic
    //! ticks (or pins the wheel's origin), never a sleep.

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
        let mut w = Wheel::new();
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
        // Synthetic: a tick already behind the cursor clamps to the next.
        let mut w = Wheel::new();
        let mut due = Vec::new();
        w.advance(50, &mut due);
        w.file(5, resume(7));
        w.advance(50, &mut due);
        assert!(due.is_empty(), "fired inside the registering drain");
        w.advance(51, &mut due);
        assert_eq!(ids(&due), [7]);

        // Through the clock: a deadline in the past fires one tick on.
        let mut w = Wheel::new();
        w.insert(Instant::now() - Duration::from_millis(5), resume(8));
        let now = w.current;
        w.advance(now + 1, &mut due);
        assert_eq!(ids(&due), [7, 8]);
    }

    #[test]
    fn same_tick_same_worker_is_one_batch() {
        // Everything due on one tick comes back from one advance, in
        // registration order.
        let mut w = Wheel::new();
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
        // tick, across cascades: expiries up to ~12 000 ticks out reach
        // level 2, and inserts land between uneven runs of ticks.
        let mut rng = SplitMix64::new(0x57EE1);
        let mut w = Wheel::new();
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
        let mut w = Wheel::with_origin(origin);
        w.insert(origin + TICK * 800 + Duration::from_nanos(1), resume(0));
        let mut due = Vec::new();
        w.advance(800, &mut due);
        assert!(due.is_empty(), "fired before its deadline");
        w.advance(801, &mut due);
        assert_eq!(ids(&due), [0]);
    }

    #[test]
    fn deadline_callbacks_fire_and_cancel() {
        let mut w = Wheel::new();
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
        // One entry per level and one in overflow: drain_all finds all.
        let mut w = Wheel::new();
        let far = [5, 100, 5_000, 300_000, level_span(LEVELS - 1) + 5, 7];
        for (i, &t) in far.iter().enumerate() {
            w.file(t, resume(i));
        }
        assert_eq!(w.overflow.len(), 1);
        let mut drained = ids(&w.drain_all());
        drained.sort_unstable();
        assert_eq!(drained, (0..far.len()).collect::<Vec<_>>());
        assert!(w.is_empty());
        assert_eq!(w.next_deadline(), None);
        let mut due = Vec::new();
        w.advance(level_span(LEVELS), &mut due);
        assert!(due.is_empty());
    }

    #[test]
    fn insert_after_idle_gap_fires_within_two_steps() {
        // A wheel idle for 10 s: the insert catches the cursor up in
        // O(1), so its entry is at most two steps away instead of
        // 200 000.
        let gap = Duration::from_secs(10);
        let mut w = Wheel::with_origin(Instant::now() - gap);
        w.insert(Instant::now() + TICK, resume(1));
        let start = w.current;
        assert!(
            start >= (gap.as_nanos() / TICK.as_nanos()) as u64,
            "cursor left behind at {start}"
        );
        let mut due = Vec::new();
        w.advance(start + 2, &mut due);
        assert_eq!(ids(&due), [1]);
    }

    #[test]
    fn state_places_and_cascades() {
        // An entry 100 ticks out lands in level 1, cascades to level 0 at
        // the 64-tick boundary, and expires exactly at its tick.
        let mut w = Wheel::new();
        w.file(100, resume(9));
        assert_eq!(w.next_event_tick(), Some(64)); // level-1 cascade boundary
        let mut due = Vec::new();
        for t in 1..100 {
            w.advance(t, &mut due);
            assert!(due.is_empty(), "fired early at tick {t}");
        }
        w.advance(100, &mut due);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].expiry, 100);
        assert!(w.is_empty());
        assert_eq!(w.next_event_tick(), None);
    }

    #[test]
    fn state_overflow_reenters_wheel() {
        let mut w = Wheel::new();
        let far = level_span(LEVELS - 1) + 5; // beyond the top level's span
        w.file(far, resume(0));
        assert_eq!(w.overflow.len(), 1);
        // Jump near the overflow rescan boundary and step across it.
        let width = slot_width(LEVELS - 1);
        let mut due = Vec::new();
        w.current = width - 2;
        w.advance(width - 1, &mut due); // not a boundary; overflow untouched
        assert_eq!(w.overflow.len(), 1);
        w.advance(width, &mut due); // rescan boundary
        assert!(w.overflow.is_empty(), "overflow entry not refiled");
        assert!(due.is_empty());
        assert_eq!(w.count, 1);
    }
}
