//! Sharded hierarchical timer wheel — the runtime's timer.
//!
//! # Why a wheel
//!
//! Under latency-hiding work stealing every suspension registers a timer,
//! so with P workers each suspending at rate λ the timer sees P·λ
//! insertions per second. A binary heap behind one mutex serializes all of
//! them and pays O(log n) per insert; at P ≥ 8 the lock is the bottleneck
//! of the whole suspend path (1.21–2.43× slower, EXPERIMENTS.md "Retired
//! arms"). The wheel removes both costs:
//!
//! * **Sharding** — the wheel is split into `nshards` independent shards
//!   (the runtime uses one per worker). An insertion locks only the shard
//!   of the suspending worker (`worker % nshards`), so a worker's
//!   insertions contend only with the expiration thread of its own shard,
//!   never with other workers.
//! * **Hashed hierarchical slots** — each shard keeps [`LEVELS`] rings of
//!   [`SLOTS`] slots. Level `l` slots are `64^l` ticks wide; an entry
//!   lands in the lowest level whose span covers its remaining delay, and
//!   cascades one level down each time its slot's boundary passes.
//!   Insertion is O(1): compute the level from the delta, push onto a
//!   `Vec`.
//! * **Batched expiry** — all entries expiring at the same tick for the
//!   same worker are delivered as **one** [`ResumeSink::deliver_batch`]
//!   call (chunked by `batch_limit`), so a burst of resumes costs the
//!   worker one inbox transfer and at most one unpark, and the worker can
//!   reinject the whole burst through a single pfor tree. The tick
//!   duration is therefore also the batching window.
//!
//! Deadlines are rounded **up** to the next tick boundary; an entry never
//! fires early, and fires at most one tick late plus scheduling noise.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use super::{DeadlineCallback, ResumeEvent, ResumeSink, TimerEntry};
use crate::task::TaskRef;

/// Slots per level. 64 keeps slot indexing a mask and shift.
const SLOTS: usize = 64;
/// Wheel levels. Four levels cover `64^4` ticks (≈ 14 days at the default
/// 50µs tick); later deadlines sit in a per-shard overflow list.
const LEVELS: usize = 4;
/// log2(SLOTS), for shift-based slot math.
const SLOT_BITS: u32 = 6;

/// Pseudo-worker index for deadline-callback entries. Sorts after every
/// real worker in [`WheelTimer::deliver`], so callbacks never interleave
/// with (or batch into) resume deliveries.
const DEADLINE_WORKER: usize = usize::MAX;

/// What a wheel slot holds: a latency expiration to deliver through the
/// resume sink, or a deadline callback to invoke directly.
enum Payload {
    Resume {
        task: TaskRef,
        local_deque: usize,
        /// Trace suspension id, carried through to the [`ResumeEvent`].
        seq: u64,
        /// Worker incarnation at registration, carried through to the
        /// [`ResumeEvent`].
        epoch: u64,
    },
    Deadline(DeadlineCallback),
}

/// An entry resident in the wheel, its deadline quantized to an absolute
/// tick.
struct Pending {
    /// Absolute expiry tick (deadline rounded up).
    expiry: u64,
    /// Owning worker, or [`DEADLINE_WORKER`] for callbacks.
    worker: usize,
    payload: Payload,
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

struct ShardState {
    /// `wheel[level][slot]` — entries awaiting that slot's turn.
    wheel: Vec<Vec<Vec<Pending>>>,
    /// Entries beyond the top level's span.
    overflow: Vec<Pending>,
    /// All ticks ≤ `current` have been drained.
    current: u64,
    /// Entries resident in this shard (wheel + overflow).
    count: usize,
    /// Tick the shard thread is sleeping until (`u64::MAX` = indefinite,
    /// `0` = awake). Registrations earlier than this must notify.
    wake_at: u64,
    shutdown: bool,
}

impl ShardState {
    fn new(start_tick: u64) -> Self {
        ShardState {
            wheel: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            overflow: Vec::new(),
            current: start_tick,
            count: 0,
            wake_at: 0,
            shutdown: false,
        }
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
                self.wheel[level][slot].push(p);
                return;
            }
        }
        self.overflow.push(p);
    }

    /// Advances one tick: cascades any slot whose boundary this tick
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
                let entries = std::mem::take(&mut self.wheel[level][slot]);
                for p in entries {
                    self.place(p, due);
                }
            }
        }
        let slot = (c & (SLOTS as u64 - 1)) as usize;
        if !self.wheel[0][slot].is_empty() {
            for p in self.wheel[0][slot].drain(..) {
                debug_assert_eq!(p.expiry, c, "level-0 slot holds a foreign tick");
                due.push(p);
            }
        }
        let drained = due.len() - due_before;
        self.count -= drained.min(self.count);
    }

    /// Earliest tick at which something can happen: a level-0 expiry, a
    /// higher-level cascade, or an overflow re-scan. Conservative (may be
    /// early — the thread just recomputes), never late. `None` = empty.
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
                if !self.wheel[level][((pos + j) & (SLOTS as u64 - 1)) as usize].is_empty() {
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

    /// Removes every resident entry (used at shutdown so pending resumes
    /// can be counted and deadline callbacks canceled).
    fn drain_all(&mut self) -> Vec<Pending> {
        let mut out = Vec::with_capacity(self.count);
        for level in &mut self.wheel {
            for slot in level {
                out.append(slot);
            }
        }
        out.append(&mut self.overflow);
        self.count = 0;
        out
    }
}

struct Shard {
    state: Mutex<ShardState>,
    cond: Condvar,
}

/// Sharded hierarchical timer wheel.
pub(crate) struct WheelTimer {
    shards: Box<[Shard]>,
    tick: Duration,
    origin: Instant,
    batch_limit: usize,
    /// Entries canceled by (or registered after) shutdown.
    canceled: AtomicU64,
    /// Round-robin cursor spreading deadline callbacks across shards.
    deadline_rr: AtomicUsize,
}

impl WheelTimer {
    /// Creates a wheel with `nshards` shards and spawns one expiration
    /// thread per shard, delivering into `sink`.
    pub fn start(
        nshards: usize,
        tick: Duration,
        batch_limit: usize,
        sink: Arc<dyn ResumeSink>,
    ) -> (Arc<WheelTimer>, Vec<JoinHandle<()>>) {
        let nshards = nshards.max(1);
        let tick = tick.max(Duration::from_micros(1));
        let timer = Arc::new(WheelTimer {
            shards: (0..nshards)
                .map(|_| Shard {
                    state: Mutex::new(ShardState::new(0)),
                    cond: Condvar::new(),
                })
                .collect(),
            tick,
            origin: Instant::now(),
            batch_limit: batch_limit.max(1),
            canceled: AtomicU64::new(0),
            deadline_rr: AtomicUsize::new(0),
        });
        let handles = (0..nshards)
            .map(|i| {
                let t = timer.clone();
                let s = sink.clone();
                std::thread::Builder::new()
                    .name(format!("lhws-timer-{i}"))
                    .spawn(move || t.run(i, s))
                    .expect("spawn timer shard thread")
            })
            .collect();
        (timer, handles)
    }

    /// Current tick (floor): every expiry tick ≤ this is due.
    fn now_tick(&self) -> u64 {
        (self.origin.elapsed().as_nanos() / self.tick.as_nanos()) as u64
    }

    /// Deadline → absolute expiry tick, rounded up (never fires early).
    fn expiry_tick(&self, deadline: Instant) -> u64 {
        let delay = deadline.saturating_duration_since(self.origin).as_nanos();
        let tick = self.tick.as_nanos();
        (delay.div_ceil(tick)).min(u64::MAX as u128) as u64
    }

    /// Registers a latency expiration. Locks only the shard of the
    /// entry's worker.
    pub fn register(&self, entry: TimerEntry) {
        let shard = &self.shards[entry.worker % self.shards.len()];
        let expiry = self.expiry_tick(entry.deadline);
        let payload = Payload::Resume {
            task: entry.task,
            local_deque: entry.local_deque,
            seq: entry.seq,
            epoch: entry.epoch,
        };
        if self.insert(shard, expiry, entry.worker, payload).is_some() {
            // Runtime is dying; drop the entry with the task, but count it.
            self.canceled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Registers a deadline callback (`cb(true)` at expiry, `cb(false)`
    /// when shutdown wins). Callbacks are spread round-robin over shards.
    pub fn register_deadline(&self, deadline: Instant, cb: DeadlineCallback) {
        let idx = self.deadline_rr.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let expiry = self.expiry_tick(deadline);
        let rejected = self.insert(
            &self.shards[idx],
            expiry,
            DEADLINE_WORKER,
            Payload::Deadline(cb),
        );
        if let Some(Payload::Deadline(cb)) = rejected {
            self.canceled.fetch_add(1, Ordering::Relaxed);
            cb(false);
        }
    }

    /// Files a payload into `shard`, or hands it back if the shard is shut
    /// down (so cancellation runs without any shard lock held).
    fn insert(
        &self,
        shard: &Shard,
        expiry: u64,
        worker: usize,
        payload: Payload,
    ) -> Option<Payload> {
        let mut s = shard.state.lock();
        if s.shutdown {
            return Some(payload);
        }
        // Quantize past/immediate deadlines to the next tick so delivery
        // always flows through the shard thread (and batches with
        // neighbors).
        let expiry = expiry.max(s.current + 1);
        let p = Pending {
            expiry,
            worker,
            payload,
        };
        let mut due = Vec::new();
        s.place(p, &mut due);
        debug_assert!(due.is_empty(), "clamped expiry cannot be due");
        s.count += 1;
        let must_wake = expiry < s.wake_at;
        drop(s);
        if must_wake {
            shard.cond.notify_one();
        }
        None
    }

    /// Signals every shard thread to exit. Pending resume entries are
    /// dropped (counted); pending deadline callbacks fire with `false`,
    /// outside every shard lock.
    pub fn shutdown(&self) {
        let mut canceled_cbs = Vec::new();
        let mut dropped = 0u64;
        for shard in self.shards.iter() {
            let mut s = shard.state.lock();
            if !s.shutdown {
                s.shutdown = true;
                for p in s.drain_all() {
                    match p.payload {
                        Payload::Resume { .. } => dropped += 1,
                        Payload::Deadline(cb) => canceled_cbs.push(cb),
                    }
                }
            }
            drop(s);
            shard.cond.notify_one();
        }
        self.canceled
            .fetch_add(dropped + canceled_cbs.len() as u64, Ordering::Relaxed);
        for cb in canceled_cbs {
            cb(false);
        }
    }

    /// Entries canceled by shutdown (or registered after it).
    pub fn canceled_ops(&self) -> u64 {
        self.canceled.load(Ordering::Relaxed)
    }

    fn run(&self, index: usize, sink: Arc<dyn ResumeSink>) {
        let shard = &self.shards[index];
        let mut s = shard.state.lock();
        loop {
            if s.shutdown {
                return;
            }
            let now = self.now_tick();
            let mut due: Vec<Pending> = Vec::new();
            if s.count == 0 {
                // Nothing resident: skip the idle gap in O(1).
                s.current = s.current.max(now);
            } else {
                while s.current < now {
                    s.current += 1;
                    s.step(&mut due);
                }
            }
            if !due.is_empty() {
                // Deliver without holding the shard lock: the sink takes
                // inbox locks and unparks workers.
                drop(s);
                self.deliver(due, &sink);
                s = shard.state.lock();
                continue; // time advanced during delivery; re-check
            }
            match s.next_event_tick() {
                None => {
                    s.wake_at = u64::MAX;
                    shard.cond.wait(&mut s);
                }
                Some(wake) => {
                    s.wake_at = wake;
                    let nanos = (self.tick.as_nanos() as u64).saturating_mul(wake);
                    let deadline = self.origin + Duration::from_nanos(nanos);
                    shard.cond.wait_until(&mut s, deadline);
                }
            }
            s.wake_at = 0;
        }
    }

    /// Groups `due` by worker and delivers one batch per worker (chunked
    /// by `batch_limit`). The stable sort preserves per-worker expiry and
    /// registration order; deadline callbacks sort last
    /// ([`DEADLINE_WORKER`]) and fire one by one with `true`.
    fn deliver(&self, mut due: Vec<Pending>, sink: &Arc<dyn ResumeSink>) {
        due.sort_by_key(|p| p.worker);
        let mut rest = due.into_iter().peekable();
        while let Some(first) = rest.next() {
            let worker = first.worker;
            let tick = first.expiry;
            let (task, local_deque, seq, epoch) = match first.payload {
                Payload::Resume {
                    task,
                    local_deque,
                    seq,
                    epoch,
                } => (task, local_deque, seq, epoch),
                Payload::Deadline(cb) => {
                    cb(true);
                    continue;
                }
            };
            let mut batch = Vec::with_capacity(self.batch_limit.min(16));
            batch.push(ResumeEvent {
                task,
                local_deque,
                seq,
                enabled_at: 0,
                epoch,
            });
            while batch.len() < self.batch_limit && rest.peek().is_some_and(|p| p.worker == worker)
            {
                let p = rest.next().expect("peeked");
                match p.payload {
                    Payload::Resume {
                        task,
                        local_deque,
                        seq,
                        epoch,
                    } => batch.push(ResumeEvent {
                        task,
                        local_deque,
                        seq,
                        enabled_at: 0,
                        epoch,
                    }),
                    // Unreachable in practice (DEADLINE_WORKER never equals
                    // a real worker index), but fire rather than lose it.
                    Payload::Deadline(cb) => cb(true),
                }
            }
            sink.deliver_batch(worker, tick, batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;
    use rand::{Rng, SeedableRng};

    fn start_wheel(
        shards: usize,
        tick: Duration,
        batch_limit: usize,
    ) -> (Arc<CollectSink>, Arc<WheelTimer>, Vec<JoinHandle<()>>) {
        let sink = CollectSink::new();
        let (timer, handles) = WheelTimer::start(shards, tick, batch_limit, sink.clone());
        (sink, timer, handles)
    }

    fn finish(timer: Arc<WheelTimer>, handles: Vec<JoinHandle<()>>) {
        timer.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn delivers_in_deadline_order() {
        let (sink, timer, handles) = start_wheel(2, Duration::from_micros(200), 1024);
        let now = Instant::now();
        timer.register(entry(now + Duration::from_millis(30), 1, 20));
        timer.register(entry(now + Duration::from_millis(10), 1, 10));
        wait_for_events(&sink, 2, 2);
        assert_eq!(sink.events.lock().as_slice(), &[(1, 10), (1, 20)]);
        finish(timer, handles);
    }

    #[test]
    fn past_deadline_fires_immediately() {
        let (sink, timer, handles) = start_wheel(1, Duration::from_micros(50), 1024);
        timer.register(entry(Instant::now() - Duration::from_millis(5), 0, 7));
        wait_for_events(&sink, 1, 2);
        assert_eq!(sink.events.lock().as_slice(), &[(0, 7)]);
        finish(timer, handles);
    }

    #[test]
    fn shutdown_unblocks_all_shards() {
        // Cross-shard shutdown: every shard thread must exit, including
        // ones idle-waiting and ones sleeping toward a far deadline.
        let (_sink, timer, handles) = start_wheel(4, Duration::from_micros(50), 1024);
        timer.register(entry(Instant::now() + Duration::from_secs(3600), 2, 0));
        std::thread::sleep(Duration::from_millis(10));
        finish(timer, handles); // must not hang
    }

    #[test]
    fn same_tick_same_worker_is_one_batch() {
        // A coarse tick makes the batching window explicit: everything
        // registered for the same tick arrives as one deliver_batch call.
        let (sink, timer, handles) = start_wheel(1, Duration::from_millis(20), 1024);
        let deadline = Instant::now() + Duration::from_millis(25);
        for i in 0..10 {
            timer.register(entry(deadline, 3, i));
        }
        wait_for_events(&sink, 10, 2);
        assert_eq!(sink.batches.lock().as_slice(), &[(3, 10)]);
        // Within the tick, registration order is preserved.
        let events = sink.events.lock();
        assert_eq!(
            events.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        finish(timer, handles);
    }

    #[test]
    fn batch_limit_chunks_bursts() {
        let (sink, timer, handles) = start_wheel(1, Duration::from_millis(20), 4);
        let deadline = Instant::now() + Duration::from_millis(25);
        for i in 0..10 {
            timer.register(entry(deadline, 0, i));
        }
        wait_for_events(&sink, 10, 2);
        let batches = sink.batches.lock();
        assert_eq!(batches.iter().map(|&(_, n)| n).sum::<usize>(), 10);
        assert!(batches.iter().all(|&(w, n)| w == 0 && n <= 4));
        finish(timer, handles);
    }

    #[test]
    fn batches_split_by_worker() {
        // One shard serving two workers must still deliver per-worker
        // batches, never a mixed one.
        let (sink, timer, handles) = start_wheel(1, Duration::from_millis(20), 1024);
        let deadline = Instant::now() + Duration::from_millis(25);
        for i in 0..6 {
            timer.register(entry(deadline, i % 2, i));
        }
        wait_for_events(&sink, 6, 2);
        {
            let batches = sink.batches.lock();
            assert_eq!(batches.len(), 2);
            assert!(batches.iter().any(|&(w, n)| w == 0 && n == 3));
            assert!(batches.iter().any(|&(w, n)| w == 1 && n == 3));
        }
        finish(timer, handles);
    }

    #[test]
    fn random_deadlines_none_lost_none_duplicated() {
        // Property: every registration is delivered exactly once, to the
        // right worker, across shards and cascade boundaries. A 1ms tick
        // with deadlines up to ~190ms exercises level-1 placement and
        // cascading (level 0 spans 64 ticks).
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x57EE1);
        let (sink, timer, handles) = start_wheel(4, Duration::from_millis(1), 1024);
        let now = Instant::now();
        let n = 400;
        for i in 0..n {
            let worker = rng.gen_range(0..8usize);
            let delay = rng.gen_range(0..190u64);
            timer.register(entry(now + Duration::from_millis(delay), worker, i));
        }
        wait_for_events(&sink, n, 5);
        let events = sink.events.lock();
        assert_eq!(events.len(), n, "lost expirations");
        let mut ids: Vec<usize> = events.iter().map(|&(_, d)| d).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicated expirations");
        drop(events);
        finish(timer, handles);
    }

    #[test]
    fn deadlines_never_fire_early() {
        let (sink, timer, handles) = start_wheel(2, Duration::from_millis(5), 1024);
        let start = Instant::now();
        let delay = Duration::from_millis(40);
        timer.register(entry(start + delay, 0, 0));
        wait_for_events(&sink, 1, 2);
        assert!(start.elapsed() >= delay, "fired before its deadline");
        finish(timer, handles);
    }

    #[test]
    fn state_places_and_cascades() {
        // Pure ShardState check, no threads: an entry 100 ticks out lands
        // in level 1, cascades to level 0 at the 64-tick boundary, and
        // expires exactly at its tick.
        let mut s = ShardState::new(0);
        let mut due = Vec::new();
        s.place(
            Pending {
                expiry: 100,
                worker: 0,
                payload: Payload::Resume {
                    task: dummy_task(),
                    local_deque: 9,
                    seq: 0,
                    epoch: 0,
                },
            },
            &mut due,
        );
        s.count = 1;
        assert!(due.is_empty());
        assert_eq!(s.next_event_tick(), Some(64)); // level-1 cascade boundary
        for _ in 0..99 {
            s.current += 1;
            s.step(&mut due);
            assert!(due.is_empty(), "fired early at tick {}", s.current);
        }
        s.current += 1;
        s.step(&mut due);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].expiry, 100);
        assert_eq!(s.count, 0);
        assert_eq!(s.next_event_tick(), None);
    }

    #[test]
    fn state_overflow_reenters_wheel() {
        let mut s = ShardState::new(0);
        let mut due = Vec::new();
        let far = level_span(LEVELS - 1) + 5; // beyond the top level's span
        s.place(
            Pending {
                expiry: far,
                worker: 0,
                payload: Payload::Resume {
                    task: dummy_task(),
                    local_deque: 0,
                    seq: 0,
                    epoch: 0,
                },
            },
            &mut due,
        );
        s.count = 1;
        assert_eq!(s.overflow.len(), 1);
        // Jump near the overflow rescan boundary and step across it.
        let width = slot_width(LEVELS - 1);
        s.current = width - 1;
        s.step(&mut due); // not a boundary; overflow untouched
        assert_eq!(s.overflow.len(), 1);
        s.current += 1; // current == width → rescan boundary
        s.step(&mut due);
        assert!(s.overflow.is_empty(), "overflow entry not refiled");
        assert!(due.is_empty());
        assert_eq!(s.count, 1);
    }

    #[test]
    fn deadline_callbacks_fire_and_cancel() {
        use std::sync::atomic::AtomicU32;
        let (sink, timer, handles) = start_wheel(2, Duration::from_micros(200), 1024);
        let fired = Arc::new(AtomicU32::new(0));
        let f2 = fired.clone();
        timer.register_deadline(
            Instant::now() + Duration::from_millis(5),
            Box::new(move |expired| {
                f2.store(if expired { 1 } else { 2 }, Ordering::SeqCst);
            }),
        );
        let deadline = Instant::now() + Duration::from_secs(2);
        while fired.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(fired.load(Ordering::SeqCst), 1, "deadline expired");
        assert_eq!(sink.total_events(), 0, "callbacks never reach the sink");

        // A far-future callback is canceled (cb(false)) by shutdown, and a
        // post-shutdown registration cancels immediately.
        let canceled = Arc::new(AtomicU32::new(0));
        let c2 = canceled.clone();
        timer.register_deadline(
            Instant::now() + Duration::from_secs(60),
            Box::new(move |expired| {
                c2.store(if expired { 1 } else { 2 }, Ordering::SeqCst);
            }),
        );
        finish(timer.clone(), handles);
        assert_eq!(canceled.load(Ordering::SeqCst), 2, "canceled at shutdown");
        assert_eq!(timer.canceled_ops(), 1);

        let late = Arc::new(AtomicU32::new(0));
        let l2 = late.clone();
        timer.register_deadline(
            Instant::now() + Duration::from_secs(60),
            Box::new(move |expired| {
                l2.store(if expired { 1 } else { 2 }, Ordering::SeqCst);
            }),
        );
        assert_eq!(late.load(Ordering::SeqCst), 2);
        assert_eq!(timer.canceled_ops(), 2);
    }

    #[test]
    fn shutdown_counts_dropped_resume_entries() {
        let (sink, timer, handles) = start_wheel(2, Duration::from_micros(200), 1024);
        let far = Instant::now() + Duration::from_secs(60);
        for i in 0..6 {
            timer.register(entry(far, i, 0));
        }
        finish(timer.clone(), handles);
        assert_eq!(timer.canceled_ops(), 6);
        assert_eq!(sink.total_events(), 0);
    }
}
