//! Lock-free sleeper set: targeted worker wake-ups.
//!
//! The original runtime kept worker `Thread` handles in a
//! `Mutex<Vec<Option<Thread>>>` and called `unpark_all` on every injected
//! task — a broadcast that serialized every producer on one lock and woke
//! P workers to claim one task (a thundering herd for P−1 of them). This
//! module replaces both:
//!
//! * An **atomic idle bitmask** (one bit per worker, in `AtomicU64` words)
//!   tracks exactly which workers are parked. Producers scan it without
//!   locks and wake **at most one** worker per injected task
//!   ([`Sleepers::unpark_one`]) or the one owning worker per external
//!   completion ([`Sleepers::unpark_worker`]). Timer expiries wake nobody:
//!   each worker fires its own timer shard and parks no later than its
//!   next deadline.
//! * Thread handles live in a write-once [`OnceLock`] table, populated by
//!   each worker at startup — no lock on any wake path.
//!
//! # Protocol (no lost wake-ups)
//!
//! A worker going idle (1) sets its bit with a `SeqCst` RMW, (2)
//! **re-checks** all work sources, and only then (3) parks. A producer
//! (1) publishes work, then (2) scans the bitmask with `SeqCst` ordering
//! and clears-and-unparks one set bit. Either the producer's scan sees
//! the worker's bit (and unparks it), or the worker's bit-set came after
//! the scan — in which case the worker's step-(2) re-check observes the
//! already-published work and it never parks. Workers additionally park
//! with a timeout (`Config::park_micros`, cut short at the worker's own
//! next timer deadline), bounding the cost of any missed wake-up to one
//! park interval.
//!
//! Work pushed onto a deque is **not** an event here: `spawn` and the
//! worker's own flushes and resume drains push locally and wake nobody.
//! A parked thief finds stealable work only when its timeout expires, so
//! `park_micros` is also the thieves' steal-poll interval, and the timed
//! park cannot be removed without a wake-on-push protocol in its place.
//!
//! The timed park is also what makes two fault-tolerance properties hold:
//! the fault layer's `DropUnpark` injection (swallowing a legitimate
//! unpark, see [`crate::fault`]) degrades throughput by at most one park
//! interval per drop instead of deadlocking, and a poisoned runtime
//! (worker scheduler-loop panic) is observed by the remaining workers'
//! shutdown check within one interval even if the poisoner's
//! `unpark_all` raced their park commit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;

const WORD_BITS: usize = 64;

/// The set of currently-parked workers. See the module docs for the
/// wake-up protocol.
pub(crate) struct Sleepers {
    /// Idle bitmask: bit `i` set ⇔ worker `i` is parked (or committing to
    /// park).
    words: Box<[AtomicU64]>,
    /// Worker thread handles, set once by each worker before first park.
    threads: Box<[OnceLock<Thread>]>,
}

impl Sleepers {
    /// Creates a sleeper set for `n` workers, all awake.
    pub fn new(n: usize) -> Self {
        Sleepers {
            words: (0..n.div_ceil(WORD_BITS))
                .map(|_| AtomicU64::new(0))
                .collect(),
            threads: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Records the calling thread as worker `index`'s thread. Must be
    /// called on the worker thread before its first park.
    pub fn register(&self, index: usize) {
        let _ = self.threads[index].set(std::thread::current());
    }

    #[inline]
    fn split(index: usize) -> (usize, u64) {
        (index / WORD_BITS, 1u64 << (index % WORD_BITS))
    }

    /// Step (1) of going idle: marks worker `index` as parked. The caller
    /// must re-check every work source after this and, if anything
    /// appeared, call [`cancel_park`](Self::cancel_park) instead of
    /// parking.
    pub fn prepare_park(&self, index: usize) {
        let (w, m) = Self::split(index);
        self.words[w].fetch_or(m, Ordering::SeqCst);
    }

    /// Withdraws worker `index` from the set (found work, or returned from
    /// `park` with the bit still set after a timeout).
    pub fn cancel_park(&self, index: usize) {
        let (w, m) = Self::split(index);
        self.words[w].fetch_and(!m, Ordering::SeqCst);
    }

    /// Wakes exactly one parked worker, if any. Returns the woken worker's
    /// index. The woken worker's bit is cleared by the caller side (here),
    /// so concurrent `unpark_one` calls wake distinct workers.
    pub fn unpark_one(&self) -> Option<usize> {
        for (w, word) in self.words.iter().enumerate() {
            let mut cur = word.load(Ordering::SeqCst);
            while cur != 0 {
                let bit = cur.trailing_zeros() as usize;
                let m = 1u64 << bit;
                match word.compare_exchange_weak(cur, cur & !m, Ordering::SeqCst, Ordering::SeqCst)
                {
                    Ok(_) => {
                        let index = w * WORD_BITS + bit;
                        if let Some(t) = self.threads[index].get() {
                            t.unpark();
                        }
                        return Some(index);
                    }
                    Err(actual) => cur = actual,
                }
            }
        }
        None
    }

    /// Wakes worker `index` if it is parked. Returns `true` if it was.
    pub fn unpark_worker(&self, index: usize) -> bool {
        let (w, m) = Self::split(index);
        if self.words[w].fetch_and(!m, Ordering::SeqCst) & m != 0 {
            if let Some(t) = self.threads[index].get() {
                t.unpark();
            }
            return true;
        }
        false
    }

    /// Wakes every parked worker (shutdown only). Returns how many were
    /// woken.
    pub fn unpark_all(&self) -> usize {
        let mut woken = 0;
        for (w, word) in self.words.iter().enumerate() {
            let mut set = word.swap(0, Ordering::SeqCst);
            while set != 0 {
                let bit = set.trailing_zeros() as usize;
                set &= set - 1;
                if let Some(t) = self.threads[w * WORD_BITS + bit].get() {
                    t.unpark();
                }
                woken += 1;
            }
        }
        woken
    }

    /// How many workers are currently in the set.
    pub fn sleeping(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::SeqCst).count_ones() as usize)
            .sum()
    }

    /// True if any worker is currently in the set.
    #[cfg(test)]
    pub fn any_sleeping(&self) -> bool {
        self.sleeping() != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn unpark_one_clears_exactly_one_bit() {
        let s = Sleepers::new(80); // spans two words
        s.prepare_park(3);
        s.prepare_park(70);
        assert_eq!(s.unpark_one(), Some(3));
        assert!(s.any_sleeping());
        assert_eq!(s.unpark_one(), Some(70));
        assert!(!s.any_sleeping());
        assert_eq!(s.unpark_one(), None);
    }

    #[test]
    fn unpark_worker_is_targeted() {
        let s = Sleepers::new(8);
        s.prepare_park(2);
        s.prepare_park(5);
        assert!(s.unpark_worker(5));
        assert!(!s.unpark_worker(5)); // already clear
        assert!(s.unpark_worker(2));
        assert!(!s.any_sleeping());
    }

    #[test]
    fn cancel_park_withdraws() {
        let s = Sleepers::new(4);
        s.prepare_park(1);
        s.cancel_park(1);
        assert_eq!(s.unpark_one(), None);
    }

    #[test]
    fn unpark_actually_wakes_parked_thread() {
        let s = Arc::new(Sleepers::new(1));
        let s2 = s.clone();
        let t = std::thread::spawn(move || {
            s2.register(0);
            s2.prepare_park(0);
            // No work to re-check in this test; park until unparked (long
            // timeout so a protocol bug fails the test, not the build).
            std::thread::park_timeout(Duration::from_secs(10));
            s2.cancel_park(0);
        });
        // Wait until the worker has registered and set its bit.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !s.any_sleeping() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(s.any_sleeping());
        let woke = std::time::Instant::now();
        assert_eq!(s.unpark_one(), Some(0));
        t.join().unwrap();
        assert!(
            woke.elapsed() < Duration::from_secs(5),
            "unpark did not wake the thread"
        );
    }

    #[test]
    fn concurrent_unpark_one_wakes_distinct_workers() {
        for _ in 0..50 {
            let s = Arc::new(Sleepers::new(2));
            s.prepare_park(0);
            s.prepare_park(1);
            let a = {
                let s = s.clone();
                std::thread::spawn(move || s.unpark_one())
            };
            let b = {
                let s = s.clone();
                std::thread::spawn(move || s.unpark_one())
            };
            let (a, b) = (a.join().unwrap(), b.join().unwrap());
            assert!(a.is_some() && b.is_some());
            assert_ne!(a, b, "both unpark_one calls woke the same worker");
            assert!(!s.any_sleeping());
        }
    }
}
