//! The per-socket readiness word: see [`Readiness`].

use lhws_core::sync::{AtomicU64, Ordering};

/// What the kernel last said about one socket, cached so that a wait on a
/// socket already known to be drained costs no syscall. Shared by the
/// reactor's table entry and the socket wrapper.
///
/// Bit 0 is *readable*, bit 1 *writable*, bit 2 *read-closed*; the
/// remaining bits are a tick that every kernel report advances.
/// Read-closed is sticky: once the peer hung up or the socket failed, a
/// read returns at once for good, so no clear touches it — a short read
/// that leaves only the EOF behind must not wait for an edge that already
/// came.
///
/// The harvesting worker sets bits and advances the tick under the
/// reactor's table lock. A socket wrapper clears its bit without that
/// lock, and only by the **tick rule**: it snapshots the word before its
/// syscall and clears after `EAGAIN` (or a short read) only if the tick
/// has not moved since — a report that landed in between may stand for
/// data the syscall did not see, and clearing it would lose the only edge
/// the kernel sends for that data.
///
/// Built from [`lhws_core::sync`], with `set` and `clear` as
/// `compare_exchange` loops, so that `lhws-check`'s instrumented build
/// explores every interleaving of the two (`io_readiness_clear_vs_report`).
#[derive(Debug)]
pub struct Readiness {
    word: AtomicU64,
}

impl Default for Readiness {
    fn default() -> Readiness {
        Readiness::new()
    }
}

impl Readiness {
    /// The readable bit.
    pub const READABLE: u64 = 1;
    /// The writable bit.
    pub const WRITABLE: u64 = 2;
    /// The sticky read-closed bit (hang-up or error reported).
    pub const READ_CLOSED: u64 = 4;
    /// One step of the tick, above the three bits.
    const TICK: u64 = 8;

    /// Both bits set: a fresh socket is tried before it is waited on.
    pub fn new() -> Readiness {
        Readiness {
            word: AtomicU64::new(Self::READABLE | Self::WRITABLE),
        }
    }

    /// The current word, to test a bit against and to clear by.
    pub fn snapshot(&self) -> u64 {
        self.word.load(Ordering::Acquire)
    }

    /// Records one kernel report: sets `bits` and advances the tick.
    pub fn set(&self, bits: u64) {
        let mut cur = self.word.load(Ordering::Acquire);
        loop {
            let next = (cur | bits).wrapping_add(Self::TICK);
            match self
                .word
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Clears `bit` ([`READABLE`](Self::READABLE) or
    /// [`WRITABLE`](Self::WRITABLE)) unless a report arrived since `seen`
    /// was taken; returns whether it cleared.
    pub fn clear(&self, bit: u64, seen: u64) -> bool {
        debug_assert_eq!(bit & Self::READ_CLOSED, 0, "read-closed is sticky");
        let mut cur = self.word.load(Ordering::Acquire);
        while cur / Self::TICK == seen / Self::TICK {
            match self
                .word
                .compare_exchange(cur, cur & !bit, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
        false
    }

    /// The seeded mutation: [`clear`](Self::clear) without the tick rule.
    /// A report that lands between the snapshot and this clear is erased
    /// with the edge it stood for; `lhws-check` must refute it
    /// (`io_readiness_tickless_clear_unsound`). Never enable the cfg in
    /// production builds.
    #[cfg(lhws_check_mutation)]
    pub fn clear_ignoring_tick(&self, bit: u64) {
        let mut cur = self.word.load(Ordering::Acquire);
        while let Err(actual) =
            self.word
                .compare_exchange(cur, cur & !bit, Ordering::AcqRel, Ordering::Acquire)
        {
            cur = actual;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_obeys_the_tick_rule() {
        let r = Readiness::new();
        let seen = r.snapshot();
        assert!(r.clear(Readiness::READABLE, seen), "no report since");
        assert_eq!(r.snapshot() & Readiness::READABLE, 0);
        assert_ne!(r.snapshot() & Readiness::WRITABLE, 0, "only its bit");
        // A report between the snapshot and the clear wins.
        let seen = r.snapshot();
        r.set(Readiness::READABLE);
        assert!(!r.clear(Readiness::READABLE, seen));
        assert_ne!(r.snapshot() & Readiness::READABLE, 0);
        // Clearing the other bit against the fresh word still works.
        assert!(r.clear(Readiness::WRITABLE, r.snapshot()));
        assert_eq!(r.snapshot() & Readiness::WRITABLE, 0);
        // A hang-up outlives the clear of the readable bit.
        r.set(Readiness::READABLE | Readiness::READ_CLOSED);
        assert!(r.clear(Readiness::READABLE, r.snapshot()));
        assert_eq!(r.snapshot() & 7, Readiness::READ_CLOSED);
    }
}
