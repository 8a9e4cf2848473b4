//! Synchronization indirection for the model checker (DESIGN.md §15).
//!
//! Every concurrency-bearing module in this crate imports its atomics,
//! fences, mutexes, and once-locks from here instead of naming std
//! directly. In a normal build the module is `pub use` re-exports of std
//! plus [`Mutex`], a newtype over `std::sync::Mutex` whose `lock` ignores
//! poisoning. Under `RUSTFLAGS="--cfg lhws_check"` the same names
//! resolve to `lhws_checkrt::sync`'s instrumented wrappers, which turn
//! every operation into a schedule point of the exhaustive-interleaving
//! scheduler so `crates/check` can model-check the *real* Chase–Lev and
//! registry code rather than a transliteration of it.

#[cfg(not(lhws_check))]
mod imp {
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize,
    };
    pub use std::sync::{MutexGuard, OnceLock};
    use std::sync::{PoisonError, TryLockError};

    /// `std::sync::Mutex` without poisoning: a panic while the lock is
    /// held does not fail later `lock`s. A worker's panic is caught by its
    /// supervisor (fail-stop poison or respawn), and the teardown or the
    /// deque rescue that follows must still take the locks the dead loop
    /// held. The same rule, in the same shape, as
    /// `lhws_checkrt::sync::Mutex`.
    #[derive(Debug, Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// Creates a new mutex.
        pub const fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }

        /// Acquires the lock, blocking until it is available.
        #[inline]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Acquires the lock if it is free right now.
        #[inline]
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            match self.0.try_lock() {
                Ok(g) => Some(g),
                Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
                Err(TryLockError::WouldBlock) => None,
            }
        }

        /// The inner value, through the exclusive borrow (no locking).
        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Waits until `flag` is set by another thread that sets it at the
    /// end of a short, bounded step: spins a little, then yields the CPU
    /// between looks, so a setter that lost its CPU gets it back. The
    /// same name as `lhws_checkrt::sync::spin_until`, which turns the
    /// wait into a blocking one the model checker can schedule.
    pub fn spin_until(flag: &AtomicBool) {
        const SPINS: u32 = 64;
        let mut spins = 0;
        while !flag.load(super::Ordering::Acquire) {
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(lhws_check)]
mod imp {
    pub use lhws_checkrt::sync::{
        fence, spin_until, AtomicBool, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize,
        Mutex, MutexGuard, OnceLock,
    };
}

pub use imp::*;
pub use std::sync::atomic::Ordering;

#[cfg(test)]
mod tests {
    use super::Mutex;
    use std::sync::Arc;

    fn poisoned() -> Arc<Mutex<u32>> {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 1;
            panic!("poison attempt");
        })
        .join();
        m
    }

    #[test]
    fn lock_survives_panic_in_holder() {
        let m = poisoned();
        // The holder's write stands and the lock is usable.
        assert_eq!(*m.lock(), 1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn try_lock_survives_panic_in_holder() {
        let m = poisoned();
        let mut g = m.try_lock().expect("a poisoned, unheld lock is free");
        *g += 1;
        assert!(m.try_lock().is_none(), "held: would block");
        drop(g);
        assert_eq!(*m.lock(), 2);
    }
}
