//! Checker-instrumented synchronization primitives.
//!
//! Each type wraps the *real* std primitive and inserts a schedule point
//! (`Sched::yield_at`) before every shared-memory
//! operation. On a model thread (inside [`crate::explore`]) that hands
//! control to the interleaving scheduler; on an ordinary thread the
//! wrappers are plain pass-throughs, so the same types work in unit
//! tests and in the degenerate "coarse" mode where only scenario-level
//! operations are instrumented.
//!
//! Two deliberate simplifications, documented prominently because they
//! bound what the checker can find:
//!
//! * **Sequential consistency only.** All orderings are promoted to
//!   `SeqCst`; the checker explores thread interleavings, not weak-memory
//!   reorderings. [`fence`] is therefore not a schedule point — under SC a
//!   switch at a fence is observationally equivalent to a switch at the
//!   neighbouring access's own yield point. The Lê et al. orderings in
//!   the real deque remain argued by citation (DESIGN.md §12); what the
//!   checker validates is the *protocol* (who may claim which index).
//! * **Racing initializers.** [`OnceLock::get_or_init`] may run two
//!   initializers and keep one result (std runs exactly one). This avoids
//!   invisible real blocking inside std's once machinery; the ported
//!   structures only use side-effect-free initializers (segment
//!   allocation), where the difference is unobservable.

use crate::sched::{self, WaitKey};
use std::sync::atomic::Ordering as StdOrdering;

pub use std::sync::atomic::Ordering;

#[inline]
fn yield_point() {
    if let Some((s, tid)) = sched::current() {
        s.yield_at(tid);
    }
}

/// Memory fence. Not a schedule point (see module docs); still emits a
/// real `SeqCst` fence so non-model usage keeps its std semantics.
#[inline]
pub fn fence(_order: Ordering) {
    std::sync::atomic::fence(StdOrdering::SeqCst);
}

macro_rules! atomic_int {
    ($(#[$meta:meta])* $name:ident, $std:ty, $prim:ty) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            pub const fn new(v: $prim) -> $name {
                $name { inner: <$std>::new(v) }
            }

            #[inline]
            pub fn load(&self, _order: Ordering) -> $prim {
                yield_point();
                self.inner.load(StdOrdering::SeqCst)
            }

            #[inline]
            pub fn store(&self, v: $prim, _order: Ordering) {
                yield_point();
                self.inner.store(v, StdOrdering::SeqCst)
            }

            #[inline]
            pub fn swap(&self, v: $prim, _order: Ordering) -> $prim {
                yield_point();
                self.inner.swap(v, StdOrdering::SeqCst)
            }

            #[inline]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<$prim, $prim> {
                yield_point();
                self.inner
                    .compare_exchange(current, new, StdOrdering::SeqCst, StdOrdering::SeqCst)
            }

            #[inline]
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                // Weak CAS never spuriously fails under the model: spurious
                // failure is an interleaving-independent hardware artifact,
                // and modeling it would only add schedules that retry.
                self.compare_exchange(current, new, success, failure)
            }

            #[inline]
            pub fn fetch_add(&self, v: $prim, _order: Ordering) -> $prim {
                yield_point();
                self.inner.fetch_add(v, StdOrdering::SeqCst)
            }

            #[inline]
            pub fn fetch_sub(&self, v: $prim, _order: Ordering) -> $prim {
                yield_point();
                self.inner.fetch_sub(v, StdOrdering::SeqCst)
            }

            #[inline]
            pub fn fetch_max(&self, v: $prim, _order: Ordering) -> $prim {
                yield_point();
                self.inner.fetch_max(v, StdOrdering::SeqCst)
            }

            #[inline]
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }

            #[inline]
            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }
        }
    };
}

atomic_int!(
    /// Instrumented [`std::sync::atomic::AtomicUsize`].
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize
);
atomic_int!(
    /// Instrumented [`std::sync::atomic::AtomicIsize`].
    AtomicIsize,
    std::sync::atomic::AtomicIsize,
    isize
);
atomic_int!(
    /// Instrumented [`std::sync::atomic::AtomicU32`].
    AtomicU32,
    std::sync::atomic::AtomicU32,
    u32
);
atomic_int!(
    /// Instrumented [`std::sync::atomic::AtomicU64`].
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64
);

/// Instrumented [`std::sync::atomic::AtomicBool`].
#[derive(Debug, Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    pub const fn new(v: bool) -> AtomicBool {
        AtomicBool {
            inner: std::sync::atomic::AtomicBool::new(v),
        }
    }

    #[inline]
    pub fn load(&self, _order: Ordering) -> bool {
        yield_point();
        self.inner.load(StdOrdering::SeqCst)
    }

    #[inline]
    pub fn store(&self, v: bool, _order: Ordering) {
        yield_point();
        self.inner.store(v, StdOrdering::SeqCst)
    }

    #[inline]
    pub fn swap(&self, v: bool, _order: Ordering) -> bool {
        yield_point();
        self.inner.swap(v, StdOrdering::SeqCst)
    }

    #[inline]
    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<bool, bool> {
        yield_point();
        self.inner
            .compare_exchange(current, new, StdOrdering::SeqCst, StdOrdering::SeqCst)
    }

    #[inline]
    pub fn get_mut(&mut self) -> &mut bool {
        self.inner.get_mut()
    }
}

/// Instrumented [`std::sync::atomic::AtomicPtr`].
#[derive(Debug)]
pub struct AtomicPtr<T> {
    inner: std::sync::atomic::AtomicPtr<T>,
}

impl<T> AtomicPtr<T> {
    pub const fn new(p: *mut T) -> AtomicPtr<T> {
        AtomicPtr {
            inner: std::sync::atomic::AtomicPtr::new(p),
        }
    }

    #[inline]
    pub fn load(&self, _order: Ordering) -> *mut T {
        yield_point();
        self.inner.load(StdOrdering::SeqCst)
    }

    #[inline]
    pub fn store(&self, p: *mut T, _order: Ordering) {
        yield_point();
        self.inner.store(p, StdOrdering::SeqCst)
    }

    #[inline]
    pub fn swap(&self, p: *mut T, _order: Ordering) -> *mut T {
        yield_point();
        self.inner.swap(p, StdOrdering::SeqCst)
    }

    #[inline]
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        yield_point();
        self.inner
            .compare_exchange(current, new, StdOrdering::SeqCst, StdOrdering::SeqCst)
    }

    #[inline]
    pub fn get_mut(&mut self) -> &mut *mut T {
        self.inner.get_mut()
    }
}

/// Instrumented mutex with the API of the ported structures' own
/// `sync::Mutex` (`lock` is infallible; poisoning is swallowed because
/// the checker's own failure handling already captured the panic).
///
/// Under the model, contention parks the thread with the scheduler
/// (keyed by address) instead of blocking for real, so lock handoff
/// order is explored like any other nondeterminism.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

pub struct MutexGuard<'a, T> {
    g: Option<std::sync::MutexGuard<'a, T>>,
    /// Wake key of the owning mutex; 0 when acquired outside the model.
    addr: usize,
}

fn lock_real<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T> Mutex<T> {
    pub const fn new(t: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(t),
        }
    }

    #[inline]
    fn addr(&self) -> usize {
        self as *const Mutex<T> as usize
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let Some((s, tid)) = sched::current() else {
            return MutexGuard {
                g: Some(lock_real(&self.inner)),
                addr: 0,
            };
        };
        loop {
            s.yield_at(tid);
            match self.inner.try_lock() {
                Ok(g) => {
                    return MutexGuard {
                        g: Some(g),
                        addr: self.addr(),
                    }
                }
                Err(std::sync::TryLockError::Poisoned(p)) => {
                    return MutexGuard {
                        g: Some(p.into_inner()),
                        addr: self.addr(),
                    }
                }
                Err(std::sync::TryLockError::WouldBlock) => {
                    if !s.block_at(tid, WaitKey::Addr(self.addr())) {
                        // Tearing down: the holder will release during its
                        // unwind, so a real blocking lock completes.
                        return MutexGuard {
                            g: Some(lock_real(&self.inner)),
                            addr: self.addr(),
                        };
                    }
                }
            }
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        yield_point();
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard {
                g: Some(g),
                addr: self.addr(),
            }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                g: Some(p.into_inner()),
                addr: self.addr(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(e) => e.into_inner(),
        }
    }

    #[inline]
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(e) => e.into_inner(),
        }
    }
}

impl<'a, T> std::ops::Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.g.as_ref().expect("guard accessed after release")
    }
}

impl<'a, T> std::ops::DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.g.as_mut().expect("guard accessed after release")
    }
}

impl<'a, T> Drop for MutexGuard<'a, T> {
    fn drop(&mut self) {
        let addr = self.addr;
        // Release the real lock before waking waiters so a woken thread's
        // try_lock succeeds whenever the model schedules it next.
        self.g.take();
        if addr != 0 {
            if let Some((s, _)) = sched::current() {
                s.wake_addr(WaitKey::Addr(addr));
            }
        }
    }
}

/// Instrumented [`std::sync::OnceLock`]. See the module docs for the
/// racing-initializer caveat on [`get_or_init`](OnceLock::get_or_init).
#[derive(Debug, Default)]
pub struct OnceLock<T> {
    inner: std::sync::OnceLock<T>,
}

impl<T> OnceLock<T> {
    pub const fn new() -> OnceLock<T> {
        OnceLock {
            inner: std::sync::OnceLock::new(),
        }
    }

    #[inline]
    pub fn get(&self) -> Option<&T> {
        yield_point();
        self.inner.get()
    }

    #[inline]
    pub fn set(&self, v: T) -> Result<(), T> {
        yield_point();
        self.inner.set(v)
    }

    pub fn get_or_init<F: FnOnce() -> T>(&self, f: F) -> &T {
        yield_point();
        if let Some(v) = self.inner.get() {
            return v;
        }
        // Run the initializer OUTSIDE std's once lock: std would block a
        // second initializer for real, invisibly to the scheduler. Racing
        // initializers both run; the loser's value is dropped.
        let val = f();
        let _ = self.inner.set(val);
        self.inner.get().expect("set above (or by the race winner)")
    }
}

/// A one-shot signal: the model-aware replacement for ad-hoc
/// `Mutex<bool>` + condvar wake-ups in scenarios (e.g. standing in for a
/// task waker). `wait` parks the model thread; `set` makes all waiters
/// runnable.
#[derive(Debug, Default)]
pub struct Event {
    flag: std::sync::atomic::AtomicBool,
    m: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
}

impl Event {
    pub const fn new() -> Event {
        Event {
            flag: std::sync::atomic::AtomicBool::new(false),
            m: std::sync::Mutex::new(()),
            cv: std::sync::Condvar::new(),
        }
    }

    #[inline]
    fn addr(&self) -> usize {
        self as *const Event as usize
    }

    pub fn set(&self) {
        yield_point();
        self.flag.store(true, StdOrdering::SeqCst);
        if let Some((s, _)) = sched::current() {
            s.wake_addr(WaitKey::Addr(self.addr()));
        }
        let _g = lock_real(&self.m);
        self.cv.notify_all();
    }

    pub fn is_set(&self) -> bool {
        yield_point();
        self.flag.load(StdOrdering::SeqCst)
    }

    pub fn wait(&self) {
        if let Some((s, tid)) = sched::current() {
            loop {
                s.yield_at(tid);
                if self.flag.load(StdOrdering::SeqCst) {
                    return;
                }
                if !s.block_at(tid, WaitKey::Addr(self.addr())) {
                    // Teardown mid-unwind: the setter may never run, so a
                    // real wait could hang. Return; the caller is already
                    // unwinding and nothing it does is recorded.
                    return;
                }
            }
        }
        let mut g = lock_real(&self.m);
        while !self.flag.load(StdOrdering::SeqCst) {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}
