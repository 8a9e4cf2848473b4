//! Work-stealing deque substrate for latency-hiding work stealing.
//!
//! The SPAA'16 paper builds on three deque-related pieces, all provided here:
//!
//! 1. **A lock-free work-stealing deque** ([`chase_lev`]) — the classic
//!    Chase–Lev growable circular deque (the paper's citation \[11\]),
//!    implemented from scratch on atomics. The owner pushes and pops at the
//!    bottom; any number of thieves steal from the top.
//! 2. **A mutex-based deque** ([`mutex_deque`]) with the same handle API,
//!    used as a correctness oracle in tests.
//! 3. **The global deque registry** ([`registry`]) — the paper's `gDeques`
//!    array plus `gTotalDeques` counter (Figure 5). Deques are allocated with
//!    a fetch-and-add, are never deallocated, and are recycled through
//!    per-worker free lists. Thieves pick a uniformly random slot; hitting a
//!    freed (empty) deque is simply a failed steal, exactly as analyzed.
//!
//! The two deque implementations are unified behind the [`WorkerHandle`] /
//! [`StealerHandle`] enums so the runtime can switch implementations from a
//! config knob without generics spreading through every scheduler type.

#![warn(missing_docs)]

pub mod chase_lev;
pub mod mutex_deque;
pub mod registry;
pub mod sync;

pub use chase_lev::{ChaseLevStealer, ChaseLevWorker};
pub use mutex_deque::{MutexStealer, MutexWorker};
pub use registry::{DequeId, Registry, RegistryError, MAX_DEQUES};

/// Outcome of a steal attempt on the top end of a deque.
///
/// Mirrors the three-way result of the Chase–Lev `steal` operation: the deque
/// may be observed empty, the thief may lose a race (and should retry or move
/// on), or it may win an item.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// The thief lost a race with the owner or another thief.
    Retry,
    /// The steal succeeded.
    Success(T),
}

impl<T> Steal<T> {
    /// Returns the stolen item, if any.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(v) => Some(v),
            _ => None,
        }
    }

    /// True if the steal attempt observed an empty deque.
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }

    /// True if the thief lost a race and may retry.
    pub fn is_retry(&self) -> bool {
        matches!(self, Steal::Retry)
    }
}

/// Which deque implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DequeKind {
    /// The lock-free Chase–Lev deque (default; the paper's choice).
    #[default]
    ChaseLev,
    /// A mutex-protected `VecDeque` with identical semantics.
    Mutex,
}

/// Owner-side handle of either deque implementation.
///
/// Exactly one `WorkerHandle` exists per deque; it is not `Sync` and not
/// `Clone`, which statically enforces the single-owner discipline the
/// Chase–Lev algorithm requires ("each deque is always owned by the same
/// single worker" — paper, §3).
#[derive(Debug)]
pub enum WorkerHandle<T> {
    /// Chase–Lev owner handle.
    ChaseLev(ChaseLevWorker<T>),
    /// Mutex-deque owner handle.
    Mutex(MutexWorker<T>),
}

impl<T: Send> WorkerHandle<T> {
    /// Creates a fresh, empty deque of the given kind, returning both ends.
    pub fn new(kind: DequeKind) -> (WorkerHandle<T>, StealerHandle<T>) {
        match kind {
            DequeKind::ChaseLev => {
                let (w, s) = chase_lev::deque();
                (WorkerHandle::ChaseLev(w), StealerHandle::ChaseLev(s))
            }
            DequeKind::Mutex => {
                let (w, s) = mutex_deque::deque();
                (WorkerHandle::Mutex(w), StealerHandle::Mutex(s))
            }
        }
    }

    /// Pushes an item onto the bottom (owner end) of the deque.
    pub fn push_bottom(&self, item: T) {
        match self {
            WorkerHandle::ChaseLev(w) => w.push_bottom(item),
            WorkerHandle::Mutex(w) => w.push_bottom(item),
        }
    }

    /// Pops an item from the bottom (owner end) of the deque.
    pub fn pop_bottom(&self) -> Option<T> {
        match self {
            WorkerHandle::ChaseLev(w) => w.pop_bottom(),
            WorkerHandle::Mutex(w) => w.pop_bottom(),
        }
    }

    /// Pops the bottom item only if `pred` accepts its bit image — the
    /// owner's pop-back at a join. See
    /// [`ChaseLevWorker::pop_bottom_if`] for what `pred` may rely on.
    pub fn pop_bottom_if(&self, pred: impl FnOnce(&std::mem::MaybeUninit<T>) -> bool) -> Option<T> {
        match self {
            WorkerHandle::ChaseLev(w) => w.pop_bottom_if(pred),
            WorkerHandle::Mutex(w) => w.pop_bottom_if(pred),
        }
    }

    /// True if the deque appears empty from the owner's side.
    pub fn is_empty(&self) -> bool {
        match self {
            WorkerHandle::ChaseLev(w) => w.is_empty(),
            WorkerHandle::Mutex(w) => w.is_empty(),
        }
    }

    /// Number of items currently in the deque (owner-side snapshot).
    pub fn len(&self) -> usize {
        match self {
            WorkerHandle::ChaseLev(w) => w.len(),
            WorkerHandle::Mutex(w) => w.len(),
        }
    }

    /// Returns a new stealer end for this deque.
    pub fn stealer(&self) -> StealerHandle<T> {
        match self {
            WorkerHandle::ChaseLev(w) => StealerHandle::ChaseLev(w.stealer()),
            WorkerHandle::Mutex(w) => StealerHandle::Mutex(w.stealer()),
        }
    }
}

/// Thief-side handle of either deque implementation. Cheap to clone.
#[derive(Debug)]
pub enum StealerHandle<T> {
    /// Chase–Lev thief handle.
    ChaseLev(ChaseLevStealer<T>),
    /// Mutex-deque thief handle.
    Mutex(MutexStealer<T>),
}

impl<T> Clone for StealerHandle<T> {
    fn clone(&self) -> Self {
        match self {
            StealerHandle::ChaseLev(s) => StealerHandle::ChaseLev(s.clone()),
            StealerHandle::Mutex(s) => StealerHandle::Mutex(s.clone()),
        }
    }
}

impl<T: Send> StealerHandle<T> {
    /// Attempts to steal the top item (the paper's `popTop`).
    pub fn steal(&self) -> Steal<T> {
        match self {
            StealerHandle::ChaseLev(s) => s.steal(),
            StealerHandle::Mutex(s) => s.steal(),
        }
    }

    /// Steal-half: takes up to `ceil(live / 2)` items (capped at `limit`,
    /// clamped to at least 1) from the top, appending them to `out` in
    /// original top-to-bottom order and returning how many were claimed.
    /// `limit == 1` is exactly the single-item [`steal`](Self::steal).
    pub fn steal_batch_into(&self, limit: usize, out: &mut Vec<T>) -> Steal<usize> {
        match self {
            StealerHandle::ChaseLev(s) => s.steal_batch_into(limit, out),
            StealerHandle::Mutex(s) => s.steal_batch_into(limit, out),
        }
    }

    /// True if the deque appears empty to a thief (racy snapshot).
    pub fn is_empty(&self) -> bool {
        match self {
            StealerHandle::ChaseLev(s) => s.is_empty(),
            StealerHandle::Mutex(s) => s.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_roundtrip_chase_lev() {
        let (w, s) = WorkerHandle::new(DequeKind::ChaseLev);
        w.push_bottom(1);
        w.push_bottom(2);
        assert_eq!(w.len(), 2);
        assert_eq!(s.steal().success(), Some(1));
        assert_eq!(w.pop_bottom(), Some(2));
        assert!(w.is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn handle_roundtrip_mutex() {
        let (w, s) = WorkerHandle::new(DequeKind::Mutex);
        w.push_bottom(10);
        w.push_bottom(20);
        assert_eq!(s.steal().success(), Some(10));
        assert_eq!(w.pop_bottom(), Some(20));
        assert!(matches!(s.steal(), Steal::Empty));
    }

    #[test]
    fn handle_steal_batch_both_kinds() {
        for kind in [DequeKind::ChaseLev, DequeKind::Mutex] {
            let (w, s) = WorkerHandle::new(kind);
            for i in 0..6 {
                w.push_bottom(i);
            }
            let mut out = Vec::new();
            assert_eq!(s.steal_batch_into(8, &mut out), Steal::Success(3));
            assert_eq!(out, vec![0, 1, 2], "{kind:?} batch in order");
            out.clear();
            assert_eq!(s.steal_batch_into(1, &mut out), Steal::Success(1));
            assert_eq!(out, vec![3], "{kind:?} limit=1 degenerate case");
        }
    }

    #[test]
    fn pop_bottom_if_both_kinds() {
        for kind in [DequeKind::ChaseLev, DequeKind::Mutex] {
            let (w, s) = WorkerHandle::new(kind);
            // SAFETY (all three closures): `u32` images are plain values.
            let is = |want: u32| {
                move |img: &std::mem::MaybeUninit<u32>| unsafe { img.assume_init_read() } == want
            };
            assert_eq!(w.pop_bottom_if(is(1)), None, "{kind:?} empty");
            w.push_bottom(1);
            w.push_bottom(2);
            assert_eq!(w.pop_bottom_if(is(1)), None, "{kind:?} mismatch");
            assert_eq!(w.len(), 2, "{kind:?} a mismatch leaves the deque alone");
            assert_eq!(w.pop_bottom_if(is(2)), Some(2), "{kind:?} match");
            assert_eq!(s.steal().success(), Some(1));
            assert_eq!(w.pop_bottom_if(is(1)), None, "{kind:?} stolen");
        }
    }

    #[test]
    fn stealer_handle_clone() {
        let (w, s) = WorkerHandle::new(DequeKind::ChaseLev);
        let s2 = s.clone();
        w.push_bottom(7);
        assert_eq!(s2.steal().success(), Some(7));
        assert!(s.steal().is_empty());
    }

    #[test]
    fn extra_stealer_from_worker() {
        let (w, _s) = WorkerHandle::new(DequeKind::Mutex);
        let s2 = w.stealer();
        w.push_bottom(5);
        assert_eq!(s2.steal().success(), Some(5));
    }

    #[test]
    fn steal_result_helpers() {
        assert!(Steal::<i32>::Empty.is_empty());
        assert!(Steal::<i32>::Retry.is_retry());
        assert_eq!(Steal::Success(3).success(), Some(3));
        assert_eq!(Steal::<i32>::Retry.success(), None);
    }
}
