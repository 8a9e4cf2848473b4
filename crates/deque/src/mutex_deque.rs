//! A mutex-protected deque with the same owner/thief handle API as the
//! Chase–Lev implementation.
//!
//! It is the **correctness oracle**: property tests drive both
//! implementations with identical operation sequences and require identical
//! results. It is not a runtime backend and nothing times it.
//!
//! The paper notes its prototype "sometimes uses theoretically less
//! efficient data structures or policies, favoring simplicity and
//! practicality" — this is exactly that kind of structure.

use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::Arc;

use crate::sync::Mutex;
use crate::Steal;

/// Creates a new mutex-based deque, returning the owner and thief ends.
pub fn deque<T: Send>() -> (MutexWorker<T>, MutexStealer<T>) {
    let inner = Arc::new(Mutex::new(VecDeque::new()));
    (
        MutexWorker {
            inner: inner.clone(),
            _not_sync: PhantomData,
        },
        MutexStealer { inner },
    )
}

/// Owner end: pushes and pops at the back ("bottom").
pub struct MutexWorker<T> {
    inner: Arc<Mutex<VecDeque<T>>>,
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl<T: Send> MutexWorker<T> {
    /// Pushes an item at the bottom.
    pub fn push_bottom(&self, item: T) {
        self.inner.lock().push_back(item);
    }

    /// Pops an item from the bottom.
    pub fn pop_bottom(&self) -> Option<T> {
        self.inner.lock().pop_back()
    }

    /// Pops the bottom item only if `pred` accepts its bit image, in one
    /// locked critical section; mirrors
    /// [`ChaseLevWorker::pop_bottom_if`](crate::ChaseLevWorker::pop_bottom_if).
    pub fn pop_bottom_if(&self, pred: impl FnOnce(&MaybeUninit<T>) -> bool) -> Option<T> {
        let mut q = self.inner.lock();
        let back: *const T = q.back()?;
        // SAFETY: `MaybeUninit<T>` has `T`'s layout, and the lock keeps
        // the item in place for the borrow.
        if pred(unsafe { &*back.cast::<MaybeUninit<T>>() }) {
            q.pop_back()
        } else {
            None
        }
    }

    /// True if the deque is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Current number of items.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Creates another stealer end.
    pub fn stealer(&self) -> MutexStealer<T> {
        MutexStealer {
            inner: self.inner.clone(),
        }
    }
}

impl<T> fmt::Debug for MutexWorker<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutexWorker").finish_non_exhaustive()
    }
}

/// Thief end: steals from the front ("top").
pub struct MutexStealer<T> {
    inner: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Clone for MutexStealer<T> {
    fn clone(&self) -> Self {
        MutexStealer {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send> MutexStealer<T> {
    /// Steals the top item. Never returns [`Steal::Retry`]: the lock
    /// serializes all contenders.
    pub fn steal(&self) -> Steal<T> {
        match self.inner.lock().pop_front() {
            Some(v) => Steal::Success(v),
            None => Steal::Empty,
        }
    }

    /// Steals up to `ceil(len / 2)` items (capped at `limit`, clamped to
    /// at least 1) from the front in one locked critical section,
    /// appending them to `out` in original order. Never returns
    /// [`Steal::Retry`]; mirrors
    /// [`ChaseLevStealer::steal_batch_into`](crate::ChaseLevStealer::steal_batch_into).
    pub fn steal_batch_into(&self, limit: usize, out: &mut Vec<T>) -> Steal<usize> {
        let limit = limit.max(1);
        let mut q = self.inner.lock();
        let live = q.len();
        if live == 0 {
            return Steal::Empty;
        }
        let n = live.div_ceil(2).min(limit);
        out.extend(q.drain(..n));
        Steal::Success(n)
    }

    /// True if the deque is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

impl<T> fmt::Debug for MutexStealer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutexStealer").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_owner_fifo_thief() {
        let (w, s) = deque::<u32>();
        w.push_bottom(1);
        w.push_bottom(2);
        w.push_bottom(3);
        assert_eq!(s.steal().success(), Some(1));
        assert_eq!(w.pop_bottom(), Some(3));
        assert_eq!(w.pop_bottom(), Some(2));
        assert!(s.steal().is_empty());
    }

    #[test]
    fn len_tracks_operations() {
        let (w, s) = deque::<u32>();
        assert_eq!(w.len(), 0);
        w.push_bottom(1);
        w.push_bottom(2);
        assert_eq!(w.len(), 2);
        let _ = s.steal();
        assert_eq!(w.len(), 1);
        let _ = w.pop_bottom();
        assert!(w.is_empty() && s.is_empty());
    }

    #[test]
    fn steal_batch_half_from_front() {
        let (w, s) = deque::<u32>();
        for i in 0..10 {
            w.push_bottom(i);
        }
        let mut out = Vec::new();
        assert_eq!(s.steal_batch_into(64, &mut out), Steal::Success(5));
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        out.clear();
        assert_eq!(s.steal_batch_into(2, &mut out), Steal::Success(2));
        assert_eq!(out, vec![5, 6]);
        assert_eq!(w.pop_bottom(), Some(9));
        out.clear();
        assert_eq!(s.steal_batch_into(1, &mut out), Steal::Success(1));
        assert_eq!(out, vec![7]);
        let _ = w.pop_bottom();
        assert_eq!(s.steal_batch_into(4, &mut out), Steal::Empty);
    }

    #[test]
    fn concurrent_sanity() {
        let (w, s) = deque::<usize>();
        const N: usize = 10_000;
        let thief = {
            let s = s.clone();
            std::thread::spawn(move || {
                let mut got = 0usize;
                let mut empties = 0usize;
                while empties < 100_000 {
                    match s.steal() {
                        Steal::Success(_) => {
                            got += 1;
                            empties = 0;
                        }
                        _ => empties += 1,
                    }
                }
                got
            })
        };
        let mut own = 0usize;
        for i in 0..N {
            w.push_bottom(i);
            if i % 2 == 0 && w.pop_bottom().is_some() {
                own += 1;
            }
        }
        while w.pop_bottom().is_some() {
            own += 1;
        }
        let stolen = thief.join().unwrap();
        assert_eq!(own + stolen, N);
    }
}
