//! A growable lock-free Chase–Lev work-stealing deque, from scratch.
//!
//! This is the dynamic circular work-stealing deque of Chase & Lev (SPAA'05),
//! with the memory orderings of Lê, Pop, Cohen & Zappa Nardelli ("Correct and
//! Efficient Work-Stealing for Weak Memory Models", PPoPP'13). The owner
//! operates on the *bottom* end ([`ChaseLevWorker::push_bottom`] /
//! [`ChaseLevWorker::pop_bottom`]); any number of thieves concurrently
//! [`ChaseLevStealer::steal`] from the *top*.
//!
//! Design notes:
//!
//! * The ring buffer grows geometrically when full. Old buffers are retired
//!   into a garbage list (freed when the deque is dropped) rather than freed
//!   eagerly, because a racing thief may still hold a pointer to a stale
//!   buffer and perform a speculative read from it. Such a read is always
//!   followed by a compare-and-swap on `top` that fails if the read was
//!   stale, so the speculatively read value is discarded without being
//!   dropped or used.
//! * Elements are moved in and out of the buffer with raw reads/writes of
//!   `MaybeUninit<T>`; ownership is tracked by the `top`/`bottom` indices.
//! * `isize` indices increase monotonically and are mapped onto the buffer
//!   with a power-of-two mask, the standard Chase–Lev trick.

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::Arc;

use crate::sync::{fence, AtomicIsize, AtomicPtr, Mutex, Ordering};
use crate::Steal;

/// Minimum ring capacity. Must be a power of two.
const MIN_CAP: usize = 16;

/// A fixed-capacity ring of `MaybeUninit<T>` slots.
struct Buffer<T> {
    storage: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: isize,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> Box<Buffer<T>> {
        debug_assert!(cap.is_power_of_two());
        let storage: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Box::new(Buffer {
            storage,
            mask: cap as isize - 1,
        })
    }

    fn cap(&self) -> usize {
        self.storage.len()
    }

    /// Writes `item` at logical index `i`.
    ///
    /// # Safety
    ///
    /// The caller is the deque's owner and `i` is outside the live range
    /// `top..bottom`: no thread may keep a value read from that slot, so
    /// overwriting it leaks nothing and races with no kept read.
    unsafe fn write(&self, i: isize, item: T) {
        let slot = self.storage[(i & self.mask) as usize].get();
        // SAFETY: the caller owns the slot (see `# Safety`); `write` on a
        // `MaybeUninit` drops nothing.
        unsafe { (*slot).write(item) };
    }

    /// Reads the value at logical index `i` without taking ownership
    /// decisions.
    ///
    /// # Safety
    ///
    /// Slot `i` was written by [`write`](Self::write) (or bit-copied there
    /// by `grow`) and `i` was in the live range when the caller read
    /// `top` and `bottom`. The read is a bit copy: the caller keeps it
    /// only after winning index `i` — a successful `top` CAS, or being the
    /// owner of an uncontended interior index — and otherwise
    /// `mem::forget`s it, so every pushed item is dropped exactly once.
    unsafe fn read(&self, i: isize) -> T {
        let slot = self.storage[(i & self.mask) as usize].get();
        // SAFETY: the slot is initialized (see `# Safety`); ownership of
        // the copy is the caller's to settle.
        unsafe { (*slot).assume_init_read() }
    }
}

/// Shared state of one deque.
struct Inner<T> {
    top: AtomicIsize,
    bottom: AtomicIsize,
    buffer: AtomicPtr<Buffer<T>>,
    /// Retired buffers, kept alive until the deque is dropped so stale
    /// thieves can still read (and then discard) from them.
    garbage: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: `top` and `bottom` are atomics. `buffer` and the pointers in
// `garbage` are buffers this `Inner` allocated and alone frees (in
// `Drop`), so they move with it as `Box`es would, and so do the `T`s in
// them, which `T: Send` allows.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: through `&Inner`, `top` and `bottom` are only touched
// atomically, `garbage` only under its mutex, and buffer slots only by
// the Chase–Lev protocol: the owner writes slots outside `top..bottom`,
// and every item read out is kept by exactly one thread (the `top` CAS
// settles each contended index). Items move between threads but are
// never shared, so `T: Send` suffices.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Inner<T> {
    fn new() -> Self {
        let buf = Box::into_raw(Buffer::<T>::alloc(MIN_CAP));
        Inner {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buffer: AtomicPtr::new(buf),
            garbage: Mutex::new(Vec::new()),
        }
    }
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Sole owner at this point: drop live elements, then free buffers.
        let t = *self.top.get_mut();
        let b = *self.bottom.get_mut();
        let buf = *self.buffer.get_mut();
        // SAFETY: `&mut self` means no handle is left, so no thread reads
        // a slot or a buffer. `top..bottom` are the live items, each
        // dropped once; `buf` and every retired buffer came from
        // `Box::into_raw` and are freed once here.
        unsafe {
            let mut i = t;
            while i < b {
                drop((*buf).read(i));
                i += 1;
            }
            drop(Box::from_raw(buf));
            for g in self.garbage.get_mut().drain(..) {
                drop(Box::from_raw(g));
            }
        }
    }
}

/// Creates a new Chase–Lev deque, returning the unique owner handle and a
/// cloneable stealer handle.
pub fn deque<T: Send>() -> (ChaseLevWorker<T>, ChaseLevStealer<T>) {
    let inner = Arc::new(Inner::new());
    (
        ChaseLevWorker {
            inner: inner.clone(),
            _not_sync: PhantomData,
        },
        ChaseLevStealer { inner },
    )
}

/// Owner end of the deque. Not `Clone`, not `Sync`: exactly one thread may
/// push/pop the bottom, which is what the algorithm requires. It is `Send`
/// (for `T: Send`), so ownership may move to another thread.
pub struct ChaseLevWorker<T> {
    inner: Arc<Inner<T>>,
    /// Makes the type `!Sync` so `&ChaseLevWorker` cannot be shared across
    /// threads; the owner discipline is enforced statically.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl<T: Send> ChaseLevWorker<T> {
    /// Pushes an item onto the bottom of the deque, growing if needed.
    pub fn push_bottom(&self, item: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = inner.buffer.load(Ordering::Relaxed);

        // SAFETY: this thread is the owner (the worker is `!Sync`), the
        // only thread that moves `bottom` or replaces `buffer`, so `buf` is
        // live. Index `b` is outside `top..bottom`, and after a grow the
        // ring has room for it, so no thief keeps a read of that slot.
        unsafe {
            if b - t >= (*buf).cap() as isize {
                buf = self.grow(t, b, buf);
            }
            (*buf).write(b, item);
        }
        // Publish the element before publishing the new bottom, so a thief
        // that observes the incremented bottom also observes the write.
        fence(Ordering::Release);
        inner.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// Doubles the buffer, copying live elements. Returns the new buffer.
    ///
    /// # Safety
    ///
    /// Only the owner calls this, and only from `push_bottom`: `old` is
    /// the current buffer and `t..b` covers its live items. `old` is
    /// retired, not freed, so a thief still reading it stays valid.
    unsafe fn grow(&self, t: isize, b: isize, old: *mut Buffer<T>) -> *mut Buffer<T> {
        // SAFETY: `old` is the live buffer, which only this thread retires.
        let old_ref = unsafe { &*old };
        let new = Buffer::<T>::alloc(old_ref.cap() * 2);
        let mut i = t;
        while i < b {
            // Raw bit-copy: ownership conceptually moves to the new buffer.
            let slot_old = old_ref.storage[(i & old_ref.mask) as usize].get();
            let slot_new = new.storage[(i & new.mask) as usize].get();
            // SAFETY: distinct allocations, one slot each; the copy is
            // initialized because `i` is live, and the old slot is never
            // dropped (retired buffers are freed without their items).
            unsafe { std::ptr::copy_nonoverlapping(slot_old, slot_new, 1) };
            i += 1;
        }
        let new = Box::into_raw(new);
        self.inner.buffer.store(new, Ordering::Release);
        self.inner.garbage.lock().push(old);
        new
    }

    /// Pops an item from the bottom of the deque.
    pub fn pop_bottom(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = inner.buffer.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::Relaxed);
        // Order the bottom decrement before reading top, against thieves'
        // (read top; read bottom) sequence.
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);

        if t <= b {
            // Non-empty.
            // SAFETY: `buf` is live (only this owner retires it) and `b`
            // is in the live range. With `t < b` no thief can reach index
            // `b`, so the copy is ours; with `t == b` only the `top` CAS
            // below makes it ours, and a lost race forgets it.
            let item = unsafe { (*buf).read(b) };
            if t == b {
                // Single element: race against thieves for it.
                if inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    // A thief won; it owns the element now. Discard our copy
                    // without dropping it.
                    std::mem::forget(item);
                    inner.bottom.store(b + 1, Ordering::Relaxed);
                    return None;
                }
                inner.bottom.store(b + 1, Ordering::Relaxed);
            }
            Some(item)
        } else {
            // Empty: restore bottom.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Pops the bottom item only if `pred` accepts it; a mismatch costs a
    /// peek (two loads and a slot read), not a pop and a push back.
    ///
    /// `pred` sees the bit image of the item at the bottom index, which a
    /// thief may already be claiming — hence `MaybeUninit`: the image
    /// says what was pushed there (compare an address, a key), not that
    /// the item is still the deque's, so `pred` must not follow pointers
    /// in it. On a match the ordinary [`pop_bottom`](Self::pop_bottom)
    /// decides the race and returns exactly that item, or `None` if a
    /// thief won it.
    pub fn pop_bottom_if(&self, pred: impl FnOnce(&MaybeUninit<T>) -> bool) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Relaxed);
        if b - t <= 0 {
            return None;
        }
        let buf = inner.buffer.load(Ordering::Relaxed);
        // SAFETY: only the owner — this thread — writes slots, moves
        // `bottom` or retires `buffer`, so slot `b - 1` of `buf` holds
        // what this thread last pushed there and nothing writes it
        // during the borrow; thieves only read slots. Viewed as
        // `MaybeUninit<T>` the borrow claims nothing about ownership.
        let image = unsafe { &*(*buf).storage[((b - 1) & (*buf).mask) as usize].get() };
        if pred(image) {
            self.pop_bottom()
        } else {
            None
        }
    }

    /// Owner-side emptiness check.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner-side length snapshot.
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Creates another stealer end for this deque.
    pub fn stealer(&self) -> ChaseLevStealer<T> {
        ChaseLevStealer {
            inner: self.inner.clone(),
        }
    }
}

impl<T> fmt::Debug for ChaseLevWorker<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaseLevWorker").finish_non_exhaustive()
    }
}

/// Thief end of the deque. Cloneable and shareable across threads.
pub struct ChaseLevStealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for ChaseLevStealer<T> {
    fn clone(&self) -> Self {
        ChaseLevStealer {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send> ChaseLevStealer<T> {
    /// Attempts to steal the item at the top of the deque.
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        // Order the top read before the bottom read, against the owner's
        // pop sequence (decrement bottom; read top).
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);

        if t < b {
            // Speculatively read the element, then validate with a CAS on
            // top. On CAS failure the read value is discarded unread.
            let buf = inner.buffer.load(Ordering::Acquire);
            // SAFETY: buffers are never freed before the deque, so `buf`
            // is valid even if already retired; the acquire load sees its
            // writes. The copy is kept only if the `top` CAS claims `t`,
            // and forgotten otherwise.
            let item = unsafe { (*buf).read(t) };
            if inner
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                Steal::Success(item)
            } else {
                std::mem::forget(item);
                Steal::Retry
            }
        } else {
            Steal::Empty
        }
    }

    /// Attempts to steal up to half of the deque in one attempt
    /// ("steal-half"), appending the stolen items to `out` in their
    /// original top-to-bottom order (oldest first).
    ///
    /// The batch size is `ceil(live / 2)` at the initial size-up read,
    /// capped at `limit` (clamped to at least 1). Returns
    /// `Steal::Success(n)` with the number of items appended,
    /// `Steal::Empty` if the deque was observed empty, or `Steal::Retry`
    /// if a race was lost before *any* item was claimed. With `limit == 1`
    /// this performs exactly the single-item [`steal`](Self::steal)
    /// protocol.
    ///
    /// # Why items are claimed one CAS at a time
    ///
    /// A single wide CAS of `top` from `t` to `t + n` would be unsound
    /// against the unchanged Chase–Lev owner: `pop_bottom` takes interior
    /// indices without touching `top` (only the final element is
    /// CAS-raced), so a wide CAS could claim an index the owner already
    /// popped, handing the same item to two threads. Instead each claim
    /// repeats the single-steal validation — re-read `bottom` behind a
    /// seq-cst fence, speculative read, CAS `top` forward by one — and the
    /// batch stops at the first failed validation. The monotonicity of
    /// `top` plus the fence pairing then gives the same exactly-once
    /// guarantee as the single steal, per claimed index.
    pub fn steal_batch_into(&self, limit: usize, out: &mut Vec<T>) -> Steal<usize> {
        let limit = limit.max(1);
        let inner = &*self.inner;
        let mut t = inner.top.load(Ordering::Acquire);
        // Order the top read before the bottom read, as in `steal`.
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);

        let live = b - t;
        if live <= 0 {
            return Steal::Empty;
        }
        let want = (live as usize).div_ceil(2).min(limit);
        let mut got = 0usize;
        while got < want {
            if got > 0 {
                // Re-validate against a fresh bottom: the owner may have
                // popped the region down to `t` since the size-up read,
                // and claiming a popped index would double-take it.
                fence(Ordering::SeqCst);
                let b = inner.bottom.load(Ordering::Acquire);
                if b - t <= 0 {
                    break;
                }
            }
            let buf = inner.buffer.load(Ordering::Acquire);
            // SAFETY: as in `steal` — `buf` outlives every handle, and the
            // copy is kept only if the `top` CAS below claims `t`.
            let item = unsafe { (*buf).read(t) };
            if inner
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                // Lost the claim race (owner or another thief); the batch
                // ends at whatever was claimed so far.
                std::mem::forget(item);
                break;
            }
            out.push(item);
            t += 1;
            got += 1;
        }
        if got == 0 {
            Steal::Retry
        } else {
            Steal::Success(got)
        }
    }

    /// Racy emptiness snapshot.
    pub fn is_empty(&self) -> bool {
        let t = self.inner.top.load(Ordering::Acquire);
        let b = self.inner.bottom.load(Ordering::Acquire);
        t >= b
    }

    /// The **known-unsound** steal-half variant rejected in the docs of
    /// [`steal_batch_into`](Self::steal_batch_into): size up once, read
    /// the whole region speculatively, then claim it with a single wide
    /// CAS of `top` from `t` to `t + n`.
    ///
    /// Against the unchanged owner this double-takes items: `pop_bottom`
    /// removes interior indices without touching `top`, so the wide CAS
    /// can succeed over a region the owner has already partly popped.
    /// Compiled only under `cfg(lhws_check_mutation)` so the model
    /// checker can *demonstrate* the unsoundness — `lhws-check` must
    /// refute this method with a concrete replayable schedule (the
    /// `chase_lev_wide_cas_unsound` scenario), turning the prose
    /// argument above into a regression test of the checker's own
    /// soundness. Never enable the cfg in production builds.
    #[cfg(lhws_check_mutation)]
    pub fn steal_batch_into_wide_cas(&self, limit: usize, out: &mut Vec<T>) -> Steal<usize> {
        let limit = limit.max(1);
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);

        let live = b - t;
        if live <= 0 {
            return Steal::Empty;
        }
        let want = (live as usize).div_ceil(2).min(limit);
        let buf = inner.buffer.load(Ordering::Acquire);
        let mut items = Vec::with_capacity(want);
        for i in 0..want as isize {
            // SAFETY: `buf` outlives every handle. Whether the copies may
            // be kept is exactly what this known-unsound variant gets
            // wrong; the checker refutes it (see above).
            items.push(unsafe { (*buf).read(t + i) });
        }
        if inner
            .top
            .compare_exchange(t, t + want as isize, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            out.append(&mut items);
            Steal::Success(want)
        } else {
            for item in items {
                std::mem::forget(item);
            }
            Steal::Retry
        }
    }
}

impl<T> fmt::Debug for ChaseLevStealer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaseLevStealer").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn lifo_for_owner() {
        let (w, _s) = deque::<u32>();
        w.push_bottom(1);
        w.push_bottom(2);
        w.push_bottom(3);
        assert_eq!(w.pop_bottom(), Some(3));
        assert_eq!(w.pop_bottom(), Some(2));
        assert_eq!(w.pop_bottom(), Some(1));
        assert_eq!(w.pop_bottom(), None);
    }

    #[test]
    fn fifo_for_thief() {
        let (w, s) = deque::<u32>();
        for i in 0..5 {
            w.push_bottom(i);
        }
        assert_eq!(s.steal().success(), Some(0));
        assert_eq!(s.steal().success(), Some(1));
        assert_eq!(w.pop_bottom(), Some(4));
        assert_eq!(s.steal().success(), Some(2));
        assert_eq!(w.pop_bottom(), Some(3));
        assert!(matches!(s.steal(), Steal::Empty));
    }

    #[test]
    fn empty_deque_behaviour() {
        let (w, s) = deque::<u32>();
        assert_eq!(w.pop_bottom(), None);
        assert!(s.steal().is_empty());
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        // Empty pops must not corrupt state.
        w.push_bottom(42);
        assert_eq!(w.pop_bottom(), Some(42));
        assert_eq!(w.pop_bottom(), None);
        assert_eq!(w.pop_bottom(), None);
        w.push_bottom(43);
        assert_eq!(s.steal().success(), Some(43));
    }

    #[test]
    fn growth_preserves_order() {
        let (w, s) = deque::<usize>();
        let n = MIN_CAP * 8 + 3;
        for i in 0..n {
            w.push_bottom(i);
        }
        assert_eq!(w.len(), n);
        for i in 0..n / 2 {
            assert_eq!(s.steal().success(), Some(i));
        }
        for i in (n / 2..n).rev() {
            assert_eq!(w.pop_bottom(), Some(i));
        }
        assert!(w.is_empty());
    }

    #[test]
    fn growth_after_wraparound() {
        let (w, s) = deque::<usize>();
        // Advance top/bottom far beyond capacity with interleaved traffic so
        // the ring wraps, then force growth.
        for round in 0..10 {
            for i in 0..MIN_CAP - 1 {
                w.push_bottom(round * 1000 + i);
            }
            for _ in 0..MIN_CAP - 1 {
                assert!(s.steal().success().is_some());
            }
        }
        let n = MIN_CAP * 4;
        for i in 0..n {
            w.push_bottom(i);
        }
        for i in 0..n {
            assert_eq!(s.steal().success(), Some(i));
        }
    }

    #[test]
    fn drop_frees_remaining_elements() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let (w, s) = deque::<D>();
            for _ in 0..40 {
                w.push_bottom(D);
            }
            drop(w.pop_bottom()); // 1 drop
            drop(s.steal().success()); // 1 drop
            drop(s);
            drop(w);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn boxed_items_survive_growth() {
        let (w, s) = deque::<Box<String>>();
        for i in 0..200 {
            w.push_bottom(Box::new(format!("item-{i}")));
        }
        for i in 0..100 {
            assert_eq!(*s.steal().success().unwrap(), format!("item-{i}"));
        }
        for i in (100..200).rev() {
            assert_eq!(*w.pop_bottom().unwrap(), format!("item-{i}"));
        }
    }

    #[test]
    fn concurrent_owner_and_thieves_each_item_once() {
        const ITEMS: usize = 50_000;
        const THIEVES: usize = 4;
        let (w, s) = deque::<usize>();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let handles: Vec<_> = (0..THIEVES)
            .map(|_| {
                let s = s.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match s.steal() {
                            Steal::Success(v) => got.push(v),
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => {
                                if done.load(Ordering::Acquire) && s.is_empty() {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }
                    got
                })
            })
            .collect();

        let mut popped = Vec::new();
        let mut next = 0usize;
        while next < ITEMS {
            // Push in small bursts, popping some back, to exercise the
            // owner/thief race on the last element.
            let burst = 1 + next % 7;
            for _ in 0..burst {
                if next < ITEMS {
                    w.push_bottom(next);
                    next += 1;
                }
            }
            if next.is_multiple_of(3) {
                if let Some(v) = w.pop_bottom() {
                    popped.push(v);
                }
            }
        }
        while let Some(v) = w.pop_bottom() {
            popped.push(v);
        }
        done.store(true, Ordering::Release);

        let mut all: Vec<usize> = popped;
        for h in handles {
            all.extend(h.join().unwrap());
        }
        assert_eq!(all.len(), ITEMS, "every item seen exactly once");
        let set: HashSet<usize> = all.iter().copied().collect();
        assert_eq!(set.len(), ITEMS, "no duplicates");
    }

    #[test]
    fn last_element_race_exactly_one_winner() {
        // The hardest Chase-Lev path: owner pop and several thieves racing
        // for a single remaining element. Exactly one side may win each
        // round.
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        const ROUNDS: usize = 5_000;
        const THIEVES: usize = 3;

        let (w, s) = deque::<usize>();
        let barrier = Arc::new(Barrier::new(THIEVES + 1));
        let wins = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let thieves: Vec<_> = (0..THIEVES)
            .map(|_| {
                let s = s.clone();
                let barrier = barrier.clone();
                let wins = wins.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    loop {
                        barrier.wait(); // round start: one element present
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        if let Steal::Success(_) = s.steal() {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                        barrier.wait(); // round end
                    }
                })
            })
            .collect();

        let mut owner_wins = 0usize;
        for _ in 0..ROUNDS {
            w.push_bottom(1);
            barrier.wait();
            if w.pop_bottom().is_some() {
                owner_wins += 1;
            }
            barrier.wait();
            assert!(w.pop_bottom().is_none(), "element must be gone");
        }
        stop.store(true, Ordering::Release);
        barrier.wait();
        for t in thieves {
            t.join().unwrap();
        }
        assert_eq!(
            owner_wins + wins.load(Ordering::Relaxed),
            ROUNDS,
            "every element claimed exactly once"
        );
    }

    #[test]
    fn steal_batch_takes_half_in_order() {
        let (w, s) = deque::<u32>();
        for i in 0..8 {
            w.push_bottom(i);
        }
        let mut out = Vec::new();
        // ceil(8/2) = 4, below the cap.
        assert_eq!(s.steal_batch_into(64, &mut out), Steal::Success(4));
        assert_eq!(out, vec![0, 1, 2, 3]);
        // 4 remain: ceil(4/2) = 2.
        out.clear();
        assert_eq!(s.steal_batch_into(64, &mut out), Steal::Success(2));
        assert_eq!(out, vec![4, 5]);
        // Owner still sees the rest, LIFO.
        assert_eq!(w.pop_bottom(), Some(7));
        assert_eq!(w.pop_bottom(), Some(6));
        assert_eq!(w.pop_bottom(), None);
        out.clear();
        assert_eq!(s.steal_batch_into(64, &mut out), Steal::Empty);
        assert!(out.is_empty());
    }

    #[test]
    fn steal_batch_respects_limit() {
        let (w, s) = deque::<u32>();
        for i in 0..100 {
            w.push_bottom(i);
        }
        let mut out = Vec::new();
        assert_eq!(s.steal_batch_into(3, &mut out), Steal::Success(3));
        assert_eq!(out, vec![0, 1, 2]);
        // A zero limit is clamped to one (the degenerate single steal).
        out.clear();
        assert_eq!(s.steal_batch_into(0, &mut out), Steal::Success(1));
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn steal_batch_limit_one_matches_single_steal() {
        // limit=1 must behave exactly like `steal` on every shape:
        // empty, single element, and deep deque.
        let (w, s) = deque::<u32>();
        let mut out = Vec::new();
        assert_eq!(s.steal_batch_into(1, &mut out), Steal::Empty);
        w.push_bottom(7);
        assert_eq!(s.steal_batch_into(1, &mut out), Steal::Success(1));
        assert_eq!(out, vec![7]);
        for i in 0..50 {
            w.push_bottom(i);
        }
        for i in 0..50 {
            out.clear();
            assert_eq!(s.steal_batch_into(1, &mut out), Steal::Success(1));
            assert_eq!(out, vec![i], "limit=1 steals exactly the top item");
        }
    }

    #[test]
    fn concurrent_growth_under_steals() {
        const ITEMS: usize = 20_000;
        let (w, s) = deque::<Box<usize>>();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let thief = {
            let s = s.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut sum = 0usize;
                let mut count = 0usize;
                loop {
                    match s.steal() {
                        Steal::Success(v) => {
                            sum += *v;
                            count += 1;
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) && s.is_empty() {
                                break;
                            }
                        }
                    }
                }
                (sum, count)
            })
        };

        let mut own_sum = 0usize;
        let mut own_count = 0usize;
        // Push everything at once to force repeated buffer growth while the
        // thief is active.
        for i in 0..ITEMS {
            w.push_bottom(Box::new(i));
        }
        while let Some(v) = w.pop_bottom() {
            own_sum += *v;
            own_count += 1;
        }
        done.store(true, Ordering::Release);
        let (stolen_sum, stolen_count) = thief.join().unwrap();
        assert_eq!(own_count + stolen_count, ITEMS);
        assert_eq!(own_sum + stolen_sum, ITEMS * (ITEMS - 1) / 2);
    }
}
