//! The global deque registry: the paper's `gDeques` array and `gTotalDeques`
//! counter (Figure 5), extended with a **live-set index** so thieves sample
//! uniformly over *live* deques instead of over all capacity.
//!
//! The paper's implementation notes, verbatim:
//!
//! * a global (across all workers) array of deques, `gDeques`;
//! * a global counter `gTotalDeques` giving the index of the next deque to
//!   allocate, incremented with an atomic fetch-and-add;
//! * `free()` does **not** deallocate — the deque goes onto the owning
//!   worker's `emptyDeques` set and is reused by later `newDeque()` calls;
//! * `randomDeque()` picks a uniformly random index in
//!   `[0, gTotalDeques)`; the chosen deque may have been freed, in which
//!   case the steal simply fails. The worst-case analysis already accounts
//!   for these failed steals.
//!
//! This module keeps the allocation half of that contract — slots are
//! written once and never removed — but thieves draw from a live-set index
//! instead of the allocated prefix (sampling the prefix is at parity with
//! no dead slots and 2–33× worse otherwise; EXPERIMENTS.md "Retired
//! arms"). Two scalability layers sit on top:
//!
//! 1. **Segmented slot storage.** Slots live in power-of-two-sized segments
//!    (8, 16, 32, …) allocated lazily on first use, so a registry configured
//!    with a large safety capacity costs memory proportional to the deques
//!    actually allocated, while every `&Slot` handed out stays valid forever
//!    (segments are never moved or freed).
//! 2. **A sharded live-set index.** Each shard owns a dense array of live
//!    deque ids maintained by swap-remove, plus a per-slot back-pointer
//!    (`live_pos`) locating the id inside its shard. Owners insert on
//!    [`register`](Registry::register)/[`reuse`](Registry::reuse) and remove
//!    on [`release`](Registry::release), serialized on a per-shard mutex;
//!    thieves call [`random_live_id`](Registry::random_live_id) to sample
//!    uniformly over live deques and hit a stealable target in O(1)
//!    expected probes even when most of the allocated prefix has been
//!    freed. The id array is stored in never-moved atomic segments, so a
//!    thief's draw is a handful of atomic loads — no lock and no
//!    read-modify-write on the steal hot path. The back-pointer doubles as
//!    an ABA guard: a release must find its own id at the recorded
//!    position, so a recycled slot can never evict a later incarnation of
//!    itself from the index.
//!
//! "Live" means *registered and not currently freed*: a suspended deque
//! waiting on a resume is empty but live (its owner will push into it
//! again), matching the paper's semantics where only `free()`d deques are
//! dead weight for thieves.

use crate::sync::{AtomicU32, AtomicU64, AtomicUsize, Mutex, OnceLock, Ordering};
use crate::{Steal, StealerHandle};

/// Index of a deque in the global registry.
///
/// Identifies a deque for the whole lifetime of the scheduler; because
/// deques are recycled rather than deallocated, an id stays valid forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DequeId(pub u32);

impl DequeId {
    /// The slab index of this deque.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DequeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Errors from registry operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryError {
    /// The configured capacity is exhausted. The capacity bounds the total
    /// number of deques ever allocated, which by Lemma 7 is at most
    /// `P * (U + 1)`; configure the registry capacity accordingly.
    Full,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Full => write!(
                f,
                "deque registry full: more than capacity deques allocated \
                 (need capacity >= P * (U + 1))"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One registered deque: the stealable end plus owner metadata.
#[derive(Debug)]
pub struct Slot<T> {
    /// Thief end of the deque.
    pub stealer: StealerHandle<T>,
    /// Id of the worker that owns (and forever will own) this deque.
    pub owner: usize,
}

/// Sentinel for "not in the live index".
const DEAD: usize = usize::MAX;

/// Smallest segment: segment `k` holds `SEG_BASE << k` slots.
const SEG_BASE: usize = 8;

/// Number of segments: enough for `8 * (2^28 - 1)` ≈ 2³¹ slots, far past
/// any `u32` deque id a scheduler could allocate.
const NSEG: usize = 28;

/// One slot cell: the once-written slot plus its live-index back-pointer.
struct SlotCell<T> {
    slot: OnceLock<Slot<T>>,
    /// Position of this deque's id inside its shard's live list, or
    /// [`DEAD`]. Written only by the owning worker (under the shard lock);
    /// read locklessly by thieves via [`Registry::is_live`].
    live_pos: AtomicUsize,
}

impl<T> SlotCell<T> {
    fn new() -> Self {
        SlotCell {
            slot: OnceLock::new(),
            live_pos: AtomicUsize::new(DEAD),
        }
    }
}

/// One shard of the live-set index: a dense swap-remove array of live ids.
///
/// The id array lives in lazily allocated power-of-two segments that are
/// never freed or moved (the registry's recycle-never-deallocate
/// discipline applied to its own index), so thieves read it **locklessly**:
/// one atomic length load plus one atomic entry load per draw, with no
/// read-modify-write to stall the steal hot path. Owner-side mutations
/// (insert, swap-remove, compaction bookkeeping) serialize on the shard
/// mutex; a thief racing a mutation at worst reads an id that was released
/// a moment ago, which its steal then finds empty — indistinguishable from
/// any lost race.
struct LiveShard {
    /// Owner-side mutation guard holding the authoritative length and the
    /// compaction threshold.
    state: Mutex<LiveShardState>,
    /// Mirror of the dense length, readable without the lock (thieves sum
    /// these to size their sample).
    len: AtomicUsize,
    /// Lazily allocated entry segments (segment `k` holds `SEG_BASE << k`
    /// ids); never freed or moved, which is what keeps readers safe.
    entries: Segments<AtomicU32>,
}

/// Mutex-guarded part of a [`LiveShard`].
struct LiveShardState {
    /// Dense length of the id array.
    len: usize,
    /// Logical capacity: the high-water of `len` since the last
    /// compaction. Segment memory is recycled, never deallocated; a
    /// compaction re-arms this threshold after a mass release (and is what
    /// the registry's compaction counter counts).
    cap: usize,
}

impl LiveShard {
    fn new() -> Self {
        LiveShard {
            state: Mutex::new(LiveShardState { len: 0, cap: 0 }),
            len: AtomicUsize::new(0),
            entries: (0..NSEG).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Entry slot `i`, allocating its segment if needed (writer path; must
    /// hold the shard mutex).
    fn entry_or_alloc(&self, i: usize) -> &AtomicU32 {
        let (k, off) = locate(i);
        let seg = self.entries[k].get_or_init(|| {
            (0..(SEG_BASE << k))
                .map(|_| AtomicU32::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        &seg[off]
    }

    /// Entry slot `i`, if its segment exists (lock-free reader path).
    fn entry(&self, i: usize) -> Option<&AtomicU32> {
        let (k, off) = locate(i);
        self.entries.get(k)?.get()?.get(off)
    }
}

/// Lazily allocated, never-moved power-of-two segment array addressed by
/// [`locate`]: the storage scheme shared by the slot slab and each
/// shard's live-id array.
type Segments<E> = Box<[OnceLock<Box<[E]>>]>;

/// Splits a global slot index into (segment, offset-within-segment).
///
/// Segment `k` covers indices `[8·(2ᵏ−1), 8·(2ᵏ⁺¹−1))`, so the segment of
/// index `i` is `floor(log2(i/8 + 1))` and the offset is what remains.
fn locate(i: usize) -> (usize, usize) {
    let q = (i >> 3) + 1;
    let k = (usize::BITS - 1 - q.leading_zeros()) as usize;
    let offset = i - (((1usize << k) - 1) << 3);
    (k, offset)
}

/// The global deque slab (`gDeques` + `gTotalDeques`) plus the live-set
/// index thieves sample from.
pub struct Registry<T> {
    /// Lazily allocated power-of-two segments; never freed or moved.
    segments: Segments<SlotCell<T>>,
    /// `gTotalDeques`: next slot index to allocate.
    count: AtomicUsize,
    /// Hard cap on `count` (Full past this).
    capacity: usize,
    /// Live-set shards; a deque lives in shard `owner % shards.len()`, so
    /// each worker's updates stay on one shard.
    shards: Box<[LiveShard]>,
    /// High-water mark of the live-set size (all shards summed).
    live_high_water: AtomicUsize,
    /// Number of shard-list compactions (capacity shrinks after mass
    /// releases).
    compactions: AtomicU64,
}

impl<T: Send> Registry<T> {
    /// Creates a registry with room for `capacity` deques and a single
    /// live-set shard. Equivalent to `with_capacity_and_shards(capacity, 1)`.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_shards(capacity, 1)
    }

    /// Creates a registry with room for `capacity` deques and `shards`
    /// live-set shards (clamped to at least 1). Shard count should match
    /// the number of workers: a deque's shard is `owner % shards`, so with
    /// one shard per worker, owners never contend on each other's shard.
    pub fn with_capacity_and_shards(capacity: usize, shards: usize) -> Self {
        let segments: Segments<SlotCell<T>> = (0..NSEG).map(|_| OnceLock::new()).collect();
        let shards: Box<[LiveShard]> = (0..shards.max(1)).map(|_| LiveShard::new()).collect();
        Registry {
            segments,
            count: AtomicUsize::new(0),
            capacity,
            shards,
            live_high_water: AtomicUsize::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    /// Returns the cell for slot `i`, if its segment has been allocated.
    fn cell(&self, i: usize) -> Option<&SlotCell<T>> {
        let (k, off) = locate(i);
        self.segments.get(k)?.get()?.get(off)
    }

    fn shard_of(&self, owner: usize) -> &LiveShard {
        &self.shards[owner % self.shards.len()]
    }

    /// Inserts `id` into its owner's shard. Caller must be the owner (or
    /// hold exclusive use of the deque, e.g. during registration).
    fn live_insert(&self, id: DequeId, owner: usize) {
        let shard = self.shard_of(owner);
        let mut st = shard.state.lock();
        let cell = self.cell(id.index()).expect("inserting unallocated slot");
        debug_assert_eq!(
            cell.live_pos.load(Ordering::Relaxed),
            DEAD,
            "deque {id} inserted into live index twice"
        );
        shard.entry_or_alloc(st.len).store(id.0, Ordering::Release);
        cell.live_pos.store(st.len, Ordering::Release);
        st.len += 1;
        st.cap = st.cap.max(st.len);
        shard.len.store(st.len, Ordering::Release);
        drop(st);
        let total = self.live_len();
        self.live_high_water.fetch_max(total, Ordering::Relaxed);
    }

    /// Registers a new deque owned by `owner`, returning its global id.
    ///
    /// This is the allocation path of `newDeque()` (Figure 5): an atomic
    /// fetch-and-add on `gTotalDeques` followed by a write of the slot.
    /// A thief may observe the incremented counter before the slot write
    /// lands; it then sees an unset slot and treats it as a failed steal.
    /// The new deque is immediately live.
    pub fn register(
        &self,
        owner: usize,
        stealer: StealerHandle<T>,
    ) -> Result<DequeId, RegistryError> {
        let i = self.count.fetch_add(1, Ordering::Relaxed);
        if i >= self.capacity {
            // Back out so `len()` keeps meaning "allocated prefix"; several
            // racing over-allocations all land here and all back out.
            self.count.fetch_sub(1, Ordering::Relaxed);
            return Err(RegistryError::Full);
        }
        let (k, off) = locate(i);
        let seg = self.segments[k].get_or_init(|| {
            (0..(SEG_BASE << k))
                .map(|_| SlotCell::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        seg[off]
            .slot
            .set(Slot { stealer, owner })
            .unwrap_or_else(|_| unreachable!("registry slot {i} written twice"));
        let id = DequeId(i as u32);
        self.live_insert(id, owner);
        Ok(id)
    }

    /// Removes `id` from the live index (the deque was `free()`d into its
    /// owner's recycling pool). Must be called by the owner, at most once
    /// per registration/reuse cycle. Returns `true` when the removal
    /// triggered a shard-list compaction.
    ///
    /// The swap-remove is ABA-guarded: the id recorded at the slot's
    /// back-pointer position must be `id` itself, so a stale release can
    /// never evict a different (recycled) deque from the index.
    pub fn release(&self, id: DequeId) -> bool {
        let Some(cell) = self.cell(id.index()) else {
            debug_assert!(false, "releasing unallocated deque {id}");
            return false;
        };
        let owner = match cell.slot.get() {
            Some(slot) => slot.owner,
            None => {
                debug_assert!(false, "releasing unregistered deque {id}");
                return false;
            }
        };
        let shard = self.shard_of(owner);
        let mut st = shard.state.lock();
        let pos = cell.live_pos.swap(DEAD, Ordering::AcqRel);
        if pos == DEAD {
            debug_assert!(false, "deque {id} released while not live");
            return false;
        }
        debug_assert_eq!(
            shard.entry(pos).map(|e| e.load(Ordering::Relaxed)),
            Some(id.0),
            "live index corrupt at {id}"
        );
        st.len -= 1;
        if pos != st.len {
            // The former tail moves into `pos`; fix its back-pointer. A
            // lock-free reader may briefly see the tail id at both
            // positions (or the released id at `pos`) — either way it
            // reads an id that was live an instant ago, so its steal just
            // misses.
            let moved = shard
                .entry(st.len)
                .expect("tail entry exists")
                .load(Ordering::Relaxed);
            shard
                .entry(pos)
                .expect("released entry exists")
                .store(moved, Ordering::Release);
            self.cell(moved as usize)
                .expect("moved id has a cell")
                .live_pos
                .store(pos, Ordering::Release);
        }
        shard.len.store(st.len, Ordering::Release);
        // Compaction after a mass release: when the array is mostly dead,
        // re-arm the threshold at twice the survivors. Segment memory is
        // recycled, never deallocated (readers depend on it staying put);
        // the counted event marks the shard absorbing a release burst.
        if st.cap > 64 && st.len < st.cap / 4 {
            st.cap = st.len * 2;
            self.compactions.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Rescues the live deques of a dead worker: collects every id in
    /// `owner`'s shard whose slot records `owner`, removes each from the
    /// live index (via [`release`](Self::release)), and returns the ids so
    /// the supervisor can drain their tasks through the slots' stealer
    /// ends.
    ///
    /// Must only be called when `owner` is known to be dead (its scheduler
    /// loop panicked and has not been respawned yet): rescue takes over the
    /// owner-side mutation rights the dead incarnation held, and a live
    /// owner racing it would double-release. Other owners sharing the
    /// shard may mutate it concurrently — the walk snapshots candidates
    /// under the shard lock and each release re-validates through the
    /// ABA-guarded back-pointer, so a concurrent swap-remove by a shard
    /// neighbor is harmless. Thief-side reads stay lock-free throughout;
    /// a thief that drew a rescued id mid-call just eats a failed steal,
    /// exactly like any dead-slot probe.
    pub fn rescue(&self, owner: usize) -> Vec<DequeId> {
        let shard = self.shard_of(owner);
        let mut ids = Vec::new();
        {
            let st = shard.state.lock();
            for i in 0..st.len {
                if let Some(e) = shard.entry(i) {
                    let id = DequeId(e.load(Ordering::Relaxed));
                    if self.owner_of(id) == Some(owner) {
                        ids.push(id);
                    }
                }
            }
        }
        // Release outside the walk: release() re-locks the shard per id
        // and re-validates the back-pointer, so ids moved by concurrent
        // neighbor swap-removes are still released exactly once.
        for &id in &ids {
            self.release(id);
        }
        ids
    }

    /// Re-inserts a recycled deque into the live index: the owner popped it
    /// from its free pool and will use it as its active deque again. Must be
    /// called by the owner, only after a matching [`release`](Self::release).
    pub fn reuse(&self, id: DequeId) {
        let owner = self
            .owner_of(id)
            .expect("reusing a deque that was never registered");
        self.live_insert(id, owner);
    }

    /// True if `id` is currently in the live index. Lock-free; racy by
    /// nature (the answer may change the instant it is returned).
    pub fn is_live(&self, id: DequeId) -> bool {
        self.cell(id.index())
            .map(|c| c.live_pos.load(Ordering::Acquire) != DEAD)
            .unwrap_or(false)
    }

    /// Number of deques currently in the live index (racy snapshot summed
    /// over shards).
    pub fn live_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.len.load(Ordering::Acquire))
            .sum()
    }

    /// High-water mark of [`live_len`](Self::live_len) over the registry's
    /// lifetime. By Lemma 7 this is bounded by `P * (U + 1)`.
    pub fn live_high_water(&self) -> usize {
        self.live_high_water.load(Ordering::Relaxed)
    }

    /// Number of shard-list compactions performed by
    /// [`release`](Self::release).
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Number of live-set shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The current value of `gTotalDeques`: number of deques ever allocated.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed).min(self.capacity)
    }

    /// True if no deque has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of deques this registry can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the slot for `id`, if the registering write has landed.
    pub fn get(&self, id: DequeId) -> Option<&Slot<T>> {
        self.cell(id.index()).and_then(|c| c.slot.get())
    }

    /// Id of the worker that owns deque `id`, if the registering write has
    /// landed. Owners never change (freed deques are recycled by the same
    /// worker), so the answer is stable once `Some`.
    pub fn owner_of(&self, id: DequeId) -> Option<usize> {
        self.get(id).map(|s| s.owner)
    }

    /// Attempts to steal from deque `id` (the paper's `popTop` on
    /// `randomDeque()`'s result). An unset slot reads as an empty deque.
    pub fn steal(&self, id: DequeId) -> Steal<T> {
        match self.get(id) {
            Some(slot) => slot.stealer.steal(),
            None => Steal::Empty,
        }
    }

    /// Steal-half from deque `id`: up to `ceil(live / 2)` items (capped at
    /// `limit`, clamped to at least 1) appended to `out` in original
    /// order. An unset slot reads as an empty deque. `limit == 1` is
    /// exactly [`steal`](Self::steal).
    pub fn steal_batch(&self, id: DequeId, limit: usize, out: &mut Vec<T>) -> Steal<usize> {
        match self.get(id) {
            Some(slot) => slot.stealer.steal_batch_into(limit, out),
            None => Steal::Empty,
        }
    }

    /// Maps a uniform random value onto a **live** deque id: uniform over
    /// the live set (to within the race window of concurrent
    /// register/release traffic). Returns `None` when the live set is
    /// empty.
    ///
    /// The thief sums the shard lengths without locks, widening-multiplies
    /// the uniform value onto the total (`(uniform * n) >> 64`: the cost of
    /// `uniform % n` without its bias toward small indices), walks shards
    /// to the target, and
    /// reads the landing entry with a single atomic load — the entire draw
    /// is lock-free and RMW-free, so consecutive draws pipeline instead of
    /// serializing on a mutex. If concurrent releases shrink a shard
    /// mid-walk the target index is clamped; if they drain the landing
    /// shard entirely the walk continues into the next non-empty shard, so
    /// a live deque is returned whenever one exists for the duration of
    /// the call. A draw racing a release may return an id that died
    /// mid-call; the steal then finds it empty, like any lost race.
    pub fn random_live_id(&self, uniform: u64) -> Option<DequeId> {
        let total: usize = self.live_len();
        if total == 0 {
            return None;
        }
        let mut target = ((uniform as u128 * total as u128) >> 64) as usize;
        // Two passes over the shards: the first walks to the sampled
        // position, the second absorbs concurrent shrinks by taking the
        // first non-empty shard after the landing point.
        for shard in self.shards.iter().chain(self.shards.iter()) {
            let n = shard.len.load(Ordering::Acquire);
            if n == 0 {
                continue;
            }
            if target < n {
                if let Some(e) = shard.entry(target) {
                    return Some(DequeId(e.load(Ordering::Acquire)));
                }
                // Landing segment raced away (cannot normally happen —
                // segments are never freed): take the next shard's head.
                target = 0;
            } else {
                target -= n;
            }
        }
        // Everything we looked at drained mid-walk; last resort, scan for
        // any remaining live id.
        for shard in self.shards.iter() {
            if shard.len.load(Ordering::Acquire) > 0 {
                if let Some(e) = shard.entry(0) {
                    return Some(DequeId(e.load(Ordering::Acquire)));
                }
            }
        }
        None
    }
}

impl<T> std::fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field(
                "live_high_water",
                &self.live_high_water.load(Ordering::Relaxed),
            )
            .field("compactions", &self.compactions.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DequeKind, WorkerHandle};

    #[test]
    fn register_and_steal() {
        let reg = Registry::with_capacity(8);
        let (w, s) = WorkerHandle::new(DequeKind::ChaseLev);
        let id = reg.register(0, s).unwrap();
        assert_eq!(id, DequeId(0));
        assert_eq!(reg.len(), 1);
        w.push_bottom(99);
        assert_eq!(reg.steal(id).success(), Some(99));
        assert!(reg.steal(id).is_empty());
    }

    #[test]
    fn sequential_ids() {
        let reg: Registry<u32> = Registry::with_capacity(4);
        for i in 0..4 {
            let (_w, s) = WorkerHandle::new(DequeKind::Mutex);
            let id = reg.register(i, s).unwrap();
            assert_eq!(id.index(), i);
        }
        assert_eq!(reg.len(), 4);
    }

    #[test]
    fn capacity_exhaustion() {
        let reg: Registry<u32> = Registry::with_capacity(2);
        let (_w1, s1) = WorkerHandle::new(DequeKind::Mutex);
        let (_w2, s2) = WorkerHandle::new(DequeKind::Mutex);
        let (_w3, s3) = WorkerHandle::new(DequeKind::Mutex);
        assert!(reg.register(0, s1).is_ok());
        assert!(reg.register(0, s2).is_ok());
        assert_eq!(reg.register(0, s3), Err(RegistryError::Full));
        // A failed registration must not corrupt the count.
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn random_live_id_empty_registry() {
        let reg: Registry<u32> = Registry::with_capacity(4);
        assert_eq!(reg.random_live_id(12345), None);
    }

    #[test]
    fn owner_metadata() {
        let reg: Registry<u32> = Registry::with_capacity(4);
        let (_w, s) = WorkerHandle::new(DequeKind::ChaseLev);
        let id = reg.register(7, s).unwrap();
        assert_eq!(reg.get(id).unwrap().owner, 7);
        assert_eq!(reg.owner_of(id), Some(7));
        assert_eq!(reg.owner_of(DequeId(3)), None, "unset slot has no owner");
    }

    #[test]
    fn concurrent_registration_unique_ids() {
        let reg = std::sync::Arc::new(Registry::<u32>::with_capacity_and_shards(1024, 4));
        let mut handles = Vec::new();
        for t in 0..8 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for _ in 0..100 {
                    let (w, s) = WorkerHandle::new(DequeKind::ChaseLev);
                    ids.push(reg.register(t, s).unwrap());
                    // Keep the worker alive long enough to register; deque
                    // contents do not matter for this test.
                    drop(w);
                }
                ids
            }));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 800, "ids are unique");
        assert_eq!(reg.len(), 800);
        assert_eq!(reg.live_len(), 800, "all registered deques are live");
        assert_eq!(reg.live_high_water(), 800);
    }

    #[test]
    fn segment_math_is_contiguous() {
        // Every index maps into exactly one (segment, offset) and offsets
        // are in range for the segment's size.
        let mut prev = (0usize, usize::MAX);
        for i in 0..10_000usize {
            let (k, off) = locate(i);
            assert!(off < (SEG_BASE << k), "offset {off} out of segment {k}");
            if (k, off) == (prev.0, prev.1) {
                panic!("indices {i} and {} collide", i - 1);
            }
            if k == prev.0 {
                assert_eq!(off, prev.1.wrapping_add(1), "gap inside segment {k}");
            } else {
                assert_eq!(k, prev.0 + 1, "segment skipped at index {i}");
                assert_eq!(off, 0, "new segment {k} does not start at 0");
            }
            prev = (k, off);
        }
    }

    #[test]
    fn register_across_segment_boundaries() {
        let reg: Registry<u32> = Registry::with_capacity(1 << 12);
        let mut ids = Vec::new();
        for i in 0..100 {
            let (_w, s) = WorkerHandle::new(DequeKind::Mutex);
            ids.push(reg.register(i, s).unwrap());
        }
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(reg.owner_of(*id), Some(i), "slot {i} survived growth");
        }
    }

    #[test]
    fn release_and_reuse_cycle() {
        let reg: Registry<u32> = Registry::with_capacity(8);
        let (_w, s) = WorkerHandle::new(DequeKind::ChaseLev);
        let id = reg.register(0, s).unwrap();
        assert!(reg.is_live(id));
        assert_eq!(reg.live_len(), 1);
        reg.release(id);
        assert!(!reg.is_live(id));
        assert_eq!(reg.live_len(), 0);
        assert_eq!(reg.len(), 1, "release never deallocates");
        reg.reuse(id);
        assert!(reg.is_live(id));
        assert_eq!(reg.live_len(), 1);
    }

    #[test]
    fn random_live_id_skips_dead() {
        let reg: Registry<u32> = Registry::with_capacity(64);
        let mut ids = Vec::new();
        for _ in 0..16 {
            let (_w, s) = WorkerHandle::new(DequeKind::Mutex);
            ids.push(reg.register(0, s).unwrap());
        }
        // Kill all but three.
        let survivors: Vec<_> = vec![ids[3], ids[8], ids[15]];
        for id in &ids {
            if !survivors.contains(id) {
                reg.release(*id);
            }
        }
        assert_eq!(reg.live_len(), 3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..300u64 {
            let u = i.wrapping_mul(u64::MAX / 300);
            let id = reg.random_live_id(u).unwrap();
            assert!(survivors.contains(&id), "sampled dead deque {id}");
            seen.insert(id);
        }
        assert_eq!(seen.len(), 3, "all live deques reachable");

        // Retire between draw and steal — the one way a thief still lands
        // on a dead target (the worker's `StealOutcome::Dead`): the drawn
        // id was live, its owner frees it, the steal reads empty and the
        // id is no longer live.
        let drawn = reg.random_live_id(0).unwrap();
        reg.release(drawn);
        assert!(reg.steal(drawn).is_empty());
        assert!(!reg.is_live(drawn));
    }

    #[test]
    fn swap_remove_fixes_moved_backpointer() {
        let reg: Registry<u32> = Registry::with_capacity(8);
        let mut ids = Vec::new();
        for _ in 0..4 {
            let (_w, s) = WorkerHandle::new(DequeKind::Mutex);
            ids.push(reg.register(0, s).unwrap());
        }
        // Releasing the head swap-moves the tail into position 0; the
        // tail must then still be releasable (its back-pointer was fixed).
        reg.release(ids[0]);
        reg.release(ids[3]);
        assert_eq!(reg.live_len(), 2);
        assert!(reg.is_live(ids[1]));
        assert!(reg.is_live(ids[2]));
    }

    #[test]
    fn compaction_fires_after_mass_release() {
        let reg: Registry<u32> = Registry::with_capacity(2048);
        let mut ids = Vec::new();
        for _ in 0..1024 {
            let (_w, s) = WorkerHandle::new(DequeKind::Mutex);
            ids.push(reg.register(0, s).unwrap());
        }
        let mut compacted = false;
        for id in &ids[..1000] {
            compacted |= reg.release(*id);
        }
        assert!(compacted, "mass release should compact the shard list");
        assert!(reg.compactions() > 0);
        assert_eq!(reg.live_len(), 24);
        assert_eq!(reg.live_high_water(), 1024);
    }

    #[test]
    fn rescue_collects_only_dead_owners_deques() {
        // Two owners sharing one shard (owner % 1): rescue(0) must take
        // exactly owner 0's live deques, leave owner 1's alone, and leave
        // already-released deques out.
        let reg = Registry::with_capacity(16);
        let mut keep = Vec::new(); // worker ends kept alive
        let mut mine = Vec::new();
        let mut theirs = Vec::new();
        for i in 0..3 {
            let (w, s) = WorkerHandle::new(DequeKind::ChaseLev);
            let id = reg.register(0, s).unwrap();
            w.push_bottom(100 + i);
            keep.push(w);
            mine.push(id);
        }
        for _ in 0..2 {
            let (w, s) = WorkerHandle::new(DequeKind::ChaseLev);
            theirs.push(reg.register(1, s).unwrap());
            keep.push(w);
        }
        reg.release(mine[1]); // freed before the death: not rescued
        let mut rescued = reg.rescue(0);
        rescued.sort();
        assert_eq!(rescued, vec![mine[0], mine[2]]);
        for id in &rescued {
            assert!(!reg.is_live(*id), "rescued deque left in live index");
        }
        for id in &theirs {
            assert!(reg.is_live(*id), "neighbor's deque evicted by rescue");
        }
        // The rescued deques' tasks drain through the stealer ends.
        let drained: Vec<u32> = rescued
            .iter()
            .filter_map(|id| reg.steal(*id).success())
            .collect();
        assert_eq!(drained, vec![100, 102]);
        // A second rescue finds nothing (idempotent on an empty live set).
        assert!(reg.rescue(0).is_empty());
    }

    #[test]
    fn steal_batch_through_registry() {
        let reg = Registry::with_capacity(8);
        let (w, s) = WorkerHandle::new(DequeKind::ChaseLev);
        let id = reg.register(0, s).unwrap();
        for i in 0..8u32 {
            w.push_bottom(i);
        }
        let mut out = Vec::new();
        assert_eq!(reg.steal_batch(id, 16, &mut out), Steal::Success(4));
        assert_eq!(out, vec![0, 1, 2, 3]);
        // Unset slot reads as empty.
        assert_eq!(reg.steal_batch(DequeId(5), 16, &mut out), Steal::Empty);
    }

    #[test]
    fn live_ids_spread_over_shards() {
        let reg: Registry<u32> = Registry::with_capacity_and_shards(64, 4);
        assert_eq!(reg.shard_count(), 4);
        for owner in 0..8 {
            let (_w, s) = WorkerHandle::new(DequeKind::Mutex);
            reg.register(owner, s).unwrap();
        }
        assert_eq!(reg.live_len(), 8);
        // Sampling must reach deques in every shard.
        let mut seen = std::collections::HashSet::new();
        for i in 0..400u64 {
            let u = i.wrapping_mul(u64::MAX / 400);
            seen.insert(reg.random_live_id(u).unwrap());
        }
        assert_eq!(seen.len(), 8);
    }
}
