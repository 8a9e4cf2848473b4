//! Per-worker steal-policy state: victim affinity.
//!
//! The paper's thief is memoryless — every probe draws a fresh uniform
//! victim ([`StealPolicy::Uniform`]). [`StealPolicy::Affinity`] keeps a
//! little state per worker, all of it thread-local to the thief (no
//! shared writes, no atomics): remember the last victim a steal
//! succeeded against and try it again first; if the id has retired,
//! prefer a draw from the same registry shard (deques of the same owner
//! hash to one shard, so "same shard" approximates "same busy worker");
//! otherwise fall back to the uniform draw.

use lhws_deque::DequeId;

/// Probe-burst length: how many victim draws one idle step makes before
/// giving the step back (re-checking resumes, then parking). With the
/// live-set index a draw hits a stealable target in O(1) expected probes,
/// so a short burst either finds work or strongly suggests there is none.
pub(crate) const STEAL_PROBES: usize = 4;

/// Thief-local policy state. Owned by the worker, mutated only from its
/// own thread.
#[derive(Debug, Default)]
pub(crate) struct PolicyState {
    /// Last victim a steal succeeded against (Affinity).
    last_victim: Option<DequeId>,
    /// Owner of the last successful victim; indexes the registry shard
    /// preferred once the victim id itself retires.
    preferred_owner: Option<usize>,
}

impl PolicyState {
    /// The remembered last-successful victim, if any.
    #[inline]
    pub fn cached_victim(&self) -> Option<DequeId> {
        self.last_victim
    }

    /// The owner whose registry shard the thief prefers, if any.
    #[inline]
    pub fn preferred_owner(&self) -> Option<usize> {
        self.preferred_owner
    }

    /// Remembers `victim` (owned by `owner`) after a successful steal.
    pub fn record_hit(&mut self, victim: DequeId, owner: Option<usize>) {
        self.last_victim = Some(victim);
        if owner.is_some() {
            self.preferred_owner = owner;
        }
    }

    /// Forgets the cached victim id (it missed or retired). The shard
    /// preference survives: locality usually outlives one deque.
    pub fn clear_victim(&mut self) {
        self.last_victim = None;
    }

    /// Forgets the whole affinity signal — the same-shard draw came up
    /// dry, or the `AffinityStale` chaos fault poisoned the cache.
    pub fn poison(&mut self) {
        self.last_victim = None;
        self.preferred_owner = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_cache_lifecycle() {
        let mut s = PolicyState::default();
        assert_eq!(s.cached_victim(), None);
        assert_eq!(s.preferred_owner(), None);
        s.record_hit(DequeId(7), Some(3));
        assert_eq!(s.cached_victim(), Some(DequeId(7)));
        assert_eq!(s.preferred_owner(), Some(3));
        // A miss drops the id but keeps the shard preference.
        s.clear_victim();
        assert_eq!(s.cached_victim(), None);
        assert_eq!(s.preferred_owner(), Some(3));
        // A hit without a known owner keeps the previous preference.
        s.record_hit(DequeId(9), None);
        assert_eq!(s.cached_victim(), Some(DequeId(9)));
        assert_eq!(s.preferred_owner(), Some(3));
        // Poisoning wipes everything.
        s.poison();
        assert_eq!(s.cached_victim(), None);
        assert_eq!(s.preferred_owner(), None);
    }
}
