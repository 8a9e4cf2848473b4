//! The thief: what an idle worker does when it has no deque of its own to
//! switch to and the injector is empty (Figure 3's steal branch). Victim
//! selection lives here and nowhere else.
//!
//! Whom to rob is the paper's rule: the thief is memoryless, and every
//! probe draws a fresh uniformly random deque from the global registry —
//! Figure 3's `randomDeque()`, taken over the registry's *live* set
//! (DESIGN.md §11). How much to take is steal-half, capped at
//! [`STEAL_BATCH`]. Neither is configurable: the alternatives this runtime
//! once carried (worker-then-deque, victim affinity, an adaptive probe
//! burst, single-task steals) each lost on the end-to-end benchmark and
//! are gone; EXPERIMENTS.md "Retired arms" has the rows.

use std::sync::Arc;

use lhws_deque::{DequeId, Steal, WorkerHandle};

use crate::fault::FaultSite;
use crate::metrics::{Counter, WorkerBlock};
use crate::rng::{splitmix64, SplitMix64, GOLDEN_GAMMA};
use crate::runtime::RtInner;
use crate::task::{Job, TaskRef};
use crate::trace::{EventKind, StealOutcome, NONE_ID};

/// Probe-burst length: how many victim draws one idle step makes before
/// giving the step back (re-checking resumes, then parking). With the
/// live-set index a draw hits a stealable target in O(1) expected probes,
/// so a short burst either finds work or strongly suggests there is none.
const STEAL_PROBES: usize = 4;

/// How many times a steal attempt re-tries the same deque when the
/// underlying pop-top reports a benign race ([`Steal::Retry`]) before
/// giving the attempt up. Retrying the same victim a few times is cheaper
/// than a fresh random victim draw while the race window is tiny; an
/// unbounded loop could livelock against a fast owner.
const STEAL_RETRIES: usize = 4;

/// Steal-half cap: one steal claims `min(ceil(live / 2), STEAL_BATCH)` of
/// the victim's tasks. A batch amortizes the victim draw, the registry
/// lookup and the thief's cold miss on the victim's top over several
/// tasks, which is what a deep deque (one root spawning thousands of
/// leaves) needs; on a shallow one `ceil(live / 2)` is 1 and this is the
/// paper's single steal. A constant by measurement (EXPERIMENTS.md "The
/// steal verdict").
const STEAL_BATCH: usize = 8;

/// Base seed of the per-worker victim-draw streams. A constant: which
/// victim a thief draws is not part of any result, only of its timing.
const VICTIM_SEED: u64 = 0x1A7E_11C1;

/// Worker `index`'s victim-draw stream. Its start is hashed, not merely
/// strided: a SplitMix64 state advances by γ per draw, so starting worker
/// `i` at a bare `VICTIM_SEED + γ·(i + 1)` would make worker `i + 1`'s
/// stream worker `i`'s shifted by one draw.
fn victim_rng(index: usize) -> SplitMix64 {
    let stride = GOLDEN_GAMMA.wrapping_mul(index as u64 + 1);
    SplitMix64::new(splitmix64(VICTIM_SEED.wrapping_add(stride)))
}

/// A worker's thief half: the victim-draw RNG and the landing buffer — no
/// victim memory survives from one probe to the next. Owned by the
/// worker, used only from its own thread.
pub(crate) struct Thief {
    rt: Arc<RtInner>,
    /// The worker this thief steals for.
    index: usize,
    rng: SplitMix64,
    /// What one steal claims off the victim, before its slots are
    /// promoted. Empty between steals.
    claimed: Vec<Job>,
    /// Where a multi-task steal lands: its first task is returned as the
    /// worker's assigned task, the rest waits here for
    /// [`Thief::land_overflow`]. Empty between idle steps.
    scratch: Vec<TaskRef>,
}

impl Thief {
    pub fn new(rt: Arc<RtInner>, index: usize) -> Thief {
        Thief {
            rt,
            index,
            rng: victim_rng(index),
            claimed: Vec::new(),
            scratch: Vec::new(),
        }
    }

    #[inline]
    fn ctr(&self) -> &WorkerBlock {
        self.rt.counters.worker(self.index)
    }

    /// Thief mode for one idle step: a bounded burst of probes. Every probe
    /// is one full steal attempt (one `steals_attempted` bump paired with
    /// exactly one `Steal` trace event); the exponential backoff between
    /// failed probes keeps a pack of idle thieves from hammering the
    /// registry shards.
    ///
    /// A lone worker makes no probe: every deque in the registry is its
    /// own, and one with work is its active deque or on its ready list,
    /// which the idle step looked at first.
    pub fn steal_burst(&mut self) -> Option<TaskRef> {
        if self.rt.config.workers == 1 {
            return None;
        }
        for probe in 0..STEAL_PROBES {
            self.ctr().bump(Counter::StealsAttempted);
            if let Some(task) = self.try_steal() {
                self.ctr().bump(Counter::StealsSucceeded);
                return Some(task);
            }
            // Between failed probes: give the step back if anything
            // newsworthy arrived, else back off briefly.
            if self.rt.is_shutdown()
                || self.rt.injector_nonempty()
                || self.rt.inbox_nonempty(self.index)
            {
                break;
            }
            for _ in 0..(1usize << probe) {
                std::hint::spin_loop();
            }
        }
        None
    }

    /// Pushes what the last successful [`Thief::steal_burst`] claimed
    /// beyond its first task onto `deque` — the fresh deque the worker
    /// opened for the stolen work — in reverse, so the owner's LIFO pops
    /// replay the batch in its original top-to-bottom order and other
    /// thieves can re-steal the tail at once. No-op after a one-task steal.
    pub fn land_overflow(&mut self, deque: &WorkerHandle<Job>) {
        for task in self.scratch.drain(..).rev() {
            deque.push_bottom(Job::task(task));
        }
    }

    /// Tasks claimed by a steal but not yet landed: only ever non-empty if
    /// the worker's loop panicked between the two, for its respawn to
    /// salvage.
    pub fn take_unlanded(&mut self) -> Vec<TaskRef> {
        std::mem::take(&mut self.scratch)
    }

    /// One steal attempt (exactly one `Steal` trace event — including
    /// attempts that never reach a victim deque — so trace steal counts
    /// match `steals_attempted` exactly).
    fn try_steal(&mut self) -> Option<TaskRef> {
        // Forced failure before the victim draw: from the scheduler's
        // perspective, a steal that lost its race (retry storms under
        // high rates).
        if self
            .rt
            .faults
            .as_ref()
            .is_some_and(|f| f.fires(FaultSite::StealFail))
        {
            self.trace_steal(None, StealOutcome::LostRace);
            return None;
        }
        // The paper's memoryless `randomDeque()` over the live set.
        let Some(id) = self.rt.registry.random_live_id(self.rng.next_u64()) else {
            self.trace_steal(None, StealOutcome::Empty);
            return None;
        };
        let (got, outcome) = self.steal_checked(id);
        self.trace_steal(Some(id), outcome);
        got
    }

    fn trace(&self, kind: EventKind) {
        if let Some(t) = &self.rt.tracer {
            t.record(self.index, kind);
        }
    }

    fn trace_steal(&self, victim: Option<DequeId>, outcome: StealOutcome) {
        if self.rt.tracer.is_none() {
            // The owner lookup below is trace-only metadata.
            return;
        }
        let owner = victim.and_then(|id| self.rt.registry.owner_of(id));
        self.trace(EventKind::Steal {
            victim_deque: victim.map_or(NONE_ID, |id| id.index() as u32),
            victim_worker: owner.map_or(NONE_ID, |w| w as u32),
            outcome,
        });
    }

    /// One steal against `id` with dead-target accounting.
    fn steal_checked(&mut self, id: DequeId) -> (Option<TaskRef>, StealOutcome) {
        let (task, mut outcome) = self.steal_from(id);
        if task.is_none() && !self.rt.registry.is_live(id) {
            // The victim retired between the draw and the steal (the
            // live-set draw never returns an already-freed slot, so this
            // is the only way to land on one). The paper's
            // `randomDeque()` simply eats such failures; they stay
            // counted so a regression of the index shows up.
            self.ctr().bump(Counter::StealsDeadTarget);
            outcome = StealOutcome::Dead;
        }
        (task, outcome)
    }

    /// One steal-half on victim deque `id`: the first claimed task is
    /// returned, the rest stays in `scratch`. Every fork slot in the batch
    /// is promoted at once, before the batch goes anywhere: its owner is
    /// waiting for the publish. A [`Steal::Retry`] from the
    /// deque (a benign race) re-tries the same victim up to
    /// [`STEAL_RETRIES`] times before the attempt counts as failed. Each
    /// inner retry is counted (`steal_retries`) *before* the backoff spin,
    /// so the counter is exact even mid-spin.
    fn steal_from(&mut self, id: DequeId) -> (Option<TaskRef>, StealOutcome) {
        debug_assert!(self.scratch.is_empty());
        for _ in 0..STEAL_RETRIES {
            match self
                .rt
                .registry
                .steal_batch(id, STEAL_BATCH, &mut self.claimed)
            {
                Steal::Success(n) => {
                    debug_assert_eq!(n, self.claimed.len());
                    let c = self.rt.counters.worker(self.index);
                    for job in self.claimed.drain(..) {
                        let (task, promoted) = job.into_stolen(self.rt.id);
                        if promoted {
                            c.bump(Counter::TasksSpawned);
                            c.bump(Counter::ForksPromoted);
                        }
                        self.scratch.push(task);
                    }
                    if n >= 2 {
                        let c = self.ctr();
                        c.add(Counter::StealBatchTasks, n as u64);
                        self.trace(EventKind::StealBatch {
                            victim: id.index() as u32,
                            n: n as u32,
                        });
                    }
                    return (Some(self.scratch.remove(0)), StealOutcome::Success);
                }
                Steal::Empty => return (None, StealOutcome::Empty),
                Steal::Retry => {
                    self.ctr().bump(Counter::StealRetries);
                    std::hint::spin_loop();
                }
            }
        }
        (None, StealOutcome::LostRace)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::victim_rng;

    #[test]
    fn victim_streams_are_disjoint_and_never_shifted_copies() {
        const DRAWS: usize = 256;
        let streams: Vec<Vec<u64>> = (0..4)
            .map(|i| {
                let mut rng = victim_rng(i);
                (0..DRAWS).map(|_| rng.next_u64()).collect()
            })
            .collect();
        for (a, sa) in streams.iter().enumerate() {
            let seen: HashSet<u64> = sa.iter().copied().collect();
            for (b, sb) in streams.iter().enumerate().filter(|&(b, _)| b != a) {
                assert!(
                    sb.iter().all(|x| !seen.contains(x)),
                    "workers {a} and {b} share a victim draw"
                );
                for k in 1..=8 {
                    assert_ne!(
                        sa[k..],
                        sb[..DRAWS - k],
                        "worker {a}'s stream is worker {b}'s shifted by {k}"
                    );
                }
            }
        }
    }
}
