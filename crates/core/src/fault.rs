//! Deterministic fault injection.
//!
//! The scheduler's core guarantees — every suspension registration pairs
//! with exactly one resume, deques are recycled and never leaked, Lemma
//! 7's `U + 1` live-deque bound — are properties of adversarial
//! schedules, not of happy paths. This module manufactures the adversary:
//!
//! * [`FaultPlan`] is a seeded, declarative schedule of faults, enabled by
//!   [`Config::fault_plan`](crate::Config::fault_plan). When unset (the
//!   default) the runtime carries no injector at all — the same
//!   `Option<Arc<_>>` zero-cost pattern as the tracer.
//! * Each injection *site* (a scheduler decision point: steal attempts,
//!   resume delivery, polls, the worker loop) consumes one **visit** of a
//!   per-site counter. Whether the k-th visit of a site fires is a pure
//!   function of `(seed, site, k)` — a SplitMix64 stream — so the fault
//!   schedule for a given seed is bit-for-bit reproducible:
//!   [`FaultPlan::schedule_digest`] hashes it without running anything.
//!   (Which visit a given *dynamic* event lands on still depends on thread
//!   interleaving; determinism is per-site-stream, which is what makes a
//!   failing seed replayable.)
//! * [`audit`](crate::audit) (in [`crate::trace`]) replays a
//!   [`Trace`](crate::Trace) after a chaos run and checks the invariants
//!   the faults are trying to break.
//!
//! A site is one row of a table: its [`FaultSite`] variant indexes the
//! plan's `rates`, its salt and its visit counter, and the code that
//! visits it asks `fires(FaultSite::…)` (or `jitter` for the two delay
//! sites). What each row injects:
//!
//! | knob | site | effect |
//! |------|------|--------|
//! | `with(FaultSite::StealFail, ppm)` | steal loop | the attempt fails before drawing a victim (a forced lost race / retry storm) |
//! | `with(FaultSite::ResumeDelay, ppm)`, bound `resume_delay_micros` | the owner's inbox drain, per external completion | the event is filed into the owner's own timer shard with a jittered delay and not rolled again when it fires (late, but still exactly once) |
//! | `with(FaultSite::ResumeReorder, ppm)` | the owner firing its timer shard | the fired batch's event order is reversed before it is drained |
//! | `with(FaultSite::SpuriousWake, ppm)` | after a `Pending` poll | the task is woken without any of its registrations completing |
//! | `with(FaultSite::PollDelay, ppm)`, bound `poll_delay_micros` | before a poll | the worker sleeps, emulating OS preemption between deadline computation and first poll |
//! | `with(FaultSite::TaskPanic, ppm)` | first poll of a spawned task, of a promoted fork half, or of a right half run in place | the task (or the fork's parent) panics; it propagates at the join, as a user panic would |
//! | `with(FaultSite::DequeSwitch, ppm)` | after draining resumes | the non-empty active deque is demoted to the ready list |
//! | `with(FaultSite::DropUnpark, ppm)` | inject/delivery | the wake-up is skipped; the park timeout is the only backstop |
//! | `with(FaultSite::DroppedReadiness, ppm)` | reactor dispatch (on the harvesting worker) | a kernel readiness event is swallowed without firing the completer; the waiter stays filed, the cached readiness bits are left untouched, and the reactor re-arms the fd, so the kernel reports the still-true condition again |
//! | `with(FaultSite::PeerReset, ppm)` | socket read/write | the operation fails with `ECONNRESET`, as if the peer sent RST mid-stream — the connection handler must surface or recover the error honestly |
//! | `with(FaultSite::PartialWrite, ppm)` | socket write | the kernel accepts only half the buffer (a short write), forcing the `write_all` continuation loop to finish the rest |
//! | `with(FaultSite::AcceptBurst, ppm)` | listener accept | an accept-ready listener reports `WouldBlock` once, emulating accept-queue churn under bursty connection load (the caller re-arms readiness) |
//! | `worker_panic_after(n)` | worker loop | each worker panics once when **its own** loop-iteration count reaches N — with `worker_respawn_budget = 0` the first panic poisons the runtime; with a budget, every worker dies and respawns exactly once |

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::config::ConfigError;

/// One million: ppm rates are fractions of this.
const PPM_SCALE: u64 = 1_000_000;

/// An injection site: a scheduler decision point the fault plan can
/// perturb. Each site consumes its own deterministic decision stream.
/// The declaration order is the decision-stream order: it indexes
/// [`FaultPlan::rates`] and the salt table, so it never changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Forced steal failure (before the victim draw).
    StealFail,
    /// Delayed external completion, rolled at the owner's inbox drain.
    ResumeDelay,
    /// Reversed event order within a fired timer batch.
    ResumeReorder,
    /// Spurious wake of a task that polled `Pending`.
    SpuriousWake,
    /// Sleep before a poll (emulated preemption).
    PollDelay,
    /// Injected panic on the first poll of a spawned task or a fork's
    /// right half.
    TaskPanic,
    /// Forced demotion of the active deque to the ready list.
    DequeSwitch,
    /// Dropped wake-up after publishing work (park-timeout backstop).
    DropUnpark,
    /// Swallowed kernel readiness event in a reactor driver's dispatch
    /// (recovered by the reactor's explicit re-arm). Every swallow is
    /// recoverable, but a rate of 1 000 000 would livelock the reactor.
    DroppedReadiness,
    /// Simulated peer RST on a socket read or write: the operation fails
    /// with `ECONNRESET` without touching the kernel.
    PeerReset,
    /// Short socket write: the kernel "accepts" only part of the buffer,
    /// exercising the `write_all` continuation path.
    PartialWrite,
    /// Accept-queue churn: an accept-ready listener reports `WouldBlock`
    /// once, forcing the caller back through readiness re-arming.
    AcceptBurst,
}

impl FaultSite {
    /// Every site, in decision-stream order (the order
    /// [`FaultPlan::schedule_digest`] folds them in).
    pub const ALL: [FaultSite; 12] = [
        FaultSite::StealFail,
        FaultSite::ResumeDelay,
        FaultSite::ResumeReorder,
        FaultSite::SpuriousWake,
        FaultSite::PollDelay,
        FaultSite::TaskPanic,
        FaultSite::DequeSwitch,
        FaultSite::DropUnpark,
        FaultSite::DroppedReadiness,
        FaultSite::PeerReset,
        FaultSite::PartialWrite,
        FaultSite::AcceptBurst,
    ];

    #[inline]
    fn index(self) -> usize {
        self as usize
    }

    /// Per-site salt separating the decision streams under one seed.
    #[inline]
    fn salt(self) -> u64 {
        // Arbitrary distinct odd constants; part of the stable schedule
        // definition (changing one changes every digest).
        [
            0x517E_A1FA_117E_D001,
            0x52E5_0DE1_A7ED_0003,
            0x52E0_12DE_12ED_0005,
            0x5925_1005_3A8E_0007,
            0x90DE_1A75_0110_0009,
            0x7A5C_9A21_C000_000B,
            0xDE0E_5312_7C11_000D,
            0xD209_0213_9A12_000F,
            0x10C4_77A1_7ED1_0011,
            0x9EE2_2E5E_7C05_0017,
            0x9A27_1A1C_3217_0019,
            0xACCE_9718_0257_001B,
        ][self.index()]
    }
}

const N_SITES: usize = FaultSite::ALL.len();

/// SplitMix64 finalizer: the stream generator behind every decision.
/// Canonical implementation (and golden-value tests) live in
/// [`crate::rng`]; decision words and schedule digests are bit-for-bit
/// functions of it.
pub(crate) use crate::rng::splitmix64;

/// The decision word for visit `visit` of `site` under `seed` — a pure
/// function, so the schedule can be recomputed (or digested) offline.
#[inline]
pub fn decision_word(seed: u64, site: FaultSite, visit: u64) -> u64 {
    let stream = splitmix64(seed ^ site.salt());
    splitmix64(stream ^ visit.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A seeded fault-injection schedule. All rates are parts-per-million of
/// visits to the corresponding site (`0` = never, `1_000_000` = always);
/// the default plan injects nothing. Plain `Copy` data, so
/// [`Config`](crate::Config) stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of every decision stream.
    pub seed: u64,
    /// Each site's rate, indexed by `FaultSite as usize`; set one with
    /// [`with`](Self::with).
    pub rates: [u32; N_SITES],
    /// Maximum delay added to a delayed resume, in microseconds (the
    /// actual jitter is drawn deterministically from the decision word).
    pub resume_delay_micros: u64,
    /// Maximum pre-poll sleep, in microseconds.
    pub poll_delay_micros: u64,
    /// If set, each worker panics once when **its own** scheduler loop
    /// reaches this many iterations — exercising the supervision path.
    /// Fires at most once per worker (the per-worker counter is never
    /// reset, so a respawned incarnation does not re-fire). With
    /// [`Config::worker_respawn_budget`](crate::Config::worker_respawn_budget)
    /// left at `0` the first firing poisons the runtime.
    pub worker_panic_after: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// A plan with the given seed and every fault disabled.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: [0; N_SITES],
            resume_delay_micros: 200,
            poll_delay_micros: 200,
            worker_panic_after: None,
        }
    }

    /// The standard chaos preset: every non-destructive fault at a rate
    /// that stresses the suspend/resume protocol without starving the
    /// workload. Task panics and worker panics stay off — enable them
    /// explicitly for supervision tests.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            resume_delay_micros: 300,
            poll_delay_micros: 150,
            ..FaultPlan::new(seed)
                .with(FaultSite::StealFail, 200_000)
                .with(FaultSite::ResumeDelay, 150_000)
                .with(FaultSite::ResumeReorder, 300_000)
                .with(FaultSite::SpuriousWake, 100_000)
                .with(FaultSite::PollDelay, 20_000)
                .with(FaultSite::DequeSwitch, 80_000)
                .with(FaultSite::DropUnpark, 150_000)
                .with(FaultSite::DroppedReadiness, 150_000)
        }
    }

    /// Sets `site`'s rate, in ppm.
    pub fn with(mut self, site: FaultSite, ppm: u32) -> Self {
        self.rates[site.index()] = ppm;
        self
    }

    /// Arms a once-per-worker loop panic after `n` of that worker's own
    /// loop iterations.
    pub fn worker_panic_after(mut self, n: u64) -> Self {
        self.worker_panic_after = Some(n);
        self
    }

    /// The configured rate for `site`, in ppm.
    pub fn rate(&self, site: FaultSite) -> u32 {
        self.rates[site.index()]
    }

    /// Whether visit `visit` of `site` fires under this plan — the pure
    /// schedule function the injector evaluates at runtime.
    pub fn fires(&self, site: FaultSite, visit: u64) -> bool {
        let ppm = self.rate(site) as u64;
        ppm > 0 && decision_word(self.seed, site, visit) % PPM_SCALE < ppm
    }

    /// Hashes the first `visits_per_site` decisions of every site into one
    /// word. Two runs with the same plan share the digest by construction;
    /// the reproducibility tests (and the chaos soak) assert exactly that.
    pub fn schedule_digest(&self, visits_per_site: u64) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for site in FaultSite::ALL {
            let ppm = self.rate(site) as u64;
            for k in 0..visits_per_site {
                let w = decision_word(self.seed, site, k);
                let fired = (ppm > 0 && w % PPM_SCALE < ppm) as u64;
                // Spread the fired bit across the word before folding: a
                // single-bit XOR above the odd multiplier would confine
                // every fire to bit 63, letting an even number of fires
                // cancel out of the digest entirely.
                h = (h ^ w ^ fired.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// Validates the plan's rates (each must be ≤ 1 000 000 ppm).
    pub fn validate(&self) -> Result<(), ConfigError> {
        for site in FaultSite::ALL {
            let ppm = self.rate(site);
            if ppm as u64 > PPM_SCALE {
                return Err(ConfigError::FaultRateOutOfRange { site, ppm });
            }
        }
        Ok(())
    }
}

/// The runtime half of a [`FaultPlan`]: per-site visit counters plus the
/// worker-loop iteration counter. Lives behind `Option<Arc<_>>` in the
/// runtime — `None` is the entire cost of disabled injection.
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    visits: [AtomicU64; N_SITES],
    injected: [AtomicU64; N_SITES],
    loop_iters: [AtomicU64; MAX_PANIC_WORKERS],
    worker_panics: AtomicU64,
}

/// Distinct per-worker loop counters backing `worker_panic_after`.
/// Workers beyond this share a slot modulo the table — still
/// deterministic, but "each worker panics once" then becomes "each slot
/// panics once". 64 comfortably covers real worker counts.
const MAX_PANIC_WORKERS: usize = 64;

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            visits: Default::default(),
            injected: Default::default(),
            loop_iters: std::array::from_fn(|_| AtomicU64::new(0)),
            worker_panics: AtomicU64::new(0),
        }
    }

    /// Consumes one visit of `site`; returns the decision word when the
    /// visit fires. Rate-zero sites are free (no counter traffic).
    #[inline]
    fn roll(&self, site: FaultSite) -> Option<u64> {
        let ppm = self.plan.rate(site) as u64;
        if ppm == 0 {
            return None;
        }
        let k = self.visits[site.index()].fetch_add(1, Ordering::Relaxed);
        let w = decision_word(self.plan.seed, site, k);
        if w % PPM_SCALE < ppm {
            self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
            Some(w)
        } else {
            None
        }
    }

    /// Consumes one visit of `site`; `true` when it fires.
    pub fn fires(&self, site: FaultSite) -> bool {
        self.roll(site).is_some()
    }

    /// Consumes one visit of a delay site ([`FaultSite::ResumeDelay`] or
    /// [`FaultSite::PollDelay`]) and returns the jittered delay if it
    /// fires. The jitter is drawn from the decision word, so it is part
    /// of the deterministic schedule.
    pub fn jitter(&self, site: FaultSite) -> Option<Duration> {
        let max = match site {
            FaultSite::ResumeDelay => self.plan.resume_delay_micros,
            FaultSite::PollDelay => self.plan.poll_delay_micros,
            _ => unreachable!("{site:?} has no jitter bound"),
        };
        self.roll(site)
            .map(|w| Duration::from_micros(1 + (w >> 20) % max.max(1)))
    }

    /// Counts one loop iteration of worker `worker`; `true` exactly when
    /// that worker's own count reaches the plan's `worker_panic_after`
    /// threshold. Fires at most once per worker: the counter is never
    /// reset, so a respawned incarnation (which keeps counting on the
    /// same slot) does not re-fire.
    pub fn worker_loop_should_panic(&self, worker: usize) -> bool {
        match self.plan.worker_panic_after {
            None => false,
            Some(n) => {
                let slot = &self.loop_iters[worker % MAX_PANIC_WORKERS];
                let fires = slot.fetch_add(1, Ordering::Relaxed) + 1 == n;
                if fires {
                    self.worker_panics.fetch_add(1, Ordering::Relaxed);
                }
                fires
            }
        }
    }

    /// Total faults injected so far, across all sites (plus the
    /// worker-loop panic, which has no per-visit site).
    pub fn injected_total(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum::<u64>()
            + self.worker_panics.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("injected", &self.injected_total())
            .finish_non_exhaustive()
    }
}

/// Rolls [`FaultSite::TaskPanic`] once (nothing without a plan) and panics
/// if it fires. Called where a task is first polled, inside the task's
/// `catch_unwind` ([`TaskRef::run`](crate::task::TaskRef::run)), and where
/// a fork's right half is first polled in place, inside its parent's
/// ([`Fork2`](crate::join::Fork2)), so an injected panic takes the road of
/// a user panic: caught, stored, re-thrown at the join point.
pub(crate) fn roll_task_panic(faults: Option<&FaultInjector>) {
    if faults.is_some_and(|f| f.fires(FaultSite::TaskPanic)) {
        panic!("injected task panic (fault plan)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_stream_is_pure_and_separated() {
        for site in FaultSite::ALL {
            for k in 0..64 {
                assert_eq!(
                    decision_word(42, site, k),
                    decision_word(42, site, k),
                    "pure function"
                );
            }
        }
        // Different seeds and different sites give different streams.
        assert_ne!(
            decision_word(1, FaultSite::StealFail, 0),
            decision_word(2, FaultSite::StealFail, 0)
        );
        assert_ne!(
            decision_word(1, FaultSite::StealFail, 0),
            decision_word(1, FaultSite::ResumeDelay, 0)
        );
    }

    #[test]
    fn rates_hit_roughly_proportionally() {
        let plan = FaultPlan::new(7).with(FaultSite::StealFail, 250_000);
        let n = 100_000u64;
        let hits = (0..n)
            .filter(|&k| plan.fires(FaultSite::StealFail, k))
            .count() as f64;
        let frac = hits / n as f64;
        assert!(
            (frac - 0.25).abs() < 0.01,
            "250k ppm should fire ~25% of visits, got {frac}"
        );
        // Rate 0 never fires; rate 1M always fires.
        let never = FaultPlan::new(7);
        assert!((0..1000).all(|k| !never.fires(FaultSite::StealFail, k)));
        let always = FaultPlan::new(7).with(FaultSite::StealFail, 1_000_000);
        assert!((0..1000).all(|k| always.fires(FaultSite::StealFail, k)));
    }

    #[test]
    fn digest_depends_on_seed_and_rates() {
        let a = FaultPlan::chaos(1).schedule_digest(512);
        assert_eq!(a, FaultPlan::chaos(1).schedule_digest(512), "reproducible");
        assert_ne!(a, FaultPlan::chaos(2).schedule_digest(512), "seed matters");
        assert_ne!(
            a,
            FaultPlan::chaos(1)
                .with(FaultSite::StealFail, 1)
                .schedule_digest(512),
            "rates matter"
        );
    }

    /// The schedule is part of the replay contract: a recorded
    /// `--replay SEED@0xDIGEST` must keep verifying, so the site order,
    /// the salts and the chaos preset's rates are pinned here.
    #[test]
    fn schedule_digests_are_pinned() {
        let chaos = [
            0xf669_e0e6_a649_f9ff,
            0x654e_0a70_9898_c841,
            0x4b9b_37d6_5e67_2dcb,
            0x6ad0_66df_6a2c_3e26,
            0xe573_dbfd_1906_d53b,
            0x2dc3_a20b_5494_65d3,
            0x5a94_b248_e8dd_f3dd,
            0xebdc_630d_4229_3c48,
        ];
        for (seed, want) in (1..).zip(chaos) {
            assert_eq!(
                FaultPlan::chaos(seed).schedule_digest(100_000),
                want,
                "chaos seed {seed}"
            );
        }
        assert_eq!(
            FaultPlan::new(5).schedule_digest(128),
            0xa8cb_a7c0_0352_08bf
        );
    }

    #[test]
    fn plan_validation_rejects_over_unit_rates() {
        assert!(FaultPlan::chaos(0).validate().is_ok());
        let bad = FaultPlan::new(0).with(FaultSite::SpuriousWake, 1_000_001);
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::FaultRateOutOfRange {
                site: FaultSite::SpuriousWake,
                ppm: 1_000_001
            })
        ));
    }

    #[test]
    fn injector_counts_and_worker_panic_fires_once_per_worker() {
        let inj = FaultInjector::new(
            FaultPlan::new(3)
                .with(FaultSite::StealFail, 1_000_000)
                .worker_panic_after(4),
        );
        assert!(inj.fires(FaultSite::StealFail) && inj.fires(FaultSite::StealFail));
        assert_eq!(inj.injected_total(), 2);
        // Each worker counts its own iterations and fires exactly once,
        // at its own threshold iteration.
        for w in 0..3 {
            let fired: Vec<bool> = (0..8).map(|_| inj.worker_loop_should_panic(w)).collect();
            assert_eq!(fired.iter().filter(|&&b| b).count(), 1, "worker {w}");
            assert!(fired[3], "worker {w} fires at its threshold iteration");
        }
        assert_eq!(inj.injected_total(), 2 + 3, "one panic per worker");
    }

    /// Asserts that `site` fires at 1 000 000 ppm, never fires at 0, and
    /// moves the schedule digest.
    fn assert_site_rolls_and_digests(site: FaultSite) {
        let off = FaultInjector::new(FaultPlan::new(5));
        let plan = FaultPlan::new(5).with(site, 1_000_000);
        let inj = FaultInjector::new(plan);
        let fired = match site {
            FaultSite::ResumeDelay | FaultSite::PollDelay => {
                let d = inj.jitter(site).expect("fires at rate 1M");
                assert!(d >= Duration::from_micros(1) && d <= Duration::from_micros(200));
                assert_eq!(off.jitter(site), None, "{site:?} never fires at rate 0");
                true
            }
            _ => {
                assert!(!off.fires(site), "{site:?} never fires at rate 0");
                inj.fires(site)
            }
        };
        assert!(fired, "{site:?} fires at rate 1M");
        assert_eq!(inj.injected_total(), 1, "{site:?}");
        assert_eq!(off.injected_total(), 0, "{site:?}");
        assert_ne!(
            plan.schedule_digest(128),
            FaultPlan::new(5).schedule_digest(128),
            "{site:?} moves the digest"
        );
    }

    #[test]
    fn every_site_fires_at_unit_rate_never_at_zero_and_moves_the_digest() {
        for site in FaultSite::ALL {
            assert_site_rolls_and_digests(site);
        }
    }

    #[test]
    fn net_fault_sites_roll_and_digest() {
        for site in [
            FaultSite::PeerReset,
            FaultSite::PartialWrite,
            FaultSite::AcceptBurst,
        ] {
            assert_site_rolls_and_digests(site);
        }
    }

    #[test]
    fn dropped_readiness_site_rolls_and_digests() {
        assert_site_rolls_and_digests(FaultSite::DroppedReadiness);
        // A partial rate moves the digest too.
        assert_ne!(
            FaultPlan::new(5).schedule_digest(128),
            FaultPlan::new(5)
                .with(FaultSite::DroppedReadiness, 500_000)
                .schedule_digest(128),
        );
    }
}
