//! Deterministic fault injection and trace-backed invariant auditing.
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
//! * [`audit`] replays a [`Trace`] after a chaos run and checks the
//!   invariants the faults are trying to break: suspension/resume pairing
//!   by `seq` tag, deque alloc/release balance, and the Lemma 7
//!   high-water bound.
//!
//! What each knob injects:
//!
//! | knob | site | effect |
//! |------|------|--------|
//! | `steal_fail_ppm` | steal loop | the attempt fails before drawing a victim (a forced lost race / retry storm) |
//! | `resume_delay_ppm` | the owner's inbox drain, per external completion | the event is filed into the owner's own timer shard with a jittered delay and not rolled again when it fires (late, but still exactly once) |
//! | `resume_reorder_ppm` | the owner firing its timer shard | the fired batch's event order is reversed before it is drained |
//! | `spurious_wake_ppm` | after a `Pending` poll | the task is woken without any of its registrations completing |
//! | `poll_delay_ppm` | before a poll | the worker sleeps, emulating OS preemption between deadline computation and first poll |
//! | `task_panic_ppm` | first poll of a spawned task | the task panics (propagates at its join, as a user panic would) |
//! | `deque_switch_ppm` | after draining resumes | the non-empty active deque is demoted to the ready list |
//! | `drop_unpark_ppm` | inject/delivery | the wake-up is skipped; the park timeout is the only backstop |
//! | `dropped_readiness_ppm` | reactor dispatch (on the harvesting worker) | a kernel readiness event is swallowed without firing the completer; the waiter stays filed, the cached readiness bits are left untouched, and the reactor re-arms the fd, so the kernel reports the still-true condition again |
//! | `peer_reset_ppm` | socket read/write | the operation fails with `ECONNRESET`, as if the peer sent RST mid-stream — the connection handler must surface or recover the error honestly |
//! | `partial_write_ppm` | socket write | the kernel accepts only half the buffer (a short write), forcing the `write_all` continuation loop to finish the rest |
//! | `accept_burst_ppm` | listener accept | an accept-ready listener reports `WouldBlock` once, emulating accept-queue churn under bursty connection load (the caller re-arms readiness) |
//! | `worker_panic_after` | worker loop | each worker panics once when **its own** loop-iteration count reaches N — with `worker_respawn_budget = 0` the first panic poisons the runtime; with a budget, every worker dies and respawns exactly once |

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::config::ConfigError;
use crate::trace::{EventKind, Trace, TraceEvent};

/// One million: ppm rates are fractions of this.
const PPM_SCALE: u64 = 1_000_000;

/// An injection site: a scheduler decision point the fault plan can
/// perturb. Each site consumes its own deterministic decision stream.
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
    /// Injected panic on a spawned task's first poll.
    TaskPanic,
    /// Forced demotion of the active deque to the ready list.
    DequeSwitch,
    /// Dropped wake-up after publishing work (park-timeout backstop).
    DropUnpark,
    /// Swallowed kernel readiness event in a reactor driver's dispatch
    /// (recovered by the reactor's explicit re-arm).
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
        match self {
            FaultSite::StealFail => 0,
            FaultSite::ResumeDelay => 1,
            FaultSite::ResumeReorder => 2,
            FaultSite::SpuriousWake => 3,
            FaultSite::PollDelay => 4,
            FaultSite::TaskPanic => 5,
            FaultSite::DequeSwitch => 6,
            FaultSite::DropUnpark => 7,
            FaultSite::DroppedReadiness => 8,
            FaultSite::PeerReset => 9,
            FaultSite::PartialWrite => 10,
            FaultSite::AcceptBurst => 11,
        }
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
    /// Rate of forced steal failures.
    pub steal_fail_ppm: u32,
    /// Rate of delayed resume deliveries.
    pub resume_delay_ppm: u32,
    /// Maximum delay added to a delayed resume, in microseconds (the
    /// actual jitter is drawn deterministically from the decision word).
    pub resume_delay_micros: u64,
    /// Rate of reversed resume batches.
    pub resume_reorder_ppm: u32,
    /// Rate of spurious wakes after `Pending` polls.
    pub spurious_wake_ppm: u32,
    /// Rate of sleeps before polls (emulated preemption).
    pub poll_delay_ppm: u32,
    /// Maximum pre-poll sleep, in microseconds.
    pub poll_delay_micros: u64,
    /// Rate of injected panics on spawned tasks' first polls.
    pub task_panic_ppm: u32,
    /// Rate of forced active-deque demotions.
    pub deque_switch_ppm: u32,
    /// Rate of dropped wake-ups.
    pub drop_unpark_ppm: u32,
    /// Rate of swallowed reactor readiness events. Only visited when a
    /// reactor driver is attached; every swallow is recoverable (the
    /// waiter stays filed and its fd is re-armed, so the next harvest
    /// re-reports the still-true condition). A rate of 1 000 000 would
    /// livelock the reactor.
    pub dropped_readiness_ppm: u32,
    /// Rate of simulated peer resets on socket reads/writes: the
    /// operation fails with `ECONNRESET` without touching the kernel.
    /// Only visited by lhws-net connection paths.
    pub peer_reset_ppm: u32,
    /// Rate of short socket writes: the write "accepts" only part of the
    /// buffer, exercising the `write_all` continuation loop. Only visited
    /// by lhws-net connection paths.
    pub partial_write_ppm: u32,
    /// Rate of accept-queue churn: an accept-ready listener reports
    /// `WouldBlock` once, forcing another readiness round-trip. Only
    /// visited by lhws-net listener paths.
    pub accept_burst_ppm: u32,
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
            steal_fail_ppm: 0,
            resume_delay_ppm: 0,
            resume_delay_micros: 200,
            resume_reorder_ppm: 0,
            spurious_wake_ppm: 0,
            poll_delay_ppm: 0,
            poll_delay_micros: 200,
            task_panic_ppm: 0,
            deque_switch_ppm: 0,
            drop_unpark_ppm: 0,
            dropped_readiness_ppm: 0,
            peer_reset_ppm: 0,
            partial_write_ppm: 0,
            accept_burst_ppm: 0,
            worker_panic_after: None,
        }
    }

    /// The standard chaos preset: every non-destructive fault at a rate
    /// that stresses the suspend/resume protocol without starving the
    /// workload. Task panics and worker panics stay off — enable them
    /// explicitly for supervision tests.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan::new(seed)
            .steal_fail(200_000)
            .resume_delay(150_000, Duration::from_micros(300))
            .resume_reorder(300_000)
            .spurious_wake(100_000)
            .poll_delay(20_000, Duration::from_micros(150))
            .deque_switch(80_000)
            .drop_unpark(150_000)
            .dropped_readiness(150_000)
    }

    /// Sets the forced-steal-failure rate.
    pub fn steal_fail(mut self, ppm: u32) -> Self {
        self.steal_fail_ppm = ppm;
        self
    }

    /// Sets the delayed-resume rate and maximum delay.
    pub fn resume_delay(mut self, ppm: u32, max: Duration) -> Self {
        self.resume_delay_ppm = ppm;
        self.resume_delay_micros = max.as_micros().max(1) as u64;
        self
    }

    /// Sets the batch-reorder rate.
    pub fn resume_reorder(mut self, ppm: u32) -> Self {
        self.resume_reorder_ppm = ppm;
        self
    }

    /// Sets the spurious-wake rate.
    pub fn spurious_wake(mut self, ppm: u32) -> Self {
        self.spurious_wake_ppm = ppm;
        self
    }

    /// Sets the pre-poll delay rate and maximum sleep.
    pub fn poll_delay(mut self, ppm: u32, max: Duration) -> Self {
        self.poll_delay_ppm = ppm;
        self.poll_delay_micros = max.as_micros().max(1) as u64;
        self
    }

    /// Sets the injected-task-panic rate.
    pub fn task_panic(mut self, ppm: u32) -> Self {
        self.task_panic_ppm = ppm;
        self
    }

    /// Sets the forced-deque-switch rate.
    pub fn deque_switch(mut self, ppm: u32) -> Self {
        self.deque_switch_ppm = ppm;
        self
    }

    /// Sets the dropped-wake-up rate.
    pub fn drop_unpark(mut self, ppm: u32) -> Self {
        self.drop_unpark_ppm = ppm;
        self
    }

    /// Sets the swallowed-readiness rate for reactor drivers.
    pub fn dropped_readiness(mut self, ppm: u32) -> Self {
        self.dropped_readiness_ppm = ppm;
        self
    }

    /// Sets the simulated-peer-reset rate for socket reads/writes.
    pub fn peer_reset(mut self, ppm: u32) -> Self {
        self.peer_reset_ppm = ppm;
        self
    }

    /// Sets the short-write rate for socket writes.
    pub fn partial_write(mut self, ppm: u32) -> Self {
        self.partial_write_ppm = ppm;
        self
    }

    /// Sets the accept-queue-churn rate for listener accepts.
    pub fn accept_burst(mut self, ppm: u32) -> Self {
        self.accept_burst_ppm = ppm;
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
        match site {
            FaultSite::StealFail => self.steal_fail_ppm,
            FaultSite::ResumeDelay => self.resume_delay_ppm,
            FaultSite::ResumeReorder => self.resume_reorder_ppm,
            FaultSite::SpuriousWake => self.spurious_wake_ppm,
            FaultSite::PollDelay => self.poll_delay_ppm,
            FaultSite::TaskPanic => self.task_panic_ppm,
            FaultSite::DequeSwitch => self.deque_switch_ppm,
            FaultSite::DropUnpark => self.drop_unpark_ppm,
            FaultSite::DroppedReadiness => self.dropped_readiness_ppm,
            FaultSite::PeerReset => self.peer_reset_ppm,
            FaultSite::PartialWrite => self.partial_write_ppm,
            FaultSite::AcceptBurst => self.accept_burst_ppm,
        }
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

    pub fn steal_fail(&self) -> bool {
        self.roll(FaultSite::StealFail).is_some()
    }

    /// Jittered delay to hold an inbox event back by, if this visit
    /// fires. The jitter is drawn from the decision word, so it is
    /// part of the deterministic schedule.
    pub fn resume_delay(&self) -> Option<Duration> {
        self.roll(FaultSite::ResumeDelay)
            .map(|w| Duration::from_micros(1 + (w >> 20) % self.plan.resume_delay_micros))
    }

    pub fn resume_reorder(&self) -> bool {
        self.roll(FaultSite::ResumeReorder).is_some()
    }

    pub fn spurious_wake(&self) -> bool {
        self.roll(FaultSite::SpuriousWake).is_some()
    }

    pub fn poll_delay(&self) -> Option<Duration> {
        self.roll(FaultSite::PollDelay)
            .map(|w| Duration::from_micros(1 + (w >> 20) % self.plan.poll_delay_micros))
    }

    pub fn task_panic(&self) -> bool {
        self.roll(FaultSite::TaskPanic).is_some()
    }

    pub fn force_deque_switch(&self) -> bool {
        self.roll(FaultSite::DequeSwitch).is_some()
    }

    pub fn drop_unpark(&self) -> bool {
        self.roll(FaultSite::DropUnpark).is_some()
    }

    /// Whether a reactor driver should swallow this readiness event.
    pub fn dropped_readiness(&self) -> bool {
        self.roll(FaultSite::DroppedReadiness).is_some()
    }

    /// Whether this socket read/write should fail with a simulated
    /// `ECONNRESET`.
    pub fn peer_reset(&self) -> bool {
        self.roll(FaultSite::PeerReset).is_some()
    }

    /// Whether this socket write should be truncated to a short write.
    pub fn partial_write(&self) -> bool {
        self.roll(FaultSite::PartialWrite).is_some()
    }

    /// Whether this listener accept should report `WouldBlock` despite
    /// readiness, emulating accept-queue churn.
    pub fn accept_burst(&self) -> bool {
        self.roll(FaultSite::AcceptBurst).is_some()
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

/// A wrapper future that may panic on its first poll, per the plan's
/// `task_panic_ppm`. Wrapped *inside* the task's `CatchUnwind` at spawn,
/// so an injected panic travels the same road as a user panic: caught,
/// stored in the `JoinCell`, re-thrown at the join point.
pub(crate) struct PanicInjected<F> {
    inner: F,
    /// Taken on first poll; `None` (no plan / rate 0) is a no-op wrapper.
    armed: Option<std::sync::Arc<FaultInjector>>,
}

impl<F> PanicInjected<F> {
    pub fn new(inner: F, armed: Option<std::sync::Arc<FaultInjector>>) -> Self {
        PanicInjected { inner, armed }
    }
}

impl<F: std::future::Future> std::future::Future for PanicInjected<F> {
    type Output = F::Output;

    fn poll(
        self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Self::Output> {
        // Safety: `inner` is structurally pinned; `armed` is never pinned.
        let this = unsafe { self.get_unchecked_mut() };
        if let Some(f) = this.armed.take() {
            if f.task_panic() {
                panic!("injected task panic (fault plan)");
            }
        }
        unsafe { std::pin::Pin::new_unchecked(&mut this.inner) }.poll(cx)
    }
}

// ---------------------------------------------------------------------
// Trace auditing.
// ---------------------------------------------------------------------

/// How many violation messages [`audit`] keeps verbatim (the count keeps
/// counting past this).
const MAX_VIOLATION_MESSAGES: usize = 16;

/// Result of [`audit`]: counts, the Lemma 7 observables, and every
/// invariant violation found.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AuditReport {
    /// `Suspend` events seen (registrations).
    pub suspensions: u64,
    /// `ResumeReady` events seen (registrations drained by their owner).
    pub readies: u64,
    /// `ResumeExec` events seen (resumed tasks re-polled).
    pub execs: u64,
    /// Registrations with no `ResumeReady` — suspensions still in flight
    /// when the trace was cut. Non-zero is normal for mid-run snapshots
    /// and poisoned runtimes; quiescent drained runs should see `0`.
    pub unresolved: u64,
    /// Maximum simultaneously in-flight suspensions (the paper's `U`,
    /// as observable from the trace).
    pub max_inflight: u64,
    /// Per-worker live-deque high-water marks.
    pub deque_high_water: Vec<u64>,
    /// `IoRegister` events seen (readiness waits filed with a reactor).
    pub io_registered: u64,
    /// `IoReady` events seen (waits resolved by kernel readiness).
    pub io_ready: u64,
    /// `IoDeregister` events seen (waits withdrawn without readiness:
    /// cancel, timeout, or the shutdown drain).
    pub io_deregistered: u64,
    /// Registered I/O waits with neither an `IoReady` nor an
    /// `IoDeregister` — still parked in the registration table when the
    /// trace was cut. Like [`unresolved`](Self::unresolved), non-zero is
    /// normal for mid-run snapshots only.
    pub io_unresolved: u64,
    /// Total violations found (messages beyond the first few are counted,
    /// not stored).
    pub violation_count: u64,
    /// The first violations, as human-readable messages.
    pub violations: Vec<String>,
    /// The trace dropped events (ring overflow), so absence of a paired
    /// event proves nothing. `passed` is `false` in this state.
    pub inconclusive: bool,
}

impl AuditReport {
    /// `true` when no invariant violation was found *and* the trace was
    /// complete enough to tell.
    pub fn passed(&self) -> bool {
        self.violation_count == 0 && !self.inconclusive
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit: {} — {} suspensions, {} ready, {} executed, {} unresolved, U={}, high-water {:?}",
            if self.passed() {
                "PASS"
            } else if self.inconclusive {
                "INCONCLUSIVE (trace dropped events)"
            } else {
                "FAIL"
            },
            self.suspensions,
            self.readies,
            self.execs,
            self.unresolved,
            self.max_inflight,
            self.deque_high_water,
        )?;
        if self.io_registered + self.io_ready + self.io_deregistered > 0 {
            writeln!(
                f,
                "  io: {} registered, {} readiness, {} deregistered, {} unresolved",
                self.io_registered, self.io_ready, self.io_deregistered, self.io_unresolved,
            )?;
        }
        for v in &self.violations {
            writeln!(f, "  violation: {v}")?;
        }
        if self.violation_count as usize > self.violations.len() {
            writeln!(
                f,
                "  … and {} more",
                self.violation_count as usize - self.violations.len()
            )?;
        }
        Ok(())
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct SeqRec {
    suspends: u32,
    readies: u32,
    execs: u32,
}

#[derive(Debug, Default, Clone, Copy)]
struct IoRec {
    registers: u32,
    readies: u32,
    deregisters: u32,
}

/// Incremental, order-tolerant form of [`audit`]: feed it event batches as
/// they arrive (e.g. from a
/// [`TraceReader`](crate::trace::TraceReader)) and ask for an
/// [`AuditReport`] at any point.
///
/// A live reader's batch is a per-ring-consistent cut, not a globally
/// consistent one: polling ring A before ring B can surface a causally
/// *later* event from B (say a `ResumeReady`) in an earlier batch than its
/// causally earlier `Suspend` from A. `AuditState` therefore splits the
/// invariant checks in two:
///
/// - **Monotone** violations — duplicate suspends/readies, duplicate I/O
///   registration, double I/O resolution, per-worker deque-walk breaks —
///   only ever become *more* true as events arrive, so they are flagged
///   the moment the offending event is observed (this is what makes
///   continuous audit useful during a chaos soak).
/// - **Order-sensitive** checks — ready-without-suspend, more execs than
///   readies, I/O resolution without registration, unresolved counts, and
///   the Lemma 7 bound — are evaluated at [`report`](Self::report) time
///   over the accumulated tallies, where a transiently reordered pair has
///   already been matched up.
///
/// In-flight tracking is orphan-aware for the same reason: a `ResumeReady`
/// observed before its `Suspend` neither underflows the in-flight count
/// nor inflates `max_inflight` when the `Suspend` arrives later, so the
/// `U` used by the Lemma 7 check is not corrupted by read-order skew.
///
/// Feeding one complete timestamp-sorted trace in a single batch yields
/// the same verdict and counts as [`audit`] — which is in fact implemented
/// on top of this type.
#[derive(Debug, Clone)]
pub struct AuditState {
    seqs: HashMap<u64, SeqRec>,
    io: HashMap<u64, IoRec>,
    io_registered: u64,
    io_ready: u64,
    io_deregistered: u64,
    inflight: u64,
    max_inflight: u64,
    live: Vec<Option<u64>>,
    high: Vec<u64>,
    suspensions: u64,
    readies: u64,
    execs: u64,
    violation_count: u64,
    violations: Vec<String>,
    dropped: u64,
}

impl AuditState {
    /// New auditor for a runtime with `workers` worker threads.
    pub fn new(workers: usize) -> AuditState {
        AuditState {
            seqs: HashMap::new(),
            io: HashMap::new(),
            io_registered: 0,
            io_ready: 0,
            io_deregistered: 0,
            inflight: 0,
            max_inflight: 0,
            live: vec![None; workers],
            high: vec![0; workers],
            suspensions: 0,
            readies: 0,
            execs: 0,
            violation_count: 0,
            violations: Vec::new(),
            dropped: 0,
        }
    }

    fn violate(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_VIOLATION_MESSAGES {
            self.violations.push(msg);
        }
    }

    /// Folds a batch of events into the audit. Batches must each preserve
    /// per-worker recording order (any [`TraceReader`](crate::trace::TraceReader)
    /// batch or timestamp-sorted [`Trace`] does); cross-worker order may
    /// skew freely between batches.
    pub fn observe(&mut self, events: &[TraceEvent]) {
        for ev in events {
            match ev.kind {
                EventKind::Suspend { seq, .. } => {
                    self.suspensions += 1;
                    if seq != 0 {
                        let rec = self.seqs.entry(seq).or_default();
                        rec.suspends += 1;
                        // Orphan-aware: if the matching ready was observed
                        // first (read-order skew), the pair is already
                        // settled — don't count it as newly in flight.
                        let settled = rec.readies >= rec.suspends;
                        let dup = rec.suspends > 1;
                        if !settled {
                            self.inflight += 1;
                            self.max_inflight = self.max_inflight.max(self.inflight);
                        }
                        if dup {
                            let n = self.seqs[&seq].suspends;
                            self.violate(format!("suspension seq {seq:#x} registered {n} times"));
                        }
                    } else {
                        self.inflight += 1;
                        self.max_inflight = self.max_inflight.max(self.inflight);
                    }
                }
                EventKind::ResumeReady { seq, .. } => {
                    self.readies += 1;
                    if seq != 0 {
                        let rec = self.seqs.entry(seq).or_default();
                        rec.readies += 1;
                        // Only retire an in-flight slot this ready's own
                        // suspend actually opened; an early-observed ready
                        // waits for its suspend instead of underflowing.
                        let retire = rec.suspends >= rec.readies;
                        let dup = rec.readies > 1;
                        if retire {
                            self.inflight = self.inflight.saturating_sub(1);
                        }
                        if dup {
                            let n = self.seqs[&seq].readies;
                            self.violate(format!("suspension seq {seq:#x} resumed {n} times"));
                        }
                    } else {
                        self.inflight = self.inflight.saturating_sub(1);
                    }
                }
                EventKind::ResumeExec { seq } => {
                    self.execs += 1;
                    if seq != 0 {
                        self.seqs.entry(seq).or_default().execs += 1;
                    }
                }
                EventKind::DequeAlloc { live: l } => {
                    let w = ev.worker as usize;
                    if w < self.live.len() {
                        let expect = self.live[w].map_or(1, |cur| cur + 1);
                        if l as u64 != expect {
                            self.violate(format!(
                                "worker {w}: deque alloc jumped live count to {l} (expected {expect})"
                            ));
                        }
                        self.live[w] = Some(l as u64);
                        self.high[w] = self.high[w].max(l as u64);
                    }
                }
                EventKind::DequeRelease { live: l } => {
                    let w = ev.worker as usize;
                    if w < self.live.len() {
                        match self.live[w] {
                            Some(cur) if cur > 0 && l as u64 == cur - 1 => {
                                self.live[w] = Some(l as u64)
                            }
                            Some(cur) => {
                                self.violate(format!(
                                    "worker {w}: deque release moved live count {cur} → {l} (expected {})",
                                    cur.saturating_sub(1)
                                ));
                                self.live[w] = Some(l as u64);
                            }
                            None => {
                                self.violate(format!(
                                    "worker {w}: deque release before any allocation"
                                ));
                                self.live[w] = Some(l as u64);
                            }
                        }
                    }
                }
                EventKind::IoRegister { token } => {
                    self.io_registered += 1;
                    let rec = self.io.entry(token).or_default();
                    rec.registers += 1;
                    if rec.registers > 1 {
                        let n = self.io[&token].registers;
                        self.violate(format!("io token {token:#x} registered {n} times"));
                    }
                }
                EventKind::IoReady { token } => {
                    self.io_ready += 1;
                    let rec = self.io.entry(token).or_default();
                    rec.readies += 1;
                    if rec.readies + rec.deregisters > 1 {
                        let (r, d) = (rec.readies, rec.deregisters);
                        self.violate(format!(
                            "io token {token:#x} resolved {} times ({r} ready, {d} deregister)",
                            r + d,
                        ));
                    }
                }
                EventKind::IoDeregister { token } => {
                    self.io_deregistered += 1;
                    let rec = self.io.entry(token).or_default();
                    rec.deregisters += 1;
                    if rec.readies + rec.deregisters > 1 {
                        let (r, d) = (rec.readies, rec.deregisters);
                        self.violate(format!(
                            "io token {token:#x} resolved {} times ({r} ready, {d} deregister)",
                            r + d,
                        ));
                    }
                }
                EventKind::WorkerDeath { worker } => {
                    // The dead incarnation's owner-local deque numbering is
                    // void: the respawned worker restarts its live-deque
                    // walk from scratch (its first DequeAlloc reports
                    // live = 1 again). Suspension seq pairing is *not*
                    // reset — a resume for a pre-death registration must
                    // still settle exactly once.
                    let w = worker as usize;
                    if w < self.live.len() {
                        self.live[w] = None;
                    }
                }
                EventKind::WorkerRespawn { .. } => {}
                _ => {}
            }
        }
    }

    /// Accounts events lost before they could be observed (ring overflow
    /// reported by [`TraceBatch::dropped`](crate::trace::TraceBatch) or a
    /// [`Trace`]'s `dropped`). Any loss makes the final report
    /// inconclusive: absence of a paired event proves nothing.
    pub fn observe_dropped(&mut self, dropped: u64) {
        self.dropped += dropped;
    }

    /// Violations flagged so far by the monotone streaming checks. The
    /// final [`report`](Self::report) may add order-sensitive ones on top.
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// Events known lost so far (cumulative [`observe_dropped`](Self::observe_dropped)).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Evaluates the order-sensitive checks over everything observed so
    /// far and returns the full report. Non-consuming: a live auditor can
    /// report mid-run and keep observing.
    pub fn report(&self) -> AuditReport {
        let mut violation_count = self.violation_count;
        let mut violations = self.violations.clone();
        let mut violate = |msg: String| {
            violation_count += 1;
            if violations.len() < MAX_VIOLATION_MESSAGES {
                violations.push(msg);
            }
        };

        // Deferred pairing checks, in sorted key order so reports are
        // reproducible (HashMap iteration is not).
        let mut seq_keys: Vec<u64> = self.seqs.keys().copied().collect();
        seq_keys.sort_unstable();
        let mut unresolved = 0u64;
        for seq in seq_keys {
            let rec = self.seqs[&seq];
            if rec.readies > 0 && rec.suspends == 0 {
                violate(format!(
                    "resume for seq {seq:#x} with no matching suspension"
                ));
            }
            if rec.execs > rec.readies {
                violate(format!(
                    "seq {seq:#x} executed {} times but made ready only {}",
                    rec.execs, rec.readies
                ));
            }
            if rec.suspends > 0 && rec.readies == 0 {
                unresolved += 1;
            }
        }

        let mut io_keys: Vec<u64> = self.io.keys().copied().collect();
        io_keys.sort_unstable();
        let mut io_unresolved = 0u64;
        for token in io_keys {
            let rec = self.io[&token];
            if rec.registers == 0 && rec.readies > 0 {
                violate(format!(
                    "io readiness for token {token:#x} with no registration"
                ));
            }
            if rec.registers == 0 && rec.deregisters > 0 {
                violate(format!(
                    "io deregister for token {token:#x} with no registration"
                ));
            }
            if rec.registers > 0 && rec.readies + rec.deregisters == 0 {
                io_unresolved += 1;
            }
        }

        // Lemma 7: at most U + 1 live deques per worker.
        for (w, &hw) in self.high.iter().enumerate() {
            if hw > self.max_inflight + 1 {
                violate(format!(
                    "worker {w}: live-deque high-water {hw} exceeds Lemma 7 bound U+1 = {}",
                    self.max_inflight + 1
                ));
            }
        }

        AuditReport {
            suspensions: self.suspensions,
            readies: self.readies,
            execs: self.execs,
            unresolved,
            max_inflight: self.max_inflight,
            deque_high_water: self.high.clone(),
            io_registered: self.io_registered,
            io_ready: self.io_ready,
            io_deregistered: self.io_deregistered,
            io_unresolved,
            violation_count,
            violations,
            inconclusive: self.dropped > 0,
        }
    }
}

/// Replays `trace` and checks the scheduler's invariants:
///
/// 1. **Pairing** — every `seq` tag is suspended at most once, made ready
///    at most once, never ready without a suspension, and never executed
///    more often than it was made ready. (An exec count *below* the ready
///    count is legal: a resumed task that completed or panicked before its
///    re-poll never executes.)
/// 2. **Deque balance** — each worker's `DequeAlloc`/`DequeRelease` live
///    counts form a walk by ±1 that never goes negative: no double-free,
///    no leaked allocation slot.
/// 3. **Lemma 7** — every worker's live-deque high-water mark is at most
///    `U + 1`, where `U` is the maximum number of simultaneously in-flight
///    suspensions observed in the trace.
/// 4. **I/O wait pairing** — every reactor wait token is registered
///    exactly once and resolved at most once, by *either* an `IoReady`
///    (kernel readiness consumed) *or* an `IoDeregister` (cancel, timeout
///    or shutdown drain) — never both, never without a registration.
///
/// Works on any [`Trace`]; quiescent shutdown traces give the strongest
/// verdict. A trace with dropped events yields `inconclusive`.
pub fn audit(trace: &Trace) -> AuditReport {
    let mut state = AuditState::new(trace.workers);
    state.observe(&trace.events);
    state.observe_dropped(trace.dropped);
    state.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SuspendKind, TraceEvent};

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
        let plan = FaultPlan::new(7).steal_fail(250_000);
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
        let always = FaultPlan::new(7).steal_fail(1_000_000);
        assert!((0..1000).all(|k| always.fires(FaultSite::StealFail, k)));
    }

    #[test]
    fn digest_depends_on_seed_and_rates() {
        let a = FaultPlan::chaos(1).schedule_digest(512);
        assert_eq!(a, FaultPlan::chaos(1).schedule_digest(512), "reproducible");
        assert_ne!(a, FaultPlan::chaos(2).schedule_digest(512), "seed matters");
        assert_ne!(
            a,
            FaultPlan::chaos(1).steal_fail(1).schedule_digest(512),
            "rates matter"
        );
    }

    #[test]
    fn plan_validation_rejects_over_unit_rates() {
        assert!(FaultPlan::chaos(0).validate().is_ok());
        let bad = FaultPlan::new(0).spurious_wake(1_000_001);
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
                .steal_fail(1_000_000)
                .worker_panic_after(4),
        );
        assert!(inj.steal_fail() && inj.steal_fail());
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

    #[test]
    fn net_fault_sites_roll_and_digest() {
        for (site, arm, probe) in [
            (
                FaultSite::PeerReset,
                Box::new(|p: FaultPlan| p.peer_reset(1_000_000))
                    as Box<dyn Fn(FaultPlan) -> FaultPlan>,
                Box::new(|i: &FaultInjector| i.peer_reset()) as Box<dyn Fn(&FaultInjector) -> bool>,
            ),
            (
                FaultSite::PartialWrite,
                Box::new(|p| p.partial_write(1_000_000)),
                Box::new(|i| i.partial_write()),
            ),
            (
                FaultSite::AcceptBurst,
                Box::new(|p| p.accept_burst(1_000_000)),
                Box::new(|i| i.accept_burst()),
            ),
        ] {
            let inj = FaultInjector::new(arm(FaultPlan::new(5)));
            assert!(probe(&inj), "{site:?} fires at rate 1M");
            assert_eq!(inj.injected_total(), 1, "{site:?}");
            let off = FaultInjector::new(FaultPlan::new(5));
            assert!(!probe(&off), "{site:?} never fires at rate 0");
            // Each new site participates in the digest.
            assert_ne!(
                FaultPlan::new(5).schedule_digest(128),
                arm(FaultPlan::new(5)).schedule_digest(128),
                "{site:?}"
            );
        }
    }

    #[test]
    fn audit_resets_deque_walk_across_worker_death() {
        // Without the WorkerDeath arm the respawned worker's fresh
        // DequeAlloc { live: 1 } would violate the ±1 walk (2 expected).
        let t = trace_of(
            vec![
                ev(1, 0, EventKind::DequeAlloc { live: 1 }),
                ev(2, 0, EventKind::WorkerDeath { worker: 0 }),
                ev(
                    3,
                    0,
                    EventKind::WorkerRespawn {
                        worker: 0,
                        rescued: 1,
                    },
                ),
                ev(4, 0, EventKind::DequeAlloc { live: 1 }),
                ev(5, 0, EventKind::DequeRelease { live: 0 }),
            ],
            1,
        );
        let r = audit(&t);
        assert!(r.passed(), "{r}");

        // Suspension pairing survives the death: a pre-death registration
        // resumed after respawn still settles exactly once…
        let t = trace_of(
            vec![
                suspend(1, 0, 9),
                ev(2, 0, EventKind::WorkerDeath { worker: 0 }),
                ev(
                    3,
                    0,
                    EventKind::WorkerRespawn {
                        worker: 0,
                        rescued: 0,
                    },
                ),
                ready(4, 0, 9),
            ],
            1,
        );
        assert!(audit(&t).passed());

        // …and a double resume across the death is still flagged.
        let t = trace_of(
            vec![
                suspend(1, 0, 9),
                ready(2, 0, 9),
                ev(3, 0, EventKind::WorkerDeath { worker: 0 }),
                ev(
                    4,
                    0,
                    EventKind::WorkerRespawn {
                        worker: 0,
                        rescued: 0,
                    },
                ),
                ready(5, 0, 9),
            ],
            1,
        );
        assert!(!audit(&t).passed());
    }

    fn ev(ts: u64, worker: u32, kind: EventKind) -> TraceEvent {
        TraceEvent { ts, worker, kind }
    }

    fn suspend(ts: u64, worker: u32, seq: u64) -> TraceEvent {
        ev(
            ts,
            worker,
            EventKind::Suspend {
                deque: 0,
                kind: SuspendKind::Timer,
                seq,
            },
        )
    }

    fn ready(ts: u64, worker: u32, seq: u64) -> TraceEvent {
        ev(
            ts,
            worker,
            EventKind::ResumeReady {
                seq,
                enabled_at: ts,
            },
        )
    }

    fn trace_of(events: Vec<TraceEvent>, workers: usize) -> Trace {
        Trace {
            events,
            dropped: 0,
            workers,
        }
    }

    #[test]
    fn audit_passes_clean_lifecycle() {
        let t = trace_of(
            vec![
                ev(1, 0, EventKind::DequeAlloc { live: 1 }),
                suspend(2, 0, 9),
                ready(3, 0, 9),
                ev(4, 0, EventKind::ResumeExec { seq: 9 }),
                ev(5, 0, EventKind::DequeRelease { live: 0 }),
            ],
            1,
        );
        let r = audit(&t);
        assert!(r.passed(), "{r}");
        assert_eq!(
            (r.suspensions, r.readies, r.execs, r.unresolved),
            (1, 1, 1, 0)
        );
        assert_eq!(r.max_inflight, 1);
        assert_eq!(r.deque_high_water, vec![1]);
    }

    #[test]
    fn audit_flags_double_resume_and_orphan() {
        let t = trace_of(
            vec![
                suspend(1, 0, 5),
                ready(2, 0, 5),
                ready(3, 0, 5),
                ready(4, 0, 6),
            ],
            1,
        );
        let r = audit(&t);
        assert!(!r.passed());
        assert_eq!(r.violation_count, 2, "{r}");
    }

    #[test]
    fn audit_flags_deque_imbalance_and_lemma7() {
        // live jumps 1 → 3 (skipped alloc) and exceeds U+1 (no suspensions
        // at all, so the bound is 1).
        let t = trace_of(
            vec![
                ev(1, 0, EventKind::DequeAlloc { live: 1 }),
                ev(2, 0, EventKind::DequeAlloc { live: 3 }),
            ],
            1,
        );
        let r = audit(&t);
        assert!(!r.passed());
        assert!(r.violations.iter().any(|v| v.contains("jumped")), "{r}");
        assert!(r.violations.iter().any(|v| v.contains("Lemma 7")), "{r}");
    }

    #[test]
    fn audit_marks_dropped_traces_inconclusive() {
        let mut t = trace_of(vec![suspend(1, 0, 5), ready(2, 0, 5)], 1);
        t.dropped = 3;
        let r = audit(&t);
        assert!(!r.passed());
        assert!(r.inconclusive);
        assert_eq!(r.violation_count, 0);
    }

    #[test]
    fn audit_io_pairing_pass_and_fail() {
        // Clean: one wait resolved by readiness, one by deregistration,
        // one still in flight (unresolved, not a violation).
        let t = trace_of(
            vec![
                ev(1, 0, EventKind::IoRegister { token: 1 }),
                ev(2, u32::MAX, EventKind::IoReady { token: 1 }),
                ev(3, 0, EventKind::IoRegister { token: 2 }),
                ev(4, 0, EventKind::IoDeregister { token: 2 }),
                ev(5, 0, EventKind::IoRegister { token: 3 }),
            ],
            1,
        );
        let r = audit(&t);
        assert!(r.passed(), "{r}");
        assert_eq!(
            (
                r.io_registered,
                r.io_ready,
                r.io_deregistered,
                r.io_unresolved
            ),
            (3, 1, 1, 1)
        );
        assert!(format!("{r}").contains("io:"));

        // Double resolution (ready then deregister) and an orphan ready.
        let t = trace_of(
            vec![
                ev(1, 0, EventKind::IoRegister { token: 7 }),
                ev(2, u32::MAX, EventKind::IoReady { token: 7 }),
                ev(3, 0, EventKind::IoDeregister { token: 7 }),
                ev(4, u32::MAX, EventKind::IoReady { token: 8 }),
            ],
            1,
        );
        let r = audit(&t);
        assert!(!r.passed());
        assert_eq!(r.violation_count, 2, "{r}");

        // Double registration of one token.
        let t = trace_of(
            vec![
                ev(1, 0, EventKind::IoRegister { token: 9 }),
                ev(2, 0, EventKind::IoRegister { token: 9 }),
            ],
            1,
        );
        assert!(!audit(&t).passed());
    }

    #[test]
    fn dropped_readiness_site_rolls_and_digests() {
        let inj = FaultInjector::new(FaultPlan::new(5).dropped_readiness(1_000_000));
        assert!(inj.dropped_readiness());
        assert_eq!(inj.injected_total(), 1);
        let off = FaultInjector::new(FaultPlan::new(5));
        assert!(!off.dropped_readiness());
        // The new site participates in the digest.
        assert_ne!(
            FaultPlan::new(5).schedule_digest(128),
            FaultPlan::new(5)
                .dropped_readiness(500_000)
                .schedule_digest(128),
        );
    }

    #[test]
    fn audit_counts_unresolved_without_violating() {
        let t = trace_of(vec![suspend(1, 0, 5), suspend(2, 0, 6), ready(3, 0, 5)], 1);
        let r = audit(&t);
        assert!(r.passed(), "in-flight suspensions are not violations: {r}");
        assert_eq!(r.unresolved, 1);
        assert_eq!(r.max_inflight, 2);
    }

    #[test]
    fn audit_state_tolerates_cross_batch_reorder() {
        // A live reader polling ring B before ring A can observe a
        // ResumeReady in an earlier batch than its causally earlier
        // Suspend. The incremental auditor must neither flag it nor let
        // the transient orphan corrupt the in-flight high-water.
        let mut st = AuditState::new(2);
        st.observe(&[ready(10, 1, 5)]);
        st.observe(&[suspend(2, 0, 5)]);
        let r = st.report();
        assert!(r.passed(), "{r}");
        assert_eq!((r.suspensions, r.readies, r.unresolved), (1, 1, 0));
        assert_eq!(r.max_inflight, 0, "settled pair never counted in flight");
    }

    #[test]
    fn audit_state_batch_split_matches_single_shot() {
        let events = vec![
            ev(1, 0, EventKind::DequeAlloc { live: 1 }),
            suspend(2, 0, 9),
            suspend(3, 0, 11),
            ready(4, 0, 9),
            ev(5, 0, EventKind::ResumeExec { seq: 9 }),
            ready(6, 0, 11),
            ev(7, 0, EventKind::ResumeExec { seq: 11 }),
            ev(8, 0, EventKind::DequeRelease { live: 0 }),
            ev(9, 0, EventKind::IoRegister { token: 3 }),
            ev(10, u32::MAX, EventKind::IoReady { token: 3 }),
        ];
        let single = audit(&trace_of(events.clone(), 1));
        for split in 1..events.len() {
            let mut st = AuditState::new(1);
            st.observe(&events[..split]);
            st.observe(&events[split..]);
            let r = st.report();
            assert_eq!(r.passed(), single.passed(), "split at {split}: {r}");
            assert_eq!(r.violation_count, single.violation_count);
            assert_eq!(r.suspensions, single.suspensions);
            assert_eq!(r.max_inflight, single.max_inflight);
            assert_eq!(r.deque_high_water, single.deque_high_water);
        }
    }

    #[test]
    fn audit_state_streams_monotone_violations_before_report() {
        let mut st = AuditState::new(1);
        st.observe(&[suspend(1, 0, 5), ready(2, 0, 5)]);
        assert_eq!(st.violation_count(), 0);
        st.observe(&[ready(3, 0, 5)]);
        assert_eq!(st.violation_count(), 1, "duplicate ready flagged live");
        // Order-sensitive orphan only appears in the report.
        st.observe(&[ready(4, 0, 77)]);
        assert_eq!(st.violation_count(), 1);
        let r = st.report();
        assert_eq!(r.violation_count, 2, "{r}");
        assert!(!r.passed());
    }

    #[test]
    fn audit_state_dropped_makes_inconclusive() {
        let mut st = AuditState::new(1);
        st.observe(&[suspend(1, 0, 5), ready(2, 0, 5)]);
        assert!(st.report().passed());
        st.observe_dropped(2);
        assert_eq!(st.dropped(), 2);
        let r = st.report();
        assert!(r.inconclusive && !r.passed());
    }
}
