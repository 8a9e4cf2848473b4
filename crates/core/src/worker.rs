//! Worker threads: Figure 3's scheduling loop over real OS threads.
//!
//! Each worker owns a collection of deques, one active at a time:
//!
//! * With an **assigned task**, the worker polls it. Children spawned
//!   during the poll (fork2's right children) and wake-ups delivered on
//!   this thread land in a thread-local pending buffer, flushed to the
//!   bottom of the active deque after the poll — then resumed vertices are
//!   injected (`addResumedVertices`), and the next assigned task is popped
//!   from the bottom.
//! * Without one, the worker releases its active deque (freeing it when it
//!   has no suspensions), switches to a ready deque if it has one, checks
//!   the global injector, and otherwise becomes a thief stealing from a
//!   random deque of the global registry, starting a fresh deque on
//!   success.
//!
//! Suspensions: a latency future calls [`register_latency`] during its
//! poll, which books a timer entry against the current (worker, active
//! deque) pair and marks the poll as suspending; after the poll the worker
//! increments the deque's `suspendCtr`. When the timer fires, the whole
//! burst of this worker's expirations arrives in its inbox as **one batch
//! of [`ResumeEvent`]s**; draining it is the paper's `callback(v, q)` for
//! every event, and the batched reinjection through a pfor task is
//! `addResumedVertices()`.
//!
//! Hot-path discipline: a poll costs one TLS access (install current task,
//! poll, read back the suspend count — all under a single `TLS.with`), and
//! counters are bumped on the worker's own cache-padded block.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Weak};
use std::task::Waker;
use std::time::{Duration, Instant};

use lhws_deque::{DequeId, DequeKind, Steal, WorkerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{LatencyMode, StealPolicy};
use crate::fault::FaultInjector;
use crate::metrics::CounterBlock;
use crate::runtime::RtInner;
use crate::steal::{PolicyState, STEAL_PROBES};
use crate::task::TaskRef;
use crate::timer::{ResumeEvent, TimerEntry};
use crate::trace::{EventKind, StealOutcome, SuspendKind, Tracer, NONE_ID};

/// Sentinel for "no active deque" in the TLS cell.
const NO_DEQUE: usize = usize::MAX;

/// How many times a steal attempt re-tries the same deque when the
/// underlying pop-top reports a benign race ([`Steal::Retry`]) before
/// giving the attempt up. Retrying the same victim a few times is cheaper
/// than a fresh random victim draw while the race window is tiny; an
/// unbounded loop could livelock against a fast owner.
const STEAL_RETRIES: usize = 4;

/// Thread-local context installed on worker threads.
struct WorkerTls {
    rt: Weak<RtInner>,
    index: usize,
    active_local: Cell<usize>,
    current_task: RefCell<Option<TaskRef>>,
    /// Latency registrations made during the current poll.
    suspend_count: Cell<u32>,
    /// Tasks enabled on this thread during the current poll (fork2 spawns,
    /// join wake-ups, pfor unfolding); flushed to the active deque.
    pending_local: RefCell<Vec<TaskRef>>,
    /// Running count of trace suspension tags handed out by this worker
    /// (only advanced while tracing is enabled).
    suspend_seq: Cell<u64>,
}

/// Allocates a trace suspension tag: worker-unique by construction
/// (worker index in the high bits, per-worker counter in the low 40), and
/// never `0` — `0` is the "untraced" sentinel carried through
/// [`TimerEntry::seq`] / [`ResumeEvent::seq`].
fn alloc_seq(tls: &WorkerTls) -> u64 {
    let n = tls.suspend_seq.get() + 1;
    tls.suspend_seq.set(n);
    ((tls.index as u64 + 1) << 40) | (n & ((1 << 40) - 1))
}

thread_local! {
    static TLS: RefCell<Option<WorkerTls>> = const { RefCell::new(None) };
}

/// If the current thread is a worker of `rt`, buffer `task` for its active
/// deque and return true. Used for both wake-up requeues and fresh
/// spawns; `bump_spawned` distinguishes them so the worker-local
/// `tasks_spawned` counter only counts the latter.
pub(crate) fn enqueue_local_if_same_runtime(
    rt: &Arc<RtInner>,
    task: &TaskRef,
    bump_spawned: bool,
) -> bool {
    TLS.with(|t| {
        let borrow = t.borrow();
        match &*borrow {
            Some(tls) if std::ptr::eq(tls.rt.as_ptr(), Arc::as_ptr(rt)) => {
                if bump_spawned {
                    let c = rt.counters.worker(tls.index);
                    c.bump(&c.tasks_spawned);
                }
                tls.pending_local.borrow_mut().push(task.clone());
                true
            }
            _ => false,
        }
    })
}

/// Buffers a freshly created (QUEUED) task for the current worker's active
/// deque. Panics when called off a worker thread.
pub(crate) fn spawn_local(task: TaskRef) {
    TLS.with(|t| {
        let borrow = t.borrow();
        let tls = borrow
            .as_ref()
            .expect("spawn/fork2 requires a worker context: run inside Runtime::block_on");
        tls.pending_local.borrow_mut().push(task);
    });
}

/// The runtime owning the current worker thread, if any.
pub(crate) fn current_runtime() -> Option<Arc<RtInner>> {
    TLS.with(|t| t.borrow().as_ref().and_then(|tls| tls.rt.upgrade()))
}

/// The runtime's latency mode as seen from the current thread.
pub(crate) fn current_latency_mode() -> Option<LatencyMode> {
    current_runtime().map(|rt| rt.config.mode)
}

/// The current thread's worker index, when it is a worker of `rt`. Lets
/// driver hooks route trace events to the worker's own SPSC ring (whose
/// single-producer contract requires being that thread) and counter bumps
/// to its cache-padded block.
pub(crate) fn current_worker_index_in(rt: &Arc<RtInner>) -> Option<usize> {
    TLS.with(|t| {
        t.borrow()
            .as_ref()
            .and_then(|tls| std::ptr::eq(tls.rt.as_ptr(), Arc::as_ptr(rt)).then_some(tls.index))
    })
}

/// Registers a latency expiration for the currently polled task against
/// the current active deque, marking this poll as suspending. Returns
/// false (no registration) off worker threads.
pub(crate) fn register_latency(deadline: Instant) -> bool {
    TLS.with(|t| {
        let borrow = t.borrow();
        let Some(tls) = borrow.as_ref() else {
            return false;
        };
        let Some(rt) = tls.rt.upgrade() else {
            return false;
        };
        let task = match &*tls.current_task.borrow() {
            Some(task) => task.clone(),
            None => return false,
        };
        let local_deque = tls.active_local.get();
        if local_deque == NO_DEQUE {
            return false;
        }
        let mut seq = 0;
        if let Some(tr) = &rt.tracer {
            seq = alloc_seq(tls);
            tr.record(
                tls.index,
                EventKind::Suspend {
                    deque: local_deque as u32,
                    kind: SuspendKind::Timer,
                    seq,
                },
            );
        }
        rt.timer().register(TimerEntry {
            deadline,
            task,
            worker: tls.index,
            local_deque,
            seq,
            epoch: rt.epoch_of(tls.index),
        });
        tls.suspend_count.set(tls.suspend_count.get() + 1);
        let c = rt.counters.worker(tls.index);
        c.bump(&c.suspensions);
        true
    })
}

/// A task's suspension placement: which runtime/worker/deque it suspended
/// on, recorded when a suspending operation registers during a poll.
///
/// **Contract: one registration pairs with exactly one resume event.**
/// Whoever holds the registration owes the deque one [`ResumeEvent`] —
/// delivered by [`SuspensionRegistration::resume`] on completion, *or* on
/// cancellation/drop of the waiting operation — so the deque's
/// `suspendCtr` always balances. Spurious re-polls while registered must
/// keep the original registration rather than creating a second one.
pub(crate) struct SuspensionRegistration {
    rt: Weak<RtInner>,
    worker: usize,
    local_deque: usize,
    task: TaskRef,
    /// Trace tag of the paired `Suspend` event (`0` when untraced).
    seq: u64,
    /// Worker incarnation at registration time (see
    /// [`crate::timer::TimerEntry::epoch`]).
    epoch: u64,
}

impl SuspensionRegistration {
    /// Delivers the one resume event owed by this registration — the
    /// paper's `callback(v, q)` — to the owning worker's inbox.
    pub fn resume(self) {
        if let Some(rt) = self.rt.upgrade() {
            rt.deliver_resume(
                self.worker,
                ResumeEvent {
                    task: self.task,
                    local_deque: self.local_deque,
                    seq: self.seq,
                    enabled_at: 0,
                    epoch: self.epoch,
                },
            );
        }
    }
}

/// How a suspending operation waits for its completion.
pub(crate) enum SuspendWait {
    /// Suspended on a worker deque ([`SuspensionRegistration`]'s one
    /// registration ↔ one resume event contract applies).
    Deque(SuspensionRegistration),
    /// Off-worker or blocking mode: plain waker-based waiting.
    Waker(Waker),
}

impl SuspendWait {
    /// Completes the wait: delivers the owed resume event (deque path) or
    /// wakes the task (waker path).
    pub fn notify(self) {
        match self {
            SuspendWait::Deque(reg) => reg.resume(),
            SuspendWait::Waker(w) => w.wake(),
        }
    }
}

/// Registers the currently polled task as suspended on its active deque,
/// falling back to waker-based waiting off worker threads or in blocking
/// mode. This is the **single** registration entry point for externally
/// completed operations (`external_op`, channel receives).
///
/// On the deque path this bumps the poll's suspend count (raising the
/// deque's `suspendCtr` after the poll); the returned wait must then be
/// notified exactly once — see [`SuspensionRegistration`]'s contract.
pub(crate) fn register_suspension(waker: &Waker) -> SuspendWait {
    match try_register_deque() {
        Some(reg) => SuspendWait::Deque(reg),
        None => SuspendWait::Waker(waker.clone()),
    }
}

/// The deque half of [`register_suspension`]: `None` off worker threads,
/// in blocking mode, or outside a poll.
fn try_register_deque() -> Option<SuspensionRegistration> {
    TLS.with(|t| {
        let borrow = t.borrow();
        let tls = borrow.as_ref()?;
        let rt = tls.rt.upgrade()?;
        if rt.config.mode != crate::config::LatencyMode::Hide {
            return None;
        }
        let task = tls.current_task.borrow().clone()?;
        let local_deque = tls.active_local.get();
        if local_deque == NO_DEQUE {
            return None;
        }
        let mut seq = 0;
        if let Some(tr) = &rt.tracer {
            seq = alloc_seq(tls);
            tr.record(
                tls.index,
                EventKind::Suspend {
                    deque: local_deque as u32,
                    kind: SuspendKind::External,
                    seq,
                },
            );
        }
        tls.suspend_count.set(tls.suspend_count.get() + 1);
        let c = rt.counters.worker(tls.index);
        c.bump(&c.suspensions);
        Some(SuspensionRegistration {
            rt: tls.rt.clone(),
            worker: tls.index,
            local_deque,
            task,
            seq,
            epoch: rt.epoch_of(tls.index),
        })
    })
}

/// One deque owned by this worker. The owner end lives here forever; the
/// thief end was registered in the global registry at allocation.
struct OwnedDeque {
    global: DequeId,
    handle: WorkerHandle<TaskRef>,
    suspend_ctr: u64,
    resumed: Vec<TaskRef>,
    in_ready: bool,
    in_resumed: bool,
    freed: bool,
}

/// A worker thread's state and main loop.
pub(crate) struct Worker {
    rt: Arc<RtInner>,
    index: usize,
    owned: Vec<OwnedDeque>,
    active: Option<usize>,
    ready: std::collections::VecDeque<usize>,
    resumed_list: Vec<usize>,
    empty: Vec<usize>,
    live_deques: u64,
    assigned: Option<TaskRef>,
    rng: StdRng,
    /// Reused buffer for inbox batch drains (swap target).
    inbox_scratch: Vec<ResumeEvent>,
    /// Cached from `rt.tracer` so every event site is one local branch;
    /// `None` (tracing disabled) costs nothing on the hot path.
    tracer: Option<Arc<Tracer>>,
    /// Cached from `rt.faults` — same zero-cost-when-`None` pattern as
    /// the tracer. See [`crate::fault`].
    faults: Option<Arc<FaultInjector>>,
    /// Thief-local steal-policy state (victim affinity). See
    /// [`crate::steal`].
    policy: PolicyState,
    /// Reused landing buffer for steal-half batches: the first task
    /// becomes the assigned task, the rest is pushed into the fresh
    /// deque by [`Worker::land_batch_overflow`].
    steal_scratch: Vec<TaskRef>,
    /// This incarnation's epoch, mirroring `rt.epochs[index]` (which is
    /// only ever written by this thread). Resume events carrying an
    /// older epoch were registered by a dead incarnation and are
    /// re-routed by [`Worker::drain_resumes`] instead of indexed.
    epoch: u64,
}

impl Worker {
    pub fn new(rt: Arc<RtInner>, index: usize) -> Self {
        let seed = rt
            .config
            .seed
            .wrapping_add(crate::rng::GOLDEN_GAMMA.wrapping_mul(index as u64 + 1));
        let tracer = rt.tracer.clone();
        let faults = rt.faults.clone();
        Worker {
            rt,
            index,
            owned: Vec::new(),
            active: None,
            ready: std::collections::VecDeque::new(),
            resumed_list: Vec::new(),
            empty: Vec::new(),
            live_deques: 0,
            assigned: None,
            rng: StdRng::seed_from_u64(seed),
            inbox_scratch: Vec::new(),
            tracer,
            faults,
            policy: PolicyState::default(),
            steal_scratch: Vec::new(),
            epoch: 0,
        }
    }

    /// This worker's cache-padded counter block.
    #[inline]
    fn ctr(&self) -> &CounterBlock {
        self.rt.counters.worker(self.index)
    }

    /// Records a trace event on this worker's ring; one never-taken branch
    /// when tracing is disabled.
    #[inline]
    fn trace(&self, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record(self.index, kind);
        }
    }

    /// Runs the scheduling loop until shutdown. `&mut self` rather than
    /// `self`: the supervision loop in [`crate::runtime`] re-enters after
    /// a panic (same OS thread), with [`Worker::recover_after_panic`]
    /// having reset the state in between.
    pub fn run(&mut self) {
        self.install_tls();
        self.rt.sleepers.register(self.index);
        // Line 26: every worker starts with an empty active deque.
        let q = self.new_deque();
        self.activate(q);

        loop {
            if self.rt.is_shutdown() {
                break;
            }
            if let Some(f) = &self.faults {
                // Outside poll_task's catch_unwind: this panic escapes the
                // scheduler loop itself and exercises runtime supervision.
                if f.worker_loop_should_panic(self.index) {
                    panic!("injected worker-loop panic (fault plan)");
                }
            }
            if let Some(task) = self.assigned.take() {
                self.poll_task(task);
                self.flush_pending();
                self.drain_resumes();
                self.maybe_forced_switch();
                if let Some(a) = self.active {
                    self.assigned = self.owned[a].handle.pop_bottom();
                }
            } else {
                self.idle_step();
            }
        }
        self.clear_tls();
    }

    /// Lines 41–56 plus injector check and parking.
    fn idle_step(&mut self) {
        self.release_active_if_empty();
        if self.active.is_none() {
            if let Some(q) = self.pop_ready() {
                self.ctr().bump(&self.ctr().deque_switches);
                self.trace(EventKind::DequeSwitch { deque: q as u32 });
                self.activate(q);
            } else if let Some(task) = self.rt.pop_injected() {
                self.assigned = Some(task);
                let q = self.new_deque();
                self.activate(q);
            } else {
                // Thief mode: a bounded burst of probes. Every probe is one
                // full steal attempt (one `steals_attempted` bump paired
                // with exactly one `Steal` trace event); the exponential
                // backoff between failed probes keeps a pack of idle
                // thieves from hammering the registry shards.
                for probe in 0..STEAL_PROBES {
                    self.ctr().bump(&self.ctr().steals_attempted);
                    if let Some(task) = self.try_steal() {
                        self.ctr().bump(&self.ctr().steals_succeeded);
                        self.assigned = Some(task);
                        let q = self.new_deque();
                        self.activate(q);
                        self.land_batch_overflow(q);
                        break;
                    }
                    // Between failed probes: bail out to the outer step if
                    // anything newsworthy arrived, else back off briefly.
                    if self.rt.is_shutdown()
                        || self.rt.injector_nonempty()
                        || self.rt.inbox_nonempty(self.index)
                    {
                        break;
                    }
                    for _ in 0..(1usize << probe.min(6)) {
                        std::hint::spin_loop();
                    }
                }
            }
        }
        self.drain_resumes();
        self.flush_pending();
        if self.assigned.is_none() {
            if let Some(a) = self.active {
                self.assigned = self.owned[a].handle.pop_bottom();
            }
        }
        if self.assigned.is_none() && self.active.is_none() && self.ready.is_empty() {
            self.park();
        }
    }

    /// Parks until an event arrives, via the sleeper-set handshake:
    /// publish our bit, re-check every work source, and only then park.
    /// Producers wake at most one sleeper per event; the timeout bounds
    /// staleness if a wake-up races with parking.
    fn park(&mut self) {
        let sleepers = &self.rt.sleepers;
        sleepers.prepare_park(self.index);
        if self.rt.is_shutdown()
            || self.rt.injector_nonempty()
            || self.rt.inbox_nonempty(self.index)
        {
            sleepers.cancel_park(self.index);
            return;
        }
        self.trace(EventKind::Park);
        std::thread::park_timeout(Duration::from_micros(self.rt.config.park_micros));
        sleepers.cancel_park(self.index);
    }

    // ------------------------------------------------------------------
    // Polling.
    // ------------------------------------------------------------------

    fn poll_task(&mut self, task: TaskRef) {
        let mut inject_spurious = false;
        if let Some(f) = &self.faults {
            // Emulate OS preemption between deadline computation and the
            // poll — the window behind the resume_path flake.
            if let Some(delay) = f.poll_delay() {
                std::thread::sleep(delay);
            }
            inject_spurious = f.spurious_wake();
        }
        task.begin_poll();
        self.ctr().bump(&self.ctr().polls);
        if self.tracer.is_some() {
            // A resumed suspension reaches its next poll: the vertex
            // *executed*. (The tag is only ever set while tracing.)
            let seq = task.take_trace_seq();
            if seq != 0 {
                self.trace(EventKind::ResumeExec { seq });
            }
        }
        // One TLS access per poll: install the current task, run the poll,
        // and read back the suspend count under the same borrow. Nested
        // TLS uses during the poll (spawn_local, register_latency, …) take
        // their own shared borrows, which is fine — only install/clear
        // take the outer RefCell mutably.
        let suspends = TLS.with(|t| {
            let borrow = t.borrow();
            let tls = borrow.as_ref().expect("worker TLS installed");
            *tls.current_task.borrow_mut() = Some(task.clone());
            tls.suspend_count.set(0);

            // Task bodies are wrapped in CatchUnwind, so a panic here
            // indicates a bug in runtime-internal futures; contain it
            // anyway.
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.poll_future()));

            *tls.current_task.borrow_mut() = None;
            let suspends = tls.suspend_count.get();

            match res {
                Ok(std::task::Poll::Ready(())) => task.complete(),
                Ok(std::task::Poll::Pending) => {
                    if task.finish_pending() {
                        // Woken during the poll: runnable again right away.
                        tls.pending_local.borrow_mut().push(task.clone());
                    } else if inject_spurious {
                        // Spurious wake before completion: the task re-polls
                        // while its registrations stay armed. Suspending
                        // futures must keep their original registration
                        // (one registration ↔ one resume event).
                        crate::task::wake_task(task.clone());
                    }
                }
                Err(_panic) => {
                    // Internal future panicked; mark done so joiners don't
                    // hang forever on a poisoned task (user-facing panics
                    // travel via CatchUnwind + JoinCell instead).
                    task.complete();
                }
            }
            suspends
        });

        if suspends > 0 {
            let a = self
                .active
                .expect("a suspending task was polled from an active deque");
            self.owned[a].suspend_ctr += suspends as u64;
        }
    }

    /// Flushes the TLS pending buffer to the bottom of the active deque.
    fn flush_pending(&mut self) {
        let pending: Vec<TaskRef> = TLS.with(|t| {
            let borrow = t.borrow();
            let tls = borrow.as_ref().expect("worker TLS installed");
            let taken = std::mem::take(&mut *tls.pending_local.borrow_mut());
            taken
        });
        if pending.is_empty() {
            return;
        }
        let a = match self.active {
            Some(a) => a,
            None => {
                // Wakes can arrive while idling between deques (e.g. a
                // steal victim's child completing our joined task): give
                // them a fresh deque.
                let q = self.new_deque();
                self.activate(q);
                q
            }
        };
        for t in pending {
            self.owned[a].handle.push_bottom(t);
        }
    }

    // ------------------------------------------------------------------
    // Resumes (callback + addResumedVertices).
    // ------------------------------------------------------------------

    /// Drains the inbox **batch** delivered by the timer (or external
    /// completions): one vector swap for the whole burst, then
    /// `callback(v, q)` per event and one pfor reinjection tree per
    /// resumed deque.
    fn drain_resumes(&mut self) {
        let mut batch = std::mem::take(&mut self.inbox_scratch);
        self.rt.drain_inbox(self.index, &mut batch);
        if batch.is_empty() {
            self.inbox_scratch = batch;
            return;
        }
        for ev in batch.drain(..) {
            self.ctr().bump(&self.ctr().resumes);
            if let Some(tr) = &self.tracer {
                if ev.seq != 0 {
                    // The owner drained the event: the vertex is *ready*.
                    tr.record(
                        self.index,
                        EventKind::ResumeReady {
                            seq: ev.seq,
                            enabled_at: ev.enabled_at,
                        },
                    );
                    // Tag the task so its next poll emits `ResumeExec`.
                    ev.task.set_trace_seq(ev.seq);
                }
            }
            if ev.epoch != self.epoch {
                // Orphaned resume: registered by a dead incarnation of
                // this worker, whose owner-local deque numbering (and
                // suspendCtr bookkeeping) vanished with it — rescue
                // already re-homed those deques. Re-route the task onto
                // the current active deque instead of indexing `owned`.
                // The `resumes` bump and `ResumeReady` record above still
                // happened, so suspension/resume accounting and audit
                // seq pairing stay balanced across the death.
                self.ctr().bump(&self.ctr().resumes_rerouted);
                if ev.task.try_claim_for_queue() {
                    let a = match self.active {
                        Some(a) => a,
                        None => {
                            let q = self.new_deque();
                            self.activate(q);
                            q
                        }
                    };
                    self.owned[a].handle.push_bottom(ev.task);
                }
                continue;
            }
            let d = &mut self.owned[ev.local_deque];
            debug_assert!(d.suspend_ctr > 0, "resume without suspension");
            d.suspend_ctr -= 1;
            d.resumed.push(ev.task);
            if !d.in_resumed {
                d.in_resumed = true;
                self.resumed_list.push(ev.local_deque);
            }
        }
        self.inbox_scratch = batch;
        // An all-orphan batch leaves the resumed list empty — every event
        // was re-routed above rather than staged on a deque.
        // addResumedVertices(): one pfor batch per resumed deque.
        let list = std::mem::take(&mut self.resumed_list);
        for q in list {
            let d = &mut self.owned[q];
            d.in_resumed = false;
            let vs = std::mem::take(&mut d.resumed);
            debug_assert!(!vs.is_empty());
            if vs.len() == 1 {
                // Singleton: schedule the task directly (a pfor tree with
                // one leaf is just the leaf).
                let task = vs.into_iter().next().expect("len 1");
                if task.try_claim_for_queue() {
                    self.owned[q].handle.push_bottom(task);
                }
            } else {
                self.ctr().bump(&self.ctr().pfor_batches);
                let pfor = crate::pfor::new_pfor_task(&self.rt, vs);
                self.owned[q].handle.push_bottom(pfor);
            }
            self.mark_ready(q);
        }
    }

    /// Fault hook: demote a non-empty active deque to the ready list, as
    /// if the worker had been forced off it. The next idle step reactivates
    /// it (or a sibling) through the normal `pop_ready` switch path, which
    /// always runs before `new_deque` — so Lemma 7's bound is preserved.
    fn maybe_forced_switch(&mut self) {
        let Some(f) = &self.faults else { return };
        let Some(a) = self.active else { return };
        if self.owned[a].handle.is_empty() || !f.force_deque_switch() {
            return;
        }
        self.active = None;
        TLS.with(|t| {
            let borrow = t.borrow();
            if let Some(tls) = borrow.as_ref() {
                tls.active_local.set(NO_DEQUE);
            }
        });
        self.mark_ready(a);
    }

    fn mark_ready(&mut self, q: usize) {
        if self.active == Some(q) || self.owned[q].in_ready {
            return;
        }
        self.owned[q].in_ready = true;
        self.ready.push_back(q);
    }

    fn pop_ready(&mut self) -> Option<usize> {
        let q = self.ready.pop_front()?;
        self.owned[q].in_ready = false;
        Some(q)
    }

    // ------------------------------------------------------------------
    // Deque lifecycle (Figure 5).
    // ------------------------------------------------------------------

    fn new_deque(&mut self) -> usize {
        let q = match self.empty.pop() {
            Some(q) => {
                // Figure 5: recycle, never deallocate. Re-entering the
                // registry's live set makes the slot visible to thieves
                // sampling over live deques again.
                self.owned[q].freed = false;
                self.rt.registry.reuse(self.owned[q].global);
                q
            }
            None => {
                let (worker_end, stealer) = WorkerHandle::new(DequeKind::ChaseLev);
                let global = self
                    .rt
                    .registry
                    .register(self.index, stealer)
                    .expect("deque registry exhausted; raise Config::registry_capacity");
                self.ctr().bump(&self.ctr().deques_allocated);
                self.owned.push(OwnedDeque {
                    global,
                    handle: worker_end,
                    suspend_ctr: 0,
                    resumed: Vec::new(),
                    in_ready: false,
                    in_resumed: false,
                    freed: false,
                });
                self.owned.len() - 1
            }
        };
        self.live_deques += 1;
        self.ctr().observe_deques(self.live_deques);
        self.trace(EventKind::DequeAlloc {
            live: self.live_deques as u32,
        });
        q
    }

    fn free_deque(&mut self, q: usize) {
        debug_assert!(self.owned[q].handle.is_empty());
        debug_assert_eq!(self.owned[q].suspend_ctr, 0);
        debug_assert!(self.owned[q].resumed.is_empty());
        self.owned[q].freed = true;
        let compacted = self.rt.registry.release(self.owned[q].global);
        self.empty.push(q);
        self.live_deques -= 1;
        self.trace(EventKind::DequeRelease {
            live: self.live_deques as u32,
        });
        if compacted {
            self.trace(EventKind::RegistryCompact {
                deque: self.owned[q].global.index() as u32,
            });
        }
    }

    fn activate(&mut self, q: usize) {
        self.active = Some(q);
        TLS.with(|t| {
            let borrow = t.borrow();
            if let Some(tls) = borrow.as_ref() {
                tls.active_local.set(q);
            }
        });
    }

    fn release_active_if_empty(&mut self) {
        let Some(a) = self.active else { return };
        if !self.owned[a].handle.is_empty() {
            return;
        }
        self.active = None;
        TLS.with(|t| {
            let borrow = t.borrow();
            if let Some(tls) = borrow.as_ref() {
                tls.active_local.set(NO_DEQUE);
            }
        });
        if self.owned[a].suspend_ctr == 0 && self.owned[a].resumed.is_empty() {
            self.free_deque(a);
        }
        // Otherwise the deque parks as a suspended deque until a resume.
    }

    // ------------------------------------------------------------------
    // Stealing.
    // ------------------------------------------------------------------

    /// One pop-top on victim deque `id`. A [`Steal::Retry`] from the deque
    /// (a benign race) re-tries the same victim up to [`STEAL_RETRIES`]
    /// times before the attempt counts as failed — previously a Retry was
    /// swallowed as a failure outright, wasting the victim draw. Each
    /// inner retry is counted (`steal_retries`) *before* the backoff
    /// spin, so the counter is exact even mid-spin.
    fn steal_from(&self, id: DequeId) -> (Option<TaskRef>, StealOutcome) {
        for _ in 0..STEAL_RETRIES {
            match self.rt.registry.steal(id) {
                Steal::Success(task) => return (Some(task), StealOutcome::Success),
                Steal::Empty => return (None, StealOutcome::Empty),
                Steal::Retry => {
                    self.ctr().bump(&self.ctr().steal_retries);
                    std::hint::spin_loop();
                }
            }
        }
        (None, StealOutcome::LostRace)
    }

    /// One steal against victim `id`, single or steal-half depending on
    /// the configured batch cap. On a multi-task claim the first
    /// task is returned as the assigned task and the remainder stays in
    /// `steal_scratch` for [`Worker::land_batch_overflow`].
    fn steal_victim(&mut self, id: DequeId) -> (Option<TaskRef>, StealOutcome) {
        let cap = self.rt.config.steal_batch_limit;
        if cap <= 1 {
            return self.steal_from(id);
        }
        debug_assert!(self.steal_scratch.is_empty());
        for _ in 0..STEAL_RETRIES {
            match self
                .rt
                .registry
                .steal_batch(id, cap, &mut self.steal_scratch)
            {
                Steal::Success(n) => {
                    debug_assert_eq!(n, self.steal_scratch.len());
                    if n >= 2 {
                        let c = self.ctr();
                        c.add(&c.steal_batch_tasks, n as u64);
                        self.trace(EventKind::StealBatch {
                            victim: id.index() as u32,
                            n: n as u32,
                        });
                    }
                    let first = self.steal_scratch.remove(0);
                    return (Some(first), StealOutcome::Success);
                }
                Steal::Empty => return (None, StealOutcome::Empty),
                Steal::Retry => {
                    self.ctr().bump(&self.ctr().steal_retries);
                    std::hint::spin_loop();
                }
            }
        }
        (None, StealOutcome::LostRace)
    }

    /// Lands the overflow of a multi-task steal (everything past the
    /// assigned first task) in fresh deque `q`, pushed in reverse so the
    /// owner's LIFO pops replay the batch in its original top-to-bottom
    /// order. No-op after single-item steals.
    fn land_batch_overflow(&mut self, q: usize) {
        if self.steal_scratch.is_empty() {
            return;
        }
        let mut rest = std::mem::take(&mut self.steal_scratch);
        for t in rest.drain(..).rev() {
            self.owned[q].handle.push_bottom(t);
        }
        self.steal_scratch = rest;
    }

    /// One steal attempt (exactly one `Steal` trace event — including
    /// attempts that never reach a victim deque — so trace steal counts
    /// match `steals_attempted` exactly).
    fn try_steal(&mut self) -> Option<TaskRef> {
        if let Some(f) = &self.faults {
            // Forced failure before the victim draw: from the scheduler's
            // perspective, a steal that lost its race (retry storms under
            // high rates). Still exactly one Steal event per attempt.
            if f.steal_fail() {
                self.trace(EventKind::Steal {
                    victim_deque: NONE_ID,
                    victim_worker: NONE_ID,
                    outcome: StealOutcome::LostRace,
                });
                return None;
            }
        }
        let (victim, victim_worker, got, outcome) = match self.rt.config.steal_policy {
            StealPolicy::Uniform => self.steal_uniform(),
            StealPolicy::Affinity => self.steal_affinity(),
        };
        self.trace(EventKind::Steal {
            victim_deque: victim.map_or(NONE_ID, |id| id.index() as u32),
            victim_worker,
            outcome,
        });
        got
    }

    /// Uniform victim draw: the paper's memoryless `randomDeque()` over
    /// the live set.
    fn steal_uniform(&mut self) -> (Option<DequeId>, u32, Option<TaskRef>, StealOutcome) {
        match self.rt.registry.random_live_id(self.rng.gen()) {
            None => (None, NONE_ID, None, StealOutcome::Empty),
            Some(id) => self.steal_checked(id),
        }
    }

    /// One steal against `id` with dead-target accounting and the
    /// trace-only owner lookup.
    fn steal_checked(
        &mut self,
        id: DequeId,
    ) -> (Option<DequeId>, u32, Option<TaskRef>, StealOutcome) {
        let (task, mut outcome) = self.steal_victim(id);
        if task.is_none() && !self.rt.registry.is_live(id) {
            // The victim retired between the draw and the steal (the
            // live-set draw never returns an already-freed slot, so this
            // is the only way to land on one). The paper's
            // `randomDeque()` simply eats such failures; they stay
            // counted so a regression of the index shows up.
            self.ctr().bump(&self.ctr().steals_dead_target);
            outcome = StealOutcome::Dead;
        }
        // The owner lookup is trace-only metadata; skip it when no one is
        // recording.
        let owner = if self.tracer.is_some() {
            self.rt.registry.owner_of(id).map_or(NONE_ID, |w| w as u32)
        } else {
            NONE_ID
        };
        (Some(id), owner, task, outcome)
    }

    /// Affinity victim draw: retry the last successful victim while it
    /// stays live, then prefer a draw from its owner's registry shard,
    /// then fall back to the uniform draw (counted in `steal_fallbacks`).
    fn steal_affinity(&mut self) -> (Option<DequeId>, u32, Option<TaskRef>, StealOutcome) {
        // Chaos hook: poison the cached victim before consulting it, as
        // if it had just retired under us.
        if self.policy.cached_victim().is_some()
            && self.faults.as_ref().is_some_and(|f| f.affinity_stale())
        {
            self.policy.poison();
        }
        if let Some(id) = self.policy.cached_victim() {
            if self.rt.registry.is_live(id) {
                let r = self.steal_checked(id);
                if r.2.is_some() {
                    self.ctr().bump(&self.ctr().steal_affinity_hits);
                    let owner = self.rt.registry.owner_of(id);
                    self.policy.record_hit(id, owner);
                    return r;
                }
            }
            // Missed or retired: forget the id, keep the shard preference.
            self.policy.clear_victim();
        }
        if let Some(owner) = self.policy.preferred_owner() {
            let drawn = self
                .rt
                .registry
                .random_live_id_in_shard(owner, self.rng.gen());
            if let Some(id) = drawn {
                let r = self.steal_checked(id);
                if r.2.is_some() {
                    self.ctr().bump(&self.ctr().steal_affinity_hits);
                    let owner = self.rt.registry.owner_of(id);
                    self.policy.record_hit(id, owner);
                    return r;
                }
            }
            // The preferred shard has gone cold; drop the preference so
            // the next attempt goes straight to the uniform draw.
            self.policy.poison();
        }
        // No affinity signal left: uniform live-index draw, reseeding the
        // cache on success.
        self.ctr().bump(&self.ctr().steal_fallbacks);
        let r = self.steal_uniform();
        if r.2.is_some() {
            if let Some(id) = r.0 {
                let owner = self.rt.registry.owner_of(id);
                self.policy.record_hit(id, owner);
            }
        }
        r
    }

    // ------------------------------------------------------------------
    // Supervision (respawn after a scheduler-loop panic).
    // ------------------------------------------------------------------

    /// Rescues the dead incarnation's state after a panic unwound out of
    /// [`Worker::run`], and resets `self` so the supervision loop can
    /// re-enter `run` on the same OS thread.
    ///
    /// A scheduler-loop panic leaves `self` structurally intact (no
    /// `unsafe` near the loop; every collection is in a valid state
    /// mid-unwind) but logically torn: the assigned task, the TLS pending
    /// buffer, the owned deques and their staged resume buffers can all
    /// still hold live tasks, and every deque's thief end is still
    /// registered. This walks all of them, re-injects every salvageable
    /// task through the global injector (any survivor — including the
    /// respawned self — picks them up), and voids the old incarnation's
    /// suspension bookkeeping by bumping the worker epoch: in-flight
    /// resumes stamped with the old epoch are re-routed by
    /// [`Worker::drain_resumes`] instead of indexing dead deque slots.
    ///
    /// Not recovered: a batch mid-drain inside `drain_resumes` when the
    /// panic fired lives in a local the unwind dropped (counted as leaked
    /// suspensions at shutdown), and the dead incarnation's registry
    /// slots are released but their free-list entries die with `owned` —
    /// a bounded per-death slot leak.
    pub fn recover_after_panic(&mut self) {
        // First event of the aftermath (same ring, same producer
        // thread): audit resets this worker's live-deque expectation on
        // it, and everything after belongs to the new incarnation.
        self.trace(EventKind::WorkerDeath {
            worker: self.index as u32,
        });

        let mut salvaged: Vec<TaskRef> = Vec::new();
        if let Some(t) = self.assigned.take() {
            salvaged.push(t);
        }
        // The TLS pending buffer can hold fork children / wake-ups
        // buffered by the interrupted poll; reset the rest of the TLS
        // poll state while we're here.
        TLS.with(|t| {
            let borrow = t.borrow();
            if let Some(tls) = borrow.as_ref() {
                salvaged.append(&mut tls.pending_local.borrow_mut());
                *tls.current_task.borrow_mut() = None;
                tls.suspend_count.set(0);
                tls.active_local.set(NO_DEQUE);
            }
        });
        // Resumed-but-not-reinjected tasks staged on deques are still
        // IDLE (the normal path claims them at reinjection); claim them
        // now so exactly one scheduler queue ever holds each.
        for d in self.owned.iter_mut() {
            for task in d.resumed.drain(..) {
                if task.try_claim_for_queue() {
                    salvaged.push(task);
                }
            }
        }
        // Pull the dead deques out of the registry's live set — thieves
        // stop drawing them, and in-flight steals race our pops through
        // the deque's normal owner/thief protocol — then drain the owner
        // ends.
        let rescued = self.rt.registry.rescue(self.index);
        for d in self.owned.iter_mut() {
            if d.freed {
                continue;
            }
            while let Some(task) = d.handle.pop_bottom() {
                salvaged.push(task);
            }
        }

        // Reset to a just-constructed state. Dropping `owned` drops the
        // owner handles; the registry keeps the (released) thief ends.
        self.owned.clear();
        self.active = None;
        self.ready.clear();
        self.resumed_list.clear();
        self.empty.clear();
        self.live_deques = 0;
        self.steal_scratch.clear();
        self.inbox_scratch.clear();
        self.policy.poison();

        // Void the dead incarnation's suspension registrations. Every
        // read on the registration paths happens on this same thread, so
        // Relaxed suffices.
        self.epoch += 1;
        self.rt.epochs[self.index].store(self.epoch, std::sync::atomic::Ordering::Relaxed);

        let c = self.ctr();
        c.bump(&c.workers_restarted);
        c.add(&c.deques_rescued, rescued.len() as u64);
        self.trace(EventKind::WorkerRespawn {
            worker: self.index as u32,
            rescued: rescued.len() as u32,
        });

        // Hand every salvaged task to the injector: any worker —
        // including the respawned self — picks them up. No task is
        // doubled (each was popped or claimed exactly once above) and
        // none reachable from the dead state is lost.
        for task in salvaged {
            self.rt.inject(task);
        }
    }

    // ------------------------------------------------------------------
    // TLS plumbing.
    // ------------------------------------------------------------------

    fn install_tls(&self) {
        TLS.with(|t| {
            let mut borrow = t.borrow_mut();
            // Re-entry after a respawn (same OS thread): keep the
            // existing TLS. In particular `suspend_seq` must keep
            // advancing — trace suspension tags are unique per worker
            // across incarnations, and a reset would double-register
            // tags the dead incarnation already used.
            if borrow.as_ref().is_some_and(|tls| tls.index == self.index) {
                return;
            }
            *borrow = Some(WorkerTls {
                rt: Arc::downgrade(&self.rt),
                index: self.index,
                active_local: Cell::new(NO_DEQUE),
                current_task: RefCell::new(None),
                suspend_count: Cell::new(0),
                pending_local: RefCell::new(Vec::new()),
                suspend_seq: Cell::new(0),
            });
        });
    }

    fn clear_tls(&self) {
        TLS.with(|t| {
            *t.borrow_mut() = None;
        });
    }
}

/// Schedules a batch of resumed tasks from inside a pfor task's poll: each
/// task that is still idle is claimed and buffered for the active deque.
pub(crate) fn schedule_resumed_batch(tasks: Vec<TaskRef>) {
    TLS.with(|t| {
        let borrow = t.borrow();
        let tls = borrow
            .as_ref()
            .expect("pfor tasks only run on worker threads");
        let mut pending = tls.pending_local.borrow_mut();
        for task in tasks {
            if task.try_claim_for_queue() {
                pending.push(task);
            }
        }
    });
}

/// Creates and immediately buffers a task (used by pfor splitting); the
/// task must already be in the QUEUED state.
pub(crate) fn push_queued_task(task: TaskRef) {
    spawn_local(task);
}
