//! Worker threads: Figure 3's scheduling loop over real OS threads.
//!
//! Each worker owns a collection of deques, one active at a time:
//!
//! * With an **assigned task**, the worker polls it. A fork's right half
//!   (a slot, [`crate::join::Fork2`]) or a spawned child is pushed on the
//!   bottom of the active deque at once — thieves can take it while the
//!   left branch still runs — and taken back and run inline when the
//!   parent reaches the join, if nobody did ([`WorkerTls::reclaim`],
//!   [`join_inline`]). Wake-ups delivered on this
//!   thread land in a thread-local pending buffer, flushed to the bottom
//!   of the active deque after the poll — then resumed vertices are
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
//! increments the deque's `suspendCtr`. The timer entry goes into the
//! worker's **own** timer shard ([`crate::timer`]), which only this thread
//! touches. Where the worker drains its resume inbox — after every poll
//! and on every idle step — it first fires that shard: everything due, its
//! own expirations and the inbox's external completions, becomes **one
//! batch of [`ResumeEvent`]s**; draining it is the paper's `callback(v, q)`
//! for every event, and the batched reinjection through a pfor task is
//! `addResumedVertices()`. The inbox is the only way into another worker's
//! state.
//!
//! Hot-path discipline: everything a task does to the scheduler from
//! inside a poll — spawn, join, wake, suspend — goes through the thread's
//! [`WorkerTls`] by reference ([`with_worker`]): no reference count that
//! workers share is touched, and counters are bumped on the worker's own
//! cache-padded block.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::ptr::NonNull;
use std::rc::Rc;
use std::sync::Arc;
use std::task::Waker;
use std::time::{Duration, Instant};

use lhws_deque::{DequeId, DequeKind, WorkerHandle};

use crate::config::LatencyMode;
use crate::fault::{FaultInjector, FaultSite};
use crate::join::JoinHandle;
use crate::metrics::{Counter, WorkerBlock};
use crate::runtime::{self, RtInner};
use crate::steal::Thief;
use crate::task::{self, Job, Polled, SlotHead, TaskRef};
use crate::timer::{DeadlineCallback, Payload, Pending, ResumeEvent, TimerHeap};
use crate::trace::{EventKind, SuspendKind, Tracer};

/// How deep inline runs may nest — right halves polled in place
/// ([`WorkerTls::inline`]) and children popped back at a join
/// ([`join_inline`]): an inline-run child that forks and joins runs *its*
/// child one level further down the same worker stack. Past the cap a
/// fork promotes its right half and a join takes the waker path instead,
/// which unwinds the stack, so a right-leaning chain of any length runs in
/// bounded stack. A
/// constant, not a knob: balanced fork-join nests logarithmically and
/// never gets near it, and the right value depends on the worker stack
/// size, which is not configurable either.
const MAX_INLINE_DEPTH: u32 = 64;

/// A worker whose active deque runs dry while other work is queued (ready
/// deques, the injector) harvests the attached I/O driver without blocking
/// before taking that work, at most once every this many task polls, so
/// readiness does not wait for some worker to park.
///
/// Never mid-deque: resumes land on the bottom of their deque, so a harvest
/// into a non-empty active deque buries the tasks an earlier harvest
/// resumed under newer ones — with one worker and a closed loop, that
/// starves a few connections for up to a second. A constant, not a knob;
/// prime, so it does not beat with the power-of-two structure of fork-join
/// work.
const IO_POLL_INTERVAL: u32 = 61;

/// The active deque as a poll sees it: its owner-local index (what
/// suspensions are charged to) and its owner end (what spawns push on and
/// joins pop from).
struct ActiveDeque {
    local: usize,
    handle: Rc<WorkerHandle<Job>>,
}

/// Thread-local context installed on worker threads. The worker loop
/// keeps it current ([`Worker::activate`] and friends); everything here is
/// only ever touched by the worker thread itself.
pub(crate) struct WorkerTls {
    /// The worker's own reference, for the life of the thread: what lets
    /// polls reach the runtime by `&` instead of by upgrade.
    rt: Arc<RtInner>,
    index: usize,
    /// `None` between deques; always `Some` during a poll.
    active: RefCell<Option<ActiveDeque>>,
    /// The task being polled right now (innermost, under inline joins);
    /// null outside polls. Points at [`WorkerTls::run_task`]'s own local.
    current_task: Cell<*const TaskRef>,
    /// Latency registrations made during the current outermost poll.
    suspend_count: Cell<u32>,
    /// Tasks woken on this thread (join wake-ups, yields, spurious
    /// wakes); flushed to the active deque after the poll.
    pending_local: RefCell<Vec<TaskRef>>,
    /// What a fork's take-back pops past on its way down to its slot
    /// ([`task::reclaim`]); empty between take-backs, so one buffer serves
    /// every fork on the thread.
    reclaim_scratch: RefCell<Vec<Job>>,
    /// Running count of trace suspension tags handed out by this worker
    /// (only advanced while tracing is enabled).
    suspend_seq: Cell<u64>,
    /// Current nesting of inline runs ([`WorkerTls::inline`],
    /// [`join_inline`]).
    inline_depth: Cell<u32>,
    /// This worker's timer shard: registered into by its polls, fired by
    /// [`Worker::drain_resumes`], canceled when the worker exits. Never
    /// borrowed across a callback or a poll.
    timers: RefCell<TimerHeap>,
}

thread_local! {
    static TLS: RefCell<Option<WorkerTls>> = const { RefCell::new(None) };
}

/// Why `spawn` and `fork2` panic off worker threads.
pub(crate) const NOT_ON_WORKER: &str = "lhws::spawn / lhws::fork2 require a worker context: \
     call them inside Runtime::block_on or Runtime::spawn";

/// Runs `f` with the current thread's worker context — `None` off worker
/// threads. Calls nest (a poll runs inside one and makes more).
pub(crate) fn with_worker<R>(f: impl FnOnce(Option<&WorkerTls>) -> R) -> R {
    TLS.with(|t| f(t.borrow().as_ref()))
}

/// Hands `item` to runtime `rt_id`: through `local` on one of its own
/// worker threads, which reach the runtime by reference; through `remote`
/// on any other thread (a reactor, a user thread, another runtime's
/// worker), which is the one place a wake or resume takes a counted
/// reference, from the process-wide table. Dropped if the runtime is gone.
pub(crate) fn route<T>(
    rt_id: u32,
    item: T,
    local: impl FnOnce(&WorkerTls, T),
    remote: impl FnOnce(&RtInner, T),
) {
    let elsewhere = with_worker(|w| match w {
        Some(w) if w.rt.id == rt_id => {
            local(w, item);
            None
        }
        _ => Some(item),
    });
    if let Some(item) = elsewhere {
        if let Some(rt) = runtime::lookup(rt_id) {
            remote(&rt, item);
        }
    }
}

impl WorkerTls {
    /// The runtime this thread works for.
    #[inline]
    pub fn rt(&self) -> &Arc<RtInner> {
        &self.rt
    }

    #[inline]
    fn ctr(&self) -> &WorkerBlock {
        self.rt.counters.worker(self.index)
    }

    /// Allocates a trace suspension tag: worker-unique by construction
    /// (worker index in the high bits, per-worker counter in the low 40),
    /// and never `0` — `0` is the "untraced" sentinel carried through
    /// [`ResumeEvent::seq`].
    fn alloc_seq(&self) -> u64 {
        let n = self.suspend_seq.get() + 1;
        self.suspend_seq.set(n);
        ((self.index as u64 + 1) << 40) | (n & ((1 << 40) - 1))
    }

    /// The fork of a fork-join: creates the task and pushes it on the
    /// bottom of the active deque (Figure 3's push-bottom).
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (task, handle) = task::new_joinable(self.rt.id, fut);
        self.ctr().bump(Counter::TasksSpawned);
        self.push_spawned(task);
        handle
    }

    /// Pushes a `QUEUED` task on the bottom of the active deque, where
    /// thieves see it at once.
    pub fn push_spawned(&self, task: TaskRef) {
        match &*self.active.borrow() {
            Some(active) => active.handle.push_bottom(Job::task(task)),
            // Between deques (not during a poll): the next flush opens one.
            None => self.push_enabled(task),
        }
    }

    /// A fork's first step: pushes its slot on the bottom of the active
    /// deque, where thieves see it while the left half runs. False — and
    /// nothing pushed — past [`MAX_INLINE_DEPTH`], where the fork must
    /// promote instead: its right half would run one level deeper.
    ///
    /// # Safety
    /// As for [`Job::slot`]: the caller takes the slot back with
    /// [`WorkerTls::reclaim`] before its poll returns or unwinds.
    #[inline]
    pub unsafe fn advertise(&self, head: NonNull<SlotHead>) -> bool {
        if self.inline_depth.get() >= MAX_INLINE_DEPTH {
            return false;
        }
        match &*self.active.borrow() {
            // SAFETY: forwarded contract.
            Some(active) => active.handle.push_bottom(unsafe { Job::slot(head) }),
            // A poll always has an active deque.
            None => return false,
        }
        true
    }

    /// Takes the slot at `head` back off the active deque
    /// ([`task::reclaim`]). Afterwards the slot is the owner's again and
    /// holds the right half, or — if a thief stole and published it, or if
    /// `promote` asked the owner to promote it in its old place — the
    /// task's handle.
    ///
    /// # Safety
    /// The caller advertised `head` in the poll it is in and has not
    /// taken it back; every slot advertised after it has been.
    #[inline]
    pub unsafe fn reclaim(&self, head: NonNull<SlotHead>, promote: bool) {
        let active = self.active.borrow();
        let deque = &active
            .as_ref()
            .expect("a slot is advertised on the active deque")
            .handle;
        // SAFETY: forwarded contract; the closure runs only with the slot
        // back, when its right half is the owner's.
        unsafe {
            task::reclaim(deque, &mut self.reclaim_scratch.borrow_mut(), head, || {
                promote.then(|| self.promoted(SlotHead::promote(head, self.rt.id)))
            });
        }
    }

    /// Promotes the never-advertised slot at `head` and pushes the task as
    /// a spawn would.
    ///
    /// # Safety
    /// As for [`SlotHead::promote`]: the slot is this poll's own.
    pub unsafe fn promote(&self, head: NonNull<SlotHead>) {
        // SAFETY: forwarded contract.
        let task = unsafe { SlotHead::promote(head, self.rt.id) };
        self.push_spawned(self.promoted(task));
    }

    /// Counts a task promoted from a fork's slot on this worker.
    fn promoted(&self, task: TaskRef) -> TaskRef {
        let c = self.ctr();
        c.bump(Counter::TasksSpawned);
        c.bump(Counter::ForksPromoted);
        task
    }

    /// Runs `f` one inline level deeper — a right half polled in place.
    #[inline]
    pub fn inline<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Restores the depth, also on unwind.
        struct Depth<'a>(&'a Cell<u32>);
        impl Drop for Depth<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() - 1);
            }
        }
        self.inline_depth.set(self.inline_depth.get() + 1);
        let _depth = Depth(&self.inline_depth);
        f()
    }

    /// Buffers a `QUEUED` task woken on this thread; the worker loop
    /// flushes the buffer to the bottom of the active deque after the
    /// poll, so a woken continuation runs next.
    pub fn push_enabled(&self, task: TaskRef) {
        self.pending_local.borrow_mut().push(task);
    }

    /// Arms a deadline callback on this worker's own timer shard:
    /// `cb(true)` at the first drain after `deadline`, `cb(false)` if the
    /// worker exits first.
    pub fn register_deadline(&self, deadline: Instant, cb: DeadlineCallback) {
        self.timers
            .borrow_mut()
            .insert(deadline, Payload::Deadline(cb));
    }

    /// The task being polled and the deque it is charged to, for a
    /// suspension registration. `None` outside a poll.
    fn suspension_site(&self) -> Option<(TaskRef, usize)> {
        let current = self.current_task.get();
        if current.is_null() {
            return None;
        }
        // SAFETY: `run_task` points `current_task` at its own `task` local
        // for exactly the duration of the poll and restores it on the way
        // out (guard), and this runs inside that poll on the same thread.
        let task = unsafe { &*current }.clone();
        let local = self.active.borrow().as_ref()?.local;
        Some((task, local))
    }

    /// Records the `Suspend` trace event and the counters of one
    /// registration on deque `local`; returns the event's tag (`0` when
    /// untraced).
    fn note_suspension(&self, local: usize, kind: SuspendKind) -> u64 {
        let mut seq = 0;
        if let Some(tr) = &self.rt.tracer {
            seq = self.alloc_seq();
            tr.record(
                self.index,
                EventKind::Suspend {
                    deque: local as u32,
                    kind,
                    seq,
                },
            );
        }
        self.suspend_count.set(self.suspend_count.get() + 1);
        self.ctr().bump(Counter::Suspensions);
        seq
    }

    /// One poll of `task`, the same for the scheduler loop and for a
    /// join's inline run: fault hooks, state machine, `polls`, the
    /// `ResumeExec` trace event, the current-task scope, and the requeue
    /// of a task woken while it ran.
    fn run_task(&self, task: TaskRef) {
        let mut inject_spurious = false;
        if let Some(f) = &self.rt.faults {
            // Emulate OS preemption between deadline computation and the
            // poll — the window behind the resume_path flake.
            if let Some(delay) = f.jitter(FaultSite::PollDelay) {
                std::thread::sleep(delay);
            }
            inject_spurious = f.fires(FaultSite::SpuriousWake);
        }
        self.ctr().bump(Counter::Polls);
        if let Some(tr) = &self.rt.tracer {
            // A resumed suspension reaches its next poll: the vertex
            // *executed*. (The tag is only ever set while tracing.)
            let seq = task.take_trace_seq();
            if seq != 0 {
                tr.record(self.index, EventKind::ResumeExec { seq });
            }
        }
        /// Restores the outer poll's current task, also on unwind.
        struct Scope<'a>(&'a Cell<*const TaskRef>, *const TaskRef);
        impl Drop for Scope<'_> {
            fn drop(&mut self) {
                self.0.set(self.1);
            }
        }
        let polled = {
            let _scope = Scope(&self.current_task, self.current_task.replace(&task));
            task.run(self.rt.faults.as_deref())
        };
        match polled {
            Polled::Done => {}
            // Woken during the poll: runnable again right away.
            Polled::Requeue => self.push_enabled(task),
            // Spurious wake before completion: the task re-polls while its
            // registrations stay armed. Suspending futures must keep their
            // original registration (one registration ↔ one resume event).
            Polled::Idle if inject_spurious => task.wake(),
            Polled::Idle => {}
        }
    }
}

/// Figure 3's pop-bottom at a join: if the task `handle` awaits is still
/// the bottom element of this worker's active deque, pops it back and
/// runs it here, inside the joining task's poll, through
/// [`WorkerTls::run_task`]. Whatever happens — not a worker thread,
/// something else at the bottom, a thief won the race, the cap — the
/// caller just looks at the task again and falls back to its waker.
pub(crate) fn join_inline<T>(handle: &JoinHandle<T>) {
    with_worker(|w| {
        let Some(w) = w else { return };
        let depth = w.inline_depth.get();
        if depth >= MAX_INLINE_DEPTH {
            return;
        }
        // The borrow of `active` ends before the child runs (and spawns).
        let child = match &*w.active.borrow() {
            Some(active) => handle.pop_if_bottom(&active.handle),
            None => None,
        };
        if let Some(child) = child {
            w.inline_depth.set(depth + 1);
            w.run_task(child);
            w.inline_depth.set(depth);
        }
    })
}

/// Runs `f` on this worker thread's own timer shard. The shard stays
/// borrowed while `f` runs, so `f` must not call back into the scheduler.
fn with_timers<R>(f: impl FnOnce(&mut TimerHeap) -> R) -> R {
    with_worker(|w| f(&mut w.expect("worker TLS installed").timers.borrow_mut()))
}

/// The runtime's latency mode as seen from the current thread.
pub(crate) fn current_latency_mode() -> Option<LatencyMode> {
    with_worker(|w| w.map(|w| w.rt.config.mode))
}

/// Runs `f` with the runtime and this thread's worker index when the
/// current thread is one of runtime `rt_id`'s workers — by reference, no
/// reference count touched — and returns `None` without running it on any
/// other thread. Lets driver hooks route trace events to the worker's own
/// SPSC ring (whose single-producer contract requires being that thread)
/// and counter bumps to its cache-padded block.
pub(crate) fn on_own_worker<R>(rt_id: u32, f: impl FnOnce(&RtInner, usize) -> R) -> Option<R> {
    with_worker(|w| match w {
        Some(w) if w.rt.id == rt_id => Some(f(&w.rt, w.index)),
        _ => None,
    })
}

/// Registers a latency expiration for the currently polled task against
/// the current active deque, in this worker's own timer shard, marking
/// this poll as suspending. Returns false (no registration) off worker
/// threads.
pub(crate) fn register_latency(deadline: Instant) -> bool {
    with_worker(|w| {
        let Some(w) = w else { return false };
        let Some((task, local_deque)) = w.suspension_site() else {
            return false;
        };
        let event = ResumeEvent {
            task,
            local_deque,
            seq: w.note_suspension(local_deque, SuspendKind::Timer),
            enabled_at: 0,
            epoch: w.rt.epoch_of(w.index),
        };
        w.timers
            .borrow_mut()
            .insert(deadline, Payload::Resume(event));
        true
    })
}

/// A task's suspension placement: which worker/deque it suspended on,
/// recorded when a suspending operation registers during a poll. The
/// runtime is the task's.
///
/// **Contract: one registration pairs with exactly one resume event.**
/// Whoever holds the registration owes the deque one [`ResumeEvent`] —
/// delivered by [`SuspensionRegistration::resume`] on completion, *or* on
/// cancellation/drop of the waiting operation — so the deque's
/// `suspendCtr` always balances. Spurious re-polls while registered must
/// keep the original registration rather than creating a second one.
pub(crate) struct SuspensionRegistration {
    worker: usize,
    local_deque: usize,
    task: TaskRef,
    /// Trace tag of the paired `Suspend` event (`0` when untraced).
    seq: u64,
    /// Worker incarnation at registration time (see
    /// [`ResumeEvent::epoch`]).
    epoch: u64,
}

impl SuspensionRegistration {
    /// Delivers the one resume event owed by this registration — the
    /// paper's `callback(v, q)` — to the owning worker's inbox.
    pub fn resume(self) {
        let worker = self.worker;
        let rt_id = self.task.rt_id();
        let event = ResumeEvent {
            task: self.task,
            local_deque: self.local_deque,
            seq: self.seq,
            enabled_at: 0,
            epoch: self.epoch,
        };
        route(
            rt_id,
            event,
            |w, event| w.rt.deliver_resume(worker, event),
            |rt, event| rt.deliver_resume(worker, event),
        );
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
    with_worker(|w| {
        let w = w?;
        if w.rt.config.mode != LatencyMode::Hide {
            return None;
        }
        let (task, local_deque) = w.suspension_site()?;
        Some(SuspensionRegistration {
            worker: w.index,
            local_deque,
            task,
            seq: w.note_suspension(local_deque, SuspendKind::External),
            epoch: w.rt.epoch_of(w.index),
        })
    })
}

/// One deque owned by this worker. The owner end lives here forever
/// (shared with the TLS while the deque is active — `Rc`, so it cannot
/// leave the thread); the thief end was registered in the global registry
/// at allocation.
struct OwnedDeque {
    global: DequeId,
    handle: Rc<WorkerHandle<Job>>,
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
    /// What this worker does when it has nothing of its own to run. See
    /// [`crate::steal`].
    thief: Thief,
    /// Reused buffer for inbox batch drains (swap target).
    inbox_scratch: Vec<ResumeEvent>,
    /// Reused buffer for the entries a timer-shard advance finds due.
    due_scratch: Vec<Pending>,
    /// Reused buffer for pending-enable flushes (swap target).
    pending_scratch: Vec<TaskRef>,
    /// Cached from `rt.tracer` so every event site is one local branch;
    /// `None` (tracing disabled) costs nothing on the hot path.
    tracer: Option<Arc<Tracer>>,
    /// Cached from `rt.faults` — same zero-cost-when-`None` pattern as
    /// the tracer. See [`crate::fault`].
    faults: Option<Arc<FaultInjector>>,
    /// This incarnation's epoch, mirroring `rt.epochs[index]` (which is
    /// only ever written by this thread). Resume events carrying an
    /// older epoch were registered by a dead incarnation and are
    /// re-routed by [`Worker::drain_resumes`] instead of indexed.
    epoch: u64,
    /// This worker's `polls` count from which a deque boundary may harvest
    /// without blocking again ([`IO_POLL_INTERVAL`]).
    next_harvest: u64,
}

impl Worker {
    pub fn new(rt: Arc<RtInner>, index: usize) -> Self {
        let tracer = rt.tracer.clone();
        let faults = rt.faults.clone();
        Worker {
            thief: Thief::new(rt.clone(), index),
            rt,
            index,
            owned: Vec::new(),
            active: None,
            ready: std::collections::VecDeque::new(),
            resumed_list: Vec::new(),
            empty: Vec::new(),
            live_deques: 0,
            assigned: None,
            inbox_scratch: Vec::new(),
            due_scratch: Vec::new(),
            pending_scratch: Vec::new(),
            tracer,
            faults,
            epoch: 0,
            next_harvest: 0,
        }
    }

    /// This worker's cache-padded counter block.
    #[inline]
    fn ctr(&self) -> &WorkerBlock {
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
                    self.assigned = self.owned[a].handle.pop_bottom().map(Job::task_of_owner);
                }
            } else {
                self.idle_step();
            }
        }
        self.exit();
    }

    /// Leaves the worker thread for good — shutdown, or a panic the
    /// supervisor will not respawn: cancels the timer shard, then drops
    /// the thread-local context. A worker of a poisoned runtime hands
    /// every task it still holds to the runtime ([`RtInner::bury`]), which
    /// drops their futures in place once no worker is left to poll them.
    pub fn exit(&mut self) {
        let mut held = self.cancel_timers();
        if self.rt.poisoned_worker().is_some() {
            held.append(&mut self.salvage());
            self.rt.bury(held);
        }
        self.clear_tls();
    }

    /// Lines 41–56 plus injector check and parking.
    fn idle_step(&mut self) {
        self.release_active_if_empty();
        if self.active.is_none() {
            self.harvest_io();
            if let Some(q) = self.pop_ready() {
                self.ctr().bump(Counter::DequeSwitches);
                self.trace(EventKind::DequeSwitch { deque: q as u32 });
                self.activate(q);
            } else if let Some(task) = self.rt.pop_injected() {
                self.assigned = Some(task);
                let q = self.new_deque();
                self.activate(q);
            } else if let Some(task) = self.thief.steal_burst() {
                // Stolen work starts a fresh deque (Figure 3).
                self.assigned = Some(task);
                let q = self.new_deque();
                self.activate(q);
                self.thief.land_overflow(&self.owned[q].handle);
            }
        }
        self.drain_resumes();
        self.flush_pending();
        if self.assigned.is_none() {
            if let Some(a) = self.active {
                self.assigned = self.owned[a].handle.pop_bottom().map(Job::task_of_owner);
            }
        }
        if self.assigned.is_none() && self.active.is_none() && self.ready.is_empty() {
            self.park();
        }
    }

    /// Parks until an event arrives, via the sleeper-set handshake:
    /// publish our bit, re-check every work source, and only then park.
    /// Producers wake at most one sleeper per event; the timeout bounds
    /// staleness if a wake-up races with parking, and is also how long a
    /// parked thief waits before it looks for work to steal again — a push
    /// onto a deque wakes nobody. It is cut short at the worker's own next
    /// timer deadline: nobody else fires its shard.
    ///
    /// With an I/O driver attached, the worker that gets the poller role
    /// parks *in the driver* — blocking in its readiness wait and firing
    /// the completions it harvests on this thread — instead of on the
    /// futex. The role is taken before the bit is published: a producer
    /// that clears the bit then also sees the role and kicks the driver.
    fn park(&mut self) {
        let timeout = self.park_timeout();
        if timeout.is_zero() {
            return;
        }
        let poller = self.rt.take_poller(self.index);
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
        if poller.is_some_and(|p| p.poll(timeout)) {
            self.next_harvest = self.polls() + u64::from(IO_POLL_INTERVAL);
        } else {
            std::thread::park_timeout(timeout);
        }
        sleepers.cancel_park(self.index);
    }

    /// `min(park interval, time to this worker's next timer deadline)`.
    fn park_timeout(&self) -> Duration {
        let park = Duration::from_micros(self.rt.config.park_micros);
        let next = with_timers(|t| t.next_deadline());
        next.map_or(park, |d| {
            park.min(d.saturating_duration_since(Instant::now()))
        })
    }

    /// At a deque boundary, once [`IO_POLL_INTERVAL`] task polls have
    /// passed since this worker's last harvest, harvests the I/O driver
    /// without blocking — if one is attached and no other worker holds the
    /// poller role. Reads the `polls` counter the worker keeps anyway, so
    /// a task poll pays nothing for the cadence.
    fn harvest_io(&mut self) {
        let polls = self.polls();
        if polls < self.next_harvest {
            return;
        }
        if let Some(p) = self.rt.take_poller(self.index) {
            self.next_harvest = polls + u64::from(IO_POLL_INTERVAL);
            p.poll(Duration::ZERO);
        }
    }

    /// Task polls this worker has run (its `polls` counter).
    fn polls(&self) -> u64 {
        self.ctr().get(Counter::Polls)
    }

    // ------------------------------------------------------------------
    // Polling.
    // ------------------------------------------------------------------

    /// Polls the assigned task ([`WorkerTls::run_task`]) and charges the
    /// suspensions registered during the poll — by the task or by children
    /// it ran inline — to the active deque.
    fn poll_task(&mut self, task: TaskRef) {
        let suspends = with_worker(|w| {
            let w = w.expect("worker TLS installed");
            w.suspend_count.set(0);
            w.run_task(task);
            w.suspend_count.get()
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
        // Swap, not take: both vectors keep their capacity across polls.
        let mut pending = std::mem::take(&mut self.pending_scratch);
        with_worker(|w| {
            let w = w.expect("worker TLS installed");
            std::mem::swap(&mut *w.pending_local.borrow_mut(), &mut pending);
        });
        if !pending.is_empty() {
            // Wakes can arrive while idling between deques (e.g. a steal
            // victim's child completing our joined task): give them a
            // fresh deque.
            let a = self.active_or_new();
            for t in pending.drain(..) {
                self.owned[a].handle.push_bottom(Job::task(t));
            }
        }
        self.pending_scratch = pending;
    }

    /// The active deque, opening a fresh one if the worker is between
    /// deques.
    fn active_or_new(&mut self) -> usize {
        match self.active {
            Some(a) => a,
            None => {
                let q = self.new_deque();
                self.activate(q);
                q
            }
        }
    }

    // ------------------------------------------------------------------
    // Resumes (callback + addResumedVertices).
    // ------------------------------------------------------------------

    /// Drains everything due to this worker as **one batch**: its own
    /// timer shard's expirations ([`Worker::fire_timers`]), then the
    /// inbox's external completions by one vector swap; then
    /// `callback(v, q)` per event and one pfor reinjection tree per
    /// resumed deque. The only place a resume reaches a deque.
    fn drain_resumes(&mut self) {
        let mut batch = std::mem::take(&mut self.inbox_scratch);
        // With nothing resident this is the whole timer cost: one branch,
        // no clock read.
        if with_timers(|t| !t.is_empty()) {
            self.fire_timers(&mut batch);
        }
        let fired = batch.len();
        self.rt.drain_inbox(self.index, &mut batch);
        if self.faults.is_some() && batch.len() > fired {
            self.delay_faulted(&mut batch, fired);
        }
        if batch.is_empty() {
            self.inbox_scratch = batch;
            return;
        }
        for ev in batch.drain(..) {
            self.ctr().bump(Counter::Resumes);
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
                self.ctr().bump(Counter::ResumesRerouted);
                if ev.task.try_claim_for_queue() {
                    let a = self.active_or_new();
                    self.owned[a].handle.push_bottom(Job::task(ev.task));
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
                    self.owned[q].handle.push_bottom(Job::task(task));
                }
            } else {
                self.ctr().bump(Counter::PforBatches);
                let pfor = crate::pfor::new_pfor_task(&self.rt, vs);
                self.owned[q].handle.push_bottom(Job::task(pfor));
            }
            self.mark_ready(q);
        }
    }

    /// Advances this worker's own timer shard to now. Expired latencies
    /// join `batch` — traced as one `Resume` event, and reversed whole by
    /// the `ResumeReorder` fault — and deadline callbacks run once the
    /// shard's borrow is released: `cb(true)` settles its op, which may
    /// deliver a resume into this worker's own inbox, drained right after.
    fn fire_timers(&mut self, batch: &mut Vec<ResumeEvent>) {
        let due = &mut self.due_scratch;
        let tick = with_timers(|t| {
            let now = t.now_tick();
            t.advance(now, due);
            now
        });
        if self.due_scratch.is_empty() {
            return;
        }
        let enabled_at = self.tracer.as_ref().map_or(0, |t| t.now());
        let mut fresh = 0;
        for p in self.due_scratch.drain(..) {
            match p.payload {
                Payload::Resume(mut ev) => {
                    ev.enabled_at = enabled_at;
                    fresh += 1;
                    batch.push(ev);
                }
                Payload::Delayed(ev) => batch.push(ev),
                Payload::Deadline(cb) => cb(true),
            }
        }
        // Fault: reverse the batch, exercising the drain's indifference to
        // intra-batch ordering (each event resumes an independent
        // suspension; nothing may assume deadline order within a tick).
        if batch.len() > 1
            && self
                .faults
                .as_ref()
                .is_some_and(|f| f.fires(FaultSite::ResumeReorder))
        {
            batch.reverse();
        }
        if fresh > 0 {
            self.trace(EventKind::Resume {
                batch_len: fresh,
                tick,
            });
        }
    }

    /// Fault: holds inbox events (`batch[from..]`) back by filing them
    /// into this worker's own timer shard with a jittered deadline. They
    /// fire as [`Payload::Delayed`], which this roll never sees again, so
    /// a delayed event is still drained exactly once — or canceled, and
    /// counted, if the worker exits first.
    fn delay_faulted(&mut self, batch: &mut Vec<ResumeEvent>, from: usize) {
        let Some(f) = &self.faults else { return };
        let inbox: Vec<ResumeEvent> = batch.drain(from..).collect();
        with_timers(|t| {
            for ev in inbox {
                match f.jitter(FaultSite::ResumeDelay) {
                    Some(delay) => t.insert(Instant::now() + delay, Payload::Delayed(ev)),
                    None => batch.push(ev),
                }
            }
        });
    }

    /// Empties this worker's timer shard as it exits: deadline callbacks
    /// get `cb(false)` (with the shard's borrow released), resident
    /// resumes give up their tasks to the caller, and both count as
    /// canceled.
    fn cancel_timers(&self) -> Vec<TaskRef> {
        let resident = with_timers(|t| t.drain_all());
        self.rt
            .canceled_ops
            .fetch_add(resident.len() as u64, std::sync::atomic::Ordering::Relaxed);
        let mut tasks = Vec::new();
        for p in resident {
            match p.payload {
                Payload::Deadline(cb) => cb(false),
                Payload::Resume(ev) | Payload::Delayed(ev) => tasks.push(ev.task),
            }
        }
        tasks
    }

    /// Fault hook: demote a non-empty active deque to the ready list, as
    /// if the worker had been forced off it. The next idle step reactivates
    /// it (or a sibling) through the normal `pop_ready` switch path, which
    /// always runs before `new_deque` — so Lemma 7's bound is preserved.
    fn maybe_forced_switch(&mut self) {
        let Some(f) = &self.faults else { return };
        let Some(a) = self.active else { return };
        if self.owned[a].handle.is_empty() || !f.fires(FaultSite::DequeSwitch) {
            return;
        }
        self.deactivate();
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
                // Invariant: the registry spans the whole id space its
                // segments address (`MAX_DEQUES`, ~2³¹), and a worker
                // allocates only when none of its own freed deques is left
                // to recycle, so the count stays within the workers' summed
                // live-deque high waters (Lemma 7's `P · (U + 1)`).
                let global = self
                    .rt
                    .registry
                    .register(self.index, stealer)
                    .expect("deque registry spans the whole id space");
                self.ctr().bump(Counter::DequesAllocated);
                self.owned.push(OwnedDeque {
                    global,
                    handle: Rc::new(worker_end),
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

    /// Makes `q` the active deque, for the loop and — through the TLS —
    /// for the spawns, joins and suspensions of the polls it runs.
    fn activate(&mut self, q: usize) {
        self.active = Some(q);
        let handle = self.owned[q].handle.clone();
        with_worker(|w| {
            let w = w.expect("worker TLS installed");
            *w.active.borrow_mut() = Some(ActiveDeque { local: q, handle });
        });
    }

    fn deactivate(&mut self) {
        self.active = None;
        with_worker(|w| {
            let w = w.expect("worker TLS installed");
            *w.active.borrow_mut() = None;
        });
    }

    fn release_active_if_empty(&mut self) {
        let Some(a) = self.active else { return };
        if !self.owned[a].handle.is_empty() {
            return;
        }
        self.deactivate();
        if self.owned[a].suspend_ctr == 0 && self.owned[a].resumed.is_empty() {
            self.free_deque(a);
        }
        // Otherwise the deque parks as a suspended deque until a resume.
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

        // Pull the dead deques out of the registry's live set first —
        // thieves stop drawing them, and in-flight steals race the pops
        // of `salvage` through the deque's normal owner/thief protocol.
        let rescued = self.rt.registry.rescue(self.index);
        let salvaged = self.salvage();

        // Reset to a just-constructed state. Dropping `owned` drops the
        // owner handles; the registry keeps the (released) thief ends.
        self.owned.clear();
        self.active = None;
        self.ready.clear();
        self.resumed_list.clear();
        self.empty.clear();
        self.live_deques = 0;
        self.inbox_scratch.clear();
        self.due_scratch.clear();
        self.pending_scratch.clear();

        // Void the dead incarnation's suspension registrations. Every
        // read on the registration paths happens on this same thread, so
        // Relaxed suffices.
        self.epoch += 1;
        self.rt.epochs[self.index].store(self.epoch, std::sync::atomic::Ordering::Relaxed);

        let c = self.ctr();
        c.bump(Counter::WorkersRestarted);
        c.add(Counter::DequesRescued, rescued.len() as u64);
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

    /// Takes every task this worker holds outside its timer shard: the
    /// thief's unlanded batch, the assigned task, the TLS pending buffer
    /// (resetting the rest of the TLS poll state, above all the active
    /// deque's owner end), the resumed tasks staged on deques, and the
    /// contents of its live deques.
    fn salvage(&mut self) -> Vec<TaskRef> {
        let mut salvaged: Vec<TaskRef> = self.thief.take_unlanded();
        if let Some(t) = self.assigned.take() {
            salvaged.push(t);
        }
        with_worker(|w| {
            if let Some(w) = w {
                salvaged.append(&mut w.pending_local.borrow_mut());
                *w.active.borrow_mut() = None;
                w.current_task.set(std::ptr::null());
                w.suspend_count.set(0);
                w.inline_depth.set(0);
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
        for d in self.owned.iter_mut() {
            if d.freed {
                continue;
            }
            // No poll is running, so no slot is in a deque.
            while let Some(job) = d.handle.pop_bottom() {
                salvaged.push(job.task_of_owner());
            }
        }
        salvaged
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
            // tags the dead incarnation already used. The timer shard
            // stays too: its stale entries carry the old epoch and are
            // re-routed when they fire.
            if borrow.as_ref().is_some_and(|tls| tls.index == self.index) {
                return;
            }
            *borrow = Some(WorkerTls {
                rt: self.rt.clone(),
                index: self.index,
                active: RefCell::new(None),
                current_task: Cell::new(std::ptr::null()),
                suspend_count: Cell::new(0),
                pending_local: RefCell::new(Vec::new()),
                reclaim_scratch: RefCell::new(Vec::new()),
                suspend_seq: Cell::new(0),
                inline_depth: Cell::new(0),
                timers: RefCell::new(TimerHeap::new()),
            });
        });
    }

    fn clear_tls(&self) {
        // Taken out first, dropped after the borrow: dropping buffered
        // tasks can drop futures whose destructors wake or spawn, which
        // looks the TLS up again.
        let tls = TLS.with(|t| t.borrow_mut().take());
        drop(tls);
    }
}
