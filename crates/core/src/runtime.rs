//! The runtime: worker threads (each with its own timer shard), the global
//! deque registry, the injector and the resume inboxes, assembled into a
//! public [`Runtime`] handle.

use std::collections::VecDeque;
use std::future::Future;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle as ThreadHandle;
use std::time::{Duration, Instant};

use lhws_deque::{Registry, MAX_DEQUES};

use crate::config::{Config, ConfigError, RuntimeBuilder};
use crate::driver::{Driver, DriverHooks, DriverReport, IoShardSnapshot, IoShardStats};
use crate::fault::{FaultInjector, PanicInjected};
use crate::join::{CatchUnwind, JoinHandle, PanicPayload};
use crate::metrics::{CachePadded, Counters, MetricsSnapshot};
use crate::obs::Observer;
use crate::sleep::Sleepers;
use crate::sync::Mutex;
use crate::task::{self, TaskRef};
use crate::timer::ResumeEvent;
use crate::trace::{EventKind, Trace, Tracer, NONE_ID};
use crate::worker::{self, Worker};

/// A worker's resume inbox: external completions queue here until the
/// worker drains them — the only way into another worker's state (timer
/// expirations never pass through it: the owner fires its own shard). A
/// drain swaps the accumulated vector out, so the mutex is held for O(1).
/// Cache-padded: inboxes sit in an array and are touched by different
/// threads.
#[derive(Default)]
struct Inbox {
    queue: Mutex<Vec<ResumeEvent>>,
}

/// Every live runtime of the process, by [`RtInner::id`]. Tasks name their
/// runtime by id; this is where a thread that is not one of its workers
/// turns the id into a (counted) reference — see [`lookup`].
static RUNTIMES: std::sync::Mutex<Vec<(u64, Weak<RtInner>)>> = std::sync::Mutex::new(Vec::new());

/// Source of [`RtInner::id`]; starts at 1 so that 0 names no runtime.
static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(1);

fn runtimes() -> std::sync::MutexGuard<'static, Vec<(u64, Weak<RtInner>)>> {
    // Every update is a single push or retain, so the table is valid even
    // if a holder panicked.
    RUNTIMES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The runtime with this id, if it is still alive. The off-worker half of
/// wake and resume delivery: worker threads reach their runtime through
/// their TLS instead and never come here for it.
pub(crate) fn lookup(id: u64) -> Option<Arc<RtInner>> {
    runtimes()
        .iter()
        .find(|(rid, _)| *rid == id)
        .and_then(|(_, rt)| rt.upgrade())
}

/// Shared runtime internals.
pub(crate) struct RtInner {
    /// Process-unique name of this runtime; what tasks carry instead of a
    /// reference to it.
    pub id: u64,
    /// Immutable configuration.
    pub config: Config,
    /// The global deque registry (`gDeques` + `gTotalDeques`).
    pub registry: Registry<TaskRef>,
    /// External submissions and off-runtime wake-ups.
    injector: Mutex<VecDeque<TaskRef>>,
    /// Per-worker resume inboxes.
    inboxes: Box<[CachePadded<Inbox>]>,
    /// Which workers are parked; wakes at most one per event.
    pub sleepers: Sleepers,
    /// Shutdown flag checked by every worker iteration.
    shutdown: AtomicBool,
    /// Timer registrations (latency resumes and deadline callbacks)
    /// canceled by their owning worker's exit rather than fired.
    pub canceled_ops: AtomicU64,
    /// Metrics counters (shared block + per-worker padded blocks).
    pub counters: Counters,
    /// Event tracer; `None` (the default) is the whole cost of disabled
    /// tracing. See [`crate::trace`].
    pub tracer: Option<Arc<Tracer>>,
    /// Fault injector; `None` (the default) is the whole cost of disabled
    /// fault injection — the same pattern as `tracer`. See [`crate::fault`].
    pub faults: Option<Arc<FaultInjector>>,
    /// Index of the first worker whose scheduler loop panicked, if any.
    /// Once set the runtime is poisoned: shutdown has been initiated and
    /// blocked callers resolve with an error instead of hanging.
    poisoned: OnceLock<usize>,
    /// Per-worker incarnation counters, bumped by a respawning worker
    /// (same thread, so registration reads on that worker never race the
    /// bump). Suspension registrations are stamped with the epoch current
    /// at registration; an epoch mismatch at drain time means the
    /// registration's owner-local deque numbering died with the old
    /// incarnation and the resume must be re-routed instead of indexed.
    pub epochs: Box<[AtomicU64]>,
    /// The attached event-source driver (the I/O reactor), if any: idle
    /// workers harvest it ([`RtInner::take_poller`]) and it is shut down
    /// *before* the workers so its cancellations still resume and get
    /// counted. One per runtime; the first attached wins.
    driver: OnceLock<Arc<dyn Driver>>,
    /// Who holds the poller role: `worker + 1`, or `0` for nobody. The
    /// holder is the only thread inside [`Driver::poll`]; a producer that
    /// wakes it must kick the driver, since a futex unpark cannot reach a
    /// thread blocked in the kernel's readiness wait.
    poller: AtomicUsize,
    /// The driver's I/O counter block ([`DriverHooks::register_io_shards`]);
    /// read by the observer / Prometheus exporter.
    pub io_shard_stats: OnceLock<Arc<IoShardStats>>,
    /// Tasks a poisoned runtime still held when its workers exited, and
    /// the roots of the `block_on` calls it aborted ([`RtInner::bury`]).
    graveyard: Mutex<Vec<TaskRef>>,
}

/// The poller role, held by one idle or harvesting worker at a time;
/// released on drop (also when a panic unwinds through the holder).
pub(crate) struct Poller<'a> {
    poller: &'a AtomicUsize,
    driver: &'a dyn Driver,
}

impl Poller<'_> {
    /// [`Driver::poll`]: `false` when the driver has nothing to wait on.
    pub fn poll(&self, timeout: Duration) -> bool {
        self.driver.poll(timeout)
    }
}

impl Drop for Poller<'_> {
    fn drop(&mut self) {
        self.poller.store(0, Ordering::SeqCst);
    }
}

impl Drop for RtInner {
    fn drop(&mut self) {
        runtimes().retain(|(id, _)| *id != self.id);
        if self.poisoned.get().is_some() {
            self.drop_held_futures();
        }
    }
}

impl RtInner {
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Marks the runtime poisoned after worker `worker`'s scheduler loop
    /// panicked: records the worker, initiates shutdown so the remaining
    /// workers exit (each canceling its own timer shard on the way out),
    /// and unparks everyone. Suspended tasks will never resume — callers
    /// blocked in [`Runtime::block_on`] observe the poison flag via their
    /// timed wait instead of hanging on a lost completion.
    pub fn poison(&self, worker: usize) {
        let _ = self.poisoned.set(worker);
        self.shutdown.store(true, Ordering::Release);
        self.unpark_all();
    }

    /// Keeps `tasks` of a poisoned runtime until the runtime is dropped,
    /// when no worker is left to poll them ([`RtInner::drop_held_futures`]).
    pub fn bury(&self, tasks: impl IntoIterator<Item = TaskRef>) {
        self.graveyard.lock().extend(tasks);
    }

    /// The end of a poisoned runtime: drops, in place, the future of every
    /// task it still holds — the graveyard (the workers' deques, buffers
    /// and timer shards, the aborted `block_on` roots), the injector and
    /// the inboxes — before giving back their counts. A parent's future
    /// holds its children's handles and a child's joiner slot holds its
    /// parent's waker; without this, such a cycle outlives the runtime.
    /// Runs in `Drop`, after every worker thread has let go of the
    /// runtime, so no poller can exist.
    fn drop_held_futures(&mut self) {
        let mut held = std::mem::take(self.graveyard.get_mut());
        held.extend(self.injector.get_mut().drain(..));
        for inbox in self.inboxes.iter() {
            held.extend(inbox.queue.lock().drain(..).map(|ev| ev.task));
        }
        for task in &held {
            // SAFETY: every worker has exited (each held a reference to
            // this runtime), and tasks run on no other thread.
            let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                task.drop_future()
            }));
            // A future whose destructor panics is left to leak.
            drop(dropped);
        }
    }

    /// The worker whose panic poisoned the runtime, if any.
    pub fn poisoned_worker(&self) -> Option<usize> {
        self.poisoned.get().copied()
    }

    /// The attached driver's per-queue I/O counters (empty without one).
    pub fn io_shards_snapshot(&self) -> Vec<IoShardSnapshot> {
        self.io_shard_stats
            .get()
            .map(|s| s.snapshot())
            .unwrap_or_default()
    }

    /// Takes the poller role for worker `index`: the attached driver to
    /// harvest, or `None` when there is no driver or another worker holds
    /// the role.
    pub fn take_poller(&self, index: usize) -> Option<Poller<'_>> {
        let driver = self.driver.get()?;
        self.poller
            .compare_exchange(0, index + 1, Ordering::SeqCst, Ordering::Relaxed)
            .ok()?;
        Some(Poller {
            poller: &self.poller,
            driver: &**driver,
        })
    }

    /// The tail of waking `worker`: when it holds the poller role it is
    /// (or is about to be) blocked in the driver's wait, where the futex
    /// unpark cannot reach it, so the driver is kicked too — unless the
    /// caller *is* that worker, awake and firing its own harvest.
    fn kick_poller(&self, worker: usize) {
        if self.poller.load(Ordering::SeqCst) == worker + 1
            && worker::on_own_worker(self.id, |_, w| w) != Some(worker)
        {
            if let Some(d) = self.driver.get() {
                d.unpark();
            }
        }
    }

    /// Wakes every parked worker, the poller included (poison, shutdown).
    fn unpark_all(&self) {
        self.sleepers.unpark_all();
        if let Some(worker) = self.poller.load(Ordering::SeqCst).checked_sub(1) {
            self.kick_poller(worker);
        }
    }

    /// Worker `worker`'s current incarnation. Read at suspension
    /// registration time to stamp [`ResumeEvent::epoch`].
    #[inline]
    pub fn epoch_of(&self, worker: usize) -> u64 {
        self.epochs[worker].load(Ordering::Relaxed)
    }

    /// Pushes an external task/wake-up and wakes **at most one** parked
    /// worker — an awake worker will find the task by polling the
    /// injector, and waking more than one per task is a thundering herd.
    pub fn inject(&self, task: TaskRef) {
        self.injector.lock().push_back(task);
        if let Some(t) = &self.tracer {
            t.record_shared(NONE_ID, EventKind::Inject);
        }
        self.unpark(None);
    }

    /// The tail of every delivery: wakes `target` if it is parked — or,
    /// with `None`, at most one sleeper, whichever it is — counting and
    /// tracing the wake.
    fn unpark(&self, target: Option<usize>) {
        // Fault: swallow the unpark. Safe because parks are timed
        // (`Config::park_micros`), so a sleeping worker re-polls its inbox
        // and the injector within one park interval.
        if let Some(f) = &self.faults {
            if f.drop_unpark() {
                return;
            }
        }
        let woken = match target {
            Some(worker) => self.sleepers.unpark_worker(worker).then_some(worker),
            None => self.sleepers.unpark_one(),
        };
        if let Some(woken) = woken {
            self.kick_poller(woken);
            self.counters.bump(&self.counters.unparks);
            if let Some(t) = &self.tracer {
                t.record_shared(
                    NONE_ID,
                    EventKind::Unpark {
                        worker: woken as u32,
                    },
                );
            }
        }
    }

    pub fn pop_injected(&self) -> Option<TaskRef> {
        self.injector.lock().pop_front()
    }

    /// Counter snapshot with the registry-derived gauges filled in.
    /// `Counters` cannot see the registry, so the live-set size, its high
    /// water, and the compaction count are stitched in here.
    pub(crate) fn registry_metrics(&self) -> MetricsSnapshot {
        let mut m = self.counters.snapshot();
        m.registry_compactions = self.registry.compactions();
        m.live_deques = self.registry.live_len() as u64;
        m.live_deques_high_water = self.registry.live_high_water() as u64;
        m
    }

    /// True if the injector holds work (workers re-check this between
    /// `Sleepers::prepare_park` and parking).
    pub fn injector_nonempty(&self) -> bool {
        !self.injector.lock().is_empty()
    }

    /// Moves the whole accumulated batch of worker `worker`'s inbox onto
    /// the end of `into` — by vector swap when `into` is empty.
    pub fn drain_inbox(&self, worker: usize, into: &mut Vec<ResumeEvent>) {
        let mut q = self.inboxes[worker].queue.lock();
        if q.is_empty() {
            return;
        }
        if into.is_empty() {
            std::mem::swap(&mut *q, into);
        } else {
            into.append(&mut q);
        }
    }

    /// True if worker `worker`'s inbox holds events.
    pub fn inbox_nonempty(&self, worker: usize) -> bool {
        !self.inboxes[worker].queue.lock().is_empty()
    }

    /// Routes a single resume event to a worker's inbox (the paper's
    /// `callback(v, q)`). Used by external completions, which arrive one
    /// at a time; timer expirations never come here — their owner fires
    /// them straight into its drain.
    pub fn deliver_resume(&self, worker: usize, mut event: ResumeEvent) {
        if let Some(t) = &self.tracer {
            // Delivery time is the suspension's *enable* time.
            event.enabled_at = t.now();
            t.record_shared(
                worker as u32,
                EventKind::Resume {
                    batch_len: 1,
                    tick: 0,
                },
            );
        }
        self.inboxes[worker].queue.lock().push(event);
        self.unpark(Some(worker));
    }
}

/// A latency-hiding work-stealing runtime.
///
/// Dropping the runtime shuts it down: the workers are joined. Tasks
/// still pending at shutdown are dropped.
pub struct Runtime {
    inner: Arc<RtInner>,
    workers: Vec<ThreadHandle<()>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.inner.config.workers)
            .field("mode", &self.inner.config.mode)
            .finish_non_exhaustive()
    }
}

/// Errors from runtime construction and supervision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Failed to spawn a worker thread.
    ThreadSpawn(String),
    /// The configuration was rejected (see [`ConfigError`]).
    InvalidConfig(ConfigError),
    /// A worker's scheduler loop panicked; the runtime is poisoned and the
    /// blocked call was aborted instead of hanging on a resume that will
    /// never arrive.
    WorkerPanicked {
        /// Index of the worker whose loop panicked.
        worker: usize,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::ThreadSpawn(e) => write!(f, "failed to spawn thread: {e}"),
            RuntimeError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            RuntimeError::WorkerPanicked { worker } => {
                write!(
                    f,
                    "runtime poisoned: worker {worker}'s scheduler loop panicked"
                )
            }
        }
    }
}

impl From<ConfigError> for RuntimeError {
    fn from(e: ConfigError) -> Self {
        RuntimeError::InvalidConfig(e)
    }
}

impl std::error::Error for RuntimeError {}

impl Runtime {
    /// Returns the validated builder — the recommended way to construct a
    /// runtime. See [`RuntimeBuilder`].
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// Starts a runtime with the given configuration. The configuration
    /// is validated first ([`Config::validate`]); prefer
    /// [`Runtime::builder`] for typed rejection of individual knobs.
    pub fn new(config: Config) -> Result<Runtime, RuntimeError> {
        config.validate()?;
        let p = config.workers;
        let tracer =
            (config.trace_capacity > 0).then(|| Arc::new(Tracer::new(p, config.trace_capacity)));
        let faults = config
            .fault_plan
            .map(|plan| Arc::new(FaultInjector::new(plan)));
        let inner = Arc::new(RtInner {
            id: NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed),
            config,
            // The whole id space: Lemma 7 bounds the deque count by
            // `P · (U + 1)`, with `U` set by the program, and the segments
            // cost only what is used. One live-set shard per worker keeps
            // each worker's register/release traffic on its own shard.
            registry: Registry::with_capacity_and_shards(MAX_DEQUES, p),
            injector: Mutex::new(VecDeque::new()),
            inboxes: (0..p).map(|_| CachePadded::default()).collect(),
            sleepers: Sleepers::new(p),
            shutdown: AtomicBool::new(false),
            canceled_ops: AtomicU64::new(0),
            counters: Counters::with_workers(p),
            tracer,
            faults,
            poisoned: OnceLock::new(),
            epochs: (0..p).map(|_| AtomicU64::new(0)).collect(),
            driver: OnceLock::new(),
            poller: AtomicUsize::new(0),
            io_shard_stats: OnceLock::new(),
            graveyard: Mutex::new(Vec::new()),
        });
        runtimes().push((inner.id, Arc::downgrade(&inner)));

        let mut workers = Vec::with_capacity(p);
        for i in 0..p {
            let supervisor = inner.clone();
            let budget = inner.config.worker_respawn_budget;
            let handle = std::thread::Builder::new()
                .name(format!("lhws-worker-{i}"))
                .spawn(move || {
                    // Built here: a worker shares its deques' owner ends
                    // with its thread-local context and cannot be sent.
                    let mut w = Worker::new(supervisor.clone(), i);
                    // Supervision: a panic escaping the scheduler loop
                    // (not a task panic — those are caught per-poll)
                    // orphans this worker's deques and suspensions. With
                    // no respawn budget the runtime is poisoned — exact
                    // fail-stop, blocked callers fail fast instead of
                    // hanging. With one, the **same OS thread** rescues
                    // the dead incarnation's state and re-enters the
                    // loop: the sleeper set's `Thread` handle, the join
                    // handle held by `Runtime`, and the trace ring's
                    // single-producer contract all stay valid because no
                    // new thread is involved.
                    let mut respawns = 0u64;
                    loop {
                        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.run()))
                            .is_ok()
                        {
                            break;
                        }
                        if respawns >= budget {
                            supervisor.poison(i);
                            w.exit();
                            break;
                        }
                        respawns += 1;
                        w.recover_after_panic();
                    }
                })
                .map_err(|e| RuntimeError::ThreadSpawn(e.to_string()))?;
            workers.push(handle);
        }

        Ok(Runtime { inner, workers })
    }

    /// Spawns a task onto the runtime, returning its join handle.
    ///
    /// From a worker thread of this runtime, the task is pushed onto the
    /// current active deque (a fork edge); from outside it enters through
    /// the global injector.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        spawn_on(&self.inner, fut)
    }

    /// Runs a future to completion on the runtime, blocking the calling
    /// thread (which must not be a worker of this runtime).
    ///
    /// Panics if the runtime is poisoned by a worker-loop panic while the
    /// future is in flight; use [`Runtime::try_block_on`] to handle that
    /// as an error instead.
    pub fn block_on<F>(&self, fut: F) -> F::Output
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        match self.try_block_on(fut) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`Runtime::block_on`], but resolves with
    /// [`RuntimeError::WorkerPanicked`] if a worker's scheduler loop
    /// panics while the future is in flight, instead of hanging forever
    /// on a completion that will never be delivered. The error surfaces
    /// within roughly one park interval (`Config::park_micros`) of the
    /// poisoning. Panics *inside the future itself* are still propagated
    /// by resuming the unwind on this thread.
    pub fn try_block_on<F>(&self, fut: F) -> Result<F::Output, RuntimeError>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        assert!(
            worker::on_own_worker(self.inner.id, |_, _| ()).is_none(),
            "Runtime::block_on called from one of this runtime's own worker threads; \
             this would deadlock — use spawn instead"
        );
        struct BlockCell<T> {
            slot: std::sync::Mutex<Option<Result<T, PanicPayload>>>,
            cond: Condvar,
        }
        let cell = Arc::new(BlockCell {
            slot: std::sync::Mutex::new(None),
            cond: Condvar::new(),
        });
        let c2 = cell.clone();
        let body = async move {
            let result = CatchUnwind::new(fut).await;
            let mut slot = c2.slot.lock().unwrap_or_else(PoisonError::into_inner);
            *slot = Some(result);
            c2.cond.notify_all();
        };
        self.inner.counters.bump(&self.inner.counters.tasks_spawned);
        let root = task::new_detached(self.inner.id, body);
        // Kept so that a poisoned runtime can drop the root's future,
        // which holds whatever the caller's future held.
        let kept = root.clone();
        self.inner.inject(root);

        // Timed wait: the completion notify is the fast path; the timeout
        // exists solely so a poisoned runtime is noticed. A completed
        // result always wins over poison — the value is real even if a
        // worker died afterwards.
        let park = Duration::from_micros(self.inner.config.park_micros);
        let mut slot = cell.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.take() {
                return match result {
                    Ok(v) => Ok(v),
                    Err(payload) => std::panic::resume_unwind(payload),
                };
            }
            if let Some(worker) = self.inner.poisoned_worker() {
                self.inner.bury([kept]);
                return Err(RuntimeError::WorkerPanicked { worker });
            }
            slot = cell
                .cond
                .wait_timeout(slot, park)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// The blessed observation handle for this runtime: metrics
    /// snapshots, incremental trace readers, continuous invariant
    /// auditing, and the Prometheus text exporter all hang off the
    /// returned [`Observer`]. The handle is weak — clone it into tasks
    /// running *on* this runtime (the self-hosted `/metrics` exporter
    /// pattern) without keeping a dead runtime alive.
    pub fn observe(&self) -> Observer {
        Observer::new(Arc::downgrade(&self.inner))
    }

    /// A point-in-time snapshot of the runtime's metrics counters, with
    /// the registry-derived gauges (live set size, high water,
    /// compactions) filled in. Thin delegate for
    /// [`observe`](Self::observe)`().metrics()`.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.observe()
            .metrics()
            .expect("runtime is alive while borrowed")
    }

    /// A [`DriverHooks`] handle for an external event-source driver (an
    /// I/O reactor): access to the `io_*` metrics counters, the
    /// `IoRegister`/`IoReady`/`IoDeregister` trace events and the
    /// `DroppedReadiness` fault site. See [`crate::driver`].
    pub fn driver_hooks(&self) -> DriverHooks {
        DriverHooks::new(&self.inner)
    }

    /// Attaches `driver` to this runtime: idle workers harvest it through
    /// [`Driver::poll`], and [`Runtime::shutdown`] (and `Drop`) calls
    /// [`Driver::shutdown`] *before* stopping the workers, folding its
    /// [`DriverReport`] into [`ShutdownReport::canceled_io_waits`]. A
    /// runtime has one driver: the first attached wins, and every call
    /// returns the attached one (`Arc::ptr_eq` tells a caller whether it
    /// was its own).
    pub fn attach_driver(&self, driver: Arc<dyn Driver>) -> Arc<dyn Driver> {
        Arc::clone(self.inner.driver.get_or_init(|| driver))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.config.workers
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &Config {
        &self.inner.config
    }

    /// Shuts the runtime down — joins the workers — and
    /// *then* snapshots metrics and trace, so the report is quiescent:
    /// no event or counter bump races the snapshot, every delivered
    /// suspension has its full lifecycle recorded.
    pub fn shutdown(mut self) -> ShutdownReport {
        let driver_report = self.join_now();
        let metrics = self.inner.registry_metrics();
        ShutdownReport {
            leaked_suspensions: metrics.suspensions.saturating_sub(metrics.resumes),
            canceled_ops: self.inner.canceled_ops.load(Ordering::Relaxed),
            canceled_io_waits: driver_report.canceled_waits,
            poisoned_worker: self.inner.poisoned_worker(),
            faults_injected: self.inner.faults.as_ref().map_or(0, |f| f.injected_total()),
            metrics,
            trace: self.inner.tracer.as_ref().map(|t| t.drain()),
        }
    }

    /// Stops and joins all threads, returning the driver's report. Runs
    /// once — `shutdown` runs it before snapshotting, and `Drop` finds the
    /// worker list already drained.
    ///
    /// Ordering matters: the attached driver is shut down **first**, while
    /// the workers are still running. Its shutdown drain drops the
    /// completers of every in-flight wait, each of which settles
    /// `Err(Canceled)` and delivers a resume event — events only live
    /// workers can drain into the `resumes` counter. Only then is the
    /// worker shutdown flag raised. Between the two, a bounded quiesce
    /// wait gives the workers a chance to drain those cancellations so
    /// they are counted rather than reported as leaked.
    fn join_now(&mut self) -> DriverReport {
        let mut report = DriverReport::default();
        if self.workers.is_empty() {
            return report;
        }
        if let Some(driver) = self.inner.driver.get() {
            report = driver.shutdown();
            if report.canceled_waits > 0 && self.inner.poisoned_worker().is_none() {
                // Balanced *and* idle: a drained cancellation still has to
                // be polled, and a worker sets its sleeper bit only with
                // nothing left to run. Bounded: balance may be unreachable
                // if non-I/O suspensions (timers, channels) are also in
                // flight.
                let deadline = Instant::now() + Duration::from_millis(250);
                loop {
                    let m = self.inner.counters.snapshot();
                    let idle = self.inner.sleepers.sleeping() == self.inner.config.workers;
                    if (m.resumes >= m.suspensions && idle) || Instant::now() >= deadline {
                        break;
                    }
                    self.inner.unpark_all();
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.unpark_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        report
    }
}

/// What [`Runtime::shutdown`] returns: the final, quiescent state of a
/// finished runtime.
#[derive(Debug)]
#[non_exhaustive]
pub struct ShutdownReport {
    /// Final metrics counters.
    pub metrics: MetricsSnapshot,
    /// Complete event trace, when tracing was enabled.
    pub trace: Option<Trace>,
    /// Suspensions registered but never resumed — tasks that were still
    /// parked (on timers, channels, or external ops) when shutdown cut
    /// them off. Zero for a quiescent runtime.
    pub leaked_suspensions: u64,
    /// Timer registrations (latency resumes and deadline callbacks)
    /// canceled by shutdown — each worker cancels its own on exit —
    /// rather than fired.
    pub canceled_ops: u64,
    /// In-flight I/O waits canceled by the attached driver's shutdown drain
    /// (each settled `Err(Canceled)` before the workers stopped). Zero
    /// for a quiescent runtime — and always zero without a driver.
    pub canceled_io_waits: u64,
    /// The worker whose scheduler-loop panic poisoned the runtime, if any.
    pub poisoned_worker: Option<usize>,
    /// Total faults injected by the fault plan (zero when none was set).
    pub faults_injected: u64,
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.join_now();
    }
}

/// Spawns `fut` as a task on `rt`: a fork on the active deque from one of
/// `rt`'s own workers, through the injector from anywhere else.
pub(crate) fn spawn_on<F>(rt: &Arc<RtInner>, fut: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    let forked = worker::with_worker(|w| match w {
        Some(w) if Arc::ptr_eq(w.rt(), rt) => Ok(w.spawn(fut)),
        _ => Err(fut),
    });
    forked.unwrap_or_else(|fut| {
        let (task, handle) = task::new_joinable(rt.id, PanicInjected::new(fut, rt.faults.clone()));
        rt.counters.bump(&rt.counters.tasks_spawned);
        rt.inject(task);
        handle
    })
}
