//! Attachment points for external event-source drivers (I/O reactors).
//!
//! The scheduler itself knows nothing about sockets or `epoll`; what it
//! exports is the *resume machinery*: an [`external_op`](crate::external_op)
//! suspension pairs a task with its deque, and firing the
//! [`Completer`](crate::Completer) from any thread routes a resume event
//! through the owner's inbox. A **driver** (e.g. `lhws_net`'s reactor) is
//! a subsystem that turns kernel readiness into those completions. This
//! module gives drivers the two things they cannot reach from outside the
//! crate:
//!
//! * [`DriverHooks`] — a cheap handle into the runtime's observability
//!   layers: the `io_*` metrics counters (bumped on the calling worker's
//!   cache-padded block when possible), the `IoRegister`/`IoReady`/
//!   `IoDeregister` trace events (routed to the worker's own SPSC ring
//!   when the calling thread is a worker of this runtime, to the shared
//!   side ring otherwise), and the connection fault sites. On a worker
//!   of its runtime a hook reaches the runtime through the worker's own
//!   thread-local reference; only other threads upgrade a `Weak`.
//! * [`Driver`] — the harvest and shutdown halves. A runtime has **one**
//!   driver ([`Runtime::attach_driver`](crate::Runtime::attach_driver)).
//!   Its harvest half is run by the workers themselves: an idle worker
//!   that takes the *poller role* blocks in [`Driver::poll`] instead of
//!   the futex, and fires the completions it harvests on its own thread —
//!   Figure 3's `callback(v, q)` with no helper thread in between. A
//!   producer waking the poller kicks it with [`Driver::unpark`]. The
//!   shutdown half runs from
//!   [`Runtime::shutdown`](crate::Runtime::shutdown) **before** the
//!   workers are stopped, so the cancellations it settles (dropped
//!   completers → `Err(Canceled)` resumes) are still drained and counted
//!   rather than leaked. The waits it cancels are reported as
//!   [`ShutdownReport::canceled_io_waits`](crate::ShutdownReport::canceled_io_waits).

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crate::config::LatencyMode;
use crate::fault::{FaultInjector, FaultSite};
use crate::metrics::Counter;
use crate::runtime::RtInner;
use crate::trace::{EventKind, Tracer, NONE_ID};
use crate::worker;

/// An external event source attached to a runtime.
///
/// Two obligations. **Harvest** ([`poll`](Self::poll) /
/// [`unpark`](Self::unpark), both no-ops by default): the workers call
/// `poll` between task polls — at most one at a time, the holder of the
/// runtime's poller role — and any thread may call `unpark` to cut a
/// blocked `poll` short. **Shutdown**: when the runtime shuts down it
/// calls [`Driver::shutdown`] while the workers are still running, and
/// expects the driver to stop harvesting, drain its registration table
/// (settling every in-flight wait as canceled) and report what it
/// cancelled.
pub trait Driver: Any + Send + Sync + 'static {
    /// Short human-readable name, for diagnostics.
    fn name(&self) -> &'static str;

    /// Blocks the calling worker for up to `timeout` waiting for events,
    /// and fires the completions of whatever arrived on this thread.
    /// `Duration::ZERO` harvests what is already pending without
    /// blocking. Returns `false` when the driver has nothing to wait on
    /// (no harvest half, or already shut down): the worker then parks on
    /// its futex for `timeout` instead.
    fn poll(&self, _timeout: Duration) -> bool {
        false
    }

    /// Cuts a concurrent [`poll`](Self::poll) short. Callable from any
    /// thread, with or without a `poll` in flight, and after
    /// [`shutdown`](Self::shutdown); a kick with no `poll` in flight may
    /// end the next one early.
    fn unpark(&self) {}

    /// Stops the driver: ends harvesting, drains every registered wait
    /// (each must settle — typically `Err(Canceled)` via a dropped
    /// completer) and returns the tally. Must be idempotent; the runtime
    /// calls it once, but a standalone driver handle may race it.
    fn shutdown(&self) -> DriverReport;
}

/// What a [`Driver`] cancelled when it was shut down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverReport {
    /// In-flight waits settled as canceled by the shutdown drain.
    pub canceled_waits: u64,
    /// Registration-table entries (e.g. file descriptors) drained.
    pub drained_registrations: u64,
}

/// One I/O wait lifecycle event, as reported by a driver through
/// [`DriverHooks::trace_io`]. A wait is `Register`ed exactly once and
/// resolved at most once — by `Ready` (kernel readiness consumed) or by
/// `Deregister` (cancel, timeout, shutdown drain) — the pairing the
/// trace auditor checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoTraceEvent {
    /// A readiness wait was filed with the driver.
    Register {
        /// The wait's unique token.
        token: u64,
    },
    /// The wait resolved via kernel readiness.
    Ready {
        /// The wait's unique token.
        token: u64,
    },
    /// The wait was withdrawn without readiness (cancel, timeout, or
    /// the shutdown drain).
    Deregister {
        /// The wait's unique token.
        token: u64,
    },
}

/// Counters for an I/O driver's one kernel readiness queue, registered
/// through [`DriverHooks::register_io_shards`] and exported as the
/// `lhws_io_shard_events_total{shard="0"}` /
/// `lhws_io_shard_wakeups_total{shard="0"}` Prometheus families (and the
/// matching `/stats` arrays).
///
/// Aligned to its own pair of cache lines, like a worker's counter block.
/// The runtime keeps a strong reference for the exporter; the driver keeps
/// its own and bumps through it even after the runtime is gone.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct IoShardStats {
    events: AtomicU64,
    wakeups: AtomicU64,
}

impl IoShardStats {
    /// Counts `n` kernel readiness entries delivered by one batched wait
    /// (the wake-up kick is not an event).
    pub fn count_events(&self, n: u64) {
        self.events.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one productive return from the batched wait — readiness or
    /// an explicit kick, *not* a timeout and *not* an `EINTR`-interrupted
    /// wait (see `WaitOutcome` in `lhws-net`).
    pub fn count_wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot of the counters.
    pub fn snapshot(&self) -> IoShardSnapshot {
        IoShardSnapshot {
            events: self.events.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
        }
    }
}

/// The readiness queue's counters from [`IoShardStats::snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoShardSnapshot {
    /// Kernel readiness entries delivered by batched waits.
    pub events: u64,
    /// Productive wait returns (readiness or kick; never timeout/EINTR).
    pub wakeups: u64,
}

/// A driver's handle into the runtime's metrics, trace, and fault layers.
///
/// Obtained from [`Runtime::driver_hooks`](crate::Runtime::driver_hooks).
/// The runtime's immutable parts a driver consults on every request — the
/// fault plan, the tracer, the latency mode — are copied in at
/// construction. The counters are reached through the worker's
/// thread-local runtime reference on a worker of this runtime and through a
/// `Weak` upgrade elsewhere; counter bumps are no-ops once the runtime is
/// gone, so a driver outliving its runtime is safe.
#[derive(Clone)]
pub struct DriverHooks {
    rt: Weak<RtInner>,
    rt_id: u32,
    tracer: Option<Arc<Tracer>>,
    faults: Option<Arc<FaultInjector>>,
    mode: LatencyMode,
}

impl std::fmt::Debug for DriverHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverHooks")
            .field("runtime_alive", &(self.rt.strong_count() > 0))
            .field("mode", &self.mode)
            .finish()
    }
}

impl DriverHooks {
    pub(crate) fn new(rt: &Arc<RtInner>) -> DriverHooks {
        DriverHooks {
            rt: Arc::downgrade(rt),
            rt_id: rt.id,
            tracer: rt.tracer.clone(),
            faults: rt.faults.clone(),
            mode: rt.config.mode,
        }
    }

    /// Bumps one `io_*` counter: on the calling worker's own block when it
    /// is a worker of this runtime, on the shared block otherwise.
    fn bump(&self, c: Counter) {
        let on_worker = worker::on_own_worker(self.rt_id, |rt, w| rt.counters.worker(w).bump(c));
        if on_worker.is_none() {
            if let Some(rt) = self.rt.upgrade() {
                rt.counters.bump(c);
            }
        }
    }

    /// Counts one I/O readiness registration (a wait that reached the
    /// kernel). Call where the wait is filed — usually on a worker
    /// thread mid-poll, so the bump lands on its padded counter block.
    pub fn count_io_registration(&self) {
        self.bump(Counter::IoRegistrations);
    }

    /// Counts one kernel readiness event turned into a completion.
    pub fn count_io_readiness(&self) {
        self.bump(Counter::IoReadinessEvents);
    }

    /// Counts one I/O wait resolved by deadline expiry instead of
    /// readiness.
    pub fn count_io_timeout(&self) {
        self.bump(Counter::IoTimeouts);
    }

    /// Traces one I/O wait lifecycle event. The single entry point for
    /// all driver-side trace emission — new event kinds extend
    /// [`IoTraceEvent`], not this type's method list.
    pub fn trace_io(&self, event: IoTraceEvent) {
        let Some(t) = &self.tracer else { return };
        let kind = match event {
            IoTraceEvent::Register { token } => EventKind::IoRegister { token },
            IoTraceEvent::Ready { token } => EventKind::IoReady { token },
            IoTraceEvent::Deregister { token } => EventKind::IoDeregister { token },
        };
        // The worker's own ring requires being its producer thread;
        // everything else goes to the side ring.
        match worker::on_own_worker(self.rt_id, |_, w| w) {
            Some(w) => t.record(w, kind),
            None => t.record_shared(NONE_ID, kind),
        }
    }

    /// Rolls fault `site`: `true` means the driver should inject it — a
    /// swallowed readiness report, a simulated peer reset, a short write
    /// or a spurious `WouldBlock` on accept (see [`FaultSite`]). Always
    /// `false` without a fault plan.
    pub fn fault(&self, site: FaultSite) -> bool {
        self.faults.as_ref().is_some_and(|f| f.fires(site))
    }

    /// The runtime's latency mode. Drivers use this to skip their kernel
    /// queue entirely in [`LatencyMode::Block`] — the paper's blocking
    /// baseline.
    pub fn mode(&self) -> LatencyMode {
        self.mode
    }

    /// The runtime's I/O counter block for a driver's readiness queue,
    /// registered with its observability plane so the counters appear in
    /// [`Observer::io_shards`](crate::Observer::io_shards), the Prometheus
    /// export, and `/stats`. One block per runtime: the first call
    /// allocates it and later calls return the same block. The driver
    /// bumps through the returned [`Arc`]; if the runtime is already gone
    /// the block still works, it is just never exported.
    pub fn register_io_shards(&self) -> Arc<IoShardStats> {
        match self.rt.upgrade() {
            Some(rt) => Arc::clone(rt.io_shard_stats.get_or_init(Default::default)),
            None => Arc::default(),
        }
    }
}
