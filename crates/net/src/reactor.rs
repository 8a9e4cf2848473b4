//! The sharded reactor: kernel readiness in, scheduler resume events out.
//!
//! N shards ([`EpollShard`]) each own an [`IoDriver`](crate::IoDriver)
//! backend (an epoll instance + wake eventfd), a registration table with
//! at most one waiter per direction per fd, and a dedicated event thread
//! (`lhws-net-shard-N`). A descriptor's home shard is `fd % shards` —
//! stateless routing, no shard-map lock on the hot path. Registering a
//! wait files a [`Completer`] in the home shard's table and arms
//! interest; when the kernel reports readiness the shard removes the
//! waiter, disarms that direction, and fires the completer
//! **off-worker** — exactly the external-completion path the scheduler
//! already treats as a heavy-edge resume. A task awaiting [`ReadyFuture`]
//! therefore suspends against its deque on first poll and is routed back
//! through its owner's inbox on readiness, so every socket wait is a real
//! heavy edge and the live-deque bound `U + 1` counts connections
//! blocked in the kernel.
//!
//! `shards = 1` (the default) is byte-compatible with the historical
//! single-threaded reactor. `shards = 0` on the builder means one shard
//! per worker. The reactor is a [`Driver`]:
//! [`Runtime::shutdown`](lhws_core::Runtime::shutdown) stops it *before*
//! the workers, fanning the shutdown out across shards and summing each
//! shard's drain-cancel tally into
//! [`ShutdownReport::canceled_io_waits`](lhws_core::ShutdownReport::canceled_io_waits).
//!
//! Under [`LatencyMode::Block`] the reactor spawns no shards and arms no
//! epoll: sockets stay in blocking mode and workers park in the kernel —
//! the paper's blocking baseline, byte-for-byte the same application code.

use std::future::Future;
use std::io;
use std::os::fd::RawFd;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

use parking_lot::Mutex;

use lhws_core::{
    external_op, DeadlineExt, DeadlineOp, Driver, DriverHooks, DriverReport, ExternalOp,
    LatencyMode, OpError, Runtime,
};

use crate::driver::Interest;
use crate::epoll::EpollDriver;
use crate::shard::EpollShard;

struct Inner {
    hooks: DriverHooks,
    /// The shard map; empty in blocking mode. Routing is `fd % len`.
    shards: Vec<Arc<EpollShard>>,
    /// Set exactly once by the first successful [`Driver::shutdown`];
    /// later callers return the stored report (idempotence).
    report: Mutex<Option<DriverReport>>,
    /// Reactor-wide token mint: tokens stay unique across shards.
    next_token: AtomicU64,
    /// [`LatencyMode::Block`]: no shards, waits complete immediately so
    /// callers fall through to blocking syscalls.
    blocking: bool,
    /// Whether the shards' backends arm edge-triggered.
    edge: bool,
}

/// Handle to the reactor; cheap to clone, shared by every socket wrapper.
#[derive(Clone)]
pub struct Reactor {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("blocking", &self.inner.blocking)
            .field("shards", &self.inner.shards.len())
            .field("edge_triggered", &self.inner.edge)
            .field("registered_fds", &self.registered_fds())
            .finish()
    }
}

/// Configures and builds a [`Reactor`]; from [`Reactor::builder`].
///
/// ```no_run
/// use lhws_core::Runtime;
/// use lhws_net::Reactor;
///
/// let rt = Runtime::builder().workers(2).build().unwrap();
/// let reactor = Reactor::builder(&rt).shards(4).build().unwrap();
/// assert_eq!(reactor.shard_count(), 4);
/// ```
#[must_use = "builders do nothing until `build()` is called"]
pub struct ReactorBuilder<'rt> {
    rt: &'rt Runtime,
    shards: usize,
    edge_triggered: bool,
}

/// Hard cap on [`ReactorBuilder::shards`]: each shard is an epoll
/// instance, an eventfd, and an OS thread, so a runaway value is a
/// resource bug, not a tuning choice.
pub const MAX_REACTOR_SHARDS: usize = 1024;

impl<'rt> ReactorBuilder<'rt> {
    /// Sets the shard count: independent epoll instances + event
    /// threads, with fds routed by `fd % shards`. `0` means one shard
    /// per worker; omitted, the reactor runs `1` shard (the historical
    /// single-threaded reactor). More than [`MAX_REACTOR_SHARDS`] is
    /// rejected by [`build`](Self::build) with
    /// [`io::ErrorKind::InvalidInput`].
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Arms interest edge-triggered (`EPOLLET`): the kernel reports each
    /// readiness transition once instead of re-reporting still-true
    /// conditions on every wait, trading re-report robustness for fewer
    /// wakeups under sustained readiness. The waiter protocol disarms on
    /// fire and re-evaluates on every (re-)arm, so both modes deliver
    /// the same completions.
    pub fn edge_triggered(mut self, on: bool) -> Self {
        self.edge_triggered = on;
        self
    }

    /// Builds the reactor, spawns its shard threads (none under
    /// [`LatencyMode::Block`]), and attaches it to the runtime as a
    /// [`Driver`] so [`Runtime::shutdown`](lhws_core::Runtime::shutdown)
    /// stops it deterministically.
    pub fn build(self) -> io::Result<Reactor> {
        let hooks = self.rt.driver_hooks();
        let blocking = hooks.mode() == Some(LatencyMode::Block);
        let shard_count = if blocking {
            0
        } else {
            if self.shards > MAX_REACTOR_SHARDS {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "reactor shards ({}) exceeds MAX_REACTOR_SHARDS ({MAX_REACTOR_SHARDS})",
                        self.shards
                    ),
                ));
            }
            match self.shards {
                0 => hooks.workers().unwrap_or(1),
                n => n,
            }
        };
        let stats = hooks.register_io_shards(shard_count);
        let mut shards = Vec::with_capacity(shard_count);
        for index in 0..shard_count {
            let driver = EpollDriver::new(self.edge_triggered)?;
            let shard = EpollShard::new(index, hooks.clone(), Arc::clone(&stats), Box::new(driver));
            if let Err(e) = shard.spawn() {
                // Unwind the shards already running so no thread leaks.
                shard.shutdown_drain();
                for s in &shards {
                    let s: &Arc<EpollShard> = s;
                    s.shutdown_drain();
                }
                return Err(e);
            }
            shards.push(shard);
        }
        let reactor = Reactor {
            inner: Arc::new(Inner {
                hooks,
                shards,
                report: Mutex::new(None),
                next_token: AtomicU64::new(1),
                blocking,
                edge: self.edge_triggered,
            }),
        };
        self.rt.attach_driver(Arc::new(reactor.clone()));
        Ok(reactor)
    }
}

impl Reactor {
    /// Starts configuring a reactor for `rt`. See [`ReactorBuilder`] for
    /// the knobs; `build()` spawns the shard threads and attaches the
    /// reactor as a [`Driver`].
    pub fn builder(rt: &Runtime) -> ReactorBuilder<'_> {
        ReactorBuilder {
            rt,
            shards: 1,
            edge_triggered: false,
        }
    }

    /// True when this reactor serves a [`LatencyMode::Block`] runtime:
    /// sockets should stay in blocking mode and readiness waits are no-ops.
    pub fn is_blocking(&self) -> bool {
        self.inner.blocking
    }

    /// Number of shards (epoll instances + event threads). `0` in
    /// blocking mode.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard index `fd` routes to: `fd % shards`. Panics in blocking
    /// mode (there are no shards).
    pub fn shard_of(&self, fd: RawFd) -> usize {
        (fd as usize) % self.inner.shards.len()
    }

    /// Whether the shards arm interest edge-triggered.
    pub fn is_edge_triggered(&self) -> bool {
        self.inner.edge
    }

    /// Total fds currently holding at least one waiter, across shards.
    pub fn registered_fds(&self) -> usize {
        self.inner.shards.iter().map(|s| s.registered_fds()).sum()
    }

    fn shard(&self, fd: RawFd) -> &Arc<EpollShard> {
        &self.inner.shards[(fd as usize) % self.inner.shards.len()]
    }

    /// Rolls the `PeerReset` connection fault site (see
    /// [`lhws_core::FaultSite`]).
    pub(crate) fn fault_peer_reset(&self) -> bool {
        self.inner.hooks.peer_reset()
    }

    /// Rolls the `PartialWrite` connection fault site.
    pub(crate) fn fault_partial_write(&self) -> bool {
        self.inner.hooks.partial_write()
    }

    /// Rolls the `AcceptBurst` connection fault site.
    pub(crate) fn fault_accept_burst(&self) -> bool {
        self.inner.hooks.accept_burst()
    }

    /// The runtime's Block-mode I/O safety timeout
    /// (`Config::io_safety_timeout`), or `None` once the runtime is gone.
    pub(crate) fn io_safety_timeout(&self) -> Option<std::time::Duration> {
        self.inner.hooks.io_safety_timeout()
    }

    pub(crate) fn count_io_timeout(&self) {
        self.inner.hooks.count_io_timeout();
    }

    /// Returns a future resolving when `fd` is ready for `interest`.
    ///
    /// On a latency-hiding runtime the first `Pending` poll suspends the
    /// task against its deque ([`lhws_core::external_op`] semantics); the
    /// fd's home shard (`fd % shards`) fires the completion on kernel
    /// readiness. Dropping the future before readiness deregisters the
    /// wait. In blocking mode the future completes immediately so callers
    /// retry the (blocking) syscall.
    pub fn ready(&self, fd: RawFd, interest: Interest) -> ReadyFuture {
        let token = self.inner.next_token.fetch_add(1, Ordering::Relaxed);
        let (completer, op) = external_op::<()>();
        let err = if self.inner.blocking {
            completer.complete(());
            None
        } else {
            self.shard(fd)
                .register(fd, interest, token, completer)
                .err()
        };
        ReadyFuture {
            reactor: self.clone(),
            fd,
            interest,
            token,
            op: Some(op),
            err,
            done: false,
        }
    }

    /// Routes a cancel to the fd's home shard (no-op in blocking mode).
    fn cancel(&self, fd: RawFd, interest: Interest, token: u64) {
        if self.inner.blocking {
            return;
        }
        self.shard(fd).cancel(fd, interest, token);
    }
}

impl Driver for Reactor {
    fn name(&self) -> &'static str {
        "lhws-net-reactor"
    }

    /// Fans the shutdown out across shards, in index order, summing each
    /// shard's drain tally. Idempotent: the first caller stores the
    /// summed report and later callers return it.
    fn shutdown(&self) -> DriverReport {
        let mut stored = self.inner.report.lock();
        if let Some(r) = *stored {
            return r;
        }
        let mut report = DriverReport::default();
        for shard in &self.inner.shards {
            let r = shard.shutdown_drain();
            report.canceled_waits += r.canceled_waits;
            report.drained_registrations += r.drained_registrations;
        }
        *stored = Some(report);
        report
    }
}

/// Future returned by [`Reactor::ready`]: resolves `Ok(())` when the fd is
/// ready, `Err` if the wait was rejected or canceled (reactor shutdown).
///
/// Dropping it before completion deregisters the wait. Chain
/// [`DeadlineExt::with_timeout`] to bound the wait by the runtime timer.
#[derive(Debug)]
pub struct ReadyFuture {
    reactor: Reactor,
    fd: RawFd,
    interest: Interest,
    token: u64,
    op: Option<ExternalOp<()>>,
    err: Option<io::Error>,
    done: bool,
}

impl DeadlineExt for ReadyFuture {
    type Deadlined = TimedReadyFuture;

    /// Bounds the wait: resolves `Err(TimedOut)` if readiness has not
    /// arrived by `deadline`, deregistering the wait through the same
    /// idempotent settle protocol deadlines use everywhere else (the
    /// timer and a racing readiness event settle exactly once).
    fn with_deadline(mut self, deadline: Instant) -> TimedReadyFuture {
        let op = self.op.take().expect("with_deadline on finished future");
        self.done = true; // disarm Drop: TimedReadyFuture owns the wait now
        TimedReadyFuture {
            reactor: self.reactor.clone(),
            fd: self.fd,
            interest: self.interest,
            token: self.token,
            op: Some(op.with_deadline(deadline)),
            err: self.err.take(),
            done: false,
        }
    }
}

impl Future for ReadyFuture {
    type Output = io::Result<()>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        assert!(!this.done, "ReadyFuture polled after completion");
        if let Some(e) = this.err.take() {
            this.done = true;
            return Poll::Ready(Err(e));
        }
        let op = this.op.as_mut().expect("op present until done");
        match Pin::new(op).poll(cx) {
            Poll::Ready(Ok(())) => {
                this.done = true;
                Poll::Ready(Ok(()))
            }
            Poll::Ready(Err(_canceled)) => {
                this.done = true;
                Poll::Ready(Err(io::Error::other(
                    "readiness wait canceled: reactor shut down",
                )))
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

impl Drop for ReadyFuture {
    fn drop(&mut self) {
        if !self.done {
            self.reactor.cancel(self.fd, self.interest, self.token);
        }
    }
}

/// A [`ReadyFuture`] bounded by a deadline (see
/// [`DeadlineExt::with_timeout`] on [`ReadyFuture`]). Resolves `Err(TimedOut)` on expiry,
/// counting an `io_timeout` and deregistering the wait.
#[derive(Debug)]
pub struct TimedReadyFuture {
    reactor: Reactor,
    fd: RawFd,
    interest: Interest,
    token: u64,
    op: Option<DeadlineOp<()>>,
    err: Option<io::Error>,
    done: bool,
}

impl Future for TimedReadyFuture {
    type Output = io::Result<()>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        assert!(!this.done, "TimedReadyFuture polled after completion");
        if let Some(e) = this.err.take() {
            this.done = true;
            return Poll::Ready(Err(e));
        }
        let op = this.op.as_mut().expect("op present until done");
        match Pin::new(op).poll(cx) {
            Poll::Ready(Ok(())) => {
                this.done = true;
                Poll::Ready(Ok(()))
            }
            Poll::Ready(Err(e)) => {
                this.done = true;
                // Whether the deadline won (TimedOut) or the runtime went
                // away (Canceled), the waiter may still be filed: unfile it
                // so interest is disarmed and the trace records exactly one
                // resolution for the token.
                this.reactor.cancel(this.fd, this.interest, this.token);
                match e {
                    OpError::TimedOut => {
                        this.reactor.count_io_timeout();
                        Poll::Ready(Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "readiness wait timed out",
                        )))
                    }
                    OpError::Canceled => Poll::Ready(Err(io::Error::other(
                        "readiness wait canceled: reactor shut down",
                    ))),
                }
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

impl Drop for TimedReadyFuture {
    fn drop(&mut self) {
        if !self.done {
            self.reactor.cancel(self.fd, self.interest, self.token);
        }
    }
}
