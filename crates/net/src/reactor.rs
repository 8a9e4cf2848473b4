//! The reactor: kernel readiness in, scheduler resume events out — with
//! no thread of its own.
//!
//! One [`IoDriver`] backend (an epoll instance + wake eventfd) and a
//! registration table holding each socket's [`Readiness`] word and at
//! most one waiter per direction. Registering a wait files a [`Completer`]
//! in the table.
//! The reactor is the runtime's [`Driver`]: an idle worker holding the
//! poller role blocks in [`Driver::poll`] — the backend's wait — instead
//! of its futex, and fires each readiness's completer on its own thread,
//! the external-completion path the scheduler already treats as a
//! heavy-edge resume. A worker whose active deque runs dry also harvests
//! without blocking, at most every few dozen task polls, before it looks
//! for other work. A task awaiting [`ReadyFuture`] therefore suspends
//! against its deque on first poll and resumes through its owner's inbox
//! (Figure 3's `callback(v, q)`, no helper thread in between), so every
//! socket wait is a real heavy edge and the live-deque bound `U + 1`
//! counts connections blocked in the kernel.
//!
//! **Register once, edge-triggered.** A socket wrapper adds its fd to
//! epoll when it is created and removes it when it is dropped, before the
//! close; in between no wait costs an `epoll_ctl`. The kernel reports an
//! fd when its readiness changes, and each report sets bits in the fd's
//! [`Readiness`] word (cached by the wrapper too). The wrapper tries a
//! syscall only while its bit is set, and clears the bit — by the tick
//! rule — after `EAGAIN` or a short read. A wait with the bit clear files
//! its waiter and makes no syscall; a wait with the bit set cannot trust
//! it (a read that filled its buffer leaves it set), so it clears it and
//! re-arms, and the kernel re-evaluates. A canceled wait costs nothing;
//! a later report for it finds no waiter and only sets bits.
//!
//! [`Runtime::shutdown`](lhws_core::Runtime::shutdown) stops the reactor
//! *before* the workers (see the [`driver`](crate::driver) module for the
//! ordering) and reports its drain-cancel tally as
//! [`ShutdownReport::canceled_io_waits`](lhws_core::ShutdownReport::canceled_io_waits).
//!
//! Under [`LatencyMode::Block`] the reactor opens no epoll: sockets stay in
//! blocking mode and workers park in the kernel — the paper's blocking
//! baseline, byte-for-byte the same application code.

use std::any::Any;
use std::collections::hash_map::{Entry, HashMap};
use std::future::Future;
use std::io;
use std::os::fd::RawFd;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use lhws_core::sync::Mutex;
use lhws_core::{
    external_op, Completer, DeadlineExt, DeadlineOp, Driver, DriverHooks, DriverReport, ExternalOp,
    IoShardStats, IoTraceEvent, LatencyMode, OpError, Runtime,
};

use crate::driver::{IoDriver, IoEvent, WaitOutcome};
use crate::epoll::EpollDriver;
use crate::readiness::Readiness;

/// Readiness entries one harvest takes from the kernel; the rest wait for
/// the next harvest.
const BATCH: usize = 64;

/// Which direction of readiness a wait is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Interest {
    /// Readable (or peer hang-up / error — anything that unblocks a read).
    Read,
    /// Writable (or error — anything that unblocks a write).
    Write,
}

impl Interest {
    /// The bit of a [`Readiness`] word a drained syscall clears.
    pub(crate) fn bit(self) -> u64 {
        match self {
            Interest::Read => Readiness::READABLE,
            Interest::Write => Readiness::WRITABLE,
        }
    }

    /// The bits under which this direction's syscall is worth trying: a
    /// read also after a hang-up, which no clear takes back.
    pub(crate) fn mask(self) -> u64 {
        match self {
            Interest::Read => Readiness::READABLE | Readiness::READ_CLOSED,
            Interest::Write => Readiness::WRITABLE,
        }
    }
}

/// One registered wait: the token ties trace events together; dropping
/// the completer settles the wait `Err(Canceled)`.
struct Waiter {
    token: u64,
    completer: Completer<()>,
}

/// One fd's table entry. Its presence means the fd is registered with the
/// backend; the slots are its waiters.
struct FdEntry {
    readiness: Arc<Readiness>,
    read: Option<Waiter>,
    write: Option<Waiter>,
}

impl FdEntry {
    fn slot(&mut self, interest: Interest) -> &mut Option<Waiter> {
        match interest {
            Interest::Read => &mut self.read,
            Interest::Write => &mut self.write,
        }
    }

    fn has_waiter(&self) -> bool {
        self.read.is_some() || self.write.is_some()
    }
}

/// The kernel half of a latency-hiding reactor.
struct Io {
    driver: Box<dyn IoDriver>,
    table: Mutex<HashMap<RawFd, FdEntry>>,
    /// Raised once by shutdown. Every path that touches the backend
    /// checks it (or finds the table drained) under the table lock.
    shutdown: AtomicBool,
    /// Threads inside `driver.wait`; shutdown closes the backend only at 0.
    in_wait: AtomicUsize,
    stats: Arc<IoShardStats>,
}

/// The cookie an fd is registered with: the fd itself.
fn cookie(fd: RawFd) -> u64 {
    fd as u32 as u64
}

impl Io {
    /// Adds a socket's fd to the backend (the one `epoll_ctl` before its
    /// `DEL`) and returns its readiness word. Rejected once shutdown has
    /// begun.
    fn register(&self, fd: RawFd) -> io::Result<Arc<Readiness>> {
        let mut table = self.table.lock();
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(io::Error::other("reactor is shut down"));
        }
        let Entry::Vacant(slot) = table.entry(fd) else {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd is already registered with the reactor",
            ));
        };
        self.driver.register(fd, cookie(fd))?;
        let readiness = Arc::new(Readiness::new());
        slot.insert(FdEntry {
            readiness: readiness.clone(),
            read: None,
            write: None,
        });
        Ok(readiness)
    }

    /// Files `completer` as the fd's `interest` waiter. With the cached bit
    /// clear that is all — the next report fires it. With the bit set the
    /// bit may be stale, so the fd is re-armed and the kernel re-evaluates.
    /// Rejected once shutdown has begun: the completer is dropped, so the
    /// caller's future observes `Err(Canceled)`.
    fn wait(
        &self,
        hooks: &DriverHooks,
        fd: RawFd,
        interest: Interest,
        token: u64,
        completer: Completer<()>,
    ) -> io::Result<()> {
        let mut table = self.table.lock();
        if self.shutdown.load(Ordering::SeqCst) {
            drop(completer);
            return Err(io::Error::other("reactor is shut down"));
        }
        let Some(entry) = table.get_mut(&fd) else {
            return Err(io::Error::other("fd is not registered with the reactor"));
        };
        if entry.slot(interest).is_some() {
            // One waiter per direction per fd: a second reader/writer on
            // the same socket is an application bug, not a race to paper
            // over silently.
            return Err(io::Error::other(
                "a readiness wait is already registered for this fd and direction",
            ));
        }
        // Bits are set only under this lock, so the clear cannot lose a
        // report, and the re-arm's own report is dispatched after the
        // waiter is filed.
        let seen = entry.readiness.snapshot();
        if seen & interest.mask() != 0 {
            self.driver.rearm(fd, cookie(fd))?;
            entry.readiness.clear(interest.bit(), seen);
        }
        *entry.slot(interest) = Some(Waiter { token, completer });
        // Count + trace inside the lock, after the insert: the register
        // event is recorded before any readiness/deregister for the token.
        hooks.count_io_registration();
        hooks.trace_io(IoTraceEvent::Register { token });
        Ok(())
    }

    /// Unfiles the wait `(fd, interest, token)` if it is still filed,
    /// tracing `IoDeregister`. No syscall: a later report for the fd finds
    /// no waiter and only sets bits. A no-op when readiness, a close or
    /// shutdown already claimed the waiter.
    fn cancel(&self, hooks: &DriverHooks, fd: RawFd, interest: Interest, token: u64) {
        let waiter = {
            let mut table = self.table.lock();
            let Some(slot) = table.get_mut(&fd).map(|e| e.slot(interest)) else {
                return;
            };
            if !matches!(slot, Some(w) if w.token == token) {
                return;
            }
            hooks.trace_io(IoTraceEvent::Deregister { token });
            slot.take()
        };
        // Dropping the completer settles the wait Err(Canceled) outside
        // the table lock; if the future was suspended the cancellation
        // still delivers its one resume event, so counters balance.
        drop(waiter);
    }

    /// Removes a closing fd from the backend and the table, canceling any
    /// waiter still filed on it — before the close, so a reused fd number
    /// or a surviving `dup` never inherits the registration.
    fn deregister(&self, hooks: &DriverHooks, fd: RawFd) {
        let entry = {
            let mut table = self.table.lock();
            let Some(entry) = table.remove(&fd) else {
                return; // drained by shutdown
            };
            let _ = self.driver.deregister(fd);
            for w in [&entry.read, &entry.write].into_iter().flatten() {
                hooks.trace_io(IoTraceEvent::Deregister { token: w.token });
            }
            entry
        };
        drop(entry);
    }

    /// One harvest: wait up to `timeout`, then fire every waiter the
    /// reported readiness unblocks, on this thread.
    fn poll(&self, hooks: &DriverHooks, timeout: Duration) -> bool {
        self.in_wait.fetch_add(1, Ordering::SeqCst);
        if self.shutdown.load(Ordering::SeqCst) {
            self.in_wait.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        let mut events = [IoEvent::default(); BATCH];
        let outcome = self.driver.wait(&mut events, timeout);
        self.in_wait.fetch_sub(1, Ordering::SeqCst);
        // EINTR is not a wakeup and a timeout did no work; an Err means
        // the readiness queue itself failed — park on the futex instead.
        let n = match outcome {
            Ok(WaitOutcome::Ready(n)) => n,
            Ok(WaitOutcome::TimedOut | WaitOutcome::Interrupted) => return true,
            Err(_) => return false,
        };
        self.stats.count_wakeup(0);
        self.stats.count_events(0, n as u64);
        for ev in &events[..n] {
            self.dispatch(hooks, *ev);
        }
        true
    }

    /// Records one report in the fd's readiness word and fires the waiters
    /// it unblocks.
    fn dispatch(&self, hooks: &DriverHooks, ev: IoEvent) {
        let fd = ev.cookie as u32 as RawFd;
        let fired = {
            let mut table = self.table.lock();
            let Some(entry) = table.get_mut(&fd) else {
                return; // closed between the wait and here
            };
            let unblocks = (ev.read && entry.read.is_some()) || (ev.write && entry.write.is_some());
            if unblocks && hooks.drop_readiness() {
                // Fault: swallow this report — bits untouched, waiters
                // filed — and re-arm, so the kernel reports the still-true
                // condition again.
                let _ = self.driver.rearm(fd, ev.cookie);
                return;
            }
            let mut bits = 0;
            if ev.read {
                bits |= Readiness::READABLE;
            }
            if ev.write {
                bits |= Readiness::WRITABLE;
            }
            if ev.closed {
                bits |= Readiness::READ_CLOSED;
            }
            entry.readiness.set(bits);
            [
                entry.read.take_if(|_| ev.read),
                entry.write.take_if(|_| ev.write),
            ]
        };
        // Fire outside the table lock: each complete() routes a resume
        // event to the suspended task's owner.
        for waiter in fired.into_iter().flatten() {
            hooks.trace_io(IoTraceEvent::Ready {
                token: waiter.token,
            });
            hooks.count_io_readiness();
            waiter.completer.complete(());
        }
    }

    /// Stops the reactor: raises the flag, kicks any worker out of the
    /// wait and waits for it to leave, then — under the table lock,
    /// closing the backend before releasing it, so a racing register can
    /// never arm a closed (possibly reused) descriptor — drains every
    /// waiter.
    fn shutdown_drain(&self, hooks: &DriverHooks) -> DriverReport {
        self.shutdown.store(true, Ordering::SeqCst);
        self.driver.wake();
        while self.in_wait.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        let mut report = DriverReport::default();
        let canceled: Vec<Waiter> = {
            let mut table = self.table.lock();
            let mut canceled = Vec::new();
            for (_fd, entry) in table.drain() {
                report.drained_registrations += 1;
                for waiter in [entry.read, entry.write].into_iter().flatten() {
                    hooks.trace_io(IoTraceEvent::Deregister {
                        token: waiter.token,
                    });
                    report.canceled_waits += 1;
                    canceled.push(waiter);
                }
            }
            self.driver.close();
            canceled
        };
        // Settle outside the lock: each dropped completer delivers an
        // Err(Canceled) resume that the still-running workers drain.
        drop(canceled);
        report
    }
}

struct Inner {
    hooks: DriverHooks,
    /// `None` under [`LatencyMode::Block`]: no epoll, and waits complete
    /// immediately so callers fall through to blocking syscalls.
    io: Option<Io>,
    /// Set exactly once by the first [`Driver::shutdown`]; later callers
    /// return the stored report (idempotence).
    report: Mutex<Option<DriverReport>>,
    next_token: AtomicU64,
}

impl Driver for Inner {
    fn name(&self) -> &'static str {
        "lhws-net-reactor"
    }

    fn poll(&self, timeout: Duration) -> bool {
        self.io
            .as_ref()
            .is_some_and(|io| io.poll(&self.hooks, timeout))
    }

    fn unpark(&self) {
        if let Some(io) = &self.io {
            io.driver.wake();
        }
    }

    fn shutdown(&self) -> DriverReport {
        let mut stored = self.report.lock();
        if let Some(r) = *stored {
            return r;
        }
        let report = self
            .io
            .as_ref()
            .map_or_else(DriverReport::default, |io| io.shutdown_drain(&self.hooks));
        *stored = Some(report);
        report
    }
}

/// Handle to the reactor; cheap to clone, shared by every socket wrapper.
#[derive(Clone)]
pub struct Reactor {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("blocking", &self.is_blocking())
            .field("registered_fds", &self.registered_fds())
            .finish()
    }
}

/// Builds a runtime's [`Reactor`]; from [`Reactor::builder`].
///
/// ```no_run
/// use lhws_core::Runtime;
/// use lhws_net::Reactor;
///
/// let rt = Runtime::builder().workers(2).build().unwrap();
/// let reactor = Reactor::builder(&rt).build().unwrap();
/// assert_eq!(reactor.registered_fds(), 0);
/// ```
#[must_use = "builders do nothing until `build()` is called"]
pub struct ReactorBuilder<'rt> {
    rt: &'rt Runtime,
}

impl<'rt> ReactorBuilder<'rt> {
    /// Builds the reactor and attaches it to the runtime as its
    /// [`Driver`]: the workers harvest it, and
    /// [`Runtime::shutdown`](lhws_core::Runtime::shutdown) stops it
    /// deterministically. A runtime has one reactor — building again
    /// returns the first.
    pub fn build(self) -> io::Result<Reactor> {
        self.build_on(|| Ok(Box::new(EpollDriver::new()?)))
    }

    /// [`build`](Self::build) on the backend `backend` opens (called only
    /// under [`LatencyMode::Hide`]).
    fn build_on(
        self,
        backend: impl FnOnce() -> io::Result<Box<dyn IoDriver>>,
    ) -> io::Result<Reactor> {
        let hooks = self.rt.driver_hooks();
        let io = match hooks.mode() {
            LatencyMode::Block => None,
            LatencyMode::Hide => Some(Io {
                driver: backend()?,
                table: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
                in_wait: AtomicUsize::new(0),
                stats: hooks.register_io_shards(1),
            }),
        };
        let ours = Arc::new(Inner {
            hooks,
            io,
            report: Mutex::new(None),
            next_token: AtomicU64::new(1),
        });
        let attached: Arc<dyn Any + Send + Sync> = self.rt.attach_driver(ours);
        match attached.downcast::<Inner>() {
            Ok(inner) => Ok(Reactor { inner }),
            Err(_) => Err(io::Error::other(
                "the runtime already has a different driver attached",
            )),
        }
    }
}

impl Reactor {
    /// Starts building the reactor for `rt`; `build()` attaches it as the
    /// runtime's [`Driver`].
    pub fn builder(rt: &Runtime) -> ReactorBuilder<'_> {
        ReactorBuilder { rt }
    }

    /// True when this reactor serves a [`LatencyMode::Block`] runtime:
    /// sockets should stay in blocking mode and readiness waits are no-ops.
    pub fn is_blocking(&self) -> bool {
        self.inner.io.is_none()
    }

    /// Fds currently holding at least one waiter.
    pub fn registered_fds(&self) -> usize {
        self.inner.io.as_ref().map_or(0, |io| {
            let table = io.table.lock();
            table.values().filter(|e| e.has_waiter()).count()
        })
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

    pub(crate) fn count_io_timeout(&self) {
        self.inner.hooks.count_io_timeout();
    }

    /// Adds a socket's fd to the reactor for its lifetime; returns its
    /// readiness word, or `None` in blocking mode (nothing to register).
    pub(crate) fn register(&self, fd: RawFd) -> io::Result<Option<Arc<Readiness>>> {
        self.inner.io.as_ref().map(|io| io.register(fd)).transpose()
    }

    /// Returns a future resolving when the registered `fd` is ready for
    /// `interest`.
    ///
    /// On a latency-hiding runtime the first `Pending` poll suspends the
    /// task against its deque ([`lhws_core::external_op`] semantics); a
    /// worker harvesting the reactor fires the completion on kernel
    /// readiness. Dropping the future before readiness deregisters the
    /// wait. In blocking mode the future completes immediately so callers
    /// retry the (blocking) syscall.
    pub(crate) fn ready(&self, fd: RawFd, interest: Interest) -> ReadyFuture {
        let token = self.inner.next_token.fetch_add(1, Ordering::Relaxed);
        let (completer, op) = external_op::<()>();
        let err = match &self.inner.io {
            None => {
                completer.complete(());
                None
            }
            Some(io) => io
                .wait(&self.inner.hooks, fd, interest, token, completer)
                .err(),
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

    /// Unfiles a wait (no-op in blocking mode).
    fn cancel(&self, fd: RawFd, interest: Interest, token: u64) {
        if let Some(io) = &self.inner.io {
            io.cancel(&self.inner.hooks, fd, interest, token);
        }
    }

    /// Forgets a closing fd (no-op in blocking mode). Called when a socket
    /// wrapper's registration drops, before the close.
    pub(crate) fn deregister(&self, fd: RawFd) {
        if let Some(io) = &self.inner.io {
            io.deregister(&self.inner.hooks, fd);
        }
    }
}

/// Future returned by [`TcpStream::read_ready`](crate::TcpStream::read_ready)
/// and [`write_ready`](crate::TcpStream::write_ready): resolves `Ok(())`
/// when the socket is ready, `Err` if the wait was rejected or canceled
/// (reactor shutdown).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LineReader, TcpStream};
    use std::io::{BufRead, BufReader, Write};

    /// The epoll backend, counting the `epoll_ctl`s the reactor asks of it.
    struct Counting {
        inner: EpollDriver,
        counts: Arc<[AtomicU64; 3]>,
    }

    impl IoDriver for Counting {
        fn register(&self, fd: RawFd, cookie: u64) -> io::Result<()> {
            self.counts[0].fetch_add(1, Ordering::Relaxed);
            self.inner.register(fd, cookie)
        }
        fn rearm(&self, fd: RawFd, cookie: u64) -> io::Result<()> {
            self.counts[1].fetch_add(1, Ordering::Relaxed);
            self.inner.rearm(fd, cookie)
        }
        fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.counts[2].fetch_add(1, Ordering::Relaxed);
            self.inner.deregister(fd)
        }
        fn wait(&self, events: &mut [IoEvent], timeout: Duration) -> io::Result<WaitOutcome> {
            self.inner.wait(events, timeout)
        }
        fn wake(&self) {
            self.inner.wake();
        }
        fn close(&self) {
            self.inner.close();
        }
    }

    /// A connection's whole life of request/reply rounds costs one
    /// registration and one deregistration, and no wait re-arms: every
    /// request is a short read that clears the bit, so the next wait files
    /// its waiter without a syscall. One worker, so no harvest can land
    /// between a read's bit check and the wait it files.
    #[test]
    fn request_reply_rounds_register_once_and_never_rearm() {
        const ROUNDS: usize = 1_000;
        let rt = Runtime::builder()
            .workers(1)
            .mode(LatencyMode::Hide)
            .build()
            .unwrap();
        let counts: Arc<[AtomicU64; 3]> = Arc::default();
        let backend = counts.clone();
        let reactor = Reactor::builder(&rt)
            .build_on(move || {
                Ok(Box::new(Counting {
                    inner: EpollDriver::new()?,
                    counts: backend,
                }))
            })
            .unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let server = TcpStream::from_std(listener.accept().unwrap().0, &reactor).unwrap();
        let echo = rt.spawn(async move {
            let mut lines = LineReader::new(server);
            while let Some(mut line) = lines.read_line().await? {
                line.push('\n');
                lines.stream_mut().write_all(line.as_bytes()).await?;
            }
            io::Result::Ok(())
        });
        client.set_nodelay(true).unwrap();
        let mut replies = BufReader::new(client.try_clone().unwrap());
        let mut reply = String::new();
        for i in 0..ROUNDS {
            writeln!(&client, "request {i}").unwrap();
            reply.clear();
            replies.read_line(&mut reply).unwrap();
            assert_eq!(reply, format!("request {i}\n"));
        }
        drop((client, replies));
        rt.block_on(echo).unwrap();
        let [registered, rearmed, deregistered] =
            counts.each_ref().map(|c| c.load(Ordering::Relaxed));
        assert_eq!((registered, rearmed, deregistered), (1, 0, 1));
        assert!(rt.metrics().io_registrations >= ROUNDS as u64);
        rt.shutdown();
    }
}
