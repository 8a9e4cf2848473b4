//! The backend seam: [`IoDriver`] is the narrow kernel-facing API a
//! readiness backend implements — `epoll` ([`EpollDriver`](crate::EpollDriver))
//! is the one in tree — and everything above it (the waiter table, the
//! readiness words, the [`Reactor`](crate::Reactor) public surface) is
//! backend-agnostic.
//!
//! # Layering and contracts
//!
//! 1. [`Reactor`](crate::Reactor) — public API and the waiter table. It
//!    owns the **one-waiter-per-direction** invariant (a second
//!    registration for an occupied direction of an fd is rejected as an
//!    application bug), **token-matched deregistration** (a cancel
//!    removes a waiter only if its token matches, so a cancel racing a
//!    readiness-fired replacement wait can never unfile the newer waiter)
//!    and each fd's cached [`Readiness`](crate::Readiness) word.
//! 2. [`IoDriver`] — this trait. It sees only fds. An fd is
//!    [`register`](IoDriver::register)ed once, for both directions and
//!    **edge-triggered**: the backend reports it when its readiness
//!    changes, not while it holds, so no wait costs a syscall of its own.
//!    [`rearm`](IoDriver::rearm) makes the backend report a condition that
//!    is still true; the reactor calls it only to re-check a cached bit it
//!    cannot trust and to recover a swallowed report. An fd is
//!    [`deregister`](IoDriver::deregister)ed only when it is closed.
//!
//! # Who waits
//!
//! No thread of the reactor's own: the runtime's workers call
//! [`wait`](IoDriver::wait) through the [`Driver`](lhws_core::Driver)
//! harvest half — one worker at a time, the one holding the poller role —
//! while registrations arrive from every worker. Every method therefore
//! takes `&self` and must be thread-safe.
//!
//! # Shutdown ordering
//!
//! [`Runtime::shutdown`](lhws_core::Runtime::shutdown) stops the driver
//! **before** the workers, in this order: set the shutdown flag,
//! [`wake`](IoDriver::wake) any worker blocked in `wait`, wait until no
//! worker is inside `wait`, drain every waiter (settling each
//! `Err(Canceled)`), [`close`](IoDriver::close) the backend — the last
//! two under the table lock, so a racing registration that saw the flag
//! clear still sees live kernel resources. The drain tally is
//! [`ShutdownReport::canceled_io_waits`](lhws_core::ShutdownReport::canceled_io_waits).

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// One readiness entry produced by [`IoDriver::wait`].
///
/// Error and hang-up conditions set **both** flags: either direction's
/// pending syscall would return immediately, so both waiters (if filed)
/// must fire and observe the condition from the syscall itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoEvent {
    /// The cookie the fd was registered with (the reactor uses the fd
    /// itself).
    pub cookie: u64,
    /// A read would not block (data, EOF, hang-up, or error).
    pub read: bool,
    /// A write would not block (buffer space or error).
    pub write: bool,
    /// The peer hung up or the socket failed: a read returns at once from
    /// now on, also after the last byte is read.
    pub closed: bool,
}

/// Outcome of one batched [`IoDriver::wait`].
///
/// `Interrupted` is deliberately distinct from an empty `Ready` batch:
/// an `EINTR`-ed wait did no work and must not count as a wakeup in the
/// I/O metrics (`lhws_io_shard_wakeups_total`), while a zero-event
/// `Ready` means the waiter was explicitly kicked by
/// [`wake`](IoDriver::wake).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The batch was filled with `n` readiness entries. `n == 0` means
    /// the wait was kicked by [`wake`](IoDriver::wake) (or every kernel
    /// event was the wake cookie) — still a productive wakeup.
    Ready(usize),
    /// The timeout elapsed with no events (never returned for an
    /// infinite timeout).
    TimedOut,
    /// The wait was interrupted by a signal (`EINTR`) before any event
    /// arrived. Callers should re-wait without counting a wakeup.
    Interrupted,
}

/// A pluggable kernel readiness backend: one readiness queue (an epoll
/// instance) plus a self-wake mechanism.
///
/// See the [module docs](self) for who calls [`wait`](Self::wait), the
/// invariants the reactor maintains *above* this seam (one waiter per
/// direction, token-matched deregistration) and the shutdown ordering
/// contract.
pub trait IoDriver: Send + Sync + 'static {
    /// Adds a not-yet-registered fd for both directions, edge-triggered,
    /// tagged with `cookie` (returned verbatim in [`IoEvent::cookie`]). A
    /// condition already true at registration is reported once.
    fn register(&self, fd: RawFd, cookie: u64) -> io::Result<()>;

    /// Makes the backend re-evaluate a registered fd: a condition that is
    /// true now is reported by the next [`wait`](Self::wait), though no
    /// edge occurred.
    fn rearm(&self, fd: RawFd, cookie: u64) -> io::Result<()>;

    /// Removes a registered fd. Called before the fd is closed, so a
    /// reused fd number (or a surviving `dup`) never inherits the
    /// registration.
    fn deregister(&self, fd: RawFd) -> io::Result<()>;

    /// Blocks up to `timeout` (`Duration::ZERO`: not at all) for
    /// readiness, filling the front of `events` and reporting how many
    /// entries it filled in [`WaitOutcome::Ready`]. An fd is reported once
    /// per readiness change (or [`rearm`](Self::rearm)). Self-wake kicks
    /// are consumed internally and never surfaced. An `Err` means the
    /// backend itself failed.
    fn wait(&self, events: &mut [IoEvent], timeout: Duration) -> io::Result<WaitOutcome>;

    /// Kicks a concurrent [`wait`](Self::wait) awake (it returns
    /// [`WaitOutcome::Ready`], possibly with zero events); a kick with no
    /// wait in flight ends the next one early. Callable from any thread,
    /// also after [`close`](Self::close).
    fn wake(&self);

    /// Releases the readiness queue. Called exactly once by the shutdown
    /// drain, after no thread is inside [`wait`](Self::wait) and under
    /// the same lock that gates every other call — so none can observe a
    /// closed (possibly reused) descriptor. The self-wake channel stays
    /// open until `Drop`, so [`wake`](Self::wake) stays safe.
    fn close(&self);
}
