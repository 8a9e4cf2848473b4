//! The in-tree [`IoDriver`] backend: one `epoll` instance, raw-FFI
//! syscalls (the crate-private `sys` bindings), no `libc` dependency.
//!
//! Every fd is added once with `EPOLLET | EPOLLIN | EPOLLRDHUP |
//! EPOLLOUT`: the kernel reports it when its readiness changes — data
//! arrives, send space frees up, the peer hangs up — and stays quiet while
//! nothing changes, so a wait costs no `epoll_ctl`. `EPOLL_CTL_MOD` with
//! the same mask is the re-arm: the kernel re-evaluates the fd and reports
//! a condition that is still true. `DEL` runs once, when the fd is closed.

use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicI32, Ordering};
use std::time::Duration;

use crate::driver::{IoDriver, IoEvent, WaitOutcome};
use crate::sys;

/// Epoll data cookie reserved for the self-wake eventfd.
const WAKE_COOKIE: u64 = u64::MAX;

/// Per-wait kernel batch size bound. Readiness beyond the caller's buffer
/// arrives on the next wait, so it bounds per-wait latency, not throughput.
const BATCH: usize = 64;

/// The one interest mask: both directions, edge-triggered. ERR/HUP are
/// delivered regardless of the mask.
const INTEREST: u32 = sys::EPOLLET | sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLOUT;

/// One epoll instance + its wake eventfd: the `epoll` implementation of
/// [`IoDriver`], owned by the [`Reactor`](crate::Reactor).
///
/// The epoll fd is swapped to `-1` on [`close`] (idempotent with `Drop`);
/// the wake eventfd lives until `Drop`, so a kick after shutdown writes to
/// a descriptor that is still ours.
///
/// [`close`]: IoDriver::close
pub struct EpollDriver {
    epfd: AtomicI32,
    wake_fd: RawFd,
}

impl std::fmt::Debug for EpollDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpollDriver")
            .field("epfd", &self.epfd.load(Ordering::Relaxed))
            .finish()
    }
}

impl EpollDriver {
    /// Creates the epoll instance and its wake eventfd.
    pub fn new() -> io::Result<EpollDriver> {
        let epfd = sys::epoll_create()?;
        let wake_fd = match sys::eventfd_new() {
            Ok(fd) => fd,
            Err(e) => {
                sys::close_fd(epfd);
                return Err(e);
            }
        };
        // The wake channel is level-triggered: a kick posted between
        // waits must end the next one.
        if let Err(e) =
            sys::epoll_ctl_op(epfd, sys::EPOLL_CTL_ADD, wake_fd, sys::EPOLLIN, WAKE_COOKIE)
        {
            sys::close_fd(epfd);
            sys::close_fd(wake_fd);
            return Err(e);
        }
        Ok(EpollDriver {
            epfd: AtomicI32::new(epfd),
            wake_fd,
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, cookie: u64) -> io::Result<()> {
        let epfd = self.epfd.load(Ordering::Relaxed);
        sys::epoll_ctl_op(epfd, op, fd, INTEREST, cookie)
    }
}

impl IoDriver for EpollDriver {
    fn register(&self, fd: RawFd, cookie: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, cookie)
    }

    fn rearm(&self, fd: RawFd, cookie: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, cookie)
    }

    fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0)
    }

    fn wait(&self, events: &mut [IoEvent], timeout: Duration) -> io::Result<WaitOutcome> {
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; BATCH];
        let cap = events.len().min(BATCH);
        let epfd = self.epfd.load(Ordering::Relaxed);
        let n = match sys::epoll_wait_events(epfd, &mut buf[..cap], timeout)? {
            WaitOutcome::Ready(n) => n,
            other => return Ok(other),
        };
        let mut filled = 0;
        for ev in &buf[..n] {
            // Copy the packed fields by value before use.
            let (mask, data) = (ev.events, ev.data);
            if data == WAKE_COOKIE {
                sys::eventfd_drain(self.wake_fd);
                continue;
            }
            events[filled] = IoEvent {
                cookie: data,
                read: mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLERR | sys::EPOLLHUP) != 0,
                write: mask & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0,
                closed: mask & (sys::EPOLLRDHUP | sys::EPOLLERR | sys::EPOLLHUP) != 0,
            };
            filled += 1;
        }
        Ok(WaitOutcome::Ready(filled))
    }

    fn wake(&self) {
        sys::eventfd_write(self.wake_fd);
    }

    fn close(&self) {
        let epfd = self.epfd.swap(-1, Ordering::AcqRel);
        if epfd >= 0 {
            sys::close_fd(epfd);
        }
    }
}

impl Drop for EpollDriver {
    fn drop(&mut self) {
        self.close();
        sys::close_fd(self.wake_fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_surfaces_as_zero_event_ready() {
        let d = EpollDriver::new().unwrap();
        let mut events = [IoEvent::default(); BATCH];
        // Nothing registered, nothing posted: a zero-timeout wait times out.
        assert_eq!(
            d.wait(&mut events, Duration::ZERO).unwrap(),
            WaitOutcome::TimedOut
        );
        d.wake();
        // The kick is consumed internally: Ready, but zero entries.
        assert_eq!(
            d.wait(&mut events, Duration::from_secs(1)).unwrap(),
            WaitOutcome::Ready(0)
        );
        // Drained: the next zero-timeout wait times out again.
        assert_eq!(
            d.wait(&mut events, Duration::ZERO).unwrap(),
            WaitOutcome::TimedOut
        );
        d.close();
        // The wake channel outlives close: a late kick is harmless.
        d.wake();
    }

    #[test]
    fn edges_report_once_per_change_until_rearm() {
        use std::io::Write;
        let d = EpollDriver::new().unwrap();
        let (a, mut b) = std::os::unix::net::UnixStream::pair().unwrap();
        let fd = std::os::fd::AsRawFd::as_raw_fd(&a);
        let mut events = [IoEvent::default(); BATCH];
        let quiet = |d: &EpollDriver, events: &mut [IoEvent]| {
            d.wait(events, Duration::from_millis(1)).unwrap() == WaitOutcome::TimedOut
        };
        // A fresh socket is writable: registering reports it once.
        d.register(fd, 7).unwrap();
        let ready = d.wait(&mut events, Duration::from_secs(1)).unwrap();
        assert_eq!(ready, WaitOutcome::Ready(1));
        assert!(events[0].write && !events[0].read && events[0].cookie == 7);
        // Still writable, but nothing changed: nothing more is reported.
        assert!(quiet(&d, &mut events));
        // Each arrival is one edge, even onto unread data.
        for _ in 0..2 {
            b.write_all(b"x").unwrap();
            let arrival = d.wait(&mut events, Duration::from_secs(1)).unwrap();
            assert_eq!(arrival, WaitOutcome::Ready(1));
            assert!(events[0].read);
            assert!(quiet(&d, &mut events));
        }
        // The re-arm re-evaluates: the unread bytes are reported again.
        d.rearm(fd, 7).unwrap();
        let again = d.wait(&mut events, Duration::from_secs(1)).unwrap();
        assert_eq!(again, WaitOutcome::Ready(1));
        assert!(events[0].read && events[0].write);
        assert!(quiet(&d, &mut events));
        d.deregister(fd).unwrap();
    }
}
