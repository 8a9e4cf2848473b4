//! Minimal `epoll`/`eventfd` bindings, hand-written because the workspace
//! builds offline without the `libc` crate. Linux-only (the only platform
//! this repository targets), x86-64 and aarch64 ABI compatible.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_long, c_uint, c_void};
use std::time::Duration;

use crate::driver::WaitOutcome;

/// `EPOLL_CLOEXEC` / `EFD_CLOEXEC` (same value: `O_CLOEXEC`).
const CLOEXEC: c_int = 0o2000000;
/// `EFD_NONBLOCK` (`O_NONBLOCK`).
const EFD_NONBLOCK: c_int = 0o4000;

/// `EPOLL_CTL_ADD`.
pub const EPOLL_CTL_ADD: c_int = 1;
/// `EPOLL_CTL_DEL`.
pub const EPOLL_CTL_DEL: c_int = 2;
/// `EPOLL_CTL_MOD`.
pub const EPOLL_CTL_MOD: c_int = 3;

/// `EPOLLIN`: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR`: error condition (always reported, never masked).
pub const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP`: hang-up (always reported, never masked).
pub const EPOLLHUP: u32 = 0x010;
/// `EPOLLRDHUP`: peer closed its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// `EPOLLET`: edge-triggered — the fd is reported when its readiness
/// changes, not for as long as it holds.
pub const EPOLLET: u32 = 1 << 31;

/// One `struct epoll_event`. On x86-64 the kernel ABI packs this struct
/// (12 bytes, no padding before `data`); `repr(packed)` reproduces that.
/// Fields must be **copied out by value** — taking a reference into a
/// packed struct is undefined behavior on alignment-sensitive paths.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit mask (`EPOLLIN` | …).
    pub events: u32,
    /// Caller-chosen cookie returned verbatim with the event.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn listen(sockfd: c_int, backlog: c_int) -> c_int;
}

/// `struct timespec` (64-bit Linux ABIs).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// Creates a close-on-exec epoll instance.
pub fn epoll_create() -> io::Result<RawFd> {
    // SAFETY: `epoll_create1` takes no pointers; a flags word is all it
    // reads, and failure is reported through the return value.
    let fd = unsafe { epoll_create1(CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(fd)
}

/// Adds, modifies, or deletes `fd`'s interest mask on `epfd`. `data` is
/// the cookie `epoll_wait` hands back with the fd's events.
pub fn epoll_ctl_op(epfd: RawFd, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    // SAFETY: `ev` is a live, properly laid out (`packed` on x86-64, as
    // the kernel ABI has it) `epoll_event` that outlives the call; the
    // kernel only reads it. Bad fds or ops fail with an errno, not UB.
    let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Blocks until events arrive or `timeout` elapses (`Duration::ZERO`
/// polls without blocking). `epoll_pwait2` (Linux >= 5.11) rather than
/// `epoll_wait`, because the timeout is a worker's park interval — tens of
/// microseconds, which a millisecond timeout would round to 0 or 1000.
///
/// The three non-error outcomes are kept distinct so callers can account
/// them differently: [`WaitOutcome::Ready`] carries the filled-entry
/// count, `rc == 0` maps to [`WaitOutcome::TimedOut`], and `EINTR` maps
/// to [`WaitOutcome::Interrupted`], so a signal is never counted as a
/// wakeup.
pub fn epoll_wait_events(
    epfd: RawFd,
    events: &mut [EpollEvent],
    timeout: Duration,
) -> io::Result<WaitOutcome> {
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `events` is a live, writable buffer of `events.len()`
    // entries, `ts` outlives the call, and a null sigmask means "none".
    let rc = unsafe {
        epoll_pwait2(
            epfd,
            events.as_mut_ptr(),
            events.len() as c_int,
            &ts,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(WaitOutcome::Interrupted);
        }
        return Err(err);
    }
    if rc == 0 {
        return Ok(WaitOutcome::TimedOut);
    }
    Ok(WaitOutcome::Ready(rc as usize))
}

/// (Re-)applies `listen` to a bound socket to deepen its accept backlog.
/// Linux allows re-listening on an already-listening socket just to
/// change the backlog; `std`'s hardwired 128 is far too shallow for the
/// connect storms a loopback server sees.
pub fn listen_backlog(fd: RawFd, backlog: i32) -> io::Result<()> {
    // SAFETY: `listen` takes no pointers; an fd that is not a bound
    // socket fails with an errno.
    let rc = unsafe { listen(fd, backlog) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Creates the reactor's wake-up eventfd (close-on-exec, nonblocking so
/// drains never stall the event loop).
pub fn eventfd_new() -> io::Result<RawFd> {
    // SAFETY: `eventfd` takes no pointers; failure is reported through
    // the return value.
    let fd = unsafe { eventfd(0, CLOEXEC | EFD_NONBLOCK) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(fd)
}

/// Posts one wake-up to an eventfd (adds 1 to its counter).
pub fn eventfd_write(fd: RawFd) {
    let one: u64 = 1;
    // SAFETY: the buffer is `one`, a live 8-byte local, and exactly 8
    // bytes are read from it.
    let _ = unsafe { write(fd, &one as *const u64 as *const c_void, 8) };
}

/// Drains an eventfd's counter (nonblocking; EAGAIN means already empty).
pub fn eventfd_drain(fd: RawFd) {
    let mut buf: u64 = 0;
    // SAFETY: the buffer is `buf`, a live, writable 8-byte local, and at
    // most 8 bytes are written to it.
    let _ = unsafe { read(fd, &mut buf as *mut u64 as *mut c_void, 8) };
}

/// Closes a file descriptor, ignoring errors (shutdown path).
pub fn close_fd(fd: RawFd) {
    // SAFETY: `close` takes no pointers. The caller owns `fd` and never
    // uses it again; a stale fd fails with `EBADF`.
    let _ = unsafe { close(fd) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_event_abi_size() {
        // The x86-64 kernel ABI packs epoll_event to 12 bytes; other
        // 64-bit ABIs align it to 16.
        if cfg!(target_arch = "x86_64") {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
        } else {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
        }
    }

    #[test]
    fn eventfd_roundtrip_wakes_epoll() {
        let ep = epoll_create().unwrap();
        let ev = eventfd_new().unwrap();
        epoll_ctl_op(ep, EPOLL_CTL_ADD, ev, EPOLLIN, 42).unwrap();
        // Nothing posted yet: a zero-timeout wait reports a timeout,
        // distinct from both readiness and EINTR.
        let mut buf = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(
            epoll_wait_events(ep, &mut buf, Duration::ZERO).unwrap(),
            WaitOutcome::TimedOut
        );
        eventfd_write(ev);
        assert_eq!(
            epoll_wait_events(ep, &mut buf, Duration::from_secs(1)).unwrap(),
            WaitOutcome::Ready(1)
        );
        // Copy packed fields by value before asserting.
        let (events, data) = (buf[0].events, buf[0].data);
        assert_ne!(events & EPOLLIN, 0);
        assert_eq!(data, 42);
        eventfd_drain(ev);
        assert_eq!(
            epoll_wait_events(ep, &mut buf, Duration::from_micros(50)).unwrap(),
            WaitOutcome::TimedOut
        );
        close_fd(ev);
        close_fd(ep);
    }
}
