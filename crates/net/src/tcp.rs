//! TCP socket wrappers that suspend through the scheduler on `WouldBlock`.
//!
//! Under [`LatencyMode::Hide`](lhws_core::LatencyMode::Hide) the sockets
//! are nonblocking and registered with the reactor once, when they are
//! made. Each wrapper keeps its socket's [`Readiness`] word: it tries a
//! syscall while the direction's bit is set, clears the bit when the
//! syscall finds the socket drained (`EAGAIN`, or a read shorter than its
//! buffer), and while the bit is clear it waits on the reactor — a real
//! heavy edge: the task suspends against its deque and its worker moves on
//! to other work. A request/reply round therefore costs one `recv` and one
//! `send`. Under [`LatencyMode::Block`](lhws_core::LatencyMode::Block) the
//! same code runs with blocking sockets (nothing is registered, readiness
//! futures complete immediately, the syscall parks the worker in the
//! kernel) — the paper's blocking baseline from identical application
//! source.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

use lhws_core::FaultSite;

use crate::reactor::{Interest, Reactor, ReadyFuture};
use crate::readiness::Readiness;

/// Accept backlog applied to every [`TcpListener`]: `std` hardwires 128,
/// which a connect storm overflows long before the runtime is the
/// bottleneck. Linux clamps this to `net.core.somaxconn`.
const LISTEN_BACKLOG: i32 = 4096;

/// Read timeout of a stream's blocking socket under
/// [`LatencyMode::Block`](lhws_core::LatencyMode::Block). Block mode has
/// no reactor: a read parks its worker thread in the kernel, so a peer
/// that goes silent would pin that worker forever. The timeout turns the
/// stall into a `WouldBlock`/`TimedOut` error and the worker returns to
/// stealing. Accepts and writes are not bounded.
const BLOCK_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A socket's registration with the reactor, made once when its wrapper
/// is, and its readiness word. Dropping it deregisters the fd, so each
/// wrapper declares it **before** its socket: fields drop in order, and
/// the `DEL` must precede the close.
#[derive(Debug)]
struct Registration {
    reactor: Reactor,
    fd: RawFd,
    /// `None` in blocking mode: nothing is registered, and waits complete
    /// at once.
    readiness: Option<Arc<Readiness>>,
}

impl Registration {
    fn new(reactor: &Reactor, fd: RawFd) -> io::Result<Registration> {
        Ok(Registration {
            reactor: reactor.clone(),
            fd,
            readiness: reactor.register(fd)?,
        })
    }

    fn ready(&self, interest: Interest) -> ReadyFuture {
        self.reactor.ready(self.fd, interest)
    }

    /// Waits until `interest`'s syscall is worth trying — at once, and
    /// with no syscall, while its bit is set — and returns the word to
    /// [`drained`](Self::drained) by.
    async fn armed(&self, interest: Interest) -> io::Result<u64> {
        let Some(readiness) = &self.readiness else {
            return Ok(0);
        };
        loop {
            let seen = readiness.snapshot();
            if seen & interest.mask() != 0 {
                return Ok(seen);
            }
            self.ready(interest).await?;
        }
    }

    /// The syscall found the socket drained: clears `interest`'s bit,
    /// unless a report arrived since `seen` (the tick rule).
    fn drained(&self, interest: Interest, seen: u64) {
        if let Some(readiness) = &self.readiness {
            readiness.clear(interest.bit(), seen);
        }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.reactor.deregister(self.fd);
    }
}

/// A TCP listener whose `accept` suspends (rather than blocks) until a
/// connection is pending.
#[derive(Debug)]
pub struct TcpListener {
    reg: Registration,
    inner: std::net::TcpListener,
}

impl TcpListener {
    /// Binds to `addr`. Nonblocking under latency hiding, blocking under
    /// the baseline. The accept backlog is deepened past `std`'s
    /// hardwired 128 (best-effort; the kernel clamps to `somaxconn`).
    pub fn bind<A: ToSocketAddrs>(reactor: &Reactor, addr: A) -> io::Result<TcpListener> {
        let inner = std::net::TcpListener::bind(addr)?;
        // Re-listening on an already-listening socket just changes the
        // backlog on Linux; failure leaves the std backlog in place.
        let _ = crate::sys::listen_backlog(inner.as_raw_fd(), LISTEN_BACKLOG);
        if !reactor.is_blocking() {
            inner.set_nonblocking(true)?;
        }
        Ok(TcpListener {
            reg: Registration::new(reactor, inner.as_raw_fd())?,
            inner,
        })
    }

    /// The bound local address (use to recover the port after binding 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Accepts one connection, suspending while none is pending.
    pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        loop {
            // Fault: a listener that epoll reported ready claims
            // `WouldBlock` anyway — another thread raced the accept
            // queue. Lossless: a wait filed with the readable bit set
            // re-arms the listener, and re-arming re-evaluates readiness,
            // so the wait returns at once while a connection is pending
            // and the next iteration accepts it.
            if self.reg.reactor.fault(FaultSite::AcceptBurst) {
                self.reg.ready(Interest::Read).await?;
                continue;
            }
            let seen = self.reg.armed(Interest::Read).await?;
            match self.inner.accept() {
                Ok((stream, peer)) => {
                    return TcpStream::from_std(stream, &self.reg.reactor).map(|s| (s, peer));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.reg.drained(Interest::Read, seen);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // A connection can die between the kernel queuing it and
                // this accept claiming it; that aborts *that* connection,
                // not the listener. Retry rather than bubbling a reset.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Accepts up to `max` pending connections from a single readiness
    /// event — the multishot accept path.
    ///
    /// One epoll wakeup can stand for many queued connections; draining
    /// them in a batch lets the acceptor spawn one handler task per
    /// connection in quick succession, and the runtime's work stealing
    /// then fans those tasks out across workers — the accept loop never
    /// becomes the serialization point a one-wakeup-one-accept loop is
    /// under a connect storm. Returns at least one connection (suspending
    /// until one is pending); never returns an empty batch. Under
    /// [`LatencyMode::Block`](lhws_core::LatencyMode::Block) this degrades
    /// to a single blocking accept (batch of one).
    pub async fn accept_batch(&self, max: usize) -> io::Result<Vec<(TcpStream, SocketAddr)>> {
        let max = max.max(1);
        let mut batch = Vec::new();
        loop {
            // Same fault semantics as `accept`: a burst-claimed accept
            // queue is recovered by the re-arm of the next wait.
            if batch.is_empty() && self.reg.reactor.fault(FaultSite::AcceptBurst) {
                self.reg.ready(Interest::Read).await?;
                continue;
            }
            let seen = self.reg.armed(Interest::Read).await?;
            match self.inner.accept() {
                Ok((stream, peer)) => {
                    let stream = TcpStream::from_std(stream, &self.reg.reactor)?;
                    batch.push((stream, peer));
                    if batch.len() >= max || self.reg.reactor.is_blocking() {
                        return Ok(batch);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.reg.drained(Interest::Read, seen);
                    if !batch.is_empty() {
                        return Ok(batch); // queue drained: ship what we have
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted
                    ) => {}
                Err(e) => {
                    if !batch.is_empty() {
                        return Ok(batch); // don't drop accepted connections
                    }
                    return Err(e);
                }
            }
        }
    }
}

/// A TCP stream whose reads and writes suspend (rather than block) on
/// `WouldBlock`.
#[derive(Debug)]
pub struct TcpStream {
    reg: Registration,
    inner: std::net::TcpStream,
}

impl TcpStream {
    /// Connects to `addr`.
    ///
    /// The connect itself is performed blocking (this crate targets
    /// loopback/LAN workloads where connection setup is instantaneous);
    /// the resulting stream is then switched to the reactor's mode.
    pub fn connect<A: ToSocketAddrs>(reactor: &Reactor, addr: A) -> io::Result<TcpStream> {
        let inner = std::net::TcpStream::connect(addr)?;
        TcpStream::from_std(inner, reactor)
    }

    /// Adopts a `std` stream: nonblocking under latency hiding; blocking
    /// (with a read-timeout backstop) under the baseline.
    ///
    /// The backstop is `BLOCK_READ_TIMEOUT` (30 s). In Hide mode
    /// readiness waits are bounded explicitly with
    /// `read_ready().with_timeout(..)` instead.
    pub fn from_std(inner: std::net::TcpStream, reactor: &Reactor) -> io::Result<TcpStream> {
        if reactor.is_blocking() {
            inner.set_read_timeout(Some(BLOCK_READ_TIMEOUT))?;
        } else {
            inner.set_nonblocking(true)?;
        }
        Ok(TcpStream {
            reg: Registration::new(reactor, inner.as_raw_fd())?,
            inner,
        })
    }

    /// The stream's raw descriptor.
    pub fn as_raw_fd(&self) -> RawFd {
        self.inner.as_raw_fd()
    }

    /// The local address of this stream.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// The remote peer's address.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.peer_addr()
    }

    /// Clones the stream (a `dup` of the descriptor), e.g. to split
    /// reading and writing across tasks. Each handle registers, waits on,
    /// and deregisters its own descriptor.
    pub fn try_clone(&self) -> io::Result<TcpStream> {
        TcpStream::from_std(self.inner.try_clone()?, &self.reg.reactor)
    }

    /// Shuts down the read, write, or both halves (see
    /// [`std::net::TcpStream::shutdown`]).
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        self.inner.shutdown(how)
    }

    /// A future resolving when the stream is readable. This is the heavy
    /// edge itself — exposed so callers can bound it:
    /// `stream.read_ready().with_timeout(d).await`.
    ///
    /// The wait never trusts the cached readable bit: after a read that
    /// filled its buffer the bit is still set, so the reactor has the
    /// kernel re-evaluate the socket, and a drained one is waited on.
    pub fn read_ready(&self) -> ReadyFuture {
        self.reg.ready(Interest::Read)
    }

    /// A future resolving when the stream is writable.
    pub fn write_ready(&self) -> ReadyFuture {
        self.reg.ready(Interest::Write)
    }

    /// Reads into `buf`, suspending until at least one byte (or EOF, which
    /// returns `Ok(0)`) is available.
    ///
    /// A reset peer surfaces honestly as `ConnectionReset` — never masked
    /// as EOF, so request handlers can distinguish a clean close (commit
    /// the response) from a torn one (drop the connection's state).
    pub async fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            // Fault: the peer reset under us. Fails the op without
            // touching the kernel — the socket itself stays healthy, so
            // the *caller's* reset handling is what gets exercised.
            if self.reg.reactor.fault(FaultSite::PeerReset) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected peer reset (fault plan)",
                ));
            }
            let seen = self.reg.armed(Interest::Read).await?;
            match (&self.inner).read(buf) {
                Ok(n) => {
                    // A read that stopped short of its buffer emptied the
                    // receive queue: it stands in for the `EAGAIN` the next
                    // read would hit.
                    if 0 < n && n < buf.len() {
                        self.reg.drained(Interest::Read, seen);
                    }
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.reg.drained(Interest::Read, seen);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes all of `buf`, suspending whenever the send buffer is full.
    ///
    /// Short kernel writes resume where they left off; a torn connection
    /// surfaces as `BrokenPipe`/`ConnectionReset` (possibly after a
    /// partial transfer — TCP gives no delivery receipt either way).
    pub async fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut written = 0;
        while written < buf.len() {
            // Fault: the peer reset mid-write (see `read`).
            if self.reg.reactor.fault(FaultSite::PeerReset) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected peer reset (fault plan)",
                ));
            }
            // Fault: the kernel accepts only half the remainder,
            // exercising this very resumption loop. Lossless by
            // construction — the bytes actually written are counted and
            // the loop continues from there.
            let end = if buf.len() - written > 1 && self.reg.reactor.fault(FaultSite::PartialWrite)
            {
                written + (buf.len() - written) / 2
            } else {
                buf.len()
            };
            let seen = self.reg.armed(Interest::Write).await?;
            match (&self.inner).write(&buf[written..end]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer closed while writing",
                    ));
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.reg.drained(Interest::Write, seen);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Buffered line reader over a [`TcpStream`], for newline-delimited
/// request protocols.
#[derive(Debug)]
pub struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes `buf[..filled]` hold buffered, not-yet-consumed input.
    filled: usize,
}

impl LineReader {
    /// Wraps `stream` with an empty buffer.
    pub fn new(stream: TcpStream) -> LineReader {
        LineReader {
            stream,
            buf: vec![0; 4096],
            filled: 0,
        }
    }

    /// The underlying stream, e.g. for writing a reply.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Returns the inner stream, discarding any buffered input.
    pub fn into_inner(self) -> TcpStream {
        self.stream
    }

    /// Reads one `\n`-terminated line (terminator stripped), or `None` on
    /// clean EOF. EOF mid-line is an error (truncated request).
    pub async fn read_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf[..self.filled].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&self.buf[..pos]).into_owned();
                self.buf.copy_within(pos + 1..self.filled, 0);
                self.filled -= pos + 1;
                return Ok(Some(line));
            }
            if self.filled == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            let filled = self.filled;
            let n = self.stream.read(&mut self.buf[filled..]).await?;
            if n == 0 {
                if self.filled > 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-line",
                    ));
                }
                return Ok(None);
            }
            self.filled += n;
        }
    }
}
