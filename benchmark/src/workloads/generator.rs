//! The load generator of `server-open`: one thread multiplexing every
//! connection over non-blocking `std::net` sockets, with at most one
//! request in flight per connection. Every reply is checked against a
//! precomputed `fib` table.
//!
//! The thread spins (it owns a core; the server's workers own the rest),
//! so a request is sent within microseconds of the instant it is due, and
//! how late it actually was is recorded.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;

use crate::host::now_ns;
use crate::inputs::Request;
use crate::spec::REPLY_TIMEOUT;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
}

const POLLIN: i16 = 0x001;

/// How often both loops call their `tick` hook.
const TICK_NS: u64 = 10_000_000;

struct InFlight {
    /// When the request was due (open loop) or sent (closed loop).
    due_ns: u64,
    sent_ns: u64,
    n: u64,
    /// Whether it waited for a free connection, not just for the generator.
    conn_wait: bool,
}

struct Conn {
    stream: TcpStream,
    local_port: u16,
    /// Requests sent on this connection so far; pairs a request with the
    /// server-side stamps of the same ordinal.
    seq: u64,
    inflight: Option<InFlight>,
    rbuf: Vec<u8>,
}

/// One finished request, as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub port: u16,
    pub seq: u64,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub conn_wait: bool,
    pub ok: bool,
}

impl Done {
    pub fn latency_us(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e3
    }
}

pub struct Generator {
    conns: Vec<Conn>,
    pollfds: Vec<PollFd>,
    idle: VecDeque<usize>,
    inflight: usize,
    fib: Vec<u64>,
    next_timeout_scan_ns: u64,
}

impl Generator {
    /// Opens `count` persistent connections to `addr`.
    pub fn connect(addr: SocketAddr, count: usize, fib: Vec<u64>) -> std::io::Result<Generator> {
        let mut conns = Vec::with_capacity(count);
        for _ in 0..count {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                local_port: stream.local_addr()?.port(),
                stream,
                seq: 0,
                inflight: None,
                rbuf: Vec::with_capacity(64),
            });
        }
        let pollfds = conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        Ok(Generator {
            idle: (0..count).collect(),
            conns,
            pollfds,
            inflight: 0,
            fib,
            next_timeout_scan_ns: 0,
        })
    }

    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Writes `W n` on connection `c`. A request is a handful of bytes on
    /// an otherwise quiet socket, so a short or refused write is a failure.
    fn send(&mut self, c: usize, due_ns: u64, n: u64, conn_wait: bool, done: &mut Vec<Done>) {
        let conn = &mut self.conns[c];
        let line = format!("W {n}\n");
        let sent_ns = now_ns();
        let wrote = (&conn.stream).write(line.as_bytes());
        conn.seq += 1;
        if !matches!(wrote, Ok(len) if len == line.len()) {
            done.push(Done {
                port: conn.local_port,
                seq: conn.seq,
                due_ns,
                sent_ns,
                done_ns: sent_ns,
                conn_wait,
                ok: false,
            });
            self.idle.push_back(c);
            return;
        }
        conn.inflight = Some(InFlight {
            due_ns,
            sent_ns,
            n,
            conn_wait,
        });
        self.inflight += 1;
    }

    fn finish(&mut self, c: usize, ok: bool, done: &mut Vec<Done>) {
        let conn = &mut self.conns[c];
        if let Some(req) = conn.inflight.take() {
            done.push(Done {
                port: conn.local_port,
                seq: conn.seq,
                due_ns: req.due_ns,
                sent_ns: req.sent_ns,
                done_ns: now_ns(),
                conn_wait: req.conn_wait,
                ok,
            });
            self.inflight -= 1;
            self.idle.push_back(c);
        }
    }

    /// Reads whatever replies have arrived (never blocks) and fails
    /// requests older than the reply timeout.
    fn reap(&mut self, done: &mut Vec<Done>) {
        // SAFETY: `pollfds` is a live, exclusively borrowed array of
        // `pollfds.len()` properly initialised `struct pollfd`s (the layout
        // above matches Linux's); timeout 0 makes the call non-blocking.
        let ready = unsafe { poll(self.pollfds.as_mut_ptr(), self.pollfds.len() as _, 0) };
        if ready > 0 {
            for c in 0..self.conns.len() {
                if self.pollfds[c].revents != 0 {
                    self.pollfds[c].revents = 0;
                    self.read_reply(c, done);
                }
            }
        }
        let now = now_ns();
        if now >= self.next_timeout_scan_ns {
            self.next_timeout_scan_ns = now + 10_000_000;
            let limit = REPLY_TIMEOUT.as_nanos() as u64;
            for c in 0..self.conns.len() {
                let late = self.conns[c]
                    .inflight
                    .as_ref()
                    .is_some_and(|r| now - r.sent_ns > limit);
                if late {
                    self.finish(c, false, done);
                }
            }
        }
    }

    fn read_reply(&mut self, c: usize, done: &mut Vec<Done>) {
        let mut buf = [0u8; 64];
        let conn = &mut self.conns[c];
        match (&conn.stream).read(&mut buf) {
            Ok(0) => self.finish(c, false, done), // server closed on us
            Ok(len) => {
                conn.rbuf.extend_from_slice(&buf[..len]);
                if let Some(end) = conn.rbuf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = conn.rbuf.drain(..=end).collect();
                    let expected = conn.inflight.as_ref().map(|r| self.fib[r.n as usize]);
                    let got = std::str::from_utf8(&line[..end])
                        .ok()
                        .and_then(|l| l.strip_prefix("R "))
                        .and_then(|v| v.parse::<u64>().ok());
                    // An unsolicited line (no request in flight) is dropped
                    // by `finish`; a wrong or malformed one is a failure.
                    self.finish(c, got.is_some() && got == expected, done);
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => self.finish(c, false, done),
        }
    }

    /// Open loop: sends each request of `schedule` at its due time whether
    /// or not earlier ones have been answered; a request that finds every
    /// connection busy waits in a backlog and its latency keeps counting
    /// from when it was due. Returns once every request is answered.
    /// `tick` is called about every 10 ms with the ns since the phase began.
    pub fn open_loop(&mut self, schedule: &[Request], mut tick: impl FnMut(u64)) -> Vec<Done> {
        let mut done = Vec::with_capacity(schedule.len());
        let mut backlog: VecDeque<(usize, bool)> = VecDeque::new();
        let start = now_ns();
        let mut next_tick = start;
        let mut next = 0;
        loop {
            let now = now_ns();
            if now >= next_tick {
                next_tick += TICK_NS;
                tick(now - start);
            }
            while next < schedule.len() && start + schedule[next].due_ns <= now {
                backlog.push_back((next, false));
                next += 1;
            }
            while let Some(&(r, conn_wait)) = backlog.front() {
                let Some(c) = self.idle.pop_front() else {
                    backlog.iter_mut().for_each(|b| b.1 = true);
                    break;
                };
                backlog.pop_front();
                self.send(
                    c,
                    start + schedule[r].due_ns,
                    schedule[r].n,
                    conn_wait,
                    &mut done,
                );
            }
            if self.inflight > 0 {
                self.reap(&mut done);
            } else if next == schedule.len() && backlog.is_empty() {
                return done;
            }
        }
    }

    /// Closed loop with zero think time: every connection sends its next
    /// request the moment the previous reply arrives. `requests` caps the
    /// count (warm-up), `seconds` the duration; `tick` as in `open_loop`.
    pub fn closed_loop(
        &mut self,
        mix: &[Request],
        requests: usize,
        seconds: f64,
        mut tick: impl FnMut(u64),
    ) -> Vec<Done> {
        let mut done = Vec::new();
        let start = now_ns();
        let deadline = start + (seconds * 1e9) as u64;
        let mut next_tick = start;
        let mut sent = 0usize;
        loop {
            let now = now_ns();
            let open = now < deadline && sent < requests;
            while open && sent < requests {
                let Some(c) = self.idle.pop_front() else {
                    break;
                };
                self.send(c, now, mix[sent % mix.len()].n, false, &mut done);
                sent += 1;
            }
            if self.inflight == 0 && !open {
                return done;
            }
            self.reap(&mut done);
            if now >= next_tick {
                next_tick += TICK_NS;
                tick(now - start);
            }
        }
    }
}
