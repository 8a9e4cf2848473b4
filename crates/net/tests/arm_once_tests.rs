//! Register once, edge-triggered: each fd is added to epoll when its
//! wrapper is made and removed before it is closed, the kernel's reports
//! are cached in a readiness word the reads and writes clear by the tick
//! rule — after `EAGAIN` or a short read — and the reactor runs on the
//! workers, with no thread of its own.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use lhws_core::{fork2, spawn, FaultPlan, FaultSite, LatencyMode, Runtime};
use lhws_net::{DeadlineExt, LineReader, Reactor, TcpListener, TcpStream};

/// Readiness waits the tests bound themselves are bounded by this, so a
/// lost arm fails with `TimedOut` instead of hanging.
const WAIT_LIMIT: Duration = Duration::from_secs(5);

fn hide_rt(workers: usize) -> (Runtime, Reactor) {
    let rt = Runtime::builder()
        .workers(workers)
        .mode(LatencyMode::Hide)
        .build()
        .unwrap();
    let reactor = Reactor::builder(&rt).build().unwrap();
    (rt, reactor)
}

/// Runs `fut` as a task and waits for it from this thread for at most
/// `limit`: a readiness the reactor loses fails the test rather than
/// hanging it (dropping the runtime then cancels the stuck wait).
fn run_bounded<T: Send + 'static>(
    rt: &Runtime,
    limit: Duration,
    fut: impl std::future::Future<Output = T> + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    drop(rt.spawn(async move {
        let _ = tx.send(fut.await);
    }));
    rx.recv_timeout(limit)
        .expect("the task never finished: a readiness was lost")
}

/// One bounded wait, then one read.
async fn read_some(s: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<usize> {
    s.read_ready().with_timeout(WAIT_LIMIT).await?;
    s.read(buf).await
}

/// Bounded waits and reads until `buf` is full (a `PartialWrite` fault
/// can split the peer's message).
async fn read_full(s: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
    let mut got = 0;
    while got < buf.len() {
        match read_some(s, &mut buf[got..]).await? {
            0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => got += n,
        }
    }
    Ok(())
}

/// `n` loopback pairs: a plain `std` client and the runtime's server end.
fn pairs(rt: &Runtime, reactor: &Reactor, n: usize) -> Vec<(std::net::TcpStream, TcpStream)> {
    let listener = TcpListener::bind(reactor, "127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let clients: Vec<_> = (0..n)
        .map(|_| std::net::TcpStream::connect(addr).unwrap())
        .collect();
    let servers = run_bounded(rt, WAIT_LIMIT, async move {
        let mut servers = Vec::with_capacity(n);
        while servers.len() < n {
            servers.push(listener.accept().await.unwrap().0);
        }
        servers
    });
    clients.into_iter().zip(servers).collect()
}

/// A closed server socket's fd number, handed out again by the next
/// accept, still gets readiness: the close removed the old registration
/// first, and the new socket is registered afresh.
#[test]
fn reused_fd_number_still_gets_readiness() {
    let (rt, reactor) = hide_rt(2);
    let listener = TcpListener::bind(&reactor, "127.0.0.1:0").unwrap();
    let addr: SocketAddr = listener.local_addr().unwrap();
    let reused = run_bounded(&rt, Duration::from_secs(60), async move {
        let mut reused = 0;
        for _ in 0..20 {
            let mut client_a = std::net::TcpStream::connect(addr).unwrap();
            let (mut a, _) = listener.accept().await.unwrap();
            client_a.write_all(b"a").unwrap();
            // A waits once, so its fd has reported.
            assert_eq!(read_some(&mut a, &mut [0]).await.unwrap(), 1);
            // B's client connects before A closes, so the accept below
            // takes the lowest free fd — A's, unless a parallel test
            // grabbed it first.
            let mut client_b = std::net::TcpStream::connect(addr).unwrap();
            let a_fd = a.as_raw_fd();
            drop(a);
            let (mut b, _) = listener.accept().await.unwrap();
            reused += usize::from(b.as_raw_fd() == a_fd);
            // B's wait is filed before its data exists, then fires.
            let wait = b.read_ready().with_timeout(WAIT_LIMIT);
            client_b.write_all(b"b").unwrap();
            wait.await.unwrap();
            assert_eq!(b.read(&mut [0]).await.unwrap(), 1);
        }
        reused
    });
    assert!(reused > 0, "no accept ever reused a closed fd number");
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// `try_clone` makes a second descriptor for the same socket: a reader
/// task and a writer task each register and wait on their own fd, both
/// past the loopback buffers so both see `EAGAIN`, and neither loses a
/// byte.
#[test]
fn try_clone_halves_wait_on_two_tasks() {
    const BYTES: usize = 4 << 20;
    let (rt, reactor) = hide_rt(2);
    let (peer, conn) = pairs(&rt, &reactor, 1).pop().unwrap();
    let mut peer_in = peer.try_clone().unwrap();
    let feeder = std::thread::spawn(move || peer_in.write_all(&vec![7u8; BYTES]).unwrap());
    let mut peer_out = peer;
    let drainer = std::thread::spawn(move || {
        let (mut n, mut buf) = (0, vec![0u8; 1 << 16]);
        while n < BYTES {
            let k = peer_out.read(&mut buf).unwrap();
            assert!(k > 0, "server closed early");
            assert!(buf[..k].iter().all(|&b| b == 9));
            n += k;
        }
    });
    let (read, wrote) = run_bounded(&rt, Duration::from_secs(60), async move {
        let mut w = conn.try_clone().unwrap();
        let mut r = conn;
        assert_ne!(r.as_raw_fd(), w.as_raw_fd());
        let reader = spawn(async move {
            let (mut n, mut buf) = (0, vec![0u8; 1 << 16]);
            while n < BYTES {
                let k = read_some(&mut r, &mut buf).await.unwrap();
                assert!(k > 0, "peer closed early");
                n += k;
            }
            n
        });
        let writer = spawn(async move {
            let chunk = vec![9u8; 1 << 16];
            for _ in 0..BYTES / chunk.len() {
                w.write_ready().with_timeout(WAIT_LIMIT).await.unwrap();
                w.write_all(&chunk).await.unwrap();
            }
            BYTES
        });
        (reader.await, writer.await)
    });
    assert_eq!((read, wrote), (BYTES, BYTES));
    feeder.join().unwrap();
    drainer.join().unwrap();
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// 10 000 ping-pong rounds on one connection: every server read fills
/// its one-byte buffer, so the next one hits `EAGAIN` and clears the
/// readable bit while the peer's next byte races it in. The tick rule
/// keeps a report that landed in between, so no byte is ever missed.
#[test]
fn peer_writes_racing_registration_lose_nothing() {
    const ROUNDS: usize = 10_000;
    let (rt, reactor) = hide_rt(2);
    let (mut peer, mut conn) = pairs(&rt, &reactor, 1).pop().unwrap();
    peer.set_nodelay(true).unwrap();
    peer.set_read_timeout(Some(WAIT_LIMIT)).unwrap();
    let pinger = std::thread::spawn(move || {
        let mut ack = [0u8; 1];
        for i in 0..ROUNDS {
            let byte = (i % 251) as u8;
            peer.write_all(&[byte]).unwrap();
            peer.read_exact(&mut ack).unwrap();
            assert_eq!(ack[0], byte, "round {i}");
        }
    });
    run_bounded(&rt, Duration::from_secs(120), async move {
        let mut byte = [0u8; 1];
        for i in 0..ROUNDS {
            assert_eq!(conn.read(&mut byte).await.unwrap(), 1, "round {i}");
            conn.write_all(&byte).await.unwrap();
        }
    });
    pinger.join().unwrap();
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// 10 000 lines, each sent in two chunks 0–50 µs apart and read through
/// a `LineReader`, so every read is short and clears the readable bit —
/// sometimes just before the second chunk's report, sometimes just after.
/// No line is lost: the peer's reply read is bounded by `WAIT_LIMIT`.
#[test]
fn split_lines_read_short_lose_nothing() {
    const ROUNDS: usize = 10_000;
    let (rt, reactor) = hide_rt(2);
    let (mut peer, conn) = pairs(&rt, &reactor, 1).pop().unwrap();
    peer.set_nodelay(true).unwrap();
    peer.set_read_timeout(Some(WAIT_LIMIT)).unwrap();
    let sender = std::thread::spawn(move || {
        let mut reply = [0u8; 11];
        for i in 0..ROUNDS {
            let line = format!("line {i:05}\n");
            let (head, tail) = line.as_bytes().split_at(1 + i % (line.len() - 1));
            peer.write_all(head).unwrap();
            let until = Instant::now() + Duration::from_micros((i * 37 % 51) as u64);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            peer.write_all(tail).unwrap();
            peer.read_exact(&mut reply)
                .unwrap_or_else(|e| panic!("round {i}: no reply ({e})"));
            assert_eq!(&reply, line.as_bytes(), "round {i}");
        }
    });
    let served = run_bounded(&rt, Duration::from_secs(120), async move {
        let mut lines = LineReader::new(conn);
        let mut served = 0;
        while let Some(mut line) = lines.read_line().await.unwrap() {
            line.push('\n');
            lines.stream_mut().write_all(line.as_bytes()).await.unwrap();
            served += 1;
        }
        served
    });
    sender.join().unwrap();
    assert_eq!(served, ROUNDS);
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// A read that fills its buffer may have left bytes behind, so it keeps
/// the readable bit: the remainder is read at once, with no wait filed.
#[test]
fn full_read_keeps_the_bit_for_the_remainder() {
    let (rt, reactor) = hide_rt(2);
    let (mut peer, conn) = pairs(&rt, &reactor, 1).pop().unwrap();
    peer.write_all(b"twelve bytes").unwrap();
    let mut conn = run_bounded(&rt, WAIT_LIMIT, async move {
        conn.read_ready().with_timeout(WAIT_LIMIT).await.unwrap();
        conn
    });
    let before = rt.metrics().io_registrations;
    let (first, rest) = run_bounded(&rt, WAIT_LIMIT, async move {
        let mut first = [0u8; 8];
        assert_eq!(conn.read(&mut first).await.unwrap(), 8);
        let mut rest = [0u8; 8];
        let n = conn.read(&mut rest).await.unwrap();
        (first, rest[..n].to_vec())
    });
    assert_eq!((&first[..], &rest[..]), (&b"twelve b"[..], &b"ytes"[..]));
    assert_eq!(
        rt.metrics().io_registrations,
        before,
        "the remainder waited"
    );
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// A wait never trusts the bit a full read left set: after the read that
/// drained the socket, `read_ready` on a silent peer re-checks with the
/// kernel and times out instead of resolving on the stale bit.
#[test]
fn read_ready_after_a_draining_full_read_times_out() {
    let (rt, reactor) = hide_rt(2);
    let (mut peer, mut conn) = pairs(&rt, &reactor, 1).pop().unwrap();
    peer.write_all(b"8 bytes!").unwrap();
    let waited = run_bounded(&rt, WAIT_LIMIT, async move {
        conn.read_ready().with_timeout(WAIT_LIMIT).await.unwrap();
        assert_eq!(conn.read(&mut [0u8; 8]).await.unwrap(), 8);
        conn.read_ready()
            .with_timeout(Duration::from_millis(50))
            .await
            .map_err(|e| e.kind())
    });
    assert_eq!(waited, Err(std::io::ErrorKind::TimedOut));
    assert_eq!(rt.metrics().io_timeouts, 1);
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
    drop(peer);
}

/// A hang-up is sticky: when the last line and the FIN were both reported
/// before the read, the short read that takes the line clears the
/// readable bit, yet the next read still returns EOF instead of waiting
/// for an edge the kernel already sent.
#[test]
fn short_read_before_a_reported_hangup_still_sees_eof() {
    let (rt, reactor) = hide_rt(2);
    let (mut peer, conn) = pairs(&rt, &reactor, 1).pop().unwrap();
    peer.write_all(b"last\n").unwrap();
    peer.shutdown(std::net::Shutdown::Write).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    let lines = run_bounded(&rt, WAIT_LIMIT, async move {
        // The re-check reports the line and the FIN together.
        conn.read_ready().with_timeout(WAIT_LIMIT).await.unwrap();
        let mut lines = LineReader::new(conn);
        let first = lines.read_line().await.unwrap();
        (first, lines.read_line().await.unwrap())
    });
    assert_eq!(lines, (Some("last".to_string()), None));
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// The two fault sites that leaned on level-triggered re-reporting
/// recover under edge-triggered registration: a swallowed report leaves
/// the bits alone and is re-armed by the reactor, and a burst-claimed
/// accept queue by the re-arm of the next wait, filed with the readable
/// bit still set. Both `accept` and `accept_batch` take the `AcceptBurst`
/// path.
#[test]
fn accept_burst_and_dropped_readiness_recover_under_arm_once() {
    const CONNS: usize = 24;
    let rt = Runtime::builder()
        .workers(2)
        .fault_plan(
            FaultPlan::new(0xacce_0b57)
                .with(FaultSite::AcceptBurst, 400_000)
                .with(FaultSite::DroppedReadiness, 400_000)
                .with(FaultSite::PartialWrite, 300_000),
        )
        .build()
        .unwrap();
    let reactor = Reactor::builder(&rt).build().unwrap();
    let listener = TcpListener::bind(&reactor, "127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let served = run_bounded(&rt, Duration::from_secs(60), async move {
        let serve = async move {
            let mut served = 0;
            while served < CONNS {
                let batch = if served % 2 == 0 {
                    listener.accept_batch(4).await.unwrap()
                } else {
                    vec![listener.accept().await.unwrap()]
                };
                for (mut conn, _) in batch {
                    let mut buf = [0u8; 3];
                    read_full(&mut conn, &mut buf).await.unwrap();
                    conn.write_all(&buf).await.unwrap();
                    served += 1;
                }
            }
            served
        };
        let drive = async move {
            for i in 0..CONNS {
                let mut s = TcpStream::connect(&reactor, addr).unwrap();
                let msg = format!("c{i:02}");
                s.write_all(msg.as_bytes()).await.unwrap();
                let mut buf = [0u8; 3];
                read_full(&mut s, &mut buf).await.unwrap();
                assert_eq!(&buf, msg.as_bytes());
            }
        };
        fork2(serve, drive).await.0
    });
    assert_eq!(served, CONNS);
    let report = rt.shutdown();
    assert!(report.faults_injected > 0, "no fault fired: {report:?}");
    assert_eq!(report.canceled_io_waits, 0, "{report:?}");
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// Registers `n` connections and leaves them idle: each server end reads
/// one byte, and every other one also files a read wait and drops it
/// (registered, no waiter).
fn idle_armed(rt: &Runtime, reactor: &Reactor, n: usize) -> Vec<(std::net::TcpStream, TcpStream)> {
    let mut conns = pairs(rt, reactor, n);
    for (client, _) in conns.iter_mut() {
        client.write_all(b"x").unwrap();
    }
    run_bounded(rt, Duration::from_secs(30), async move {
        for (i, (_, server)) in conns.iter_mut().enumerate() {
            assert_eq!(read_some(server, &mut [0]).await.unwrap(), 1);
            if i % 2 == 0 {
                drop(server.read_ready());
            }
        }
        conns
    })
}

/// `canceled_io_waits` counts canceled *waiters*, never fds that are
/// merely registered: 64 idle connections outliving the shutdown cancel
/// nothing.
#[test]
fn idle_armed_connections_cancel_no_waits() {
    let (rt, reactor) = hide_rt(2);
    let conns = idle_armed(&rt, &reactor, 64);
    assert_eq!(reactor.registered_fds(), 0, "no waiter is filed");
    let report = rt.shutdown();
    assert_eq!(report.canceled_io_waits, 0, "{report:?}");
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
    drop(conns);
}

/// Beside 64 idle registered connections, exactly the N parked readers
/// are canceled by the shutdown drain.
#[test]
fn shutdown_cancels_exactly_the_parked_readers() {
    const PARKED: usize = 5;
    let (rt, reactor) = hide_rt(2);
    let idle = idle_armed(&rt, &reactor, 64);
    let quiet = pairs(&rt, &reactor, PARKED);
    let base = rt.metrics().suspensions;
    let handles: Vec<_> = quiet
        .iter()
        .map(|(_, server)| {
            let wait = server.read_ready();
            rt.spawn(async move { wait.await.is_err() })
        })
        .collect();
    let deadline = Instant::now() + WAIT_LIMIT;
    while rt.metrics().suspensions < base + PARKED as u64 {
        assert!(Instant::now() < deadline, "readers never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(handles);
    let report = rt.shutdown();
    assert_eq!(report.canceled_io_waits, PARKED as u64, "{report:?}");
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
    drop((idle, quiet));
}

/// Thread census: neither the reactor nor the timers add a thread. Run in
/// a child process of this test binary, so that no other test's runtime
/// is counted: `/proc/self/task` lists exactly `workers` `lhws-` threads,
/// every one a worker.
#[test]
fn reactor_runs_on_worker_threads_only() {
    const CHILD: &str = "LHWS_THREAD_CENSUS_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "reactor_runs_on_worker_threads_only"])
            .env(CHILD, "1")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "census child failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
    let (rt, reactor) = hide_rt(2);
    let conns = idle_armed(&rt, &reactor, 2);
    // A resident timer too: it must not need a thread either.
    let sleeper = rt.spawn(lhws_core::simulate_latency(Duration::from_secs(60)));
    /// The names of this process's `lhws-` threads.
    fn lhws_threads() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .filter(|name| name.starts_with("lhws-"))
            .collect()
    }
    let deadline = Instant::now() + WAIT_LIMIT;
    while rt.metrics().suspensions == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // A worker names itself once it runs (std sets the name from inside
    // the new thread), so a census taken too early misses one: wait until
    // every worker carries its name.
    let named = |names: &[String]| {
        names
            .iter()
            .filter(|n| n.starts_with("lhws-worker-"))
            .count()
    };
    let mut names = lhws_threads();
    while named(&names) < rt.workers() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        names = lhws_threads();
    }
    assert_eq!(names.len(), rt.workers(), "lhws- threads: {names:?}");
    assert!(
        names.iter().all(|n| n.starts_with("lhws-worker-")),
        "a thread that is not a worker: {names:?}"
    );
    drop((conns, sleeper));
    rt.shutdown();
}
