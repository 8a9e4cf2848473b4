//! Integration tests: the reactor driving real loopback sockets through
//! the scheduler's suspension machinery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lhws_core::{audit, fork2, FaultPlan, FaultSite, LatencyMode, Runtime};
use lhws_net::{DeadlineExt, Reactor, TcpListener, TcpStream};

fn hide_rt(workers: usize) -> Runtime {
    Runtime::builder()
        .workers(workers)
        .mode(LatencyMode::Hide)
        .build()
        .unwrap()
}

/// One echo round trip per connection, several connections in flight: the
/// readiness waits suspend and resume through the scheduler, the io
/// counters balance, and shutdown is clean.
#[test]
fn loopback_echo_round_trips() {
    let rt = hide_rt(2);
    let reactor = Reactor::builder(&rt).build().unwrap();

    let conns = 8u64;
    let server_reactor = reactor.clone();
    rt.block_on(async move {
        let listener = TcpListener::bind(&server_reactor, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let serve = async {
            for _ in 0..conns {
                let (mut conn, _) = listener.accept().await.unwrap();
                let mut buf = [0u8; 16];
                let n = conn.read(&mut buf).await.unwrap();
                conn.write_all(&buf[..n]).await.unwrap();
            }
        };
        let client_reactor = server_reactor.clone();
        let drive = async move {
            for i in 0..conns {
                let mut s = TcpStream::connect(&client_reactor, addr).unwrap();
                let msg = format!("ping {i}");
                s.write_all(msg.as_bytes()).await.unwrap();
                let mut buf = [0u8; 16];
                let n = s.read(&mut buf).await.unwrap();
                assert_eq!(&buf[..n], msg.as_bytes());
            }
        };
        fork2(serve, drive).await;
    });

    let m = rt.metrics();
    // Every readiness event answers a registration; anything left
    // registered is canceled (none here: all waits resolved).
    assert!(m.io_registrations >= m.io_readiness_events);
    assert!(m.io_readiness_events > 0, "no waits ever hit the kernel");
    assert_eq!(m.io_timeouts, 0);
    let report = rt.shutdown();
    assert_eq!(report.canceled_io_waits, 0);
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// A traced run passes `Trace::audit`, including the Io pairing checks.
#[test]
fn traced_run_audits_clean() {
    let rt = Runtime::builder()
        .workers(2)
        .mode(LatencyMode::Hide)
        .trace_capacity(4096)
        .build()
        .unwrap();
    let reactor = Reactor::builder(&rt).build().unwrap();

    let r2 = reactor.clone();
    rt.block_on(async move {
        let listener = TcpListener::bind(&r2, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serve = async {
            for _ in 0..4 {
                let (mut conn, _) = listener.accept().await.unwrap();
                let mut buf = [0u8; 8];
                let n = conn.read(&mut buf).await.unwrap();
                conn.write_all(&buf[..n]).await.unwrap();
            }
        };
        let r3 = r2.clone();
        let drive = async move {
            for _ in 0..4 {
                let mut s = TcpStream::connect(&r3, addr).unwrap();
                s.write_all(b"x").await.unwrap();
                let mut buf = [0u8; 8];
                s.read(&mut buf).await.unwrap();
            }
        };
        fork2(serve, drive).await;
    });

    let mut reader = rt.observe().trace_reader().expect("tracing enabled");
    let trace = reader.poll_events();
    let stats = trace.stats();
    assert!(stats.io_registrations > 0);
    let report = audit(&trace);
    assert!(report.passed(), "audit failed:\n{report}");
    rt.shutdown();
}

/// `read_ready().with_timeout(..)` on a silent peer times out through the
/// runtime timer, bumps `io_timeouts`, and deregisters the wait.
#[test]
fn read_ready_timeout_fires() {
    let rt = hide_rt(2);
    let reactor = Reactor::builder(&rt).build().unwrap();

    let r2 = reactor.clone();
    rt.block_on(async move {
        let listener = TcpListener::bind(&r2, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Connect but never send: the server-side read can only time out.
        let client = TcpStream::connect(&r2, addr).unwrap();
        let (conn, _) = listener.accept().await.unwrap();
        let err = conn
            .read_ready()
            .with_timeout(Duration::from_millis(20))
            .await
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        drop(client);
    });

    let m = rt.metrics();
    assert_eq!(m.io_timeouts, 1);
    let report = rt.shutdown();
    assert_eq!(report.canceled_io_waits, 0);
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// Readiness beats a generous deadline: the wait resolves `Ok` and no
/// timeout is counted.
#[test]
fn readiness_beats_deadline() {
    let rt = hide_rt(2);
    let reactor = Reactor::builder(&rt).build().unwrap();

    let r2 = reactor.clone();
    rt.block_on(async move {
        let listener = TcpListener::bind(&r2, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(&r2, addr).unwrap();
        let (conn, _) = listener.accept().await.unwrap();
        client.write_all(b"now").await.unwrap();
        conn.read_ready()
            .with_timeout(Duration::from_secs(10))
            .await
            .unwrap();
    });

    let m = rt.metrics();
    assert_eq!(m.io_timeouts, 0);
    assert_eq!(rt.shutdown().leaked_suspensions, 0);
}

/// Dropping a `ReadyFuture` before readiness deregisters the wait; the
/// cancellation resume keeps the suspension/resume ledger balanced.
#[test]
fn dropped_wait_deregisters() {
    let rt = hide_rt(2);
    let reactor = Reactor::builder(&rt).build().unwrap();

    let r2 = reactor.clone();
    rt.block_on(async move {
        let listener = TcpListener::bind(&r2, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(&r2, addr).unwrap();
        let (conn, _) = listener.accept().await.unwrap();
        // Race the never-ready read against an immediate task: fork2 joins
        // both, so poll the ready future via a timeout we never reach.
        let quick = async { 42u64 };
        let slow = async move {
            let err = conn
                .read_ready()
                .with_timeout(Duration::from_millis(10))
                .await
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
            7u64
        };
        let (a, b) = fork2(quick, slow).await;
        assert_eq!(a + b, 49);
        drop(client);
    });

    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// Shutting the runtime down with waits still registered cancels them:
/// the report counts them and nothing leaks or hangs.
#[test]
fn shutdown_cancels_inflight_waits() {
    let rt = hide_rt(2);
    let reactor = Reactor::builder(&rt).build().unwrap();

    let canceled_seen = Arc::new(AtomicU64::new(0));
    let r2 = reactor.clone();
    let seen = canceled_seen.clone();
    // Park two reads that will never become ready, then shut down while
    // they are registered.
    let h = rt.spawn(async move {
        let listener = TcpListener::bind(&r2, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(&r2, addr).unwrap();
        let (conn, _) = listener.accept().await.unwrap();
        let conn2 = conn.try_clone().unwrap();
        let seen2 = seen.clone();
        let wait = async move {
            if conn.read_ready().await.is_err() {
                seen.fetch_add(1, Ordering::SeqCst);
            }
        };
        let wait2 = async move {
            if conn2.write_ready().await.is_ok() {
                // Loopback send buffers are empty: writable immediately.
                seen2.fetch_add(100, Ordering::SeqCst);
            }
        };
        fork2(wait, wait2).await;
    });
    // Give the spawned task time to park its read registration.
    std::thread::sleep(Duration::from_millis(100));
    drop(h);
    let report = rt.shutdown();
    assert_eq!(
        report.canceled_io_waits, 1,
        "exactly the read wait is in flight at shutdown: {report:?}"
    );
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
    assert_eq!(canceled_seen.load(Ordering::SeqCst), 101);
}

/// A runtime has one reactor: building again returns the first (a wait
/// filed through one handle is visible through the other), and the
/// observer reports exactly one I/O counter entry.
#[test]
fn one_reactor_per_runtime() {
    let rt = hide_rt(3);
    let first = Reactor::builder(&rt).build().unwrap();
    let second = Reactor::builder(&rt).build().unwrap();
    assert_eq!(rt.observe().io_shards().unwrap().len(), 1);

    let listener = TcpListener::bind(&first, "127.0.0.1:0").unwrap();
    let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (conn, _) = rt.block_on(async move { listener.accept().await.unwrap() });
    let wait = conn.read_ready();
    assert_eq!(second.registered_fds(), 1, "the second build is the first");
    drop(wait);
    assert_eq!(second.registered_fds(), 0);
    drop(conn);

    let report = rt.shutdown();
    assert_eq!(report.canceled_io_waits, 0);
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// Under `LatencyMode::Block` the reactor opens no epoll and the same
/// application code runs on blocking sockets.
#[test]
fn block_mode_runs_same_code_without_reactor_thread() {
    let rt = Runtime::builder()
        .workers(2)
        .mode(LatencyMode::Block)
        .build()
        .unwrap();
    let reactor = Reactor::builder(&rt).build().unwrap();
    assert!(reactor.is_blocking());
    assert!(
        rt.observe().io_shards().unwrap().is_empty(),
        "Block mode has no readiness queue"
    );

    // The client is a plain OS thread: in blocking mode a worker that
    // parks in the kernel cannot expose its forked children to thieves
    // (they sit in the pending buffer until its poll returns), so an
    // in-runtime client task could deadlock against a blocked accept —
    // exactly the baseline pathology the reactor exists to avoid.
    let r2 = reactor.clone();
    let listener = TcpListener::bind(&r2, "127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        use std::io::{Read, Write};
        s.write_all(b"blk").unwrap();
        let mut buf = [0u8; 8];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"blk");
    });
    rt.block_on(async move {
        let (mut conn, _) = listener.accept().await.unwrap();
        let mut buf = [0u8; 8];
        let n = conn.read(&mut buf).await.unwrap();
        conn.write_all(&buf[..n]).await.unwrap();
    });
    client.join().unwrap();

    let m = rt.metrics();
    assert_eq!(m.io_registrations, 0, "blocking mode never reaches epoll");
    let report = rt.shutdown();
    assert_eq!(report.canceled_io_waits, 0);
    assert_eq!(report.leaked_suspensions, 0);
}

/// `DroppedReadiness` fault injection swallows events; an edge-triggered
/// registration reports a change once, so the reactor's explicit re-arm
/// for the waiter it kept is what recovers every wait: the run completes
/// and audits clean.
#[test]
fn dropped_readiness_recovers_via_rearm() {
    let rt = Runtime::builder()
        .workers(2)
        .mode(LatencyMode::Hide)
        .trace_capacity(8192)
        .fault_plan(FaultPlan::new(0xfeed_beef).with(FaultSite::DroppedReadiness, 400_000))
        .build()
        .unwrap();
    let reactor = Reactor::builder(&rt).build().unwrap();

    let r2 = reactor.clone();
    rt.block_on(async move {
        let listener = TcpListener::bind(&r2, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serve = async {
            for _ in 0..16 {
                let (mut conn, _) = listener.accept().await.unwrap();
                let mut buf = [0u8; 8];
                let n = conn.read(&mut buf).await.unwrap();
                conn.write_all(&buf[..n]).await.unwrap();
            }
        };
        let r3 = r2.clone();
        let drive = async move {
            for _ in 0..16 {
                let mut s = TcpStream::connect(&r3, addr).unwrap();
                s.write_all(b"f").await.unwrap();
                let mut buf = [0u8; 8];
                s.read(&mut buf).await.unwrap();
            }
        };
        fork2(serve, drive).await;
    });

    let trace = rt.observe().trace_reader().unwrap().poll_events();
    let audit_report = audit(&trace);
    assert!(audit_report.passed(), "audit failed:\n{audit_report}");
    let report = rt.shutdown();
    assert!(
        report.faults_injected > 0,
        "rate 40% over dozens of readiness events must fire"
    );
    assert_eq!(report.leaked_suspensions, 0);
}
