//! Reactor integration tests carried over from the sharded reactor: the
//! one I/O counter entry, deadline-vs-readiness settlement, the shutdown
//! drain, readiness surviving worker respawn, and batched accept.

use std::time::{Duration, Instant};

use lhws_core::{fork2, FaultPlan, LatencyMode, Runtime};
use lhws_net::{DeadlineExt, Reactor, TcpListener, TcpStream};

fn hide_rt(workers: usize) -> Runtime {
    Runtime::builder()
        .workers(workers)
        .mode(LatencyMode::Hide)
        .build()
        .unwrap()
}

/// Total (events, wakeups) per I/O counter entry right now.
fn shard_snapshot(rt: &Runtime) -> Vec<(u64, u64)> {
    rt.observe()
        .io_shards()
        .unwrap()
        .into_iter()
        .map(|s| (s.events, s.wakeups))
        .collect()
}

/// Binds a listener and accepts `n` loopback `(client, server)` pairs.
fn loopback_pairs(
    rt: &Runtime,
    reactor: &Reactor,
    n: usize,
) -> (TcpListener, Vec<(TcpStream, TcpStream)>) {
    let reactor = reactor.clone();
    rt.block_on(async move {
        let listener = TcpListener::bind(&reactor, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut pairs = Vec::new();
        for _ in 0..n {
            let client = TcpStream::connect(&reactor, addr).unwrap();
            let (server, _) = listener.accept().await.unwrap();
            pairs.push((client, server));
        }
        (listener, pairs)
    })
}

/// Every readiness wait lands on the reactor's one readiness queue: its
/// event counter moves by at least one per completed wait, and the
/// observer never reports a second entry.
#[test]
fn readiness_is_counted_on_the_one_queue() {
    let rt = hide_rt(2);
    let reactor = Reactor::builder(&rt).build().unwrap();
    assert_eq!(shard_snapshot(&rt).len(), 1);

    let (listener, pairs) = loopback_pairs(&rt, &reactor, 4);
    for stream in pairs.iter().flat_map(|(c, s)| [c, s]) {
        let before = shard_snapshot(&rt);
        // A fresh loopback socket is writable: the wait finds the cached
        // bit set, re-arms, and the kernel reports once — one event, one
        // completion. The future files its waiter at creation, and the
        // harvesting worker counts the event before it fires.
        let ready = stream.write_ready();
        rt.block_on(async move { ready.await.unwrap() });
        let after = shard_snapshot(&rt);
        assert_eq!(after.len(), 1);
        assert!(
            after[0].0 > before[0].0,
            "no event: {before:?} -> {after:?}"
        );
        assert!(
            after[0].1 > before[0].1,
            "no wakeup: {before:?} -> {after:?}"
        );
    }
    drop(pairs);
    drop(listener);
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// Deadline-bounded waits on two connections settle exactly once each: a
/// timeout on one and a readiness completion on the other neither leak
/// nor double-settle, and exactly one `io_timeout` is counted. (The name
/// is the sharded reactor's, where the two fds sat on different shards.)
#[test]
fn cross_shard_deadline_and_readiness_settle_once() {
    let rt = hide_rt(2);
    let reactor = Reactor::builder(&rt).build().unwrap();

    let r2 = reactor.clone();
    rt.block_on(async move {
        let listener = TcpListener::bind(&r2, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client_a = TcpStream::connect(&r2, addr).unwrap();
        let (server_a, _) = listener.accept().await.unwrap();
        let mut client_b = TcpStream::connect(&r2, addr).unwrap();
        let (server_b, _) = listener.accept().await.unwrap();

        // Leg 1: silent peer — the read deadline must win.
        let quiet = async move {
            let err = server_a
                .read_ready()
                .with_timeout(Duration::from_millis(20))
                .await
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        };
        // Leg 2: data in flight — readiness must beat a generous deadline.
        let chatty = async move {
            client_b.write_all(b"hi").await.unwrap();
            server_b
                .read_ready()
                .with_timeout(Duration::from_secs(10))
                .await
                .unwrap();
        };
        fork2(quiet, chatty).await;
        drop(client_a);
    });

    let m = rt.metrics();
    assert_eq!(m.io_timeouts, 1);
    let report = rt.shutdown();
    assert_eq!(report.canceled_io_waits, 0);
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// Shutdown with in-flight waiters parked on many fds drains them all
/// into `canceled_io_waits`, and nothing leaks or hangs.
#[test]
fn shutdown_drains_inflight_waiters_on_every_shard() {
    let rt = hide_rt(2);
    let reactor = Reactor::builder(&rt).build().unwrap();

    let (listener, pairs) = loopback_pairs(&rt, &reactor, 3);

    // Park one never-ready read per stream side (nobody writes), then
    // shut down underneath them. The streams
    // stay owned here — outliving the shutdown — so no fd is closed
    // mid-drain and no wait can complete via EOF instead of cancel.
    let futures: Vec<_> = pairs
        .iter()
        .flat_map(|(c, s)| [c.read_ready(), s.read_ready()])
        .collect();
    let parked = futures.len() as u64;
    // Registration is eager (at future creation), not first-poll.
    assert_eq!(reactor.registered_fds() as u64, parked);
    let base_suspensions = rt.metrics().suspensions;
    let handles: Vec<_> = futures
        .into_iter()
        .map(|fut| rt.spawn(async move { fut.await.is_err() }))
        .collect();

    // Wait until the tasks have actually suspended against their waits.
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.metrics().suspensions < base_suspensions + parked {
        assert!(Instant::now() < deadline, "waits never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(handles);
    let report = rt.shutdown();
    assert_eq!(
        report.canceled_io_waits, parked,
        "every parked wait must be drained: {report:?}"
    );
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
    drop(pairs);
    drop(listener);
}

/// A worker dying (and respawning) while tasks hold `ReadyFuture`s must
/// not lose the waits: readiness arriving after the respawn still
/// resumes the (rescued) tasks and the workload completes.
#[test]
fn readiness_survives_worker_respawn_under_load() {
    const CONNS: u64 = 32;
    let rt = Runtime::builder()
        .workers(2)
        .worker_respawn_budget(4)
        .fault_plan(FaultPlan::new(0xdead_10ad).worker_panic_after(60))
        .build()
        .unwrap();
    let reactor = Reactor::builder(&rt).build().unwrap();

    let r2 = reactor.clone();
    let echoed = rt.block_on(async move {
        let listener = TcpListener::bind(&r2, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serve = async {
            for _ in 0..CONNS {
                let (mut conn, _) = listener.accept().await.unwrap();
                // Detach (dropping a JoinHandle detaches, not cancels):
                // drive's echo round trip is the join point.
                drop(lhws_core::spawn(async move {
                    let mut buf = [0u8; 16];
                    // This read's ReadyFuture is what a dying worker may
                    // be holding suspended when its panic fires.
                    let n = conn.read(&mut buf).await.unwrap();
                    conn.write_all(&buf[..n]).await.unwrap();
                }));
            }
        };
        let r3 = r2.clone();
        let drive = async move {
            let mut ok = 0u64;
            for i in 0..CONNS {
                let mut s = TcpStream::connect(&r3, addr).unwrap();
                let msg = format!("r{i}");
                s.write_all(msg.as_bytes()).await.unwrap();
                let mut buf = [0u8; 16];
                let n = s.read(&mut buf).await.unwrap();
                assert_eq!(&buf[..n], msg.as_bytes());
                ok += 1;
            }
            ok
        };
        let ((), ok) = fork2(serve, drive).await;
        ok
    });
    assert_eq!(echoed, CONNS, "a connection was lost across the respawn");

    let report = rt.shutdown();
    assert!(
        report.poisoned_worker.is_none(),
        "respawn budget not honored: {report:?}"
    );
    assert!(
        report.metrics.workers_restarted >= 1,
        "no worker ever died; the soak tested nothing: {report:?}"
    );
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// `accept_batch` drains a backed-up accept queue without losing or
/// duplicating connections, and a zero `max` is clamped to one.
#[test]
fn accept_batch_drains_queue() {
    const CONNS: usize = 12;
    let rt = hide_rt(2);
    let reactor = Reactor::builder(&rt).build().unwrap();

    let r2 = reactor.clone();
    rt.block_on(async move {
        let listener = TcpListener::bind(&r2, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Queue the connections up *before* accepting (they complete
        // against the listen backlog), so at least one readiness event
        // stands for several of them.
        let clients: Vec<_> = (0..CONNS)
            .map(|_| TcpStream::connect(&r2, addr).unwrap())
            .collect();
        let mut accepted = 0usize;
        while accepted < CONNS {
            let batch = listener.accept_batch(4).await.unwrap();
            assert!(!batch.is_empty(), "accept_batch returned an empty batch");
            assert!(batch.len() <= 4, "batch exceeded max");
            accepted += batch.len();
        }
        assert_eq!(accepted, CONNS);
        // max = 0 clamps to a single accept.
        let _late = TcpStream::connect(&r2, addr).unwrap();
        assert_eq!(listener.accept_batch(0).await.unwrap().len(), 1);
        drop(clients);
    });
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}
