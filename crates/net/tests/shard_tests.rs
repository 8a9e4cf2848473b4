//! Sharded-reactor integration tests: routing, cross-shard settlement,
//! fan-out shutdown drain, and readiness surviving worker respawn.

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

/// Total (events, wakeups) per shard right now.
fn shard_snapshot(rt: &Runtime) -> Vec<(u64, u64)> {
    rt.observe()
        .io_shards()
        .unwrap()
        .into_iter()
        .map(|s| (s.events, s.wakeups))
        .collect()
}

/// Binds a listener and accepts loopback pairs until the pairs' fds
/// (client and server sides together) land on every shard. Returns the
/// listener and the `(client, server)` pairs.
///
/// Both sides count because loopback fd allocation is patterned: each
/// pair takes two consecutive fds, so the client fds alone share parity
/// and can never cover 4 shards.
fn streams_covering_all_shards(
    rt: &Runtime,
    reactor: &Reactor,
) -> (TcpListener, Vec<(TcpStream, TcpStream)>) {
    let reactor = reactor.clone();
    rt.block_on(async move {
        let listener = TcpListener::bind(&reactor, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shards = reactor.shard_count();
        let mut covered = vec![false; shards];
        let mut pairs = Vec::new();
        let mut attempts = 0usize;
        while covered.iter().any(|c| !c) {
            attempts += 1;
            assert!(
                attempts <= 64 * shards,
                "could not cover {shards} shards with fresh fds"
            );
            let client = TcpStream::connect(&reactor, addr).unwrap();
            let (server, _) = listener.accept().await.unwrap();
            covered[reactor.shard_of(client.as_raw_fd())] = true;
            covered[reactor.shard_of(server.as_raw_fd())] = true;
            pairs.push((client, server));
        }
        (listener, pairs)
    })
}

/// The routing property: a readiness wait on `fd` fires on exactly shard
/// `fd % shards` — that shard's event counter moves, no other shard's
/// does.
#[test]
fn readiness_fires_on_exactly_the_home_shard() {
    let rt = hide_rt(2);
    let reactor = Reactor::builder(&rt).shards(4).build().unwrap();
    assert_eq!(reactor.shard_count(), 4);
    assert_eq!(shard_snapshot(&rt).len(), 4);

    let (listener, pairs) = streams_covering_all_shards(&rt, &reactor);
    for stream in pairs.iter().flat_map(|(c, s)| [c, s]) {
        let fd = stream.as_raw_fd();
        let home = reactor.shard_of(fd);
        assert_eq!(home, (fd as usize) % 4);
        let before = shard_snapshot(&rt);
        // A fresh loopback socket is writable immediately: one arm, one
        // kernel event, one completion — all on the home shard. The
        // future registers at creation, so the event is counted before
        // the await resolves.
        let ready = stream.write_ready();
        rt.block_on(async move { ready.await.unwrap() });
        let after = shard_snapshot(&rt);
        for shard in 0..4 {
            if shard == home {
                assert!(
                    after[shard].0 > before[shard].0,
                    "fd {fd}: home shard {home} saw no event: {before:?} -> {after:?}"
                );
            } else {
                assert_eq!(
                    after[shard].0, before[shard].0,
                    "fd {fd}: shard {shard} moved but {home} is home: {before:?} -> {after:?}"
                );
            }
        }
    }
    drop(pairs);
    drop(listener);
    let report = rt.shutdown();
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// Cross-shard waits with deadlines settle exactly once each: a timeout
/// on one shard and a readiness completion on another neither leak nor
/// double-settle, and exactly one `io_timeout` is counted.
#[test]
fn cross_shard_deadline_and_readiness_settle_once() {
    let rt = hide_rt(2);
    let reactor = Reactor::builder(&rt).shards(2).build().unwrap();

    let r2 = reactor.clone();
    rt.block_on(async move {
        let listener = TcpListener::bind(&r2, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Two pairs; with two shards consecutive accepted fds land on
        // different shards often enough that running both legs always
        // exercises the cross-shard path (and is correct regardless).
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

/// Shutdown with in-flight waiters parked on every shard drains them
/// all: the fan-out sums each shard's cancels into
/// `canceled_io_waits` and nothing leaks or hangs.
#[test]
fn shutdown_drains_inflight_waiters_on_every_shard() {
    const SHARDS: usize = 3;
    let rt = hide_rt(2);
    let reactor = Reactor::builder(&rt).shards(SHARDS).build().unwrap();

    let (listener, pairs) = streams_covering_all_shards(&rt, &reactor);

    // Park one never-ready read per stream side (nobody writes), spread
    // across all shards, then shut down underneath them. The streams
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
        "every shard's parked wait must be drained: {report:?}"
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
    let reactor = Reactor::builder(&rt).shards(2).build().unwrap();

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

/// `DroppedReadiness` under an edge-triggered reactor: the shard's
/// explicit `modify` re-arm recovers the swallowed transition (level
/// triggering would recover for free; EPOLLET must not regress the
/// fault's losslessness).
#[test]
fn dropped_readiness_recovers_under_edge_trigger() {
    let rt = Runtime::builder()
        .workers(2)
        .mode(LatencyMode::Hide)
        .fault_plan(FaultPlan::new(0xeded_0001).dropped_readiness(400_000))
        .build()
        .unwrap();
    let reactor = Reactor::builder(&rt)
        .shards(2)
        .edge_triggered(true)
        .build()
        .unwrap();
    assert!(reactor.is_edge_triggered());

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
                s.write_all(b"e").await.unwrap();
                let mut buf = [0u8; 8];
                s.read(&mut buf).await.unwrap();
            }
        };
        fork2(serve, drive).await;
    });

    let report = rt.shutdown();
    assert!(
        report.faults_injected > 0,
        "rate 40% over dozens of readiness events must fire"
    );
    assert_eq!(report.leaked_suspensions, 0, "unclean: {report:?}");
}

/// `accept_batch` drains a backed-up accept queue without losing or
/// duplicating connections, and a zero `max` is clamped to one.
#[test]
fn accept_batch_drains_queue() {
    const CONNS: usize = 12;
    let rt = hide_rt(2);
    let reactor = Reactor::builder(&rt).shards(2).build().unwrap();

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
