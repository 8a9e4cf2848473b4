//! The paper's server (Figure 10) on real sockets: a TCP request/reply
//! server whose network waits are heavy edges through the epoll reactor.
//!
//! ```text
//! cargo run --release --example server -- [--port P] [--workers N]
//!     [--mode hide|block] [--conns C] [--max-live L] [--trace] [--obs]
//! ```
//!
//! The reactor has no thread of its own: an idle worker blocks in its
//! epoll wait and resumes the connections it finds ready. The accept loop
//! drains bursts with `accept_batch`, so one readiness wakeup fans a
//! whole burst of connections out across the worker pool.
//!
//! Protocol (newline-delimited): a client sends `W <n>`; the server
//! computes `fib(n)` with the CPU work split across the pool via `fork2`
//! and replies `R <value>`. Each accepted connection is served by its own
//! spawned task until the peer closes, so the suspension width `U` is the
//! number of connections currently blocked on the kernel — every one of
//! them a live deque the scheduler keeps under Lemma 7's `U + 1` bound.
//!
//! The server admits exactly `--conns` connections, joins every
//! per-connection task, shuts the runtime down, and exits nonzero if
//! anything was left unbalanced (leaked suspensions, canceled I/O waits,
//! or — with `--trace` — an audit violation).
//!
//! **Overload protection** (`--max-live L`, 0 = off): while `L`
//! connections are live, further arrivals are *shed* — answered with one
//! `E overloaded` line and closed, so clients distinguish a saturated
//! server from a dead one — and the accept loop backs off briefly instead
//! of racing back into a saturated accept queue. Shedding keeps the
//! served-request tail bounded: admitted connections compete with at most
//! `L - 1` others rather than with an unbounded backlog. While shedding,
//! the `lhws::obs::Health` handle is degraded, which `--obs` surfaces as
//! `GET /healthz` → `503 {"status":"degraded",..}`.
//!
//! With `--obs` the server also self-hosts the observability endpoint on
//! an ephemeral port (printed as `obs listening on <addr>`): `curl
//! http://<addr>/metrics` scrapes Prometheus text served by a task on
//! the same runtime that is serving the fib traffic.

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lhws::obs::ObsServer;
use lhws::{
    fork2, simulate_latency, spawn, LatencyMode, LineReader, Reactor, Runtime, TcpListener,
    TcpStream,
};

fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

/// `fib(n)` with the top of the recursion forked, so each request's CPU
/// work is stealable parallel work rather than one serial blob.
async fn par_fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = fork2(async move { fib(n - 1) }, async move { fib(n - 2) }).await;
    a + b
}

struct Args {
    port: u16,
    workers: usize,
    mode: LatencyMode,
    conns: usize,
    max_live: usize,
    trace: bool,
    obs: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 0,
        workers: 4,
        mode: LatencyMode::Hide,
        conns: 8,
        max_live: 0,
        trace: false,
        obs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--port" => args.port = val("--port")?.parse().map_err(|e| format!("--port: {e}"))?,
            "--workers" => {
                args.workers = val("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--mode" => {
                args.mode = match val("--mode")?.as_str() {
                    "hide" => LatencyMode::Hide,
                    "block" => LatencyMode::Block,
                    other => return Err(format!("--mode: unknown mode {other:?}")),
                };
            }
            "--conns" => {
                args.conns = val("--conns")?
                    .parse()
                    .map_err(|e| format!("--conns: {e}"))?;
            }
            "--max-live" => {
                args.max_live = val("--max-live")?
                    .parse()
                    .map_err(|e| format!("--max-live: {e}"))?;
            }
            "--trace" => args.trace = true,
            "--obs" => args.obs = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Serves one connection: read `W <n>` lines, reply `R <fib(n)>`, until
/// the peer closes. Returns the number of requests served.
async fn serve_conn(stream: TcpStream) -> std::io::Result<u64> {
    let mut reader = LineReader::new(stream);
    let mut served = 0u64;
    while let Some(line) = reader.read_line().await? {
        let n: u64 = line
            .strip_prefix("W ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad request line {line:?}")))?;
        let v = par_fib(n).await;
        let reply = format!("R {v}\n");
        reader.stream_mut().write_all(reply.as_bytes()).await?;
        served += 1;
    }
    Ok(served)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("server: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut builder = Runtime::builder().workers(args.workers).mode(args.mode);
    if args.trace {
        builder = builder.trace_capacity(1 << 16);
    }
    let rt = match builder.build() {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("server: runtime: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reactor = match Reactor::builder(&rt).build() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("server: reactor: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The blessed audit path: an incremental auditor registered up
    // front. Its unpolled cursor pins ring reclamation, so its one poll
    // after shutdown returns every event of the run — including those
    // the obs endpoint's own stats reader has already read.
    let live_audit = if args.trace {
        Some(rt.observe().audit_incremental().expect("tracing is on"))
    } else {
        None
    };
    let obs = if args.obs {
        match ObsServer::serve(&rt, &reactor, ("127.0.0.1", 0)) {
            Ok(server) => {
                // Scrapers grep for this line to learn the port.
                println!("obs listening on {}", server.local_addr());
                Some(server)
            }
            Err(e) => {
                eprintln!("server: obs endpoint: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    // The health handle feeds `/healthz` when `--obs` is on; without it
    // the same handle still drives the shed accounting.
    let health = obs.as_ref().map(|s| s.health()).unwrap_or_default();
    let conns = args.conns;
    let max_live = args.max_live;
    let accept_health = health.clone();
    let served = rt.block_on(async move {
        let health = accept_health;
        let listener = TcpListener::bind(&reactor, ("127.0.0.1", args.port))?;
        let addr = listener.local_addr()?;
        // The load generator greps for this line to learn the port.
        println!("listening on {addr}");
        let live = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::with_capacity(conns);
        let mut admitted = 0usize;
        while admitted < conns {
            // Multishot accept: one readiness wakeup drains a burst of
            // queued connections, and each spawn below is stealable —
            // the batch fans out across the worker pool immediately.
            let batch = listener.accept_batch((conns - admitted).min(32)).await?;
            for (mut stream, _peer) in batch {
                if max_live != 0 && live.load(Ordering::Acquire) >= max_live {
                    // Shed: one explicit error line, then close — the
                    // client sees overload, not a dead server. The write
                    // is best-effort (the peer may already be gone).
                    health.set_degraded(true);
                    health.record_shed();
                    let _ = stream.write_all(b"E overloaded\n").await;
                    drop(stream);
                    // Backpressure: yield to the pool briefly instead of
                    // racing straight back into a saturated accept
                    // queue, so admitted connections get the cycles.
                    simulate_latency(Duration::from_millis(1)).await;
                    continue;
                }
                health.set_degraded(false);
                admitted += 1;
                live.fetch_add(1, Ordering::AcqRel);
                let live = live.clone();
                handles.push(spawn(async move {
                    let r = serve_conn(stream).await;
                    live.fetch_sub(1, Ordering::AcqRel);
                    r
                }));
            }
        }
        health.set_degraded(false);
        let mut total = 0u64;
        for h in handles {
            total += h.await?;
        }
        std::io::Result::Ok(total)
    });
    let served = match served {
        Ok(n) => n,
        Err(e) => {
            eprintln!("server: {e}");
            return ExitCode::FAILURE;
        }
    };
    if health.shed_count() > 0 {
        // The load generator greps for this line in overload runs.
        println!("shed {} connections at cap {max_live}", health.shed_count());
    }

    if let Some(server) = obs {
        let scrapes = server.stop(&rt);
        println!("obs served {scrapes} connections");
    }
    let report = rt.shutdown();
    println!(
        "served {served} requests over {conns} connections; \
         {} io registrations, {} readiness events",
        report.metrics.io_registrations, report.metrics.io_readiness_events
    );
    let mut ok = true;
    if report.leaked_suspensions != 0 || report.canceled_io_waits != 0 {
        eprintln!(
            "server: unclean shutdown: {} leaked suspensions, {} canceled io waits",
            report.leaked_suspensions, report.canceled_io_waits
        );
        ok = false;
    }
    if let Some(mut la) = live_audit {
        la.poll();
        let audit_report = la.report();
        println!("{audit_report}");
        if !audit_report.passed() {
            eprintln!("server: trace audit failed");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
