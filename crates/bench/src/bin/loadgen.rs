//! Closed-loop TCP load generator for the reactor-backed server.
//!
//! ```text
//! # Self-hosted compare: in-process server per mode, loopback sockets.
//! cargo run -p lhws-bench --release --bin loadgen -- \
//!     [--conns C] [--requests R] [--think-us T] [--fib N] \
//!     [--server-workers P] [--client-workers P] [--quick] [--out FILE]
//!
//! # External server (CI smoke): drive an already-running server.
//! cargo run -p lhws-bench --release --bin loadgen -- \
//!     --addr 127.0.0.1:7911 [--quick] ...
//!
//! # Scrape validation: check a live observability endpoint.
//! cargo run -p lhws-bench --release --bin loadgen -- \
//!     --scrape 127.0.0.1:9631
//!
//! # Overload protection: shedding server vs unbounded baseline.
//! cargo run -p lhws-bench --release --bin loadgen -- \
//!     --overload [--cap L] [--conns C] [--requests R] [--quick]
//!
//! # Reactor shard scale-out: Hide-mode matrix over reactor_shards {1,2,4}.
//! cargo run -p lhws-bench --release --bin loadgen -- \
//!     --c1m [--quick] [--conns C] [--requests R] [--out FILE]
//! ```
//!
//! Each connection runs a closed loop: send `W <n>`, await `R <v>`,
//! think, repeat, drawing from a shared request budget until it is
//! exhausted. Per-request latencies are recorded exactly (sorted vector,
//! no histogram buckets) and reported as p50/p99/p999.
//!
//! In compare mode the server runtime is started once per
//! [`LatencyMode`]: `Hide` hosts every connection's kernel wait as a
//! suspended deque through the epoll reactor, while `Block` parks a
//! worker per outstanding read — with `C ≫ P` only `P` connections make
//! progress at a time, which is the measurable cost of blocking the
//! paper quantifies. Results land in `BENCH_net.json`.
//!
//! Overload mode (`--overload`) measures the server's overload
//! *protection* instead of its scheduler: `C` connections arrive at once
//! with zero think time, far more than the work budget supports. The
//! baseline server admits all of them — every request competes with
//! `C - 1` others, so the served tail latency scales with `C`. The
//! protected server caps live connections at `L`, shedding the rest with
//! one explicit `E overloaded` line: served requests compete with at most
//! `L - 1` others and the tail stays bounded. Admission is announced with
//! one `A` line so shed clients never write into a reset socket. Results
//! land in `BENCH_degrade.json`; the run fails if nothing was shed or the
//! protected tail is not bounded by the baseline's.
//!
//! C1M mode (`--c1m`) sweeps the server's `reactor_shards` knob over
//! `{1, 2, 4}` under Hide mode and records throughput plus p50/p99/p999
//! per shard count in `BENCH_c1m.json`. Quick mode keeps both sides
//! in-process at `C = 1024`; full mode targets ≥ 16k concurrent
//! connections, which only fits the process fd limit by self-spawning
//! the server as a child process (`--c1m-server`) so each side owns its
//! own fd table. The gate: sharding must never cost throughput
//! (shards=4 ≥ shards=1 at C=1024), and on a multicore host the full
//! matrix must show real scale-out (≥ 1.3×); a single-core host can
//! only show parity, so the bar there is "within noise of shards=1" and
//! the JSON records which gate was applied.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhws::{
    fork2, join_all, simulate_latency, spawn, LatencyMode, LineReader, Reactor, Runtime,
    TcpListener, TcpStream,
};
use lhws_bench::Args;

fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

#[derive(Debug, Clone, Copy)]
struct Params {
    conns: usize,
    requests: u64,
    think: Duration,
    fib_n: u64,
    server_workers: usize,
    client_workers: usize,
    /// Server-side `reactor_shards` (1 = the byte-compatible single
    /// shard; the `--c1m` matrix sweeps this).
    server_shards: usize,
}

// ---------------------------------------------------------------------
// Server side (compare mode): the example server's loop, in-process.
// ---------------------------------------------------------------------

async fn serve_conn(stream: TcpStream) -> std::io::Result<u64> {
    let mut reader = LineReader::new(stream);
    let mut served = 0u64;
    while let Some(line) = reader.read_line().await? {
        let n: u64 = line
            .strip_prefix("W ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad request line {line:?}")))?;
        let v = if n < 2 {
            n
        } else {
            let (a, b) = fork2(async move { fib(n - 1) }, async move { fib(n - 2) }).await;
            a + b
        };
        reader
            .stream_mut()
            .write_all(format!("R {v}\n").as_bytes())
            .await?;
        served += 1;
    }
    Ok(served)
}

/// Starts an in-process server for `conns` connections on an OS-assigned
/// port. The accept loop runs to completion on a dedicated thread whose
/// join hands the runtime back for shutdown once the clients are done.
fn start_server(
    mode: LatencyMode,
    p: Params,
) -> (
    std::thread::JoinHandle<(Runtime, u64)>,
    std::net::SocketAddr,
) {
    let rt = Runtime::builder()
        .workers(p.server_workers)
        .mode(mode)
        .build()
        .unwrap();
    let reactor = Reactor::builder(&rt)
        .shards(p.server_shards)
        .build()
        .unwrap();
    let listener = TcpListener::bind(&reactor, "127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let conns = p.conns;
    let joiner = std::thread::spawn(move || {
        let total = rt.block_on(async move {
            let mut handles = Vec::with_capacity(conns);
            while handles.len() < conns {
                // Multishot accept: one wakeup drains a burst, and each
                // accepted fd lands on shard `fd % shards`.
                let batch = listener
                    .accept_batch((conns - handles.len()).min(64))
                    .await
                    .unwrap();
                for (stream, _peer) in batch {
                    handles.push(spawn(serve_conn(stream)));
                }
            }
            let mut total = 0u64;
            for h in handles {
                total += h.await.unwrap();
            }
            total
        });
        (rt, total)
    });
    (joiner, addr)
}

/// The overload rig's server: accepts exactly `p.conns` connections and
/// answers each with an admission line — `A` (admitted, then the normal
/// `W`/`R` loop) or `E overloaded` (shed and closed). `cap == 0` never
/// sheds: that is the unbounded baseline. Returns the runtime, requests
/// served, and connections shed.
fn start_capped_server(
    p: Params,
    cap: usize,
) -> (
    std::thread::JoinHandle<(Runtime, u64, u64)>,
    std::net::SocketAddr,
) {
    let rt = Runtime::builder()
        .workers(p.server_workers)
        .mode(LatencyMode::Hide)
        .build()
        .unwrap();
    let reactor = Reactor::builder(&rt).build().unwrap();
    let listener = TcpListener::bind(&reactor, "127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let conns = p.conns;
    let joiner = std::thread::spawn(move || {
        let (total, shed) = rt.block_on(async move {
            let live = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            let mut shed = 0u64;
            for _ in 0..conns {
                let (mut stream, _peer) = listener.accept().await.unwrap();
                if cap != 0 && live.load(Ordering::Acquire) >= cap {
                    shed += 1;
                    // Best-effort: the client learns it was shed, not
                    // merely dropped. Then close.
                    let _ = stream.write_all(b"E overloaded\n").await;
                    continue;
                }
                live.fetch_add(1, Ordering::AcqRel);
                let live = live.clone();
                handles.push(spawn(async move {
                    stream.write_all(b"A\n").await?;
                    let r = serve_conn(stream).await;
                    live.fetch_sub(1, Ordering::AcqRel);
                    r
                }));
            }
            let mut total = 0u64;
            for h in handles {
                total += h.await.unwrap();
            }
            (total, shed)
        });
        (rt, total, shed)
    });
    (joiner, addr)
}

// ---------------------------------------------------------------------
// Client side.
// ---------------------------------------------------------------------

/// Connects with bounded retries on transient local-port pressure
/// (`EADDRNOTAVAIL`): back-to-back c1m-scale runs can briefly exhaust
/// the ephemeral port range with `TIME_WAIT` sockets from the previous
/// shard count's matrix entry.
async fn connect_retry(
    reactor: &Reactor,
    addr: std::net::SocketAddr,
) -> std::io::Result<TcpStream> {
    let mut tries = 0u32;
    loop {
        match TcpStream::connect(reactor, addr) {
            Err(e) if e.kind() == std::io::ErrorKind::AddrNotAvailable && tries < 40 => {
                tries += 1;
                simulate_latency(Duration::from_millis(250)).await;
            }
            other => return other,
        }
    }
}

/// One connection's closed loop. Returns per-request latencies in nanos.
async fn drive_conn(
    reactor: Reactor,
    addr: std::net::SocketAddr,
    budget: Arc<AtomicU64>,
    think: Duration,
    fib_n: u64,
) -> std::io::Result<Vec<u64>> {
    let stream = connect_retry(&reactor, addr).await?;
    let mut reader = LineReader::new(stream);
    let mut latencies = Vec::new();
    let want = format!("R {}", fib(fib_n));
    while budget
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| c.checked_sub(1))
        .is_ok()
    {
        let t0 = Instant::now();
        reader
            .stream_mut()
            .write_all(format!("W {fib_n}\n").as_bytes())
            .await?;
        let reply = reader
            .read_line()
            .await?
            .ok_or_else(|| std::io::Error::other("server closed mid-run"))?;
        latencies.push(t0.elapsed().as_nanos() as u64);
        if reply != want {
            return Err(std::io::Error::other(format!(
                "bad reply: got {reply:?}, want {want:?}"
            )));
        }
        if !think.is_zero() {
            simulate_latency(think).await;
        }
    }
    Ok(latencies)
}

/// One connection against the overload rig: read the admission line,
/// then either run the closed loop (`Some(latencies)`) or report having
/// been shed (`None`).
async fn drive_admit_conn(
    reactor: Reactor,
    addr: std::net::SocketAddr,
    budget: Arc<AtomicU64>,
    fib_n: u64,
) -> std::io::Result<Option<Vec<u64>>> {
    let stream = TcpStream::connect(&reactor, addr)?;
    let mut reader = LineReader::new(stream);
    let admit = reader
        .read_line()
        .await?
        .ok_or_else(|| std::io::Error::other("server closed before admission line"))?;
    if admit != "A" {
        return Ok(None); // shed — the budget was never touched
    }
    let mut latencies = Vec::new();
    let want = format!("R {}", fib(fib_n));
    while budget
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| c.checked_sub(1))
        .is_ok()
    {
        let t0 = Instant::now();
        reader
            .stream_mut()
            .write_all(format!("W {fib_n}\n").as_bytes())
            .await?;
        let reply = reader
            .read_line()
            .await?
            .ok_or_else(|| std::io::Error::other("server closed mid-run"))?;
        latencies.push(t0.elapsed().as_nanos() as u64);
        if reply != want {
            return Err(std::io::Error::other(format!(
                "bad reply: got {reply:?}, want {want:?}"
            )));
        }
    }
    Ok(Some(latencies))
}

/// Drives the overload rig: all `p.conns` connections arrive at once,
/// zero think time. Returns the usual stats over *served* requests plus
/// how many connections the client saw shed.
fn drive_admit(addr: std::net::SocketAddr, p: Params) -> (RunStats, u64) {
    let rt = Runtime::builder()
        .workers(p.client_workers)
        .mode(LatencyMode::Hide)
        .build()
        .unwrap();
    let reactor = Reactor::builder(&rt).build().unwrap();
    let budget = Arc::new(AtomicU64::new(p.requests));
    let fib_n = p.fib_n;
    let conns = p.conns;
    let start = Instant::now();
    let results = rt.block_on(async move {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let reactor = reactor.clone();
                let budget = budget.clone();
                spawn(drive_admit_conn(reactor, addr, budget, fib_n))
            })
            .collect();
        join_all(handles).await
    });
    let elapsed = start.elapsed();
    rt.shutdown();

    let mut latencies: Vec<u64> = Vec::new();
    let mut errors = 0u64;
    let mut shed = 0u64;
    for r in results {
        match r {
            Ok(Some(mut v)) => latencies.append(&mut v),
            Ok(None) => shed += 1,
            Err(e) => {
                eprintln!("loadgen: connection failed: {e}");
                errors += 1;
            }
        }
    }
    latencies.sort_unstable();
    let completed = latencies.len() as u64;
    let stats = RunStats {
        throughput_rps: completed as f64 / elapsed.as_secs_f64(),
        elapsed,
        completed,
        errors,
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        p999_us: percentile_us(&latencies, 0.999),
    };
    (stats, shed)
}

struct RunStats {
    throughput_rps: f64,
    elapsed: Duration,
    completed: u64,
    errors: u64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx] as f64 / 1_000.0
}

/// Drives `p.conns` closed-loop connections at `addr` from a fresh
/// latency-hiding client runtime and aggregates exact latency stats.
fn drive(addr: std::net::SocketAddr, p: Params) -> RunStats {
    let rt = Runtime::builder()
        .workers(p.client_workers)
        .mode(LatencyMode::Hide)
        .build()
        .unwrap();
    let reactor = Reactor::builder(&rt).build().unwrap();
    let budget = Arc::new(AtomicU64::new(p.requests));
    let think = p.think;
    let fib_n = p.fib_n;
    let conns = p.conns;
    let start = Instant::now();
    let results = rt.block_on(async move {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let reactor = reactor.clone();
                let budget = budget.clone();
                spawn(drive_conn(reactor, addr, budget, think, fib_n))
            })
            .collect();
        join_all(handles).await
    });
    let elapsed = start.elapsed();
    rt.shutdown();

    let mut latencies: Vec<u64> = Vec::new();
    let mut errors = 0u64;
    for r in results {
        match r {
            Ok(mut v) => latencies.append(&mut v),
            Err(e) => {
                eprintln!("loadgen: connection failed: {e}");
                errors += 1;
            }
        }
    }
    latencies.sort_unstable();
    let completed = latencies.len() as u64;
    RunStats {
        throughput_rps: completed as f64 / elapsed.as_secs_f64(),
        elapsed,
        completed,
        errors,
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        p999_us: percentile_us(&latencies, 0.999),
    }
}

fn print_stats(label: &str, s: &RunStats) {
    println!(
        "{label}: {} requests in {:.2?} = {:.0} req/s | p50 {:.0}us p99 {:.0}us p999 {:.0}us | {} conn errors",
        s.completed, s.elapsed, s.throughput_rps, s.p50_us, s.p99_us, s.p999_us, s.errors
    );
}

fn json_run(s: &RunStats) -> String {
    format!(
        "{{\"throughput_rps\": {:.1}, \"elapsed_ns\": {}, \"completed\": {}, \"errors\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}}}",
        s.throughput_rps,
        s.elapsed.as_nanos(),
        s.completed,
        s.errors,
        s.p50_us,
        s.p99_us,
        s.p999_us
    )
}

// ---------------------------------------------------------------------
// C1M mode: the reactor shard scale-out matrix.
// ---------------------------------------------------------------------

/// The `--c1m-server` child process of full-mode `--c1m`: a standalone
/// sharded Hide-mode server for exactly `p.conns` connections. Prints
/// `listening on <addr>` for the parent to grep, serves every
/// connection to completion, and exits nonzero on an unclean shutdown.
fn run_c1m_server(p: Params) -> ExitCode {
    let rt = Runtime::builder()
        .workers(p.server_workers)
        .mode(LatencyMode::Hide)
        .build()
        .unwrap();
    let reactor = Reactor::builder(&rt)
        .shards(p.server_shards)
        .build()
        .unwrap();
    let listener = TcpListener::bind(&reactor, "127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // The parent greps for this line to learn the port. Stdout is a
    // pipe; Rust's stdout is line-buffered, so the newline flushes it.
    println!("listening on {addr}");
    let conns = p.conns;
    let total = rt.block_on(async move {
        let mut handles = Vec::with_capacity(conns);
        while handles.len() < conns {
            let batch = listener
                .accept_batch((conns - handles.len()).min(64))
                .await
                .unwrap();
            for (stream, _peer) in batch {
                handles.push(spawn(serve_conn(stream)));
            }
        }
        let mut total = 0u64;
        for h in handles {
            total += h.await.unwrap();
        }
        total
    });
    let report = rt.shutdown();
    println!("served {total} requests");
    if report.leaked_suspensions != 0 || report.canceled_io_waits != 0 {
        eprintln!(
            "c1m server: unclean shutdown: {} leaked suspensions, {} canceled io waits",
            report.leaked_suspensions, report.canceled_io_waits
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Full-mode c1m run: self-spawn the server as a child process so the
/// parent's fd table holds only the client sockets — ≥ 16k concurrent
/// connections per side does not fit a single 20k-fd process.
fn drive_child_server(p: Params) -> Result<RunStats, String> {
    use std::io::BufRead;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = std::process::Command::new(exe)
        .args([
            "--c1m-server".to_string(),
            "--server-shards".to_string(),
            p.server_shards.to_string(),
            "--conns".to_string(),
            p.conns.to_string(),
            "--server-workers".to_string(),
            p.server_workers.to_string(),
            "--fib".to_string(),
            p.fib_n.to_string(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning server child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(rest) = line.strip_prefix("listening on ") {
                    break rest
                        .parse::<std::net::SocketAddr>()
                        .map_err(|e| format!("bad server address {rest:?}: {e}"))?;
                }
            }
            Some(Err(e)) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("reading server child stdout: {e}"));
            }
            None => {
                let _ = child.wait();
                return Err("server child exited before listening".into());
            }
        }
    };
    let stats = drive(addr, p);
    // Drain the rest of the child's output, then require a clean exit —
    // the child checks its own shutdown report.
    for line in lines.map_while(Result::ok) {
        println!("  server: {line}");
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for server child: {e}"))?;
    if !status.success() {
        return Err(format!("server child exited with {status}"));
    }
    Ok(stats)
}

/// The shard scale-out matrix: Hide-mode throughput and tail latency
/// with the server's reactor spread over 1, 2, and 4 epoll shards.
fn c1m(args: &Args, p: Params, quick: bool) -> ExitCode {
    const SHARD_MATRIX: [usize; 3] = [1, 2, 4];
    // Quick runs are short enough (~300ms) that a single trial's
    // throughput is mostly scheduling jitter; take the best of a few.
    let trials: usize = args.get("trials", if quick { 3 } else { 1 });
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "c1m: conns={} requests={} think={:?} fib={} server P={} client P={} host parallelism={parallelism} ({})",
        p.conns,
        p.requests,
        p.think,
        p.fib_n,
        p.server_workers,
        p.client_workers,
        if quick {
            "quick: in-process"
        } else {
            "full: two-process"
        }
    );
    let mut failed = false;
    let mut runs: Vec<(usize, RunStats)> = Vec::new();
    for shards in SHARD_MATRIX {
        let p = Params {
            server_shards: shards,
            ..p
        };
        let mut best: Option<RunStats> = None;
        for _ in 0..trials.max(1) {
            let s = if quick {
                let (server_join, addr) = start_server(LatencyMode::Hide, p);
                let s = drive(addr, p);
                let (server_rt, served) = server_join.join().expect("server thread panicked");
                let report = server_rt.shutdown();
                if served != s.completed {
                    eprintln!(
                        "loadgen: shards={shards}: client {} vs server {served} requests",
                        s.completed
                    );
                    failed = true;
                }
                if report.leaked_suspensions != 0 || report.canceled_io_waits != 0 {
                    eprintln!(
                        "loadgen: shards={shards} server shutdown unclean: {} leaked, {} canceled io waits",
                        report.leaked_suspensions, report.canceled_io_waits
                    );
                    failed = true;
                }
                s
            } else {
                match drive_child_server(p) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("loadgen: shards={shards}: {e}");
                        failed = true;
                        continue;
                    }
                }
            };
            if s.errors > 0 || s.completed < p.requests {
                eprintln!(
                    "loadgen: shards={shards} run FAILED ({} errors, {}/{} completed)",
                    s.errors, s.completed, p.requests
                );
                failed = true;
            }
            if best
                .as_ref()
                .map(|b| s.throughput_rps > b.throughput_rps)
                .unwrap_or(true)
            {
                best = Some(s);
            }
        }
        let Some(s) = best else { continue };
        print_stats(&format!("shards={shards}"), &s);
        runs.push((shards, s));
    }

    let mut ratio = 0.0;
    let mut gate = "incomplete".to_string();
    if runs.len() == SHARD_MATRIX.len() {
        let s1 = &runs[0].1;
        let s4 = &runs[runs.len() - 1].1;
        ratio = s4.throughput_rps / s1.throughput_rps.max(1e-9);
        println!("shards=4 over shards=1 throughput: {ratio:.2}x");
        // Sharding the reactor must never cost throughput; on a
        // multicore host the full matrix must show real scale-out. A
        // single-core host can only show parity, so the bar there is
        // "within noise of shards=1".
        let floor = if parallelism >= 4 {
            if quick {
                1.0
            } else {
                1.3
            }
        } else {
            0.85
        };
        gate = format!("shards4/shards1 >= {floor:.2} (host parallelism {parallelism})");
        if ratio < floor {
            eprintln!(
                "loadgen: c1m gate FAILED: shards=4 at {ratio:.2}x of shards=1, floor {floor:.2}x"
            );
            failed = true;
        }
    } else {
        failed = true;
    }

    let out = args.value("out").unwrap_or("BENCH_c1m.json").to_string();
    let runs_json: Vec<String> = runs
        .iter()
        .map(|(shards, s)| format!("    {{\"shards\": {shards}, \"stats\": {}}}", json_run(s)))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"net_c1m\",\n  \"config\": {{\"conns\": {}, \"requests\": {}, \"think_us\": {}, \"fib\": {}, \"server_workers\": {}, \"client_workers\": {}, \"mode\": \"{}\", \"host_parallelism\": {}}},\n  \"runs\": [\n{}\n  ],\n  \"shards4_over_shards1\": {:.3},\n  \"gate\": \"{}\"\n}}\n",
        p.conns,
        p.requests,
        p.think.as_micros(),
        p.fib_n,
        p.server_workers,
        p.client_workers,
        if quick { "quick" } else { "full" },
        parallelism,
        runs_json.join(",\n"),
        ratio,
        gate
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("loadgen: writing {out}: {e}");
        failed = true;
    } else {
        println!("wrote {out}");
    }
    if failed {
        eprintln!("loadgen: c1m run FAILED");
        ExitCode::FAILURE
    } else {
        println!("loadgen: c1m shard matrix passed");
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------
// Scrape mode: validate a live `/metrics` + `/stats` endpoint.
// ---------------------------------------------------------------------

/// Minimal blocking HTTP/1.1 GET (the obs server closes per request, so
/// reading to EOF and splitting on the blank line is the whole protocol).
fn http_get(addr: &str, path: &str) -> Result<(String, String), String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: lhws\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("no header/body split in response to GET {path}"))?;
    let status = head.lines().next().unwrap_or("").to_string();
    if !status.contains("200") {
        return Err(format!("GET {path}: {status}"));
    }
    Ok((status, body.to_string()))
}

/// Two `/metrics` scrapes with a `/stats` hit in between: both must be
/// valid exposition documents (no duplicate or interleaved families, no
/// untyped samples) and no counter may go backwards across them.
fn scrape(addr: &str) -> Result<(), String> {
    let (_, first) = http_get(addr, "/metrics")?;
    let earlier = lhws::obs::promtext::parse(&first).map_err(|e| format!("first scrape: {e}"))?;
    println!(
        "scrape 1: {} families, {} samples",
        earlier.len(),
        earlier.iter().map(|f| f.samples.len()).sum::<usize>()
    );

    let (_, stats) = http_get(addr, "/stats")?;
    let stats = stats.trim();
    if !(stats.starts_with('{') && stats.ends_with('}') && stats.contains("\"polls\"")) {
        return Err(format!("/stats is not a stats object: {stats:.80?}"));
    }
    println!("stats: {} bytes of JSON", stats.len());

    let (_, second) = http_get(addr, "/metrics")?;
    let later = lhws::obs::promtext::parse(&second).map_err(|e| format!("second scrape: {e}"))?;
    lhws::obs::promtext::check_counters_monotonic(&earlier, &later)?;
    println!("scrape 2: {} families, counters monotonic", later.len());
    Ok(())
}

fn main() -> ExitCode {
    let args = Args::parse();
    let quick = args.flag("quick");
    let p = Params {
        conns: args.get("conns", if quick { 8 } else { 256 }),
        requests: args.get("requests", if quick { 1_000 } else { 8_192 }),
        think: Duration::from_micros(args.get("think-us", if quick { 500 } else { 2_000 })),
        fib_n: args.get("fib", 15),
        server_workers: args.get("server-workers", 4),
        client_workers: args.get("client-workers", 4),
        server_shards: args.get("server-shards", 1),
    };

    if args.flag("c1m-server") {
        // Child half of full-mode --c1m: all parameters arrive as flags.
        return run_c1m_server(p);
    }

    if args.flag("c1m") {
        // C1M defaults differ from compare mode: many more connections,
        // light per-request CPU (the sweep measures readiness fan-out,
        // not fib throughput), and a budget big enough that the closed
        // loops are still draining it when the last connection lands —
        // so the peak concurrent-connection count really is `conns`.
        let p = Params {
            conns: args.get("conns", if quick { 1_024 } else { 16_384 }),
            requests: args.get("requests", if quick { 8_192 } else { 131_072 }),
            think: Duration::from_micros(args.get("think-us", 500)),
            fib_n: args.get("fib", 8),
            ..p
        };
        return c1m(&args, p, quick);
    }

    if let Some(addr) = args.value("scrape").map(str::to_string) {
        // Scrape-validation mode (CI smoke): no load, just the contract.
        println!("loadgen: scraping observability endpoint at {addr}");
        return match scrape(&addr) {
            Ok(()) => {
                println!("loadgen: scrape validation passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("loadgen: scrape validation FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if args.flag("overload") {
        // Overload defaults differ from compare mode: a burst of
        // connections, no think time, and a work budget small enough
        // that the whole run stays in the saturated regime.
        let p = Params {
            conns: args.get("conns", if quick { 24 } else { 64 }),
            requests: args.get("requests", if quick { 600 } else { 4_096 }),
            ..p
        };
        let cap: usize = args.get("cap", if quick { 4 } else { 8 });
        println!(
            "overload: conns={} cap={cap} requests={} fib={} server P={} client P={}",
            p.conns, p.requests, p.fib_n, p.server_workers, p.client_workers
        );
        let mut failed = false;
        let mut runs = Vec::new();
        for (cap_used, label) in [(0usize, "baseline"), (cap, "shed")] {
            let (server_join, addr) = start_capped_server(p, cap_used);
            let (s, client_shed) = drive_admit(addr, p);
            let (server_rt, served, server_shed) = server_join.join().expect("server panicked");
            let report = server_rt.shutdown();
            println!(
                "{label}: {} requests in {:.2?} | p50 {:.0}us p99 {:.0}us | {} shed, {} errors",
                s.completed, s.elapsed, s.p50_us, s.p99_us, server_shed, s.errors
            );
            if s.errors > 0 || s.completed < p.requests || served != s.completed {
                eprintln!(
                    "loadgen: {label} run FAILED ({} errors, client {} vs server {} requests)",
                    s.errors, s.completed, served
                );
                failed = true;
            }
            if server_shed != client_shed {
                eprintln!(
                    "loadgen: {label}: server shed {server_shed} but clients saw {client_shed}"
                );
                failed = true;
            }
            if cap_used == 0 && server_shed != 0 {
                eprintln!("loadgen: baseline must not shed (shed {server_shed})");
                failed = true;
            }
            if cap_used != 0 && server_shed == 0 {
                eprintln!("loadgen: capped run shed nothing — overload was never reached");
                failed = true;
            }
            if report.leaked_suspensions != 0 || report.canceled_io_waits != 0 {
                eprintln!(
                    "loadgen: {label} server shutdown unclean: {} leaked, {} canceled io waits",
                    report.leaked_suspensions, report.canceled_io_waits
                );
                failed = true;
            }
            runs.push((s, server_shed));
        }
        let (baseline, shed_run) = (&runs[0].0, &runs[1].0);
        let shed_conns = runs[1].1;
        let ratio = shed_run.p99_us / baseline.p99_us.max(1e-9);
        println!(
            "served-request p99: baseline {:.0}us vs shed {:.0}us ({ratio:.2}x) with {shed_conns} shed",
            baseline.p99_us, shed_run.p99_us
        );
        // The protected tail must be bounded by the unbounded baseline's.
        // The slack absorbs scheduling noise on small CI hosts; the real
        // separation at C/L ≈ 8 is far larger.
        if ratio > 1.25 {
            eprintln!("loadgen: shedding did not bound the served tail ({ratio:.2}x baseline p99)");
            failed = true;
        }
        let out = args
            .value("out")
            .unwrap_or("BENCH_degrade.json")
            .to_string();
        let json = format!(
            "{{\n  \"bench\": \"net_overload\",\n  \"config\": {{\"conns\": {}, \"cap\": {}, \"requests\": {}, \"fib\": {}, \"server_workers\": {}, \"client_workers\": {}}},\n  \"baseline\": {},\n  \"shed\": {},\n  \"shed_connections\": {},\n  \"shed_over_baseline_p99\": {:.3}\n}}\n",
            p.conns,
            cap,
            p.requests,
            p.fib_n,
            p.server_workers,
            p.client_workers,
            json_run(baseline),
            json_run(shed_run),
            shed_conns,
            ratio
        );
        if let Err(e) = std::fs::write(&out, json) {
            eprintln!("loadgen: writing {out}: {e}");
            failed = true;
        } else {
            println!("wrote {out}");
        }
        return if failed {
            eprintln!("loadgen: overload run FAILED");
            ExitCode::FAILURE
        } else {
            println!("loadgen: overload protection verified");
            ExitCode::SUCCESS
        };
    }

    if let Some(addr) = args.value("addr").map(str::to_string) {
        // External-server mode (CI smoke): one run, no JSON.
        let addr: std::net::SocketAddr = match addr.parse() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("loadgen: --addr: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "loadgen: driving {addr} with {} conns, {} requests",
            p.conns, p.requests
        );
        let stats = drive(addr, p);
        print_stats("external", &stats);
        if stats.errors > 0 || stats.completed < p.requests {
            eprintln!(
                "loadgen: FAILED ({} errors, {}/{} completed)",
                stats.errors, stats.completed, p.requests
            );
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    // Compare mode: in-process server per scheduling mode.
    println!(
        "net loadgen: conns={} requests={} think={:?} fib={} server P={} client P={}",
        p.conns, p.requests, p.think, p.fib_n, p.server_workers, p.client_workers
    );
    let mut stats = Vec::new();
    let mut failed = false;
    for (mode, label) in [(LatencyMode::Block, "block"), (LatencyMode::Hide, "hide")] {
        let (server_join, addr) = start_server(mode, p);
        let s = drive(addr, p);
        print_stats(label, &s);
        let (server_rt, served) = server_join.join().expect("server thread panicked");
        let report = server_rt.shutdown();
        if s.errors > 0 || s.completed < p.requests || served != s.completed {
            eprintln!(
                "loadgen: {label} run FAILED ({} errors, client {} vs server {} requests)",
                s.errors, s.completed, served
            );
            failed = true;
        }
        if report.leaked_suspensions != 0 || report.canceled_io_waits != 0 {
            eprintln!(
                "loadgen: {label} server shutdown unclean: {} leaked, {} canceled io waits",
                report.leaked_suspensions, report.canceled_io_waits
            );
            failed = true;
        }
        stats.push(s);
    }
    let speedup = stats[1].throughput_rps / stats[0].throughput_rps.max(1e-9);
    println!("hide/block throughput: {speedup:.2}x");

    let out = args.value("out").unwrap_or("BENCH_net.json").to_string();
    let json = format!(
        "{{\n  \"bench\": \"net_loadgen\",\n  \"config\": {{\"conns\": {}, \"requests\": {}, \"think_us\": {}, \"fib\": {}, \"server_workers\": {}, \"client_workers\": {}}},\n  \"block\": {},\n  \"hide\": {},\n  \"hide_over_block\": {:.2}\n}}\n",
        p.conns,
        p.requests,
        p.think.as_micros(),
        p.fib_n,
        p.server_workers,
        p.client_workers,
        json_run(&stats[0]),
        json_run(&stats[1]),
        speedup
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("loadgen: writing {out}: {e}");
        failed = true;
    } else {
        println!("wrote {out}");
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
