//! Closed-loop TCP traffic source for `examples/server.rs`, and the scrape
//! check for its observability endpoint. It starts no server of its own.
//!
//! ```text
//! cargo run --release --example loadgen -- --addr HOST:PORT [--quick]
//!     [--conns C] [--requests R] [--think-us T] [--fib N] [--expect-shed]
//! cargo run --release --example loadgen -- --scrape HOST:PORT
//! ```
//!
//! `--addr`: `C` connections, each a closed loop of `R / C` requests —
//! send `W <n>`, await `R <fib(n)>`, think, repeat — from a latency-hiding
//! client runtime, so every connection's wait is a suspended task. The run
//! fails on any connection error, wrong reply or short count. It reports
//! counts only: latency and throughput are measured by `benchmark/`
//! (workload `server-open`), not here.
//!
//! `--expect-shed` drives a server started with `--max-live L` and `C` well
//! above `L`: a connection answered `E overloaded` backs off and connects
//! again until the server admits it or goes away, having served the
//! `--conns` it was started with. The run fails unless at least one
//! connection was shed, at least one was admitted, and every admitted
//! connection completed its requests without error.
//!
//! `--scrape`: two `GET /metrics` with a `GET /stats` in between; both
//! scrapes must parse as Prometheus exposition text and no counter may go
//! backwards from the first to the second.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lhws::obs::promtext;
use lhws::{join_all, simulate_latency, spawn, LineReader, Reactor, Runtime, TcpStream};

/// `--name value` from the command line, parsed; `default` when the flag is
/// absent. A flag with a missing or malformed value ends the process.
fn arg<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    let Some(i) = args.iter().position(|a| a == name) else {
        return default;
    };
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("loadgen: {name} needs a value of the right type");
            std::process::exit(2)
        })
}

fn fib(n: u64) -> u64 {
    (0..n).fold((0u64, 1u64), |(a, b), _| (b, a + b)).0
}

#[derive(Clone, Copy)]
struct Params {
    addr: SocketAddr,
    conns: usize,
    /// Requests per connection.
    quota: u64,
    think: Duration,
    fib_n: u64,
    expect_shed: bool,
}

/// How one connection ended.
#[derive(Default)]
struct Conn {
    /// Requests answered correctly.
    served: u64,
    /// Times the server answered `E overloaded` before admitting it.
    shed: u64,
    /// The server went away before answering this connection at all.
    unanswered: bool,
}

impl Conn {
    /// A server that has admitted all the connections it was started for
    /// stops accepting and exits: under `--expect-shed`, silence before the
    /// first answer means that, not a failure.
    fn gone(self) -> Conn {
        Conn {
            unanswered: true,
            ..self
        }
    }
}

/// One connection's closed loop. `Err` is a failure of the run: a wrong
/// reply, or the connection breaking once the server has answered on it.
async fn drive_conn(reactor: Reactor, p: Params) -> std::io::Result<Conn> {
    let request = format!("W {}\n", p.fib_n);
    let want = format!("R {}", fib(p.fib_n));
    let mut conn = Conn::default();
    while conn.served < p.quota {
        let stream = match TcpStream::connect(&reactor, p.addr) {
            Ok(s) => s,
            Err(_) if p.expect_shed => return Ok(conn.gone()),
            Err(e) => return Err(e),
        };
        let mut reader = LineReader::new(stream);
        while conn.served < p.quota {
            let first = conn.served == 0;
            let reply = match reader.stream_mut().write_all(request.as_bytes()).await {
                Ok(()) => reader.read_line().await,
                Err(e) => Err(e),
            };
            match reply {
                Ok(Some(line)) if line == want => conn.served += 1,
                Ok(Some(line)) if first && p.expect_shed && line == "E overloaded" => break,
                Ok(None) | Err(_) if first && p.expect_shed => return Ok(conn.gone()),
                Ok(Some(line)) => {
                    return Err(std::io::Error::other(format!(
                        "bad reply: got {line:?}, want {want:?}"
                    )))
                }
                Ok(None) => return Err(std::io::Error::other("server closed mid-run")),
                Err(e) => return Err(e),
            }
            if !p.think.is_zero() {
                simulate_latency(p.think).await;
            }
        }
        if conn.served == 0 {
            conn.shed += 1;
            simulate_latency(Duration::from_millis(2)).await;
        }
    }
    Ok(conn)
}

fn drive(p: Params) -> ExitCode {
    let rt = Runtime::builder().build().expect("default config");
    let reactor = Reactor::builder(&rt).build().expect("client reactor");
    let start = Instant::now();
    let results = rt.block_on(async move {
        let handles: Vec<_> = (0..p.conns)
            .map(|_| spawn(drive_conn(reactor.clone(), p)))
            .collect();
        join_all(handles).await
    });
    let elapsed = start.elapsed();
    rt.shutdown();

    let (mut served, mut admitted, mut shed, mut unanswered, mut errors) = (0, 0, 0, 0, 0);
    for r in results {
        match r {
            Ok(c) => {
                served += c.served;
                admitted += u64::from(c.served > 0);
                shed += c.shed;
                unanswered += u64::from(c.unanswered);
            }
            Err(e) => {
                eprintln!("loadgen: connection failed: {e}");
                errors += 1;
            }
        }
    }
    println!(
        "loadgen: {served} requests on {admitted} connections in {elapsed:.2?}; \
         {shed} shed (E overloaded), {unanswered} unanswered, {errors} errors"
    );
    let ok = if p.expect_shed {
        // Every admitted connection ran its whole quota or is an error.
        errors == 0 && shed >= 1 && admitted >= 1 && served == admitted * p.quota
    } else {
        errors == 0 && served == p.conns as u64 * p.quota
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("loadgen: FAILED");
        ExitCode::FAILURE
    }
}

/// Minimal blocking HTTP/1.1 GET (the obs server closes per request, so
/// reading to EOF and splitting on the blank line is the whole protocol).
fn http_get(addr: &str, path: &str) -> Result<String, String> {
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
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(format!("GET {path}: {status}"));
    }
    Ok(body.to_string())
}

/// Two `/metrics` scrapes with a `/stats` hit in between: both must be
/// valid exposition documents (no duplicate or interleaved families, no
/// untyped samples) and no counter may go backwards across them.
fn scrape(addr: &str) -> Result<(), String> {
    let first = http_get(addr, "/metrics")?;
    let earlier = promtext::parse(&first).map_err(|e| format!("first scrape: {e}"))?;
    println!(
        "scrape 1: {} families, {} samples",
        earlier.len(),
        earlier.iter().map(|f| f.samples.len()).sum::<usize>()
    );

    let stats = http_get(addr, "/stats")?;
    let stats = stats.trim();
    if !(stats.starts_with('{') && stats.ends_with('}') && stats.contains("\"polls\"")) {
        return Err(format!("/stats is not a stats object: {stats:.80?}"));
    }
    println!("stats: {} bytes of JSON", stats.len());

    let second = http_get(addr, "/metrics")?;
    let later = promtext::parse(&second).map_err(|e| format!("second scrape: {e}"))?;
    promtext::check_counters_monotonic(&earlier, &later)?;
    println!("scrape 2: {} families, counters monotonic", later.len());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scrape_addr: String = arg(&args, "--scrape", String::new());
    if !scrape_addr.is_empty() {
        println!("loadgen: scraping observability endpoint at {scrape_addr}");
        return match scrape(&scrape_addr) {
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

    let addr: String = arg(&args, "--addr", String::new());
    let Ok(addr) = addr.parse::<SocketAddr>() else {
        eprintln!("usage: loadgen --addr HOST:PORT [options] | loadgen --scrape HOST:PORT");
        return ExitCode::from(2);
    };
    let quick = args.iter().any(|a| a == "--quick");
    let conns: usize = arg(&args, "--conns", if quick { 8 } else { 256 });
    let requests: u64 = arg(&args, "--requests", if quick { 1_000 } else { 8_192 });
    let p = Params {
        addr,
        conns,
        quota: requests.div_ceil(conns.max(1) as u64),
        think: Duration::from_micros(arg(&args, "--think-us", if quick { 500 } else { 2_000 })),
        fib_n: arg(&args, "--fib", 15),
        expect_shed: args.iter().any(|a| a == "--expect-shed"),
    };
    println!(
        "loadgen: driving {addr} with {conns} conns x {} requests{}",
        p.quota,
        if p.expect_shed {
            " (expecting shed)"
        } else {
            ""
        }
    );
    drive(p)
}
