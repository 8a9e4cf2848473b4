//! Self-hosted observability for the LHWS runtime: a tiny HTTP endpoint
//! served **by the runtime being observed**, over `lhws-net`.
//!
//! The exporter is deliberately dogfood: the accept loop, every scrape,
//! and every streaming-stats connection run as ordinary tasks on the
//! observed runtime, their socket waits suspended through the same epoll
//! reactor as the traffic being measured. If the scheduler can't hide
//! the observer's latency, the observer shows it.
//!
//! Endpoints (HTTP/1.x, newline-framed, every response `Connection:
//! close`):
//!
//! * `GET /metrics` — Prometheus text exposition
//!   ([`lhws_core::encode_prometheus`]) of the counter snapshot and
//!   registry gauges. Scrape it with `curl` or Prometheus directly.
//! * `GET /stats` — one JSON object: counters plus, when tracing is on,
//!   live suspension-latency histogram buckets and steal rates derived
//!   from an incremental [`TraceReader`] fold.
//! * `GET /stream?frames=N&interval_ms=M` — newline-delimited JSON, one
//!   `/stats`-shaped frame every `M` ms (default 500, max 10 s) for `N`
//!   frames (default until [`ObsServer::stop`]); close-delimited.
//! * `GET /healthz` — one-line JSON health verdict, driven by the
//!   [`Health`] handle the served application updates: `200 OK` with
//!   `"status":"ok"` normally, `503` with `"status":"degraded"` while the
//!   application has declared itself overloaded (e.g. shedding
//!   connections past its cap). Load balancers and CI's overload smoke
//!   key off the status code alone.
//!
//! The [`promtext`] module is the matching dependency-free parser /
//! validator for the exposition format, used by the CI smoke job through
//! `examples/loadgen.rs --scrape` to reject malformed output (duplicate
//! families, non-monotonic counters).

#![warn(missing_docs)]

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhws_core::sync::Mutex;
use lhws_core::trace::TraceReader;
use lhws_core::{
    simulate_latency, IoShardSnapshot, JoinHandle, LiveStats, MetricsSnapshot, Observer, Runtime,
    TraceStats,
};
use lhws_net::{LineReader, Reactor, TcpListener, TcpStream};

pub mod promtext;

/// Ceiling on `interval_ms` so a stray query can't park a connection
/// task for minutes.
const MAX_INTERVAL_MS: u64 = 10_000;

/// Incremental trace fold shared by every `/stats` and `/stream`
/// connection: one reader, one [`LiveStats`], so concurrent scrapers see
/// one consistent accumulation instead of racing for events.
struct LiveFold {
    reader: TraceReader,
    stats: LiveStats,
    dropped: u64,
}

impl LiveFold {
    fn fold(&mut self) -> TraceStats {
        let batch = self.reader.poll_events();
        self.stats.observe(&batch.events);
        self.dropped += batch.dropped;
        self.stats.stats().clone()
    }
}

/// Application-declared health, surfaced through `GET /healthz`.
///
/// The observed application holds a clone of this handle and flips it as
/// its own overload machinery engages: a server that sheds connections
/// past its cap calls [`record_shed`](Health::record_shed) per shed and
/// [`set_degraded`](Health::set_degraded) when it considers itself
/// overloaded. The endpoint then answers `503 {"status":"degraded",..}`
/// until the flag clears — the contract a load balancer (or the CI
/// overload smoke) needs to stop routing to a drowning instance.
///
/// Cheap to clone (an `Arc` over two atomics); all methods are lock-free
/// and callable from any thread, including mid-`accept` on a worker.
#[derive(Clone, Default)]
pub struct Health {
    inner: Arc<HealthInner>,
}

#[derive(Default)]
struct HealthInner {
    degraded: AtomicBool,
    shed: AtomicU64,
}

impl std::fmt::Debug for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Health")
            .field("degraded", &self.is_degraded())
            .field("shed", &self.shed_count())
            .finish()
    }
}

impl Health {
    /// A fresh, healthy handle (not degraded, zero sheds).
    pub fn new() -> Health {
        Health::default()
    }

    /// Declares (or clears) the degraded state. Idempotent.
    pub fn set_degraded(&self, degraded: bool) {
        self.inner.degraded.store(degraded, Ordering::Release);
    }

    /// Whether the application currently declares itself degraded.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Acquire)
    }

    /// Counts one shed unit of work (e.g. a connection refused at the
    /// overload cap).
    pub fn record_shed(&self) {
        self.inner.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Total work units shed since this handle was created.
    pub fn shed_count(&self) -> u64 {
        self.inner.shed.load(Ordering::Relaxed)
    }
}

struct Shared {
    observer: Observer,
    fold: Mutex<Option<LiveFold>>,
    stop: AtomicBool,
    started: Instant,
    health: Health,
}

/// The self-hosted metrics/stats endpoint. Bind with
/// [`serve`](ObsServer::serve); the accept loop and all connection
/// handlers run as tasks inside `rt`. Stop it with
/// [`stop`](ObsServer::stop) *before* `rt.shutdown()`, so its listener
/// wait is withdrawn cleanly instead of counted as a canceled I/O wait.
pub struct ObsServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<io::Result<u64>>>,
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ObsServer {
    /// Binds `addr` on `reactor` and spawns the accept loop onto `rt`.
    /// Pass port 0 to let the kernel pick; read it back with
    /// [`local_addr`](ObsServer::local_addr).
    pub fn serve<A: ToSocketAddrs>(
        rt: &Runtime,
        reactor: &Reactor,
        addr: A,
    ) -> io::Result<ObsServer> {
        let listener = TcpListener::bind(reactor, addr)?;
        let addr = listener.local_addr()?;
        let observer = rt.observe();
        let fold = Mutex::new(observer.trace_reader().map(|reader| {
            let workers = reader.workers();
            LiveFold {
                reader,
                stats: LiveStats::new(workers),
                dropped: 0,
            }
        }));
        let shared = Arc::new(Shared {
            observer,
            fold,
            stop: AtomicBool::new(false),
            started: Instant::now(),
            health: Health::new(),
        });
        let acceptor = rt.spawn(accept_loop(listener, shared.clone()));
        Ok(ObsServer {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (for the scrape URL).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The [`Health`] handle behind `GET /healthz`. Clone it into the
    /// served application and flip it as overload protection engages.
    pub fn health(&self) -> Health {
        self.shared.health.clone()
    }

    /// Stops the server: raises the stop flag, wakes the accept loop
    /// with a throwaway self-connection, and joins the acceptor (which
    /// joins every live connection task). Returns the number of
    /// connections served. Call before `Runtime::shutdown`.
    pub fn stop(mut self, rt: &Runtime) -> u64 {
        self.shared.stop.store(true, Ordering::Release);
        // The acceptor is parked in `accept()`; readiness is its only
        // wake-up, so hand it one.
        let _ = std::net::TcpStream::connect(self.addr);
        match self.acceptor.take() {
            Some(h) => rt.block_on(h).unwrap_or(0),
            None => 0,
        }
    }
}

async fn accept_loop(listener: TcpListener, shared: Arc<Shared>) -> io::Result<u64> {
    let mut served = 0u64;
    let mut conns = Vec::new();
    loop {
        let (stream, _peer) = match listener.accept().await {
            Ok(pair) => pair,
            Err(_) if shared.stop.load(Ordering::Acquire) => break,
            Err(e) => return Err(e),
        };
        if shared.stop.load(Ordering::Acquire) {
            // The stop wake-up connection itself; nothing to serve.
            break;
        }
        served += 1;
        let shared = shared.clone();
        conns.push(lhws_core::spawn(async move {
            // Per-connection protocol errors close the connection; they
            // don't take the server down.
            let _ = serve_conn(stream, shared).await;
        }));
    }
    for c in conns {
        c.await;
    }
    Ok(served)
}

/// Reads one HTTP/1.x request head; returns the request target (path +
/// query) or `None` on a malformed or empty request.
async fn read_request(reader: &mut LineReader) -> io::Result<Option<String>> {
    let Some(line) = reader.read_line().await? else {
        return Ok(None);
    };
    let line = line.trim_end_matches('\r');
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t.to_string()),
        _ => return Ok(None),
    };
    if method != "GET" {
        return Ok(None);
    }
    // Drain headers until the blank line; their content is irrelevant.
    while let Some(h) = reader.read_line().await? {
        if h.trim_end_matches('\r').is_empty() {
            break;
        }
    }
    Ok(Some(target))
}

async fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).await?;
    stream.write_all(body.as_bytes()).await
}

async fn serve_conn(stream: TcpStream, shared: Arc<Shared>) -> io::Result<()> {
    let mut reader = LineReader::new(stream);
    let Some(target) = read_request(&mut reader).await? else {
        return respond(
            reader.stream_mut(),
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "bad request\n",
        )
        .await;
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    match path {
        "/metrics" => match shared.observer.export_prometheus() {
            Some(body) => {
                respond(
                    reader.stream_mut(),
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    &body,
                )
                .await
            }
            None => {
                respond(
                    reader.stream_mut(),
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "runtime is gone\n",
                )
                .await
            }
        },
        "/stats" => {
            let body = match stats_frame(&shared, 0) {
                Some(f) => f,
                None => {
                    return respond(
                        reader.stream_mut(),
                        "503 Service Unavailable",
                        "text/plain; charset=utf-8",
                        "runtime is gone\n",
                    )
                    .await
                }
            };
            respond(reader.stream_mut(), "200 OK", "application/json", &body).await
        }
        "/stream" => {
            let frames: u64 = query_param(query, "frames").unwrap_or(u64::MAX);
            let interval = Duration::from_millis(
                query_param(query, "interval_ms")
                    .unwrap_or(500)
                    .min(MAX_INTERVAL_MS),
            );
            // Close-delimited body: no Content-Length, the peer reads
            // until EOF.
            let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
            reader.stream_mut().write_all(head.as_bytes()).await?;
            let mut frame = 0u64;
            while frame < frames && !shared.stop.load(Ordering::Acquire) {
                let Some(mut line) = stats_frame(&shared, frame) else {
                    break;
                };
                line.push('\n');
                reader.stream_mut().write_all(line.as_bytes()).await?;
                frame += 1;
                if frame < frames {
                    simulate_latency(interval).await;
                }
            }
            Ok(())
        }
        "/healthz" => {
            let degraded = shared.health.is_degraded();
            let body = encode_healthz_json(
                degraded,
                shared.health.shed_count(),
                shared.started.elapsed(),
            );
            let status = if degraded {
                "503 Service Unavailable"
            } else {
                "200 OK"
            };
            respond(reader.stream_mut(), status, "application/json", &body).await
        }
        _ => {
            respond(
                reader.stream_mut(),
                "404 Not Found",
                "text/plain; charset=utf-8",
                "unknown path; try /metrics, /stats, /stream, or /healthz\n",
            )
            .await
        }
    }
}

fn query_param(query: &str, key: &str) -> Option<u64> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

/// One `/stats` JSON object. `None` once the runtime is gone.
fn stats_frame(shared: &Shared, frame: u64) -> Option<String> {
    let m = shared.observer.metrics()?;
    let shards = shared.observer.io_shards().unwrap_or_default();
    let trace = shared.fold.lock().as_mut().map(|f| (f.fold(), f.dropped));
    Some(encode_stats_json(
        frame,
        shared.started.elapsed(),
        &m,
        &shards,
        trace.as_ref().map(|(s, d)| (s, *d)),
    ))
}

/// The `/healthz` body: status string plus the shed tally, so a human
/// curl shows *why* the instance is refusing traffic, not just that it is.
fn encode_healthz_json(degraded: bool, shed: u64, uptime: Duration) -> String {
    let status = if degraded { "degraded" } else { "ok" };
    let mut o = String::with_capacity(96);
    o.push_str("{\"status\":\"");
    o.push_str(status);
    o.push_str("\",");
    push_kv(&mut o, "shed_connections", shed);
    push_kv(&mut o, "uptime_ms", uptime.as_millis() as u64);
    o.pop();
    o.push_str("}\n");
    o
}

/// Pushes `"key":[v0,v1,…],` (always emitted, possibly empty, so the
/// frame schema is stable across shard counts).
fn push_u64_array(out: &mut String, key: &str, values: impl Iterator<Item = u64>) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":[");
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push_str("],");
}

fn push_kv(out: &mut String, key: &str, value: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
    out.push(',');
}

fn push_hist(out: &mut String, key: &str, h: &lhws_core::trace::LatencyHistogram) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":{\"count\":");
    out.push_str(&h.count().to_string());
    out.push_str(",\"sum_nanos\":");
    out.push_str(&h.sum_nanos().to_string());
    out.push_str(",\"buckets\":[");
    let mut first = true;
    for (le, count) in h.buckets().filter(|&(_, c)| c > 0) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('[');
        out.push_str(&le.to_string());
        out.push(',');
        out.push_str(&count.to_string());
        out.push(']');
    }
    out.push_str("]},");
}

/// Renders one streaming-stats frame. Hand-rolled JSON: flat keys, no
/// escaping needed (all values numeric), stable key order.
fn encode_stats_json(
    frame: u64,
    uptime: Duration,
    m: &MetricsSnapshot,
    io_shards: &[IoShardSnapshot],
    trace: Option<(&TraceStats, u64)>,
) -> String {
    let mut o = String::with_capacity(1024);
    o.push('{');
    push_kv(&mut o, "frame", frame);
    push_kv(&mut o, "uptime_ms", uptime.as_millis() as u64);
    for (name, value) in m {
        push_kv(&mut o, name, value);
    }
    // One entry per reactor readiness queue (the reactor has one); empty
    // arrays when none exists (Block mode, or no reactor at all).
    push_u64_array(
        &mut o,
        "io_shard_events",
        io_shards.iter().map(|s| s.events),
    );
    push_u64_array(
        &mut o,
        "io_shard_wakeups",
        io_shards.iter().map(|s| s.wakeups),
    );
    let rate = if m.steals_attempted == 0 {
        0.0
    } else {
        m.steals_succeeded as f64 / m.steals_attempted as f64
    };
    o.push_str("\"steal_success_rate\":");
    o.push_str(&format!("{rate:.6}"));
    o.push(',');
    if let Some((stats, dropped)) = trace {
        push_kv(&mut o, "trace_suspensions", stats.suspensions);
        push_kv(&mut o, "trace_dropped", dropped);
        push_hist(&mut o, "suspend_to_enable", &stats.suspend_to_enable);
        push_hist(&mut o, "ready_to_exec", &stats.ready_to_exec);
        o.push_str("\"deque_high_water\":[");
        for (i, hw) in stats.deque_high_water.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&hw.to_string());
        }
        o.push_str("],");
    }
    // Trailing comma from the last push: replace with the close brace.
    if o.ends_with(',') {
        o.pop();
    }
    o.push('}');
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_is_balanced_and_flat() {
        let m = MetricsSnapshot::default();
        let s = encode_stats_json(3, Duration::from_millis(250), &m, &[], None);
        assert!(s.starts_with("{\"frame\":3,\"uptime_ms\":250,"));
        assert!(s.ends_with('}'));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert!(s.contains("\"steal_success_rate\":0.000000"));
        assert!(s.contains("\"io_shard_events\":[],\"io_shard_wakeups\":[]"));
        assert!(!s.contains("trace_suspensions"), "no trace block when off");

        let shards = [
            IoShardSnapshot {
                events: 5,
                wakeups: 2,
            },
            IoShardSnapshot {
                events: 0,
                wakeups: 1,
            },
        ];
        let s = encode_stats_json(0, Duration::ZERO, &m, &shards, None);
        assert!(s.contains("\"io_shard_events\":[5,0],\"io_shard_wakeups\":[2,1]"));
    }

    /// Every `MetricsSnapshot` field, as its derived `Debug` lists it, is a
    /// `/stats` key carrying its value.
    #[test]
    fn stats_json_lists_every_counter() {
        let rt = Runtime::builder().workers(1).build().unwrap();
        rt.block_on(async { simulate_latency(Duration::from_millis(1)).await });
        let m = rt.metrics();
        let s = encode_stats_json(0, Duration::ZERO, &m, &[], None);
        let debug = format!("{m:?}");
        let fields = debug
            .strip_prefix("MetricsSnapshot { ")
            .and_then(|d| d.strip_suffix(" }"))
            .unwrap();
        assert_eq!(fields.split(", ").count(), (&m).into_iter().count());
        for kv in fields.split(", ") {
            let (name, value) = kv.split_once(": ").unwrap();
            assert!(s.contains(&format!("\"{name}\":{value},")), "{name}");
        }
        assert!(m.polls > 0 && m.suspensions > 0);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)] // TraceStats is #[non_exhaustive]
    fn stats_json_includes_trace_block() {
        let m = MetricsSnapshot::default();
        let mut stats = TraceStats::default();
        stats.suspensions = 2;
        stats.suspend_to_enable.record(100);
        stats.deque_high_water = vec![1, 2];
        let s = encode_stats_json(0, Duration::ZERO, &m, &[], Some((&stats, 5)));
        assert!(s.contains("\"trace_suspensions\":2"));
        assert!(s.contains("\"trace_dropped\":5"));
        assert!(s.contains(
            "\"suspend_to_enable\":{\"count\":1,\"sum_nanos\":100,\"buckets\":[[128,1]]}"
        ));
        assert!(s.contains("\"deque_high_water\":[1,2]"));
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn healthz_json_reflects_state() {
        let ok = encode_healthz_json(false, 0, Duration::from_millis(10));
        assert_eq!(
            ok,
            "{\"status\":\"ok\",\"shed_connections\":0,\"uptime_ms\":10}\n"
        );
        let bad = encode_healthz_json(true, 7, Duration::from_secs(1));
        assert!(bad.contains("\"status\":\"degraded\""));
        assert!(bad.contains("\"shed_connections\":7"));
    }

    #[test]
    fn health_handle_is_shared_state() {
        let h = Health::new();
        let h2 = h.clone();
        assert!(!h.is_degraded());
        h2.set_degraded(true);
        h2.record_shed();
        h2.record_shed();
        assert!(h.is_degraded());
        assert_eq!(h.shed_count(), 2);
        h.set_degraded(false);
        assert!(!h2.is_degraded());
    }

    #[test]
    fn query_params_parse() {
        assert_eq!(query_param("frames=10&interval_ms=50", "frames"), Some(10));
        assert_eq!(
            query_param("frames=10&interval_ms=50", "interval_ms"),
            Some(50)
        );
        assert_eq!(query_param("frames=x", "frames"), None);
        assert_eq!(query_param("", "frames"), None);
    }
}
