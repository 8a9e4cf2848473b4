//! `server-open`: the `examples/server.rs` protocol (`W n` → `R fib(n)`)
//! over loopback — the traffic never crosses a link — with the handler
//! re-implemented here from `LineReader` + `fork2`, `workers = nproc - 1`
//! and one generator thread (this one).
//!
//! Three phases: open-loop Poisson arrivals at two fixed rates (latency
//! timed from the instant each request was due), then closed-loop
//! saturation with zero think time.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lhws::{fork2, spawn, JoinHandle, LineReader, Reactor, Runtime, TcpListener, TcpStream};

use super::batch::{build_runtime, check_budget, span_metrics, write_trace};
use super::generator::{Done, Generator};
use super::{check_report, new_outcome, ratio, sched_metrics, RunCfg};
use crate::host::{self, now_ns};
use crate::inputs::{self, fib, Request};
use crate::json::Value;
use crate::layers;
use crate::report::Outcome;
use crate::spans::Span;
use crate::spec::{Sizes, LATENCY_LIMIT_US, REPLY_TIMEOUT};
use crate::stats;

/// How `--seconds` is split over the 4k phase, the 16k phase and the
/// closed loop. Both rates get the time that collects the samples a p99
/// needs (the high rate four times as fast); the closed loop gets the
/// rest, because saturation throughput wanders by a quarter over seconds
/// on a shared host and only a long phase gives a steady figure.
pub fn phase_seconds(seconds: f64) -> [f64; 3] {
    [seconds * 0.4, seconds * 0.1, seconds * 0.5]
}

/// Closed-loop replies per "job" (`job_p10_ms` and `job_p50_ms` on this workload are the
/// time to complete this many consecutive replies).
const REPLIES_PER_JOB: usize = 1000;
const CLOSED_MIX_LEN: usize = 4096;

/// Server-side timestamps of one request, taken only while spans are on.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    seq: u64,
    woke_ns: u64,
    computed_ns: u64,
    written_ns: u64,
}

/// What one connection's handler returns when the peer closes.
struct ConnLog {
    peer_port: u16,
    served: u64,
    stamps: Vec<Stamp>,
}

/// `fib(n)` with the top of the recursion forked, as the example does.
async fn par_fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = fork2(async move { fib(n - 1) }, async move { fib(n - 2) }).await;
    a + b
}

async fn serve_conn(stream: TcpStream, stamping: Arc<AtomicBool>) -> std::io::Result<ConnLog> {
    let peer_port = stream.peer_addr()?.port();
    let mut reader = LineReader::new(stream);
    let mut log = ConnLog {
        peer_port,
        served: 0,
        stamps: Vec::new(),
    };
    while let Some(line) = reader.read_line().await? {
        let stamp = stamping.load(Ordering::Relaxed);
        let woke_ns = if stamp { now_ns() } else { 0 };
        let n: u64 = line
            .strip_prefix("W ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad request line {line:?}")))?;
        let v = par_fib(n).await;
        let computed_ns = if stamp { now_ns() } else { 0 };
        let reply = format!("R {v}\n");
        reader.stream_mut().write_all(reply.as_bytes()).await?;
        log.served += 1;
        if stamp {
            log.stamps.push(Stamp {
                seq: log.served,
                woke_ns,
                computed_ns,
                written_ns: now_ns(),
            });
        }
    }
    Ok(log)
}

/// `(CPUs for the server's threads, CPU for the generator)`: the last
/// allowed CPU is the generator's, the others the server's (one CPU serves
/// both when that is all there is).
fn cpu_split() -> (&'static [usize], &'static [usize]) {
    let cpus = host::cpus();
    let split = cpus.len() - 1;
    if split == 0 {
        (cpus, cpus)
    } else {
        cpus.split_at(split)
    }
}

/// One `SCHED_IDLE` spinning thread per server CPU, so that the (virtual)
/// CPU never halts while the server's threads sleep between requests.
///
/// On a VM a halted vCPU takes tens of microseconds to wake, by an amount
/// that drifts with the host: left alone, that penalty is most of the
/// low-rate p50 and nearly all of its run-to-run spread (p50 49..73 µs
/// across runs without the spinner, 47..51 µs with it). The spinner runs
/// only when the CPU would otherwise idle and yields the instant a server
/// thread wakes; its CPU time is subtracted from `cpu_ms_per_kop`.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    cpu_ms_bits: Vec<Arc<AtomicU64>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    fn start(cpus: &[usize]) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let mut keep = KeepAwake {
            stop: stop.clone(),
            cpu_ms_bits: Vec::new(),
            threads: Vec::new(),
        };
        for &cpu in cpus {
            let (stop, cpu_ms) = (stop.clone(), Arc::new(AtomicU64::new(0)));
            keep.cpu_ms_bits.push(cpu_ms.clone());
            let spin = move || {
                if !(host::pin_current_thread(&[cpu]) && host::make_current_thread_idle_class()) {
                    return; // never spin at normal priority
                }
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..4096 {
                        std::hint::spin_loop();
                    }
                    cpu_ms.store(host::thread_cpu_ms().to_bits(), Ordering::Relaxed);
                }
            };
            match std::thread::Builder::new()
                .name("bench-keepawake".into())
                .spawn(spin)
            {
                Ok(handle) => keep.threads.push(handle),
                Err(e) => eprintln!("server-open: no keep-awake thread: {e}"),
            }
        }
        keep
    }

    /// Reads the CPU time the spinners have used so far, in ms; does not
    /// borrow the rig, so the generator's tick hook can hold it.
    fn cpu_meter(&self) -> impl Fn() -> f64 {
        let bits = self.cpu_ms_bits.clone();
        move || {
            bits.iter()
                .map(|b| f64::from_bits(b.load(Ordering::Relaxed)))
                .sum()
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A running server plus the generator connected to it.
struct Rig {
    rt: Runtime,
    accept: JoinHandle<std::io::Result<Vec<ConnLog>>>,
    gen: Generator,
    keep_awake: KeepAwake,
    stamping: Arc<AtomicBool>,
    built: Instant,
    /// Requests the generator sent during set-up, to reconcile with the
    /// handlers' served counts.
    sent: u64,
}

impl Rig {
    /// Runtime build + bind + connect + the set-up warm-up requests.
    fn set_up(cfg: RunCfg, mix: &[Request], out: &mut Outcome) -> std::io::Result<(Rig, f64)> {
        let sizes = cfg.sizes();
        let built = Instant::now();
        let workers = host::nproc().saturating_sub(1).max(1);
        // The generator spins on its own CPU; every thread the runtime and
        // the reactor start inherits the mask set here and stays off it.
        // Left free to roam, a server thread woken onto the generator's CPU
        // waits out a scheduler slice behind the spinning thread, and the
        // latency tail measures that, not the runtime.
        let (server_cpus, gen_cpu) = cpu_split();
        let pinned = host::pin_current_thread(server_cpus);
        let rt = build_runtime(workers, lhws::LatencyMode::Hide);
        let reactor = Reactor::builder(&rt).build()?;
        let keep_awake = KeepAwake::start(if pinned { server_cpus } else { &[] });
        if !(pinned && host::pin_current_thread(gen_cpu)) {
            eprintln!("server-open: could not pin threads; generator and server share CPUs");
        }
        let listener = TcpListener::bind(&reactor, ("127.0.0.1", 0))?;
        let addr: SocketAddr = listener.local_addr()?;
        let stamping = Arc::new(AtomicBool::new(false));
        let flag = stamping.clone();
        let conns = sizes.srv_conns;
        let accept = rt.spawn(async move {
            let mut handlers = Vec::with_capacity(conns);
            while handlers.len() < conns {
                for (stream, _peer) in listener.accept_batch(conns - handlers.len()).await? {
                    handlers.push(spawn(serve_conn(stream, flag.clone())));
                }
            }
            let mut logs = Vec::with_capacity(conns);
            for h in handlers {
                logs.push(h.await?);
            }
            Ok(logs)
        });
        let table = inputs::fib_table(sizes.srv_n_hi);
        let gen = Generator::connect(addr, conns, table)?;
        let mut rig = Rig {
            rt,
            accept,
            gen,
            keep_awake,
            stamping,
            built,
            sent: 0,
        };
        let warm = rig.gen.closed_loop(mix, sizes.warm_requests, 60.0, |_| {});
        rig.account(&warm, out);
        Ok((rig, built.elapsed().as_secs_f64()))
    }

    /// Counts a phase's requests into attempted / failed.
    fn account(&mut self, done: &[Done], out: &mut Outcome) {
        self.sent += done.len() as u64;
        out.attempted += done.len() as u64;
        let bad = done.iter().filter(|d| !d.ok).count() as u64;
        if bad > 0 {
            out.failed += bad;
            eprintln!("server-open: {bad} of {} requests failed", done.len());
        }
    }

    /// Closes the connections, joins every handler, shuts the runtime down
    /// and checks the books: served == sent, clean report, Lemma 7 with
    /// `U = connections + 1` (each handler and the acceptor can be waiting
    /// on the kernel at once).
    fn tear_down(self, what: &str, out: &mut Outcome) -> Vec<ConnLog> {
        let Rig {
            rt,
            accept,
            gen,
            keep_awake,
            sent,
            ..
        } = self;
        let conns = gen.connections() as u64;
        drop(gen);
        drop(keep_awake);
        let logs = match rt.block_on(accept) {
            Ok(logs) => logs,
            Err(e) => {
                out.violate(format!("{what}: server task failed: {e}"));
                Vec::new()
            }
        };
        let served: u64 = logs.iter().map(|l| l.served).sum();
        if served != sent {
            out.violate(format!(
                "{what}: server served {served} requests, generator sent {sent}"
            ));
        }
        check_report(&rt.shutdown(), conns + 1, what, out);
        logs
    }
}

/// Percentiles of a phase's latencies in µs.
struct Latency {
    /// At [`stats::FAST_QUANTILE`]: the end-to-end figure.
    fast: f64,
    p50: f64,
    p99: f64,
    samples: usize,
}

/// A failed request counts as the reply timeout, so it misses any limit.
fn latency_percentiles(done: &[Done]) -> Latency {
    let mut us: Vec<f64> = done
        .iter()
        .map(|d| {
            if d.ok {
                d.latency_us()
            } else {
                REPLY_TIMEOUT.as_secs_f64() * 1e6
            }
        })
        .collect();
    let sorted = stats::sorted(&mut us);
    Latency {
        fast: stats::percentile(sorted, stats::FAST_QUANTILE),
        p50: stats::percentile(sorted, 0.5),
        p99: stats::percentile(sorted, 0.99),
        samples: sorted.len(),
    }
}

/// p99 in µs of how late the generator itself sent (requests that had to
/// wait for a free connection are the server's backlog, not lateness).
fn lateness_p99_us(done: &[Done]) -> f64 {
    let mut late: Vec<f64> = done
        .iter()
        .filter(|d| !d.conn_wait)
        .map(|d| (d.sent_ns - d.due_ns) as f64 / 1e3)
        .collect();
    stats::percentile(stats::sorted(&mut late), 0.99)
}

/// Time in ms of each [`REPLIES_PER_JOB`] consecutive closed-loop replies.
/// A phase shorter than one such job (`--quick`) gives one entry: its whole
/// span scaled to a job.
fn closed_loop_jobs_ms(done: &[Done]) -> Vec<f64> {
    let mut times: Vec<u64> = done.iter().map(|d| d.done_ns).collect();
    times.sort_unstable();
    let jobs: Vec<f64> = times
        .chunks_exact(REPLIES_PER_JOB + 1)
        .map(|c| (c[REPLIES_PER_JOB] - c[0]) as f64 / 1e6)
        .collect();
    if jobs.is_empty() {
        let span = times.last().unwrap_or(&0) - times.first().unwrap_or(&0);
        let scale = REPLIES_PER_JOB as f64 / (times.len().max(2) - 1) as f64;
        return vec![span as f64 / 1e6 * scale];
    }
    jobs
}

/// Ticks (10 ms each) per slice of the closed loop's CPU accounting.
const CPU_SLICE_TICKS: usize = 10;

/// Server CPU ms per 1 000 replies over each slice of the closed loop.
/// `samples` are `(now_ns, server CPU ms so far)`, one per generator tick.
fn closed_loop_cpu_ms_per_kop(samples: &[(u64, f64)], closed: &[Done]) -> Vec<f64> {
    let mut done_ns: Vec<u64> = closed.iter().map(|d| d.done_ns).collect();
    done_ns.sort_unstable();
    let (Some(&first), Some(&last)) = (done_ns.first(), done_ns.last()) else {
        return Vec::new();
    };
    let edges: Vec<(u64, f64)> = samples
        .iter()
        .filter(|(t, _)| (first..=last).contains(t))
        .step_by(CPU_SLICE_TICKS)
        .copied()
        .collect();
    edges
        .windows(2)
        .filter_map(|w| {
            let replies =
                done_ns.partition_point(|&t| t < w[1].0) - done_ns.partition_point(|&t| t < w[0].0);
            (replies > 0).then(|| (w[1].1 - w[0].1) / (replies as f64 / 1e3))
        })
        .collect()
}

/// The three measured phases on a warmed rig.
struct Phases {
    open: [Vec<Done>; 2],
    closed: Vec<Done>,
}

impl Phases {
    fn total(&self) -> u64 {
        (self.open[0].len() + self.open[1].len() + self.closed.len()) as u64
    }
}

fn run_phases(
    rig: &mut Rig,
    cfg: RunCfg,
    seconds: f64,
    mix: &[Request],
    out: &mut Outcome,
    mut tick: impl FnMut(u64),
) -> Phases {
    let sizes = cfg.sizes();
    let split = phase_seconds(seconds);
    let mut open = [Vec::new(), Vec::new()];
    for (i, rate) in sizes.srv_rates.iter().enumerate() {
        let schedule = inputs::open_loop_schedule(cfg.seed, i as u64, *rate, split[i], &sizes);
        open[i] = rig.gen.open_loop(&schedule, &mut tick);
        rig.account(&open[i], out);
    }
    let closed = rig.gen.closed_loop(mix, usize::MAX, split[2], &mut tick);
    rig.account(&closed, out);
    Phases { open, closed }
}

pub fn run(cfg: RunCfg) -> Outcome {
    let mut out = new_outcome("server-open", cfg);
    let result = if cfg.trace {
        run_traced(cfg, &mut out)
    } else {
        run_untraced(cfg, &mut out)
    };
    if let Err(e) = result {
        out.violate(format!("server-open: I/O error outside a request: {e}"));
    }
    out
}

fn warm_to_floor(rig: &mut Rig, sizes: &Sizes, mix: &[Request], out: &mut Outcome) {
    let left = sizes.warm_floor.saturating_sub(rig.built.elapsed());
    if !left.is_zero() {
        let warm = rig
            .gen
            .closed_loop(mix, usize::MAX, left.as_secs_f64(), |_| {});
        rig.account(&warm, out);
    }
}

fn run_untraced(cfg: RunCfg, out: &mut Outcome) -> std::io::Result<()> {
    let sizes = cfg.sizes();
    let mix = inputs::closed_loop_mix(cfg.seed, CLOSED_MIX_LEN, &sizes);

    let mut setups = Vec::new();
    let mut kept = None;
    let mut peak_rss_mb = 0.0;
    for i in 0..sizes.srv_setups {
        let (rig, secs) = Rig::set_up(cfg, &mix, out)?;
        setups.push(secs);
        if i == 0 {
            // The first server, connected and warmed: read before later
            // runtimes' threads pick new allocator arenas, and before the
            // generator's own per-request records grow.
            peak_rss_mb = host::peak_rss_mb();
        }
        if i + 1 < sizes.srv_setups {
            rig.tear_down("set-up server", out);
        } else {
            kept = Some(rig);
        }
    }
    let mut rig = kept.expect("at least one set-up");
    warm_to_floor(&mut rig, &sizes, &mix, out);

    out.notes
        .push(("thread_census".into(), host::thread_census()));
    // The server's CPU time: the process's, less this generator thread's
    // and the keep-awake spinners'. Sampled at every generator tick.
    let spinner_cpu_ms = rig.keep_awake.cpu_meter();
    let server_cpu_ms = || host::process_cpu_ms() - host::thread_cpu_ms() - spinner_cpu_ms();
    let mut cpu_samples = vec![(now_ns(), server_cpu_ms())];
    let phases = run_phases(&mut rig, cfg, cfg.seconds, &mix, out, |_| {
        cpu_samples.push((now_ns(), server_cpu_ms()));
    });
    cpu_samples.push((now_ns(), server_cpu_ms()));
    rig.tear_down("measured server", out);

    let ok_ratio = 1.0 - out.fail_ratio();
    let m = &mut out.metrics;
    m.put_n("setup_s", stats::median(&mut setups), Some(setups.len()));
    let mut jobs_ms = closed_loop_jobs_ms(&phases.closed);
    let job_fast = stats::fast(&mut jobs_ms);
    m.put_n(
        "throughput_ops_s",
        REPLIES_PER_JOB as f64 / (job_fast / 1e3),
        Some(jobs_ms.len()),
    );
    m.put_n("job_p10_ms", job_fast, Some(jobs_ms.len()));
    let mut limit_met = true;
    let (mut late, mut tails) = (Vec::new(), Vec::new());
    for (tag, done) in ["r4k", "r16k"].iter().zip(&phases.open) {
        let lat = latency_percentiles(done);
        if *tag == "r4k" {
            m.put_n("lat_p10_us_r4k", lat.fast, Some(lat.samples));
        }
        // The medians and tails are too unsteady on a shared host to carry
        // a bound: they are per-layer metrics of the traced run, and noted
        // here.
        tails.push(Value::str(format!(
            "{tag}: p10 {:.1} us, p50 {:.1} us, p99 {:.1} us, n={}",
            lat.fast, lat.p50, lat.p99, lat.samples
        )));
        limit_met &= lat.p99 <= LATENCY_LIMIT_US;
        late.push(Value::Num(lateness_p99_us(done)));
    }
    // CPU per request at saturation, slice by slice. A `--quick` closed
    // loop is shorter than two slices: it gets the average over all phases.
    let mut slices = closed_loop_cpu_ms_per_kop(&cpu_samples, &phases.closed);
    let cpu_ms_per_kop = if slices.is_empty() {
        let (first, last) = (cpu_samples[0].1, cpu_samples[cpu_samples.len() - 1].1);
        (last - first) / (phases.total() as f64 / 1e3)
    } else {
        stats::fast(&mut slices)
    };
    m.put_n("cpu_ms_per_kop", cpu_ms_per_kop, Some(slices.len().max(1)));
    // A Block-mode server with one worker serves one connection at a time
    // and starves the rest, so there is no blocking baseline to divide by.
    m.put("speedup_over_ws", 1.0);
    m.put("peak_rss_mb", peak_rss_mb);
    m.put("ok_ratio", ok_ratio);
    out.notes
        .push(("generator_late_us_p99".into(), Value::Arr(late)));
    out.notes.push(("latency".into(), Value::Arr(tails)));
    out.notes.push((
        "latency_limit".into(),
        Value::str(format!(
            "p99 <= {LATENCY_LIMIT_US} us at both fixed rates: {}",
            if limit_met { "met" } else { "MISSED" }
        )),
    ));
    Ok(())
}

/// The per-request spans of the stamped requests of one open-loop phase
/// (the generator's view joined with the handler's stamps on connection
/// port and ordinal), and the requests that were not stamped.
fn request_spans(done: &[Done], logs: &[ConnLog], id0: u64) -> (Vec<Span>, Vec<Done>) {
    let mut by_key = HashMap::new();
    for log in logs {
        for s in &log.stamps {
            by_key.insert((log.peer_port, s.seq), *s);
        }
    }
    let mut spans = Vec::new();
    let mut unstamped = Vec::new();
    for (i, d) in done.iter().enumerate() {
        // The handler counts the requests it served and the generator the
        // ones it sent, both from 1 per connection, so they pair directly.
        let Some(s) = by_key.get(&(d.port, d.seq)).filter(|_| d.ok) else {
            unstamped.push(*d);
            continue;
        };
        let id = id0 + i as u64;
        let mut push = |name, parent, a: u64, b: u64| {
            spans.push(Span {
                name,
                parent,
                id,
                elem: 0,
                start_ns: a,
                end_ns: b.max(a),
            });
        };
        push("gen.queue", "", d.due_ns, d.sent_ns);
        push("server.wake", "gen.queue", d.sent_ns, s.woke_ns);
        push("server.compute", "server.wake", s.woke_ns, s.computed_ns);
        push(
            "server.write",
            "server.compute",
            s.computed_ns,
            s.written_ns,
        );
        push("gen.return", "server.write", s.written_ns, d.done_ns);
    }
    (spans, unstamped)
}

const REQUEST_SPANS: [&str; 5] = [
    "gen.queue",
    "server.wake",
    "server.compute",
    "server.write",
    "gen.return",
];

/// `num / den`, or 0 when a `--quick` phase was too short to fill `den`.
fn fratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median closed-loop throughput (replies per second) over the even and
/// over the odd `slice_ns`-long slices of a phase; the first and last
/// slice are partial and dropped.
fn throughput_by_slice_parity(done: &[Done], slice_ns: u64) -> (f64, f64) {
    let start = done.iter().map(|d| d.sent_ns).min().unwrap_or(0);
    let mut counts: Vec<u64> = Vec::new();
    for d in done {
        let slice = ((d.done_ns - start) / slice_ns) as usize;
        if counts.len() <= slice {
            counts.resize(slice + 1, 0);
        }
        counts[slice] += 1;
    }
    let per_s = |parity: usize| -> f64 {
        let mut v: Vec<f64> = counts
            .iter()
            .enumerate()
            .skip(1)
            .take(counts.len().saturating_sub(2))
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, c)| *c as f64 / (slice_ns as f64 / 1e9))
            .collect();
        stats::median(&mut v)
    };
    (per_s(0), per_s(1))
}

fn run_traced(cfg: RunCfg, out: &mut Outcome) -> std::io::Result<()> {
    out.metrics.merge(layers::run_all(cfg.quick));
    let sizes = cfg.sizes();
    let mix = inputs::closed_loop_mix(cfg.seed, CLOSED_MIX_LEN, &sizes);
    let (mut rig, _) = Rig::set_up(cfg, &mix, out)?;
    warm_to_floor(&mut rig, &sizes, &mix, out);
    out.notes
        .push(("thread_census".into(), host::thread_census()));

    let observer = rig.rt.observe();
    let wakeups = |o: &lhws::Observer| -> u64 {
        o.io_shards()
            .unwrap_or_default()
            .iter()
            .map(|s| s.wakeups)
            .sum()
    };
    let (m0, w0) = (rig.rt.metrics(), wakeups(&observer));

    // The three phases once, with the handlers' stamping switched every
    // slice: interleaved, stamped and unstamped requests see the same
    // phases of a shared host, so the overhead ratio and the budget check
    // do not inherit the drift between two separate windows.
    let slice_ns: u64 = if cfg.quick { 20_000_000 } else { 200_000_000 };
    let stamping = rig.stamping.clone();
    let phases = run_phases(&mut rig, cfg, cfg.seconds * 0.55, &mix, out, |since_ns| {
        stamping.store((since_ns / slice_ns) % 2 == 1, Ordering::Relaxed);
    });
    stamping.store(false, Ordering::Relaxed);

    let delta = rig.rt.metrics().delta(&m0);
    let reqs = phases.total();
    sched_metrics(&delta, reqs, &mut out.metrics);
    let m = &mut out.metrics;
    m.put(
        "net.io_registrations_per_req",
        ratio(delta.io_registrations, reqs),
    );
    m.put(
        "net.io_readiness_events_per_req",
        ratio(delta.io_readiness_events, reqs),
    );
    m.put(
        "net.shard_wakeups_per_req",
        ratio(wakeups(&observer) - w0, reqs),
    );
    m.put("net.io_timeouts", delta.io_timeouts as f64);
    let (off_ops_s, on_ops_s) = throughput_by_slice_parity(&phases.closed, slice_ns);
    m.put("span.overhead_ratio", fratio(on_ops_s, off_ops_s));

    // The scraper: 10 Hz `export_prometheus` during the odd slices only,
    // called from the generator's own loop so that no extra thread runs.
    let mut next_scrape_ns = 0;
    let scraped = rig
        .gen
        .closed_loop(&mix, usize::MAX, cfg.seconds * 0.15, |since_ns| {
            if (since_ns / slice_ns) % 2 == 1 && since_ns >= next_scrape_ns {
                next_scrape_ns = since_ns + 100_000_000;
                std::hint::black_box(observer.export_prometheus());
            }
        });
    rig.account(&scraped, out);
    let (plain_ops_s, scraped_ops_s) = throughput_by_slice_parity(&scraped, slice_ns);
    out.metrics.put(
        "obs.scrape_over_noscrape",
        fratio(scraped_ops_s, plain_ops_s),
    );

    let logs = rig.tear_down("traced server", out);
    let (low, low_off) = request_spans(&phases.open[0], &logs, 0);
    let (high, high_off) = request_spans(&phases.open[1], &logs, phases.open[0].len() as u64);
    if low.is_empty() || low_off.is_empty() {
        out.violate("traced server: a phase has no stamped or no unstamped requests".to_string());
    }

    // Untraced latencies: the unstamped requests of each rate.
    for (tag, done) in [("r4k", &low_off), ("r16k", &high_off)] {
        let lat = latency_percentiles(done);
        out.metrics
            .put_n(&format!("lat_p50_us_{tag}"), lat.p50, Some(lat.samples));
        out.metrics
            .put_n(&format!("lat_p99_us_{tag}"), lat.p99, Some(lat.samples));
    }
    let mut jobs_ms = closed_loop_jobs_ms(&phases.closed);
    out.metrics.put_n(
        "job_p50_ms",
        stats::median(&mut jobs_ms),
        Some(jobs_ms.len()),
    );
    // Span metrics and the budget come from the low rate, where queueing
    // does not blur the attribution; lateness is the worse of both rates.
    span_metrics(&low, &REQUEST_SPANS, &mut out.metrics);
    out.metrics.put(
        "span.gen.late_us_p99",
        lateness_p99_us(&phases.open[0]).max(lateness_p99_us(&phases.open[1])),
    );
    let budget_us: f64 = REQUEST_SPANS
        .iter()
        .map(|name| {
            out.metrics
                .get(&format!("span.{name}_us_p50"))
                .unwrap_or(0.0)
        })
        .sum();
    check_budget(budget_us, latency_percentiles(&low_off).p50, out);

    let mut all = low;
    all.extend(high);
    write_trace("server-open", all, out);
    let fail_ratio = out.fail_ratio();
    out.metrics.put("fail_ratio", fail_ratio);
    Ok(())
}
