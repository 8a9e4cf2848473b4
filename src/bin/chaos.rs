//! Seeded chaos soak: run a mix of workloads under an aggressive fault
//! plan, then audit the recorded trace against the scheduler invariants.
//!
//! ```text
//! cargo run --release --bin chaos -- \
//!     [--seed N] [--workers P] [--rounds R] [--quick] [--live-audit]
//!     [--kill [--respawn-budget B]] [--replay SEED[@0xDIGEST]]
//! ```
//!
//! Exits nonzero if any workload computes a wrong result, leaks a
//! suspension, or fails the trace audit. The fault *schedule* is a pure
//! function of the seed (printed as `schedule_digest`), so a failing seed
//! reruns with the same fault decisions every time. `--replay` is the
//! reproduction entry point, mirroring `lhws-check --replay`: it takes
//! the seed (optionally with the `schedule_digest` the failing run
//! printed, joined by `@`) and verifies the digest **before** running —
//! a replay against a changed fault-plan version fails loudly instead of
//! silently soaking a different schedule.
//!
//! With `--kill` every round also arms `worker_panic_after`: each worker's
//! scheduler loop panics once mid-workload, and a respawn budget
//! (`--respawn-budget`, default 4) turns the fail-stop poison into
//! supervised respawn with deque rescue. The round then must *heal*:
//! results still correct, no poison, at least one worker restarted, at
//! least one deque rescued, the counters agreeing with the
//! `WorkerDeath`/`WorkerRespawn` trace events, and the audit clean.
//!
//! With `--live-audit` the invariants are checked *during* the soak, not
//! after it: an incremental [`TraceReader`](lhws::TraceReader) is
//! polled from a separate thread while the faults fire, feeding an
//! [`AuditState`] that flags monotone violations the moment they appear.
//! The poller's last poll comes after shutdown and folds in the rest of
//! the run; the streaming verdict is then compared, count for count,
//! against the classic post-hoc auditor over the reassembled complete
//! trace — they must agree exactly.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lhws::channel::mpsc;
use lhws::trace::TraceEvent;
use lhws::{
    fork2, join_all, simulate_latency, spawn, AuditReport, AuditState, FaultPlan, Reactor, Runtime,
    TcpListener, TcpStream, Trace,
};

const TRACE_CAPACITY: usize = 1 << 18;

/// Fixed per-site visit horizon for the printed schedule digest: makes
/// the digest a pure function of the plan, independent of how many visits
/// a particular run happened to consume.
const DIGEST_VISITS: u64 = 100_000;

/// When killing, each worker's loop panics once at its own N-th
/// iteration — early enough to land mid-scatter (the first workload),
/// while every worker still owns live deques full of work to rescue.
const KILL_AT_ITERATION: u64 = 40;

/// `--name value` from the command line, parsed; `default` when the flag is
/// absent. A flag with a missing or malformed value ends the process.
fn arg<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    let Some(i) = args.iter().position(|a| a == name) else {
        return default;
    };
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("chaos: {name} needs a value of the right type");
            std::process::exit(2)
        })
}

fn chaos_rt(seed: u64, workers: usize, respawn_budget: Option<u64>) -> Runtime {
    let mut plan = FaultPlan::chaos(seed);
    if respawn_budget.is_some() {
        plan = plan.worker_panic_after(KILL_AT_ITERATION);
    }
    let mut b = Runtime::builder()
        .workers(workers)
        .trace_capacity(TRACE_CAPACITY)
        .fault_plan(plan);
    if let Some(budget) = respawn_budget {
        b = b.worker_respawn_budget(budget);
    }
    b.build().expect("chaos plan is valid")
}

/// Fan-out of latency-suspending tasks (the paper's scatter/gather shape).
fn scatter(rt: &Runtime, n: u64) -> Result<(), String> {
    let got = rt.block_on(async move {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                spawn(async move {
                    simulate_latency(Duration::from_micros(150 + (i % 11) * 60)).await;
                    i
                })
            })
            .collect();
        join_all(handles).await.into_iter().sum::<u64>()
    });
    let want: u64 = (0..n).sum();
    if got != want {
        return Err(format!("scatter: got {got}, want {want}"));
    }
    Ok(())
}

/// Producer/consumer interaction through an mpsc channel.
fn pingpong(rt: &Runtime, n: u64) -> Result<(), String> {
    let got = rt.block_on(async move {
        let (tx, mut rx) = mpsc::<u64>();
        let producer = spawn(async move {
            for i in 0..n {
                simulate_latency(Duration::from_micros(100)).await;
                tx.send(i).unwrap();
            }
        });
        let mut sum = 0;
        while let Some(v) = rx.recv().await {
            sum += v;
        }
        producer.await;
        sum
    });
    let want: u64 = (0..n).sum();
    if got != want {
        return Err(format!("pingpong: got {got}, want {want}"));
    }
    Ok(())
}

/// Nested fork-join compute (steal pressure without latency).
fn forkjoin(rt: &Runtime, depth: u64) -> Result<(), String> {
    fn fib(n: u64) -> std::pin::Pin<Box<dyn std::future::Future<Output = u64> + Send>> {
        Box::pin(async move {
            if n < 2 {
                n
            } else {
                let (a, b) = fork2(fib(n - 1), fib(n - 2)).await;
                a + b
            }
        })
    }
    let before = rt.metrics();
    let got = rt.block_on(fib(depth));
    let after = rt.metrics();
    // fib(depth), iteratively.
    let want = (0..depth).fold((0u64, 1u64), |(a, b), _| (b, a + b)).0;
    if got != want {
        return Err(format!("forkjoin: got {got}, want {want}"));
    }
    // Unstolen right halves are taken back and run inside the parent's
    // poll, faults or not: were every fork to promote its right half, there
    // would be a task per fork.
    fn forks(n: u64) -> u64 {
        if n < 2 {
            0
        } else {
            1 + forks(n - 1) + forks(n - 2)
        }
    }
    let promoted = after.forks_promoted - before.forks_promoted;
    if promoted >= forks(depth) {
        return Err(format!(
            "forkjoin: {promoted} of {} forks promoted — no fork ran its right half inline",
            forks(depth)
        ));
    }
    Ok(())
}

/// Loopback TCP echo through the epoll reactor the workers harvest: every
/// socket is registered once, edge-triggered, so a `DroppedReadiness`
/// swallowed by a harvesting worker must be recovered by the reactor's
/// explicit re-arm, and an `AcceptBurst` by the re-arm of the accept
/// loop's next wait.
fn netecho(rt: &Runtime, conns: u64) -> Result<(), String> {
    let reactor = Reactor::builder(rt)
        .build()
        .map_err(|e| format!("netecho: reactor: {e}"))?;
    let got = rt.block_on(async move {
        let listener = TcpListener::bind(&reactor, "127.0.0.1:0")
            .map_err(|e| format!("netecho: bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let serve = async {
            let mut sum = 0u64;
            for _ in 0..conns {
                let (mut conn, _) = listener.accept().await.map_err(|e| e.to_string())?;
                let mut buf = [0u8; 16];
                let n = conn.read(&mut buf).await.map_err(|e| e.to_string())?;
                conn.write_all(&buf[..n]).await.map_err(|e| e.to_string())?;
                let s = std::str::from_utf8(&buf[..n]).map_err(|e| e.to_string())?;
                sum += s.parse::<u64>().map_err(|e| e.to_string())?;
            }
            Ok::<u64, String>(sum)
        };
        let r2 = reactor.clone();
        let drive = async move {
            for i in 0..conns {
                let mut s =
                    TcpStream::connect(&r2, addr).map_err(|e| format!("netecho: connect: {e}"))?;
                let msg = i.to_string();
                s.write_all(msg.as_bytes())
                    .await
                    .map_err(|e| e.to_string())?;
                let mut buf = [0u8; 16];
                let n = s.read(&mut buf).await.map_err(|e| e.to_string())?;
                if buf[..n] != *msg.as_bytes() {
                    return Err(format!("netecho: conn {i}: bad echo"));
                }
            }
            Ok(())
        };
        let (served, drove) = fork2(serve, drive).await;
        drove?;
        served
    })?;
    let want: u64 = (0..conns).sum();
    if got != want {
        return Err(format!("netecho: got {got}, want {want}"));
    }
    Ok(())
}

/// Continuous-audit rig for one round: a reader polled from its own
/// thread for the duration of the soak and through shutdown, streaming
/// batches into an [`AuditState`] and keeping every event for the
/// post-hoc replay.
struct LiveAuditRig {
    stop: Arc<AtomicBool>,
    poller: std::thread::JoinHandle<(AuditState, Vec<TraceEvent>, usize)>,
}

impl LiveAuditRig {
    fn start(rt: &Runtime, round: u64) -> LiveAuditRig {
        let mut reader = rt.observe().trace_reader().expect("tracing enabled");
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let poller = std::thread::spawn(move || {
            let mut state = AuditState::new(reader.workers());
            let mut events = Vec::new();
            let mut flagged = 0u64;
            loop {
                // Read the flag before polling: once it is set the
                // runtime has shut down, and this poll is the final fold.
                let last = stop2.load(Ordering::Acquire);
                let batch = reader.poll_events();
                state.observe(&batch.events);
                state.observe_dropped(batch.dropped);
                events.extend(batch.events);
                // Streaming checks only — flag the instant one trips.
                if state.violation_count() > flagged {
                    flagged = state.violation_count();
                    eprintln!("round {round}: LIVE audit violation mid-soak (count now {flagged})");
                }
                if last {
                    return (state, events, reader.workers());
                }
                // A realistic observer cadence: hot enough to catch a
                // violation mid-soak, cool enough not to oversubscribe
                // small CI hosts (the soak itself is the workload).
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        LiveAuditRig { stop, poller }
    }

    /// Tells the poller to make its final poll, joins it, and returns
    /// `(live, posthoc)`: the streaming verdict and the classic auditor's
    /// verdict over the reassembled complete stream. Call it after the
    /// runtime's shutdown, so the final poll holds every event not yet
    /// seen.
    fn finish(self) -> (AuditReport, AuditReport) {
        self.stop.store(true, Ordering::Release);
        let (state, mut events, workers) = self.poller.join().expect("live-audit poller panicked");
        events.sort_by_key(|e| e.ts);
        let posthoc = Trace {
            events,
            dropped: state.dropped(),
            workers,
        }
        .audit();
        (state.report(), posthoc)
    }
}

/// The streaming and post-hoc reports must agree on everything the
/// auditor can count — same events, two observation orders.
fn audits_agree(live: &AuditReport, posthoc: &AuditReport) -> bool {
    live.passed() == posthoc.passed()
        && live.suspensions == posthoc.suspensions
        && live.readies == posthoc.readies
        && live.execs == posthoc.execs
        && live.unresolved == posthoc.unresolved
        && live.max_inflight == posthoc.max_inflight
        && live.violation_count == posthoc.violation_count
        && live.deque_high_water == posthoc.deque_high_water
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let mut seed: u64 = arg(&args, "--seed", 1);
    // --replay SEED[@0xDIGEST]: reproduce a failing soak. The digest
    // half, when present, is checked against this binary's fault plan
    // before any workload runs.
    let mut expect_digest: Option<u64> = None;
    let replay: String = arg(&args, "--replay", String::new());
    let replaying = !replay.is_empty();
    if replaying {
        let (s, d) = match replay.split_once('@') {
            Some((s, d)) => (s, Some(d)),
            None => (replay.as_str(), None),
        };
        seed = match s.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("--replay: bad seed {s:?} (want SEED or SEED@0xDIGEST)");
                return ExitCode::FAILURE;
            }
        };
        if let Some(d) = d {
            let hex = d.strip_prefix("0x").unwrap_or(d);
            expect_digest = match u64::from_str_radix(hex, 16) {
                Ok(v) => Some(v),
                Err(_) => {
                    eprintln!("--replay: bad digest {d:?} (want the printed schedule_digest)");
                    return ExitCode::FAILURE;
                }
            };
        }
    }
    let workers: usize = arg(&args, "--workers", 2);
    let quick = flag("--quick");
    let live_audit = flag("--live-audit");
    let kill = flag("--kill");
    let respawn_budget: u64 = arg(&args, "--respawn-budget", 4);
    let rounds: u64 = arg(&args, "--rounds", if quick { 1 } else { 4 });
    let n: u64 = if quick { 48 } else { 256 };
    let fib_depth: u64 = if quick { 10 } else { 14 };

    let plan = FaultPlan::chaos(seed);
    println!(
        "chaos soak: seed={seed} workers={workers} rounds={rounds}{}",
        if kill {
            " kill=on (worker respawn)"
        } else {
            ""
        }
    );
    let digest = plan.schedule_digest(DIGEST_VISITS);
    println!("schedule_digest=0x{digest:016x}");
    if let Some(want) = expect_digest {
        if digest != want {
            eprintln!(
                "--replay: schedule digest mismatch: recorded 0x{want:016x}, this build \
                 derives 0x{digest:016x} from seed {seed} — the fault plan has changed, \
                 the recorded schedule cannot be reproduced"
            );
            return ExitCode::FAILURE;
        }
        println!("replaying seed {seed}: schedule digest verified");
    } else if replaying {
        println!("replaying seed {seed}");
    }

    let mut failures = 0u32;
    for round in 0..rounds {
        let rt = chaos_rt(seed, workers, kill.then_some(respawn_budget));
        let rig = live_audit.then(|| LiveAuditRig::start(&rt, round));
        let results = [
            ("scatter", scatter(&rt, n)),
            ("pingpong", pingpong(&rt, n / 2)),
            ("forkjoin", forkjoin(&rt, fib_depth)),
            ("netecho", netecho(&rt, n / 8)),
        ];
        // A spurious-wake fault can leave a task's duplicate timer
        // registration behind after the task completed, and a resume
        // delay can keep that duplicate parked past the last join.
        // Give in-flight delayed resumes a bounded window to drain, so
        // the balance check below tests the scheduler rather than the
        // race between shutdown and an injected 500us delay.
        let drain_by = std::time::Instant::now() + Duration::from_millis(250);
        while rt.metrics().resumes < rt.metrics().suspensions
            && std::time::Instant::now() < drain_by
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = rt.shutdown();
        for (name, r) in results {
            if let Err(e) = r {
                eprintln!("FAIL round {round} {name}: {e}");
                failures += 1;
            }
        }
        if report.metrics.suspensions != report.metrics.resumes {
            eprintln!(
                "FAIL round {round}: unbalanced counters ({} suspensions, {} resumes; {} leaked, {} canceled ops, {} canceled io waits)",
                report.metrics.suspensions,
                report.metrics.resumes,
                report.leaked_suspensions,
                report.canceled_ops,
                report.canceled_io_waits
            );
            failures += 1;
        }
        if let Some(w) = report.poisoned_worker {
            // In kill mode the panics are expected — but the respawn
            // budget must absorb them, so poison is a failure either way.
            eprintln!("FAIL round {round}: worker {w} panicked{}", {
                if kill {
                    " (respawn budget exhausted or not honored)"
                } else {
                    ""
                }
            });
            failures += 1;
        }
        let trace = report.trace.expect("tracing enabled");
        if kill {
            if report.metrics.workers_restarted == 0 {
                eprintln!("FAIL round {round}: kill round killed no worker — nothing was tested");
                failures += 1;
            }
            if report.metrics.deques_rescued == 0 {
                eprintln!("FAIL round {round}: worker deaths rescued no deques");
                failures += 1;
            }
            // The trace must tell the same story as the counters. Only
            // checkable when the shutdown trace is the complete event
            // stream: no live reader moving the frontier, no ring overflow.
            if !live_audit && trace.dropped == 0 {
                let stats = trace.stats();
                if stats.worker_deaths != report.metrics.workers_restarted
                    || stats.worker_respawns != report.metrics.workers_restarted
                    || stats.rescued_deques != report.metrics.deques_rescued
                {
                    eprintln!(
                        "FAIL round {round}: counters disagree with trace: \
                         restarted={} deaths={} respawns={} rescued={} trace_rescued={}",
                        report.metrics.workers_restarted,
                        stats.worker_deaths,
                        stats.worker_respawns,
                        report.metrics.deques_rescued,
                        stats.rescued_deques
                    );
                    failures += 1;
                }
            }
        }
        let audit = match rig {
            // Continuous mode: the poller's final poll, after shutdown,
            // completes its stream. The streaming verdict must agree
            // exactly with the post-hoc auditor over the full replay.
            Some(rig) => {
                let (live, posthoc) = rig.finish();
                if !audits_agree(&live, &posthoc) {
                    eprintln!(
                        "FAIL round {round}: live audit diverged from post-hoc:\nlive: {live}\npost-hoc: {posthoc}"
                    );
                    failures += 1;
                }
                live
            }
            None => trace.audit(),
        };
        if !audit.passed() {
            eprintln!("FAIL round {round}: trace audit rejected:\n{audit}");
            failures += 1;
        }
        println!(
            "round {round}: faults_injected={} suspensions={}{} audit={}{}",
            report.faults_injected,
            report.metrics.suspensions,
            if kill {
                format!(
                    " restarted={} rescued={} rerouted={}",
                    report.metrics.workers_restarted,
                    report.metrics.deques_rescued,
                    report.metrics.resumes_rerouted
                )
            } else {
                String::new()
            },
            if audit.passed() { "pass" } else { "FAIL" },
            if live_audit { " (continuous)" } else { "" }
        );
    }

    if failures > 0 {
        eprintln!("chaos soak FAILED: {failures} failure(s) at seed {seed}");
        ExitCode::FAILURE
    } else {
        println!("chaos soak passed at seed {seed}");
        ExitCode::SUCCESS
    }
}
