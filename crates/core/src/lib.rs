//! Latency-hiding work-stealing runtime.
//!
//! The primary contribution of *Muller & Acar, SPAA 2016*, as a real
//! multithreaded executor: user-level tasks (futures) are scheduled by work
//! stealing where each worker owns **many deques**, one active at a time. A
//! task that performs a latency-incurring operation ([`simulate_latency`],
//! [`RemoteService`]) *suspends* — its worker switches to other work
//! instead of blocking — and is reinjected in parallel with its batch when
//! the latency expires. On computations with no latency the runtime
//! behaves exactly like standard work stealing (one deque per worker).
//!
//! The paper's experimental baseline is one config knob away:
//! [`LatencyMode::Block`] makes latency operations block the worker thread,
//! turning the runtime into a conventional work stealer.
//!
//! ## Quickstart
//!
//! ```
//! use lhws_core::{Runtime, fork2, simulate_latency};
//! use std::time::Duration;
//!
//! let rt = Runtime::builder().workers(2).build().unwrap();
//! let sum = rt.block_on(async {
//!     let (a, b) = fork2(
//!         async { 20u32 },
//!         async {
//!             simulate_latency(Duration::from_millis(2)).await; // suspends
//!             22u32
//!         },
//!     )
//!     .await;
//!     a + b
//! });
//! assert_eq!(sum, 42);
//! ```
//!
//! ## Observability
//!
//! Turn on tracing with [`RuntimeBuilder::trace_capacity`]; every scheduler
//! decision (steals, suspensions, resumes, deque switches, parks) is then
//! recorded into per-worker lock-free rings. [`Runtime::observe`] hands out
//! incremental [`TraceReader`]s, [`Trace::export_chrome`] writes a
//! Chrome-trace/Perfetto JSON timeline, and
//! [`Trace::stats`](trace::Trace::stats) derives suspension-latency
//! histograms, steal success rates and per-worker live-deque high-water
//! marks (the quantity Lemma 7 bounds by `U + 1`).
//!
//! ## Chaos testing
//!
//! [`RuntimeBuilder::fault_plan`] arms deterministic, seeded fault
//! injection at the scheduler's decision points — delayed and reordered
//! resume deliveries, forced steal failures, spurious wakes, dropped
//! unparks, injected task and worker panics — and
//! [`Trace::audit`](trace::Trace::audit) checks the scheduler's
//! invariants over the recorded trace afterwards. See [`fault`].

#![warn(missing_docs)]

pub mod channel;
mod config;
pub mod driver;
pub mod external;
pub mod fault;
mod join;
mod latency;
mod metrics;
pub mod obs;
mod pfor;
pub mod rng;
mod runtime;
mod sleep;
mod steal;
pub mod sync;
mod task;
mod timer;
pub mod trace;
mod worker;

pub use config::{Config, ConfigError, LatencyMode, RuntimeBuilder};
pub use driver::{Driver, DriverHooks, DriverReport, IoShardSnapshot, IoShardStats, IoTraceEvent};
pub use external::{
    external_op, Canceled, Completer, DeadlineExt, DeadlineOp, ExternalOp, OpError,
};
pub use fault::{audit, AuditReport, AuditState, FaultPlan, FaultSite};
pub use join::JoinHandle;
pub use latency::{latency_until, simulate_latency, LatencyFuture, LatencyProfile, RemoteService};
pub use metrics::{Metrics, MetricsSnapshot};
pub use obs::{encode_prometheus, LiveAudit, Observer};
pub use runtime::{Runtime, RuntimeError, ShutdownReport};
pub use trace::{LiveStats, Trace, TraceBatch, TraceReader, TraceStats};

/// Model-checker entry points into the fused task (see `lhws-check`).
pub use task::check_hooks as task_check_hooks;

use std::future::Future;

/// Spawns a task onto the bottom of the current worker's active deque (the
/// fork of a fork-join), where idle workers can steal it at once. Must be
/// called from inside a task (`Runtime::block_on` / `Runtime::spawn`).
///
/// # Panics
/// Panics when called off a runtime worker thread.
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    worker::with_worker(|w| {
        w.expect(
            "lhws::spawn / lhws::fork2 require a worker context: \
             call them inside Runtime::block_on or Runtime::spawn",
        )
        .spawn(fut)
    })
}

/// Binary fork-join: spawns `right` as a stealable child task, runs `left`
/// inline as the continuation (the left child keeps the higher priority,
/// as in the paper's edge ordering), then joins — by popping `right` back
/// and running it inline too when no thief took it, so an unstolen fork
/// never suspends its parent.
///
/// Mirrors the paper's `fork2(e1, e2)` (Figures 8 and 10). A panic in
/// either branch propagates at the join point.
pub async fn fork2<A, B>(left: A, right: B) -> (A::Output, B::Output)
where
    A: Future,
    B: Future + Send + 'static,
    B::Output: Send + 'static,
{
    let handle = spawn(right);
    let la = left.await;
    let rb = handle.await;
    (la, rb)
}

/// Recursively fork-joins `f` over `lo..hi`, two halves at a time — the
/// skeleton of the paper's `distMapReduce` (Figure 8). Results are combined
/// with `g` (associative, with identity `id` for the empty range).
pub fn par_map_reduce<T, Ff, Fut, G>(
    lo: u64,
    hi: u64,
    f: Ff,
    g: G,
    id: T,
) -> std::pin::Pin<Box<dyn Future<Output = T> + Send>>
where
    T: Send + 'static,
    Ff: Fn(u64) -> Fut + Send + Sync + Clone + 'static,
    Fut: Future<Output = T> + Send + 'static,
    G: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
    Box::pin(async move {
        let n = hi.saturating_sub(lo);
        match n {
            0 => id,
            1 => f(lo).await,
            _ => {
                let piv = lo + n / 2;
                let (r1, r2) = fork2(
                    par_map_reduce(lo, piv, f.clone(), g.clone(), id),
                    // `piv < hi`, so the right half is never empty and
                    // needs no identity (`T` need not be `Clone`).
                    par_map_reduce_nonempty(piv, hi, f, g.clone()),
                )
                .await;
                g(r1, r2)
            }
        }
    })
}

fn par_map_reduce_nonempty<T, Ff, Fut, G>(
    lo: u64,
    hi: u64,
    f: Ff,
    g: G,
) -> std::pin::Pin<Box<dyn Future<Output = T> + Send>>
where
    T: Send + 'static,
    Ff: Fn(u64) -> Fut + Send + Sync + Clone + 'static,
    Fut: Future<Output = T> + Send + 'static,
    G: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
    debug_assert!(lo < hi);
    Box::pin(async move {
        if hi - lo == 1 {
            f(lo).await
        } else {
            let piv = lo + (hi - lo) / 2;
            let (r1, r2) = fork2(
                par_map_reduce_nonempty(lo, piv, f.clone(), g.clone()),
                par_map_reduce_nonempty(piv, hi, f, g.clone()),
            )
            .await;
            g(r1, r2)
        }
    })
}

/// Awaits every handle in order, collecting the results. The tasks were
/// already spawned, so they run in parallel; this only sequences the joins.
pub async fn join_all<T>(handles: impl IntoIterator<Item = JoinHandle<T>>) -> Vec<T> {
    let mut out = Vec::new();
    for h in handles {
        out.push(h.await);
    }
    out
}

/// Cooperatively yields the current task once: it is requeued at the
/// bottom of the active deque and re-polled after anything enabled in the
/// meantime.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(
        mut self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<()> {
        if self.yielded {
            std::task::Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            std::task::Poll::Pending
        }
    }
}
