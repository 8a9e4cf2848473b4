//! The driver shared by the four batch workloads: repeated jobs on one
//! long-lived runtime with `workers = nproc`, each job's checksum checked.
//!
//! `--trace 0`: timed set-ups, warm-up, the measured window with tracing
//! off, then the same job on a `LatencyMode::Block` runtime.
//! `--trace 1`: the layer probes, a window whose jobs alternate between
//! spans off and spans on, and the outside-in latency budget that must
//! reconcile the two.

use std::collections::HashMap;
use std::future::Future;
use std::path::PathBuf;
use std::pin::Pin;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhws::{LatencyMode, Runtime};

use super::{check_shutdown, new_outcome, sched_metrics, RunCfg};
use crate::host;
use crate::json::Value;
use crate::layers;
use crate::report::{Metrics, Outcome};
use crate::spans::{self, Span, SpanSink};
use crate::stats;

pub type JobFuture = Pin<Box<dyn Future<Output = u64> + Send>>;

/// One batch workload: how to build a job and what it must return.
pub trait Batch {
    fn name(&self) -> &'static str;
    /// Suspension width `U` of one job; Lemma 7 bounds a worker's live
    /// deques by `U + 1`.
    fn suspension_width(&self) -> u64;
    /// Operations one job completes (the unit of `throughput_ops_s`).
    fn ops_per_job(&self) -> u64;
    /// Jobs run inside each timed set-up.
    fn warm_jobs(&self, quick: bool) -> usize;
    /// Jobs run on the Block-mode runtime for `speedup_over_ws`; 0 when
    /// the metric is not defined for the workload.
    fn block_jobs(&self, _quick: bool) -> usize {
        0
    }
    /// The checksum every job must return.
    fn expected(&self) -> u64;
    /// The latency every element's blocking path contains by construction
    /// (`simulate_latency`'s δ); not lateness, so budgeted as a constant.
    fn elem_latency(&self) -> Duration {
        Duration::ZERO
    }
    /// Builds job number `id`. With `spans`, the job also records its
    /// `elem.suspend` / `elem.compute` spans there.
    fn job(&self, id: u64, spans: Option<Arc<SpanSink>>) -> JobFuture;
    /// Workload-specific per-layer metrics of the traced run.
    fn trace_extras(&self, _cfg: RunCfg, _out: &mut Outcome) {}
}

pub fn build_runtime(workers: usize, mode: LatencyMode) -> Runtime {
    // Default `Config` apart from the worker count and mode; in particular
    // the victim RNG seed stays the runtime's own.
    Runtime::builder()
        .workers(workers)
        .mode(mode)
        .build()
        .expect("default config with a worker count is valid")
}

/// Runs one job, checks its checksum, returns its wall time in ms.
fn run_job(
    w: &dyn Batch,
    rt: &Runtime,
    id: u64,
    spans: Option<&Arc<SpanSink>>,
    out: &mut Outcome,
) -> f64 {
    let start = host::now_ns();
    let got = rt.block_on(w.job(id, spans.cloned()));
    let end = host::now_ns();
    out.attempted += w.ops_per_job();
    if got != w.expected() {
        out.violate(format!(
            "{} job {id}: checksum {got}, expected {}",
            w.name(),
            w.expected()
        ));
        // The whole job's operations are suspect, not one.
        out.failed += w.ops_per_job() - 1;
    }
    if let Some(sink) = spans {
        sink.record(Span {
            name: "job",
            parent: "",
            id,
            elem: 0,
            start_ns: start,
            end_ns: end,
        });
    }
    (end - start) as f64 / 1e6
}

/// A measured window: per-job wall time, and process CPU time, in ms.
#[derive(Default)]
struct Window {
    job_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
}

impl Window {
    /// Job wall time at the fast quantile, in ms (see
    /// [`stats::FAST_QUANTILE`] for why not the median; each job already
    /// spans thousands of operations).
    fn job_fast_ms(&self) -> f64 {
        stats::fast(&mut self.job_ms.clone())
    }

    fn ops_per_s(&self, ops_per_job: u64) -> f64 {
        ops_per_job as f64 / (self.job_fast_ms() / 1e3)
    }

    fn cpu_ms_per_kop(&self, ops_per_job: u64) -> f64 {
        stats::fast(&mut self.cpu_ms.clone()) / (ops_per_job as f64 / 1e3)
    }
}

fn run_window(
    w: &dyn Batch,
    rt: &Runtime,
    seconds: f64,
    next_id: &mut u64,
    out: &mut Outcome,
) -> Window {
    let start = Instant::now();
    let mut window = Window::default();
    loop {
        let cpu0 = host::process_cpu_ms();
        window.job_ms.push(run_job(w, rt, *next_id, None, out));
        window.cpu_ms.push(host::process_cpu_ms() - cpu0);
        *next_id += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            return window;
        }
    }
}

/// Builds a runtime and runs the set-up jobs; returns it with the time
/// that took and the instant it was built.
fn set_up(
    w: &dyn Batch,
    cfg: RunCfg,
    next_id: &mut u64,
    out: &mut Outcome,
) -> (Runtime, f64, Instant) {
    let built = Instant::now();
    let rt = build_runtime(host::nproc(), LatencyMode::Hide);
    for _ in 0..w.warm_jobs(cfg.quick) {
        run_job(w, &rt, *next_id, None, out);
        *next_id += 1;
    }
    (rt, built.elapsed().as_secs_f64(), built)
}

fn warm_to_floor(
    w: &dyn Batch,
    rt: &Runtime,
    built: Instant,
    cfg: RunCfg,
    next_id: &mut u64,
    out: &mut Outcome,
) {
    while built.elapsed() < cfg.sizes().warm_floor {
        run_job(w, rt, *next_id, None, out);
        *next_id += 1;
    }
}

/// `speedup_over_ws`, Figure 11's ratio: the same job on a
/// `LatencyMode::Block` runtime (the paper's baseline: latency blocks the
/// worker) over the Hide job time the run reports. A workload that declares
/// no Block job reports exactly 1: the metric is not defined for it.
fn speedup_over_ws(
    w: &dyn Batch,
    cfg: RunCfg,
    window: &Window,
    next_id: u64,
    out: &mut Outcome,
) -> f64 {
    let jobs = w.block_jobs(cfg.quick);
    if jobs == 0 {
        return 1.0;
    }
    let block_rt = build_runtime(host::nproc(), LatencyMode::Block);
    let mut block_ms: Vec<f64> = (0..jobs)
        .map(|i| run_job(w, &block_rt, next_id + i as u64, None, out))
        .collect();
    check_shutdown(block_rt, w.suspension_width(), "block runtime", out);
    stats::median(&mut block_ms) / window.job_fast_ms()
}

pub fn run(w: &dyn Batch, cfg: RunCfg) -> Outcome {
    if cfg.trace {
        run_traced(w, cfg)
    } else {
        run_untraced(w, cfg)
    }
}

fn run_untraced(w: &dyn Batch, cfg: RunCfg) -> Outcome {
    let mut out = new_outcome(w.name(), cfg);
    let sizes = cfg.sizes();
    let mut next_id = 0u64;

    // The window is split over several freshly set-up runtimes. Each
    // set-up is timed (`setup_s` is their median), and a run whose one
    // runtime happened to land in a slow placement no longer decides the
    // run's figures on its own.
    let mut setups = Vec::new();
    let mut segment_p50 = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut window = Window::default();
    for i in 0..sizes.setups {
        let (rt, secs, built) = set_up(w, cfg, &mut next_id, &mut out);
        setups.push(secs);
        warm_to_floor(w, &rt, built, cfg, &mut next_id, &mut out);
        if i == 0 {
            out.notes
                .push(("thread_census".into(), host::thread_census()));
        }
        let segment = run_window(
            w,
            &rt,
            cfg.seconds / sizes.setups as f64,
            &mut next_id,
            &mut out,
        );
        check_shutdown(rt, w.suspension_width(), "measured runtime", &mut out);
        if i == 0 {
            // Read before later runtimes start: their threads may or may not
            // reuse the first ones' allocator arenas, which alone moves the
            // process's high-water mark by a third from run to run.
            peak_rss_mb = host::peak_rss_mb();
        }
        segment_p50.push(Value::Num(stats::median(&mut segment.job_ms.clone())));
        window.job_ms.extend(segment.job_ms);
        window.cpu_ms.extend(segment.cpu_ms);
    }
    out.notes
        .push(("segment_job_p50_ms".into(), Value::Arr(segment_p50)));

    let speedup = speedup_over_ws(w, cfg, &window, next_id, &mut out);

    let jobs = window.job_ms.len();
    let job_fast = window.job_fast_ms();
    let ok_ratio = 1.0 - out.fail_ratio();
    let m = &mut out.metrics;
    m.put_n("setup_s", stats::median(&mut setups), Some(setups.len()));
    m.put_n(
        "throughput_ops_s",
        window.ops_per_s(w.ops_per_job()),
        Some(jobs),
    );
    m.put_n("job_p10_ms", job_fast, Some(jobs));
    // No arrival rate exists on a batch workload; the latency cell repeats
    // the job time in µs so the (metric, workload) grid is total.
    m.put_n("lat_p10_us_r4k", job_fast * 1e3, Some(jobs));
    m.put("speedup_over_ws", speedup);
    m.put_n(
        "cpu_ms_per_kop",
        window.cpu_ms_per_kop(w.ops_per_job()),
        Some(jobs),
    );
    m.put("peak_rss_mb", peak_rss_mb);
    m.put("ok_ratio", ok_ratio);
    out
}

/// Adds the post-hoc `job.head` / `job.tail` spans of each job and returns
/// the per-job blocking chain `(head, suspend, compute, tail)` in µs: the
/// path through the element that finished last.
fn blocking_chains(spans: &mut Vec<Span>, delta: Duration) -> Vec<[f64; 4]> {
    let delta_ns = delta.as_nanos() as u64;
    // Per job: the element whose compute ended last, then its suspension.
    let mut last_compute: HashMap<u64, Span> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == "elem.compute") {
        let last = last_compute.entry(s.id).or_insert(*s);
        if s.end_ns > last.end_ns {
            *last = *s;
        }
    }
    let its_suspend: HashMap<u64, Span> = spans
        .iter()
        .filter(|s| s.name == "elem.suspend")
        .filter(|s| last_compute.get(&s.id).is_some_and(|c| c.elem == s.elem))
        .map(|s| (s.id, *s))
        .collect();

    let mut chains = Vec::new();
    let mut extra = Vec::new();
    for job in spans.iter().filter(|s| s.name == "job") {
        // A job without elements is its own chain.
        let (Some(crit), Some(suspend)) = (last_compute.get(&job.id), its_suspend.get(&job.id))
        else {
            continue;
        };
        let head_end = suspend.start_ns.saturating_sub(delta_ns).max(job.start_ns);
        let tail_start = crit.end_ns.min(job.end_ns);
        let edge = |name, start_ns, end_ns| Span {
            name,
            parent: "job",
            id: job.id,
            elem: crit.elem,
            start_ns,
            end_ns,
        };
        extra.push(edge("job.head", job.start_ns, head_end));
        extra.push(edge("job.tail", tail_start, job.end_ns));
        chains.push([
            (head_end - job.start_ns) as f64 / 1e3,
            suspend.dur_us(),
            crit.dur_us(),
            (job.end_ns - tail_start) as f64 / 1e3,
        ]);
    }
    spans.extend(extra);
    chains
}

/// Writes the spans kept in memory to `benchmark/out/trace-<workload>.jsonl`.
pub fn write_trace(workload: &str, spans: Vec<Span>, out: &mut Outcome) {
    let path = PathBuf::from("benchmark/out").join(format!("trace-{workload}.jsonl"));
    let total = spans.len();
    match spans::write_jsonl(&path, spans) {
        Ok(written) => out.notes.push((
            "trace_file".into(),
            Value::str(format!("{}: {written} of {total} spans", path.display())),
        )),
        Err(e) => out.violate(format!("cannot write {}: {e}", path.display())),
    }
}

/// Emits `span.<name>_us_p50/_p99` and `span.<name>_self_us_p50`.
pub fn span_metrics(spans: &[Span], names: &[&str], m: &mut Metrics) {
    for name in names {
        let (p50, p99, own, n) = spans::summary(spans, name);
        m.put_n(&format!("span.{name}_us_p50"), p50, Some(n));
        m.put_n(&format!("span.{name}_us_p99"), p99, Some(n));
        m.put_n(&format!("span.{name}_self_us_p50"), own, Some(n));
    }
}

/// The outside-in latency budget: the traced run's span medians along the
/// blocking path must add up to the untraced end-to-end median within 15 %.
///
/// `--quick` runs only report the ratio: their few dozen samples smoke-test
/// the plumbing and cannot carry a 15 % verdict.
pub fn check_budget(budget_us: f64, end_to_end_us: f64, out: &mut Outcome) {
    let ratio = budget_us / end_to_end_us;
    out.metrics.put("span.budget_ratio", ratio);
    if !out.quick && !(0.85..=1.15).contains(&ratio) {
        out.violate(format!(
            "latency budget does not reconcile: span p50s sum to {budget_us:.1} us, \
             untraced end-to-end p50 is {end_to_end_us:.1} us (ratio {ratio:.3})"
        ));
    }
}

fn run_traced(w: &dyn Batch, cfg: RunCfg) -> Outcome {
    let mut out = new_outcome(w.name(), cfg);
    out.metrics.merge(layers::run_all(cfg.quick));

    let mut next_id = 0u64;
    let (rt, _, built) = set_up(w, cfg, &mut next_id, &mut out);
    warm_to_floor(w, &rt, built, cfg, &mut next_id, &mut out);
    out.notes
        .push(("thread_census".into(), host::thread_census()));

    // One window in which jobs alternate between spans off and spans on.
    // Interleaved, both kinds see the same phases of a shared host, so
    // their ratio (the tracing overhead) and the budget check below do not
    // inherit the drift between two separate windows.
    let sink = Arc::new(SpanSink::default());
    let (mut off_ms, mut on_ms) = (Vec::new(), Vec::new());
    let m0 = rt.metrics();
    let start = Instant::now();
    loop {
        off_ms.push(run_job(w, &rt, next_id, None, &mut out));
        on_ms.push(run_job(w, &rt, next_id + 1, Some(&sink), &mut out));
        next_id += 2;
        if start.elapsed().as_secs_f64() >= cfg.seconds * 0.5 {
            break;
        }
    }
    let delta = rt.metrics().delta(&m0);
    let window_ops = (off_ms.len() + on_ms.len()) as u64 * w.ops_per_job();
    sched_metrics(&delta, window_ops, &mut out.metrics);
    check_shutdown(rt, w.suspension_width(), "traced runtime", &mut out);
    let off_p50_ms = stats::median(&mut off_ms);
    out.metrics
        .put_n("job_p50_ms", off_p50_ms, Some(off_ms.len()));
    out.metrics.put(
        "span.overhead_ratio",
        off_p50_ms / stats::median(&mut on_ms),
    );

    let mut all = sink.take();
    let chains = blocking_chains(&mut all, w.elem_latency());
    span_metrics(
        &all,
        &[
            "job",
            "job.head",
            "elem.suspend",
            "elem.compute",
            "job.tail",
        ],
        &mut out.metrics,
    );
    let budget_us = if chains.is_empty() {
        out.metrics.get("span.job_us_p50").unwrap_or(0.0)
    } else {
        let col = |i: usize| stats::median(&mut chains.iter().map(|c| c[i]).collect::<Vec<_>>());
        col(0) + w.elem_latency().as_secs_f64() * 1e6 + col(1) + col(2) + col(3)
    };
    check_budget(budget_us, off_p50_ms * 1e3, &mut out);

    w.trace_extras(cfg, &mut out);

    write_trace(w.name(), all, &mut out);
    let fail_ratio = out.fail_ratio();
    out.metrics.put("fail_ratio", fail_ratio);
    out
}
