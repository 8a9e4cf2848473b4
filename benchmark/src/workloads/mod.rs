//! The five workloads. The four batch ones share the driver in
//! [`batch`]; `server-open` has its own (it also owns the generator).

pub mod batch;
pub mod fib_compute;
pub mod generator;
pub mod mapreduce_latency;
pub mod pipeline_channel;
pub mod server_open;
pub mod spawn_flat;

use lhws::MetricsSnapshot;

use crate::report::{Metrics, Outcome};
use crate::spec::Sizes;

/// What `run` was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

impl RunCfg {
    pub fn sizes(&self) -> Sizes {
        Sizes::new(self.quick)
    }
}

/// Runs `workload`; `None` for an unknown name.
pub fn run(workload: &str, cfg: RunCfg) -> Option<Outcome> {
    let sizes = cfg.sizes();
    Some(match workload {
        "fib-compute" => batch::run(&fib_compute::FibCompute::new(cfg.seed, &sizes), cfg),
        "spawn-flat" => batch::run(&spawn_flat::SpawnFlat::new(cfg.seed, &sizes), cfg),
        "mapreduce-latency" => batch::run(
            &mapreduce_latency::MapReduceLatency::new(cfg.seed, &sizes),
            cfg,
        ),
        "pipeline-channel" => batch::run(
            &pipeline_channel::PipelineChannel::new(cfg.seed, &sizes),
            cfg,
        ),
        "server-open" => server_open::run(cfg),
        _ => return None,
    })
}

pub fn new_outcome(workload: &str, cfg: RunCfg) -> Outcome {
    Outcome {
        workload: workload.to_string(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: cfg.trace,
        quick: cfg.quick,
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        metrics: Metrics::default(),
        notes: Vec::new(),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The `sched.*` counts: `Runtime::metrics()` deltas over a window of
/// `ops` operations.
pub fn sched_metrics(delta: &MetricsSnapshot, ops: u64, out: &mut Metrics) {
    let kops = ops.max(1) as f64 / 1e3;
    let per_kop = |count: u64| count as f64 / kops;
    out.put("sched.polls_per_op", ratio(delta.polls, ops));
    out.put(
        "sched.steals_attempted_per_kop",
        per_kop(delta.steals_attempted),
    );
    out.put(
        "sched.steal_hit_ratio",
        ratio(delta.steals_succeeded, delta.steals_attempted),
    );
    out.put("sched.steal_retries_per_kop", per_kop(delta.steal_retries));
    out.put(
        "sched.deque_switches_per_kop",
        per_kop(delta.deque_switches),
    );
    out.put("sched.suspensions_per_op", ratio(delta.suspensions, ops));
    out.put("sched.resumes_per_op", ratio(delta.resumes, ops));
    out.put("sched.pfor_batches_per_kop", per_kop(delta.pfor_batches));
    out.put("sched.unparks_per_kop", per_kop(delta.unparks));
    out.put(
        "sched.deques_allocated_per_kop",
        per_kop(delta.deques_allocated),
    );
    // High-water marks over the runtime's life (set-up included), not
    // window deltas: that is what Lemma 7 bounds.
    out.put(
        "sched.max_deques_per_worker",
        delta.max_deques_per_worker as f64,
    );
    out.put(
        "sched.live_deques_high_water",
        delta.live_deques_high_water as f64,
    );
}

/// Oracle on a finished runtime: a clean [`lhws::ShutdownReport`] and
/// Lemma 7 (`max_deques_per_worker ≤ U + 1`).
pub fn check_shutdown(rt: lhws::Runtime, width: u64, what: &str, outcome: &mut Outcome) {
    check_report(&rt.shutdown(), width, what, outcome);
}

/// [`check_shutdown`] for a caller that needs the report afterwards.
pub fn check_report(report: &lhws::ShutdownReport, width: u64, what: &str, outcome: &mut Outcome) {
    if report.leaked_suspensions != 0
        || report.canceled_ops != 0
        || report.canceled_io_waits != 0
        || report.poisoned_worker.is_some()
    {
        outcome.violate(format!(
            "{what}: unclean shutdown: {} leaked suspensions, {} canceled ops, \
             {} canceled io waits, poisoned worker {:?}",
            report.leaked_suspensions,
            report.canceled_ops,
            report.canceled_io_waits,
            report.poisoned_worker
        ));
    }
    if report.metrics.max_deques_per_worker > width + 1 {
        outcome.violate(format!(
            "{what}: Lemma 7 violated: a worker owned {} live deques, U + 1 = {}",
            report.metrics.max_deques_per_worker,
            width + 1
        ));
    }
}
