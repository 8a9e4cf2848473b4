//! The benchmark's declared surface (`BENCHMARK.json`, compiled in so the
//! binary and the file cannot disagree) and the frozen workload sizes.
//!
//! Sizes are constants, never calibrated at run time: the parent commit
//! and a change must see identical inputs.

use std::time::Duration;

use crate::json::{self, Value};

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    pub fn load() -> Spec {
        let root = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let decls = |key: &str| -> Vec<MetricDecl> {
            root.get(key)
                .map(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| MetricDecl {
                    name: field(m, "name"),
                    unit: field(m, "unit"),
                    higher_is_better: field(m, "better") == "higher",
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("run_seconds"),
            workloads: root
                .get("workloads")
                .map(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|w| field(w, "name"))
                .collect(),
            end_to_end: decls("end_to_end"),
            per_layer: decls("per_layer"),
        }
    }

    pub fn decl(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn field(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing string field {key:?}"))
        .to_string()
}

/// The paper's "large constant" modulus for job checksums (as `fig11`).
pub const MODULUS: u64 = 1_000_000_007;

/// Frozen sizes of every workload, full and `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `fib-compute`: index and sequential cutoff.
    pub fib_n: u64,
    pub fib_cutoff: u64,
    /// `spawn-flat`: leaves per job and the index each computes.
    pub flat_leaves: usize,
    pub flat_fib: u64,
    /// `mapreduce-latency`: elements, per-element latency and index.
    pub mr_elems: usize,
    pub mr_delta: Duration,
    pub mr_fib: u64,
    /// `pipeline-channel`: messages per job, per-stage index, the burst of
    /// messages the sink acknowledges at a time (the source keeps a bounded
    /// number of bursts in flight), and the pipelines a job runs side by
    /// side, each on its own slice of the messages.
    pub pipe_msgs: usize,
    pub pipe_fib: u64,
    pub pipe_burst: usize,
    pub pipe_lanes: usize,
    /// `server-open`: connections, the two fixed rates, request range.
    pub srv_conns: usize,
    pub srv_rates: [f64; 2],
    pub srv_n_lo: u64,
    pub srv_n_hi: u64,
    /// Closed-loop requests run inside each timed `server-open` set-up.
    pub warm_requests: usize,
    /// How long warm-up continues on each runtime before it is measured.
    pub warm_floor: Duration,
    /// Timed set-ups per batch run, each followed by its share of the
    /// window; `setup_s` is their median.
    pub setups: usize,
    /// Timed set-ups per `server-open` run (only the last is measured on,
    /// so more of them cost a third of a second each).
    pub srv_setups: usize,
}

pub const PIPE_STAGES: usize = 4;
/// A reply later than this is a failure (and misses the latency limit).
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(1);
/// `server-open` latency limit on p99, reported next to the percentiles.
pub const LATENCY_LIMIT_US: f64 = 2000.0;

impl Sizes {
    pub fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                fib_n: 18,
                fib_cutoff: 10,
                flat_leaves: 500,
                flat_fib: 10,
                mr_elems: 64,
                mr_delta: Duration::from_millis(1),
                mr_fib: 12,
                pipe_msgs: 2000,
                pipe_fib: 6,
                pipe_burst: 4,
                pipe_lanes: 4,
                srv_conns: 8,
                srv_rates: [500.0, 2000.0],
                srv_n_lo: 8,
                srv_n_hi: 12,
                warm_requests: 64,
                warm_floor: Duration::from_millis(20),
                setups: 2,
                srv_setups: 2,
            }
        } else {
            Sizes {
                fib_n: 35,
                fib_cutoff: 12,
                flat_leaves: 20_000,
                flat_fib: 14,
                mr_elems: 2000,
                mr_delta: Duration::from_millis(5),
                mr_fib: 20,
                pipe_msgs: 200_000,
                pipe_fib: 10,
                pipe_burst: 4,
                pipe_lanes: 32,
                srv_conns: 64,
                srv_rates: [4000.0, 16_000.0],
                srv_n_lo: 8,
                srv_n_hi: 16,
                warm_requests: 20_000,
                warm_floor: Duration::from_secs(1),
                setups: 3,
                srv_setups: 5,
            }
        }
    }
}
