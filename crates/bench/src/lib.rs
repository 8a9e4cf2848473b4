//! Shared machinery for the benchmark harness binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md §3 for the index); the
//! helpers here provide the map-reduce workload used by Figure 11, simple
//! flag parsing (no CLI dependency), and plain-text table output.

use std::time::{Duration, Instant};

use lhws_core::{join_all, par_map_reduce, simulate_latency, LatencyMode, Runtime};

/// Sequential naive Fibonacci — the paper's per-leaf computation
/// (`fib(30)` in the original evaluation).
pub fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

/// Parameters of the Figure 11 benchmark: map-reduce over `n` remote
/// values, each incurring `delta` of latency then computing `fib(fib_n)`,
/// summed modulo a large constant.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Params {
    /// Number of remote values (the paper: 5000). Equals the suspension
    /// width.
    pub n: u64,
    /// Simulated latency per fetch.
    pub delta: Duration,
    /// Fibonacci index computed per element (the paper: 30).
    pub fib_n: u64,
}

/// The paper's "large constant" modulus for the running sum.
pub const MODULUS: u64 = 1_000_000_007;

/// Runs the Figure 11 benchmark once on a fresh runtime and returns the
/// wall-clock time and the checksum.
pub fn run_fig11(params: Fig11Params, workers: usize, mode: LatencyMode) -> (Duration, u64) {
    let rt = Runtime::builder()
        .workers(workers)
        .mode(mode)
        .build()
        .unwrap();
    let delta = params.delta;
    let fib_n = params.fib_n;
    let start = Instant::now();
    let sum = rt.block_on(async move {
        par_map_reduce(
            0,
            params.n,
            move |_i| async move {
                // The paper's benchmark "simulates a latency of δ ms by
                // sleeping for δ ms and then immediately returning 30".
                simulate_latency(delta).await;
                fib(fib_n) % MODULUS
            },
            |a, b| (a + b) % MODULUS,
            0,
        )
        .await
    });
    (start.elapsed(), sum)
}

/// Expected checksum for [`run_fig11`] (for validating harness runs).
pub fn fig11_checksum(params: Fig11Params) -> u64 {
    let per = fib(params.fib_n) % MODULUS;
    (0..params.n).fold(0u64, |acc, _| (acc + per) % MODULUS)
}

/// Minimal flag parser: `--name value` pairs and bare subcommands.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args` (skipping the binary name).
    pub fn parse() -> Args {
        let mut out = Args::default();
        let mut it = std::env::args().skip(1).peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        out.pairs.push((name.to_string(), it.next().unwrap()));
                    }
                    _ => out.flags.push(name.to_string()),
                }
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// Value of `--name`, parsed, or the default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(default)
    }

    /// True if `--name` appeared as a bare flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Raw string value of `--name`, when it was given one.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Formats a speedup ×100 value as e.g. "12.34".
pub fn fmt_x100(v: u64) -> String {
    format!("{}.{:02}", v / 100, v % 100)
}

/// Standard worker counts for a host-limited sweep: 1, 2, 4, ... up to the
/// available parallelism.
pub fn host_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut ps = vec![1usize];
    let mut p = 2;
    while p < max {
        ps.push(p);
        p *= 2;
    }
    if *ps.last().unwrap() != max {
        ps.push(max);
    }
    ps
}

/// Drives one wave of `tasks` suspensions, each expiring `horizon` after
/// its first poll: every task registers with the timer, deadlines land
/// densely across the spawn window, and the wave completes when every
/// resumed task has run. This is the suspension/resume hot path end to
/// end — register, expire, batch-deliver, drain, reinject. (`horizon` is
/// per-task, not a common absolute deadline: an absolute deadline in the
/// past would complete without ever touching the timer.)
pub fn resume_wave(rt: &Runtime, tasks: u64, horizon: Duration) {
    rt.block_on(async move {
        let hs: Vec<_> = (0..tasks)
            .map(|_| {
                lhws_core::spawn(async move {
                    simulate_latency(horizon).await;
                })
            })
            .collect();
        join_all(hs).await;
    });
}

/// Re-exported for harness binaries.
pub use lhws_core as core_rt;
pub use lhws_dag as dag;
pub use lhws_sim as sim;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fib_values() {
        assert_eq!(fib(10), 55);
        assert_eq!(fib(20), 6765);
    }

    #[test]
    fn checksum_matches_run() {
        let params = Fig11Params {
            n: 8,
            delta: Duration::from_millis(1),
            fib_n: 12,
        };
        let (_, sum) = run_fig11(params, 2, LatencyMode::Hide);
        assert_eq!(sum, fig11_checksum(params));
        let (_, sum_b) = run_fig11(params, 2, LatencyMode::Block);
        assert_eq!(sum_b, fig11_checksum(params));
    }

    #[test]
    fn host_sweep_shape() {
        let ps = host_sweep();
        assert_eq!(ps[0], 1);
        assert!(ps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn fmt_x100_format() {
        assert_eq!(fmt_x100(1234), "12.34");
        assert_eq!(fmt_x100(100), "1.00");
        assert_eq!(fmt_x100(5), "0.05");
    }
}
