//! `lhws-sim`: every paper table the simulator regenerates, one subcommand
//! each. All of it is deterministic given `--seed`; EXPERIMENTS.md records
//! the parameters behind each file under `results/`.
//!
//! ```text
//! cargo run -p lhws-sim --release -- fig11 [--n 1000 --leaf 400 --deltas 48000,4800,100 --pmax 30]
//! cargo run -p lhws-sim --release -- bounds [greedy|rounds|deques|steals|enabling|all]
//! cargo run -p lhws-sim --release -- ablation [steal-policy|resume|recycle|variants|all]
//! cargo run -p lhws-sim --release -- overhead
//! ```
//!
//! * `fig11` — Figure 11 with *virtual* workers up to P = 30 (and beyond),
//!   independent of the host's core count. Latency and work are in
//!   simulator rounds. With the paper's fib(30) taking a few milliseconds
//!   on their hardware, δ = 500 ms is a latency ≈ 100–150× the leaf work,
//!   δ = 50 ms ≈ 10×, δ = 1 ms ≈ 0.25×; the defaults keep those ratios
//!   with `leaf = 400` rounds and δ ∈ {48000, 4800, 100} rounds.
//! * `bounds` — every theorem and lemma measured, and asserted: `greedy`,
//!   Theorem 1 (greedy schedule length ≤ W/P + S); `rounds`, Lemma 1 (LHWS
//!   rounds ≤ (4W + R)/P); `deques`, Lemma 7 (max deques per worker ≤
//!   U + 1, U swept via the pipeline workload's width); `steals`,
//!   Theorem 2 (rounds vs. O(W/P + S·U·(1 + lg U)), steal attempts vs.
//!   O(P·S·U·(1 + lg U))); `enabling`, Corollary 1 (S* ≤ 2S(1 + lg U)).
//! * `ablation` — the design choices the paper calls out: `steal-policy`,
//!   random-deque (analyzed) vs. worker-then-deque (the paper's §6
//!   implementation choice); `resume`, pfor batch reinjection vs. a
//!   one-resume-per-round strawman; `recycle`, Figure 5 deque recycling
//!   vs. always-fresh allocation; `variants`, the paper's per-vertex
//!   suspension vs. the two Spoonhower-thesis multi-deque variants its
//!   related-work section contrasts, with Spoonhower's deviation metric.
//!   The simulator is the cheap place to keep these; the real runtime
//!   carries one arm of each (EXPERIMENTS.md "Retired arms").
//! * `overhead` — the U = 0 reduction: on a computation with no latency
//!   LHWS must match standard work stealing ("without penalizing the
//!   computations that don't incur such latency", paper §8): identical
//!   round counts modulo steal randomness, and exactly one deque per
//!   worker for both schedulers.

use std::process::ExitCode;

use lhws_dag::gen::{
    self, map_reduce, pipeline, random_sp, scatter_gather, server, RandomSpParams,
};
use lhws_dag::offline::{greedy_bound, greedy_schedule, validate_schedule};
use lhws_dag::{suspension_width, Metrics, WDag};
use lhws_sim::speedup::{run_lhws, run_ws, speedup_sweep};
use lhws_sim::{LhwsSim, ResumeBatching, SimConfig, StealPolicy, SuspendPolicy};

/// `--name value` from the command line, parsed; `default` when the flag is
/// absent. A flag with a missing or malformed value ends the process.
fn arg<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    let Some(i) = args.iter().position(|a| a == name) else {
        return default;
    };
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("lhws-sim: {name} needs a value of the right type");
            std::process::exit(2)
        })
}

/// Formats a speedup ×100 value as e.g. "12.34".
fn fmt_x100(v: u64) -> String {
    format!("{}.{:02}", v / 100, v % 100)
}

// ---------------------------------------------------------------------
// fig11
// ---------------------------------------------------------------------

fn fig11(args: &[String]) {
    let n: u64 = arg(args, "--n", 1000);
    let leaf: u64 = arg(args, "--leaf", 400);
    let deltas: Vec<u64> = arg(args, "--deltas", "48000,4800,100".to_string())
        .split(',')
        .filter_map(|s| s.parse().ok())
        .collect();
    let pmax: usize = arg(args, "--pmax", 30);
    let seed: u64 = arg(args, "--seed", 42);

    let ps: Vec<usize> = (1..=pmax)
        .filter(|p| *p == 1 || p % 2 == 0 || *p == pmax)
        .collect();

    println!("# Figure 11 (simulated): map-reduce, n={n}, leaf_work={leaf} rounds");
    println!("# speedups relative to WS at P=1; latency in rounds");

    for &delta in &deltas {
        let wl = map_reduce(n, delta, leaf, 1);
        println!(
            "\n## delta = {delta} rounds (delta/leaf = {:.2})",
            delta as f64 / leaf as f64
        );
        println!(
            "{:>4}  {:>12}  {:>12}  {:>10}  {:>10}",
            "P", "LHWS(rnds)", "WS(rnds)", "LHWS-spd", "WS-spd"
        );
        for pt in speedup_sweep(&wl.dag, &ps, seed) {
            println!(
                "{:>4}  {:>12}  {:>12}  {:>10}  {:>10}",
                pt.p,
                pt.lhws_rounds,
                pt.ws_rounds,
                fmt_x100(pt.lhws_speedup_x100),
                fmt_x100(pt.ws_speedup_x100)
            );
        }
    }
    println!("\n# done");
}

// ---------------------------------------------------------------------
// bounds
// ---------------------------------------------------------------------

fn families() -> Vec<(String, WDag)> {
    vec![
        ("map_reduce(64,d=40)".into(), map_reduce(64, 40, 8, 1).dag),
        (
            "map_reduce(256,d=200)".into(),
            map_reduce(256, 200, 8, 1).dag,
        ),
        ("server(40,d=30)".into(), server(40, 30, 8, 1).dag),
        ("fib(14)".into(), gen::fib(14, 4).dag),
        ("pipeline(8x6,d=25)".into(), pipeline(8, 6, 25, 3).dag),
        (
            "random_sp(seed=3)".into(),
            random_sp(RandomSpParams::default().seed(3).target_leaves(80)).dag,
        ),
    ]
}

fn table_greedy(ps: &[usize]) {
    println!("\n## Theorem 1: greedy schedule length <= W/P + S");
    println!(
        "{:>24}  {:>4}  {:>10}  {:>10}  {:>10}  {:>6}",
        "workload", "P", "W", "S", "length", "bound"
    );
    for (name, dag) in families() {
        let m = Metrics::compute(&dag);
        for &p in ps {
            let s = greedy_schedule(&dag, p);
            validate_schedule(&dag, &s).expect("greedy schedule valid");
            let bound = greedy_bound(&dag, p);
            assert!(s.length <= bound, "{name} P={p} violates Theorem 1");
            println!(
                "{:>24}  {:>4}  {:>10}  {:>10}  {:>10}  {:>6}",
                name, p, m.work, m.span, s.length, bound
            );
        }
    }
}

fn table_rounds(ps: &[usize], seed: u64) {
    println!("\n## Lemma 1: LHWS rounds <= (4W + R)/P   (R = steal attempts)");
    println!(
        "{:>24}  {:>4}  {:>10}  {:>10}  {:>10}  {:>10}",
        "workload", "P", "W", "rounds", "R", "bound"
    );
    for (name, dag) in families() {
        for &p in ps {
            let s = run_lhws(&dag, p, seed);
            let bound = s.lemma1_bound(dag.work());
            assert!(
                s.rounds <= bound + 1,
                "{name} P={p}: rounds {} > bound {bound}",
                s.rounds
            );
            println!(
                "{:>24}  {:>4}  {:>10}  {:>10}  {:>10}  {:>10}",
                name,
                p,
                dag.work(),
                s.rounds,
                s.steal_attempts,
                bound
            );
        }
    }
}

fn table_deques(ps: &[usize], seed: u64) {
    println!("\n## Lemma 7: max allocated deques per worker <= U + 1");
    println!(
        "{:>8}  {:>4}  {:>6}  {:>12}  {:>8}",
        "width", "P", "U", "max deques", "U+1"
    );
    for width in [1u64, 2, 4, 8, 16, 32] {
        let wl = pipeline(width, 4, 30, 2);
        let u = suspension_width(&wl.dag);
        for &p in ps {
            let s = run_lhws(&wl.dag, p, seed);
            assert!(
                s.max_deques_per_worker <= u + 1,
                "width={width} P={p} violates Lemma 7"
            );
            println!(
                "{:>8}  {:>4}  {:>6}  {:>12}  {:>8}",
                width,
                p,
                u,
                s.max_deques_per_worker,
                u + 1
            );
        }
    }
}

fn table_steals(seed: u64) {
    println!("\n## Theorem 2: rounds vs O(W/P + S*U*(1+lgU)); steals vs O(P*S*U*(1+lgU))");
    println!(
        "{:>8}  {:>4}  {:>10}  {:>12}  {:>10}  {:>14}",
        "U", "P", "rounds", "W/P+SUlgU", "steals", "P*S*U*(1+lgU)"
    );
    // Sweep U via map-reduce size at fixed leaf work.
    for n in [4u64, 16, 64, 256] {
        let wl = map_reduce(n, 60, 16, 1);
        let dag = &wl.dag;
        let m = Metrics::compute(dag);
        let u = suspension_width(dag);
        let lg = 64 - u.max(1).leading_zeros() as u64;
        for p in [2usize, 8] {
            let s = run_lhws(dag, p, seed);
            let thm2 = m.work / p as u64 + m.span * u * (1 + lg);
            let steal_bound = p as u64 * m.span * u * (1 + lg);
            println!(
                "{:>8}  {:>4}  {:>10}  {:>12}  {:>10}  {:>14}",
                u, p, s.rounds, thm2, s.steal_attempts, steal_bound
            );
        }
    }
    println!("# (asymptotic bounds shown without constants; shapes should track)");
}

fn lg(u: u64) -> u64 {
    if u <= 1 {
        0
    } else {
        64 - (u - 1).leading_zeros() as u64
    }
}

fn table_enabling(seed: u64) {
    println!("\n## Corollary 1: enabling span S* <= 2*S*(1 + lg U)");
    println!(
        "{:>28}  {:>4}  {:>8}  {:>6}  {:>8}  {:>10}",
        "workload", "P", "S", "U", "S*", "2S(1+lgU)"
    );
    for (name, dag) in families() {
        let m = Metrics::compute(&dag);
        let u = suspension_width(&dag);
        for p in [1usize, 4, 16] {
            let s = run_lhws(&dag, p, seed);
            let bound = (2 * m.span * (1 + lg(u))).max(m.span);
            assert!(
                s.enabling_span <= bound,
                "{name} P={p} violates Corollary 1"
            );
            println!(
                "{:>28}  {:>4}  {:>8}  {:>6}  {:>8}  {:>10}",
                name, p, m.span, u, s.enabling_span, bound
            );
        }
    }
}

fn bounds(which: &str, args: &[String]) {
    let seed: u64 = arg(args, "--seed", 7);
    let ps = [1usize, 2, 4, 8, 16];

    println!("# Bound tables (SPAA'16 latency-hiding work stealing)");
    match which {
        "greedy" => table_greedy(&ps),
        "rounds" => table_rounds(&ps, seed),
        "deques" => table_deques(&ps, seed),
        "steals" => table_steals(seed),
        "enabling" => table_enabling(seed),
        _ => {
            table_greedy(&ps);
            table_rounds(&ps, seed);
            table_deques(&ps, seed);
            table_steals(seed);
            table_enabling(seed);
        }
    }
    println!("\n# all asserted bounds hold");
}

// ---------------------------------------------------------------------
// ablation
// ---------------------------------------------------------------------

fn steal_policy(seed: u64) {
    println!("\n## steal policy: random-deque vs worker-then-deque (simulator)");
    println!(
        "{:>28}  {:>4}  {:>10}  {:>10}  {:>8}  {:>10}",
        "workload", "P", "policy", "rounds", "steals", "success%"
    );
    for (name, dag) in [
        ("map_reduce(128,d=100)", map_reduce(128, 100, 16, 2).dag),
        ("server(40,d=50)", server(40, 50, 16, 1).dag),
    ] {
        for p in [4usize, 8, 16] {
            for (pname, pol) in [
                ("random", StealPolicy::RandomDeque),
                ("worker", StealPolicy::WorkerThenDeque),
            ] {
                let s = LhwsSim::new(&dag, SimConfig::new(p).seed(seed).steal_policy(pol)).run();
                println!(
                    "{:>28}  {:>4}  {:>10}  {:>10}  {:>8}  {:>10}",
                    name,
                    p,
                    pname,
                    s.rounds,
                    s.steal_attempts,
                    s.steal_success_pct()
                );
            }
        }
    }
}

fn resume(seed: u64) {
    println!("\n## resume reinjection: pfor tree vs one-per-round (simulator)");
    println!("#  scatter_gather: n requests whose responses all arrive at once");
    println!(
        "{:>28}  {:>4}  {:>12}  {:>10}  {:>8}",
        "workload", "P", "batching", "rounds", "pfor"
    );
    for n in [64u64, 512] {
        let wl = scatter_gather(n, 2 * n, 4);
        let name = format!("scatter_gather({n})");
        for p in [4usize, 16] {
            for (bname, b) in [
                ("pfor", ResumeBatching::Pfor),
                ("one/round", ResumeBatching::OnePerRound),
            ] {
                let s =
                    LhwsSim::new(&wl.dag, SimConfig::new(p).seed(seed).resume_batching(b)).run();
                println!(
                    "{:>28}  {:>4}  {:>12}  {:>10}  {:>8}",
                    name, p, bname, s.rounds, s.pfor_vertices
                );
            }
        }
    }
}

fn recycle(seed: u64) {
    println!("\n## deque recycling (Figure 5) vs always-fresh allocation (simulator)");
    println!(
        "{:>28}  {:>4}  {:>10}  {:>14}",
        "workload", "P", "recycle", "deques alloc'd"
    );
    for (name, dag) in [
        ("server(100,d=20)", server(100, 20, 6, 1).dag),
        ("map_reduce(128,d=40)", map_reduce(128, 40, 8, 1).dag),
    ] {
        for p in [4usize, 8] {
            for (rname, r) in [("yes", true), ("no", false)] {
                let s = LhwsSim::new(&dag, SimConfig::new(p).seed(seed).recycle_deques(r)).run();
                println!(
                    "{:>28}  {:>4}  {:>10}  {:>14}",
                    name, p, rname, s.deques_allocated
                );
            }
        }
    }
}

fn variants(seed: u64) {
    println!("\n## suspension policy: the paper vs Spoonhower-thesis variants (simulator)");
    println!("#  per-vertex  = the paper (deque keeps running; new deques on steals)");
    println!("#  whole-deque = suspension parks the entire deque");
    println!("#  new-on-res  = every resume creates a fresh deque");
    println!(
        "{:>24}  {:>4}  {:>12}  {:>8}  {:>8}  {:>8}  {:>10}",
        "workload", "P", "policy", "rounds", "deques", "dq/wkr", "deviations"
    );
    for (name, dag) in [
        ("map_reduce(64,d=60)", map_reduce(64, 60, 8, 1).dag),
        ("server(40,d=30)", server(40, 30, 8, 1).dag),
        ("scatter_gather(64)", scatter_gather(64, 140, 4).dag),
    ] {
        for p in [4usize, 16] {
            for (pname, pol) in [
                ("per-vertex", SuspendPolicy::PerVertex),
                ("whole-deque", SuspendPolicy::WholeDeque),
                ("new-on-res", SuspendPolicy::NewDequeOnResume),
            ] {
                let s = LhwsSim::new(&dag, SimConfig::new(p).seed(seed).suspend_policy(pol)).run();
                println!(
                    "{:>24}  {:>4}  {:>12}  {:>8}  {:>8}  {:>8}  {:>10}",
                    name,
                    p,
                    pname,
                    s.rounds,
                    s.deques_allocated,
                    s.max_deques_per_worker,
                    s.deviations
                );
            }
        }
    }
}

fn ablation(which: &str, args: &[String]) {
    let seed: u64 = arg(args, "--seed", 5);

    println!("# Ablation tables");
    match which {
        "steal-policy" => steal_policy(seed),
        "resume" => resume(seed),
        "recycle" => recycle(seed),
        "variants" => variants(seed),
        _ => {
            steal_policy(seed);
            resume(seed);
            recycle(seed);
            variants(seed);
        }
    }
    println!("\n# done");
}

// ---------------------------------------------------------------------
// overhead
// ---------------------------------------------------------------------

fn overhead(args: &[String]) {
    let seed: u64 = arg(args, "--seed", 13);

    println!("# U = 0 reduction: LHWS vs WS on pure fork-join fib");
    let wl = gen::fib(16, 5);
    println!(
        "\n## simulator: fib dag, W={} (rounds; deques/worker)",
        wl.dag.work()
    );
    println!(
        "{:>4}  {:>12}  {:>12}  {:>10}  {:>10}",
        "P", "LHWS(rnds)", "WS(rnds)", "LHWS-dq", "WS-dq"
    );
    for p in [1usize, 2, 4, 8, 16] {
        let lh = run_lhws(&wl.dag, p, seed);
        let ws = run_ws(&wl.dag, p, seed);
        assert_eq!(lh.max_deques_per_worker, 1, "U=0 => one deque per worker");
        println!(
            "{:>4}  {:>12}  {:>12}  {:>10}  {:>10}",
            p, lh.rounds, ws.rounds, lh.max_deques_per_worker, ws.max_deques_per_worker
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The table selector, when given, is the word right after the
    // subcommand.
    let which = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .map_or("all", String::as_str);
    match args.first().map(String::as_str) {
        Some("fig11") => fig11(&args),
        Some("bounds") => bounds(which, &args),
        Some("ablation") => ablation(which, &args),
        Some("overhead") => overhead(&args),
        _ => {
            eprintln!(
                "usage: lhws-sim <fig11|bounds|ablation|overhead> [table] [--flag value ...]"
            );
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::fmt_x100;

    #[test]
    fn fmt_x100_format() {
        assert_eq!(fmt_x100(1234), "12.34");
        assert_eq!(fmt_x100(100), "1.00");
        assert_eq!(fmt_x100(5), "0.05");
    }
}
