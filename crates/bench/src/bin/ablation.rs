//! Ablations of the design choices the paper calls out.
//!
//! ```text
//! cargo run -p lhws-bench --release --bin ablation -- \
//!     [steal-policy|resume|recycle|variants|all]
//! ```
//!
//! * `steal-policy` — random-deque (analyzed) vs. worker-then-deque (the
//!   paper's §6 implementation choice): failed-steal rates and rounds.
//! * `resume` — pfor batch reinjection vs. one-resume-per-round strawman.
//! * `recycle` — Figure 5 deque recycling vs. always-fresh allocation.
//! * `variants` — the paper's per-vertex suspension vs. the two
//!   Spoonhower-thesis multi-deque variants its related-work section
//!   contrasts (whole-deque parking; new-deque-per-resume), with
//!   Spoonhower's deviation metric.
//!
//! All four run in the simulator, the cheap place to keep paper ablations;
//! the real runtime carries one arm of each (EXPERIMENTS.md "Retired arms").

use lhws_bench::Args;
use lhws_dag::gen::{map_reduce, scatter_gather, server};
use lhws_sim::{LhwsSim, ResumeBatching, SimConfig, StealPolicy, SuspendPolicy};

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

fn main() {
    let args = Args::parse();
    let which = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
    let seed: u64 = args.get("seed", 5);

    println!("# Ablation tables");
    match which.as_str() {
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
