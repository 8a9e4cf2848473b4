//! `lhws-check` — run the model-checking scenario suite from the shell.
//!
//! ```text
//! lhws-check --list                 # scenario names + intent lines
//! lhws-check --all                  # explore every scenario (default)
//! lhws-check --scenario NAME        # explore one scenario
//! lhws-check --replay NAME@SCHED    # re-execute one recorded schedule
//! ```
//!
//! Bounds come from the environment: `LHWS_CHECK_PREEMPTIONS`,
//! `LHWS_CHECK_MAX_STEPS`, `LHWS_CHECK_MAX_SCHEDULES` (see
//! `CheckOptions::from_env`). Exit status is nonzero when any scenario's
//! outcome differs from its expectation — a refuted invariant, or a
//! seeded mutation the checker failed to refute.
//!
//! Build modes matter: a plain build explores coarse-grained (scenario
//! steps between checker operations are atomic blocks); a
//! `RUSTFLAGS="--cfg lhws_check"` build makes the ported structures'
//! own atomics schedule points. The seeded-mutation scenarios only
//! exist under `--cfg lhws_check --cfg lhws_check_mutation`.

use std::process::ExitCode;

use lhws_check::{CheckReport, Scenario};

fn usage() -> ! {
    eprintln!(
        "usage: lhws-check [--list | --all | --scenario NAME | --replay NAME@SCHEDULE]\n\
         env:   LHWS_CHECK_PREEMPTIONS, LHWS_CHECK_MAX_STEPS, LHWS_CHECK_MAX_SCHEDULES"
    );
    std::process::exit(2);
}

fn mode() -> &'static str {
    if cfg!(lhws_check) {
        "fine-grained (--cfg lhws_check)"
    } else {
        "coarse (plain build; structure atomics are not schedule points)"
    }
}

/// Prints one scenario's result and returns whether it was expected.
fn report(scenario: &Scenario, rep: &CheckReport) -> bool {
    let ok = scenario.outcome_ok(rep);
    match (&rep.failure, scenario.expect_refuted) {
        (Some(f), true) => {
            println!("  {}", rep.summary());
            println!("    refuted as expected: {}", f.message);
            println!("    replay with: lhws-check --replay {}", f.schedule);
        }
        (Some(f), false) => {
            println!("  {}", rep.summary());
            println!("    INVARIANT REFUTED: {}", f.message);
            println!("    replay with: lhws-check --replay {}", f.schedule);
        }
        (None, true) => {
            println!("  {}", rep.summary());
            println!("    ERROR: seeded mutation survived the explored bounds");
        }
        (None, false) => println!("  {}", rep.summary()),
    }
    ok
}

fn run_all(filter: Option<&str>) -> ExitCode {
    let scenarios = lhws_check::all();
    let selected: Vec<Scenario> = match filter {
        Some(name) => match lhws_check::find(name) {
            Some(s) => vec![s],
            None => {
                eprintln!(
                    "unknown scenario {name:?}; `lhws-check --list` shows the registered set \
                     (mutation scenarios need a `--cfg lhws_check_mutation` build)"
                );
                return ExitCode::FAILURE;
            }
        },
        None => scenarios,
    };
    println!(
        "lhws-check: {} scenario(s), mode: {}",
        selected.len(),
        mode()
    );
    let mut failures = 0usize;
    for s in &selected {
        let rep = s.check();
        if !report(s, &rep) {
            failures += 1;
        }
    }
    if failures == 0 {
        println!("all outcomes as expected");
        ExitCode::SUCCESS
    } else {
        println!("{failures} scenario(s) with unexpected outcomes");
        ExitCode::FAILURE
    }
}

fn run_replay(spec: &str) -> ExitCode {
    match lhws_check::run_replay(spec) {
        Ok((scenario, rep)) => {
            println!("lhws-check: replaying {spec}, mode: {}", mode());
            match &rep.failure {
                Some(f) => {
                    println!("  {}", rep.summary());
                    println!("  reproduced: {}", f.message);
                    // Reproducing a failure is the *point* of replaying a
                    // refutation schedule; only an invariant scenario's
                    // failure is an error here.
                    if scenario.expect_refuted {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                None => {
                    println!("  {}", rep.summary());
                    if scenario.expect_refuted {
                        println!("  ERROR: schedule no longer reproduces the refutation");
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--all") => run_all(None),
        Some("--list") => {
            println!("registered scenarios (mode: {}):", mode());
            for s in lhws_check::all() {
                let tag = if s.expect_refuted { " [mutation]" } else { "" };
                println!("  {:<28} {}{}", s.name, s.about, tag);
            }
            ExitCode::SUCCESS
        }
        Some("--scenario") => match args.get(1) {
            Some(name) => run_all(Some(name)),
            None => usage(),
        },
        Some("--replay") => match args.get(1) {
            Some(spec) => run_replay(spec),
            None => usage(),
        },
        Some(_) => usage(),
    }
}
