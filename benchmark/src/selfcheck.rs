//! `selfcheck`: the full set of runs twice on the same build, compared
//! with the benchmark's own bounds. Any end-to-end row that is not
//! "unchanged" fails it — on one build that can only be noise, so the
//! metric is too unsteady for its bound. Its output, with the host block,
//! is what `benchmark/baseline.json` records.

use std::path::PathBuf;
use std::process::Command;

use crate::compare::{self, Verdict};
use crate::host;
use crate::json::Value;
use crate::spec::Spec;
use crate::Args;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs `workload` once and returns its record without the per-run host
/// block (the file carries one for all runs).
fn run(
    exe: &std::path::Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Value, String> {
    let mut record = compare::run_once(exe, workload, seed, seconds, trace, quick)?;
    if let Value::Obj(fields) = &mut record {
        fields.retain(|(k, _)| k != "host");
    }
    Ok(record)
}

/// Notes of one record (`thread_census`, generator lateness …) by key.
fn note(record: &Value, key: &str) -> Value {
    record.get(key).cloned().unwrap_or(Value::Null)
}

pub fn main(args: &Args, spec: &Spec) -> Result<i32, String> {
    let quick = args.flag("quick");
    let runs: usize = args.get("runs", 5)?;
    let seconds: f64 = args.get("seconds", if quick { 0.3 } else { spec.run_seconds })?;
    let out = PathBuf::from(args.value("out").unwrap_or("benchmark/out/selfcheck.json"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    // Two sets with disjoint seeds: workload by workload, so both sets of
    // one workload see the host in the same hour.
    let mut sets = [Vec::new(), Vec::new()];
    let mut traced = Vec::new();
    for workload in &spec.workloads {
        for (s, set) in sets.iter_mut().enumerate() {
            for r in 0..runs {
                let seed = (1 + s * runs + r) as u64;
                set.push(compare::run_once(
                    &exe, workload, seed, seconds, false, quick,
                )?);
                eprintln!(
                    "selfcheck: {workload} set {} run {}/{runs}",
                    ["A", "B"][s],
                    r + 1
                );
            }
        }
        traced.push(run(&exe, workload, 1, seconds, true, quick)?);
        eprintln!("selfcheck: {workload} traced run done");
    }

    fn refs(set: &[Value]) -> Vec<&Value> {
        set.iter().collect()
    }
    let rows = compare::rows(
        spec,
        &spec.end_to_end,
        &compare::samples_of(&refs(&sets[0]), false),
        &compare::samples_of(&refs(&sets[1]), false),
    );
    compare::print_rows(&rows);
    let unsteady: Vec<_> = rows
        .iter()
        .filter(|r| r.verdict != Verdict::Unchanged)
        .collect();

    let mut host_block = host::host_block();
    if let Value::Obj(fields) = &mut host_block {
        fields.push((
            "rustc".into(),
            Value::str(command_line("rustc", &["--version"])),
        ));
        fields.push((
            "commit".into(),
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ));
    }
    let of_workload = |r: &&Value, w: &str| r.get("workload").and_then(Value::as_str) == Some(w);
    let census = Value::Obj(
        spec.workloads
            .iter()
            .filter_map(|w| {
                let run = sets[0].iter().find(|r| of_workload(r, w))?;
                Some((w.clone(), note(run, "thread_census")))
            })
            .collect(),
    );
    let lateness = Value::Arr(
        sets[0]
            .iter()
            .chain(&sets[1])
            .filter(|r| of_workload(r, "server-open"))
            .map(|r| note(r, "generator_late_us_p99"))
            .collect(),
    );
    let [set_a, set_b] = sets;
    let doc = Value::obj(vec![
        ("benchmark", Value::str("lhws-benchmark selfcheck")),
        ("host", host_block),
        ("runs_per_set", Value::Num(runs as f64)),
        ("seconds", Value::Num(seconds)),
        ("quick", Value::Bool(quick)),
        (
            "verdict",
            Value::str(if unsteady.is_empty() { "pass" } else { "fail" }),
        ),
        (
            "rows",
            Value::Arr(rows.iter().map(|r| r.to_json()).collect()),
        ),
        ("thread_census", census),
        ("generator_late_us_p99_r4k_r16k", lateness),
        (
            "sets",
            Value::obj(vec![("a", Value::Arr(set_a)), ("b", Value::Arr(set_b))]),
        ),
        ("traced", Value::Arr(traced)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, doc.render_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("selfcheck: wrote {}", out.display());
    for r in &unsteady {
        println!(
            "selfcheck: {} / {} is {} between two sets of the same build",
            r.workload,
            r.metric,
            r.verdict.label()
        );
    }
    Ok(i32::from(!unsteady.is_empty()))
}
