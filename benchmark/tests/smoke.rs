//! Smoke test of the benchmark's declared surface, at `--quick` sizes:
//! `BENCHMARK.json` stays within the contract's limits, every workload
//! emits every declared metric exactly once where declared, and one seed
//! gives byte-identical inputs.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_lhws-benchmark");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

fn spec() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str) -> Vec<String> {
    spec.get(key)
        .expect(key)
        .as_arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn benchmark_json_is_within_the_contract_limits() {
    let spec = spec();
    let keys: Vec<&str> = spec.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        spec.get("paths").unwrap().as_arr(),
        [Value::Str("benchmark".into())]
    );
    let seconds = spec.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let (workloads, e2e, layer) = (
        names(&spec, "workloads"),
        names(&spec, "end_to_end"),
        names(&spec, "per_layer"),
    );
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layer.len()));
    let all: Vec<&String> = workloads.iter().chain(&e2e).chain(&layer).collect();
    assert!(
        all.iter().all(|n| valid_name(n)),
        "a name breaks the pattern"
    );
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );
    for w in spec.get("workloads").unwrap().as_arr() {
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(
            why.chars().count() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    for m in spec.get("end_to_end").unwrap().as_arr() {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = spec
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
}

/// Runs the binary from the repo root; returns its standard output.
fn run(args: &[&str]) -> Vec<u8> {
    let out = Command::new(BIN)
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn every_workload_emits_every_declared_metric_exactly_once() {
    let spec = spec();
    for workload in names(&spec, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let stdout = String::from_utf8(run(&[
                "run",
                "--workload",
                &workload,
                "--seed",
                "7",
                "--quick",
                "--trace",
                trace,
            ]))
            .expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the last line is JSON");
            let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));

            let declared = spec.get(key).unwrap().as_arr();
            let emitted = result.get("metrics").unwrap().as_obj();
            assert_eq!(emitted.len(), declared.len(), "{workload} trace {trace}");
            for d in declared {
                let name = d.get("name").and_then(Value::as_str).unwrap();
                let m = result
                    .get("metrics")
                    .unwrap()
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace {trace} did not emit {name}"));
                assert_eq!(m.get("unit"), d.get("unit"), "{name}");
                let value = m.get("value").and_then(Value::as_f64).expect("a number");
                assert!(value.is_finite(), "{name} = {value}");
                if key == "end_to_end" {
                    assert!(value != 0.0, "end-to-end metric {name} is 0 on {workload}");
                }
                // ... and once by name in the human-readable lines.
                let printed = stdout
                    .lines()
                    .filter(|l| l.split_whitespace().next() == Some(name))
                    .count();
                assert_eq!(printed, 1, "{name} printed {printed} times on {workload}");
            }
        }
    }
}

#[test]
fn one_seed_gives_byte_identical_inputs() {
    for workload in names(&spec(), "workloads") {
        let dump =
            |seed: &str| run(&["inputs", "--workload", &workload, "--seed", seed, "--quick"]);
        let first = dump("7");
        assert!(!first.is_empty());
        assert_eq!(first, dump("7"), "{workload}: same seed, different inputs");
        assert_ne!(
            first,
            dump("8"),
            "{workload}: the seed does not reach the inputs"
        );
    }
}
