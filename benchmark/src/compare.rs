//! `compare`: two sets of runs, one row per (metric, workload), judged with
//! each metric's bound and direction from `BENCHMARK.json`; and
//! `compare --pairs N`, which alternates two binaries and applies the
//! nine-tenths-of-pairs rule. Every ratio is printed with its base.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{self, Value};
use crate::spec::{MetricDecl, Spec};
use crate::stats;
use crate::Args;

/// Values of every metric, keyed by (workload, metric), from the run
/// records of one side. `trace` selects end-to-end (0) or per-layer (1)
/// records.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Collects every run record found anywhere in `v` (a record is an object
/// with `workload`, `trace` and `metrics`): a single `--out` file, or a
/// `selfcheck` file with both of its sets.
pub fn collect_records<'a>(v: &'a Value, out: &mut Vec<&'a Value>) {
    match v {
        Value::Obj(fields) => {
            if v.get("workload").is_some() && v.get("metrics").is_some() && v.get("trace").is_some()
            {
                out.push(v);
                return;
            }
            fields
                .iter()
                .for_each(|(_, child)| collect_records(child, out));
        }
        Value::Arr(items) => items.iter().for_each(|child| collect_records(child, out)),
        _ => {}
    }
}

pub fn samples_of(records: &[&Value], trace: bool) -> Samples {
    let mut out = Samples::new();
    for r in records {
        if r.get("trace").and_then(Value::as_f64) != Some(f64::from(u8::from(trace))) {
            continue;
        }
        let workload = r.get("workload").and_then(Value::as_str).unwrap_or("?");
        for (name, m) in r.get("metrics").map(Value::as_obj).unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// Run-to-run spread wider than the bound: nothing can be concluded.
    Unresolved,
    Regressed,
    /// Per-layer metrics carry no bound, so no verdict.
    Info,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
            Verdict::Info => "-",
        }
    }
}

/// One (metric, workload) comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base_median: f64,
    pub base_spread: f64,
    pub base_n: usize,
    pub new_median: f64,
    pub new_spread: f64,
    pub new_n: usize,
    pub verdict: Verdict,
}

impl Row {
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("workload", Value::str(self.workload.as_str())),
            ("metric", Value::str(self.metric.as_str())),
            ("unit", Value::str(self.unit.as_str())),
            ("base_median", Value::Num(self.base_median)),
            ("base_spread", Value::Num(self.base_spread)),
            ("base_n", Value::Num(self.base_n as f64)),
            ("new_median", Value::Num(self.new_median)),
            ("new_spread", Value::Num(self.new_spread)),
            ("new_n", Value::Num(self.new_n as f64)),
            ("verdict", Value::str(self.verdict.label())),
        ])
    }
}

pub fn judge(decl: &MetricDecl, base: &mut [f64], new: &mut [f64]) -> (Verdict, [f64; 4]) {
    let (bm, nm) = (stats::median(base), stats::median(new));
    let (bs, ns) = (stats::spread(base), stats::spread(new));
    let verdict = match decl.bound {
        None => Verdict::Info,
        Some(bound) => {
            // Positive = worse, as a share of the base median.
            let worse = if bm == 0.0 {
                0.0
            } else if decl.higher_is_better {
                (bm - nm) / bm.abs()
            } else {
                (nm - bm) / bm.abs()
            };
            if bs.max(ns) > bound {
                Verdict::Unresolved
            } else if worse > bound {
                Verdict::Regressed
            } else if -worse > bound {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            }
        }
    };
    (verdict, [bm, bs, nm, ns])
}

/// Rows for every (workload, metric) present on both sides, in
/// `BENCHMARK.json` order.
pub fn rows(spec: &Spec, decls: &[MetricDecl], base: &Samples, new: &Samples) -> Vec<Row> {
    let mut out = Vec::new();
    for workload in &spec.workloads {
        for decl in decls {
            let key = (workload.clone(), decl.name.clone());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let (mut b, mut n) = (b.clone(), n.clone());
            let (verdict, [bm, bs, nm, ns]) = judge(decl, &mut b, &mut n);
            out.push(Row {
                workload: workload.clone(),
                metric: decl.name.clone(),
                unit: decl.unit.clone(),
                base_median: bm,
                base_spread: bs,
                base_n: b.len(),
                new_median: nm,
                new_spread: ns,
                new_n: n.len(),
                verdict,
            });
        }
    }
    out
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<18} {:<34} {:>14} {:>7} {:>14} {:>7} {:>8}  verdict",
        "workload", "metric", "base median", "spread", "new median", "spread", "new/base"
    );
    for r in rows {
        let ratio = if r.base_median == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:.4}", r.new_median / r.base_median)
        };
        println!(
            "{:<18} {:<34} {:>14.4} {:>6.1}% {:>14.4} {:>6.1}% {:>8}  {} [{}; base n={}, new n={}]",
            r.workload,
            r.metric,
            r.base_median,
            r.base_spread * 100.0,
            r.new_median,
            r.new_spread * 100.0,
            ratio,
            r.verdict.label(),
            r.unit,
            r.base_n,
            r.new_n
        );
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &Args, spec: &Spec) -> Result<i32, String> {
    if args.value("pairs").is_some() {
        return pairs(args, spec);
    }
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: compare A.json B.json | compare --pairs N --a BIN --b BIN".into());
    };
    let (va, vb) = (load(a)?, load(b)?);
    let (mut ra, mut rb) = (Vec::new(), Vec::new());
    collect_records(&va, &mut ra);
    collect_records(&vb, &mut rb);
    if ra.is_empty() || rb.is_empty() {
        return Err("no run records found (expected `run --out` or `selfcheck` files)".into());
    }
    println!(
        "# base = {a} ({} runs), new = {b} ({} runs)",
        ra.len(),
        rb.len()
    );
    println!("# end-to-end (tracing off)");
    let e2e = rows(
        spec,
        &spec.end_to_end,
        &samples_of(&ra, false),
        &samples_of(&rb, false),
    );
    print_rows(&e2e);
    let layer = rows(
        spec,
        &spec.per_layer,
        &samples_of(&ra, true),
        &samples_of(&rb, true),
    );
    if !layer.is_empty() {
        println!("# per-layer (traced runs; no bound, so no verdict)");
        print_rows(&layer);
    }
    let regressed = e2e.iter().any(|r| r.verdict == Verdict::Regressed);
    Ok(i32::from(regressed))
}

/// Runs `bin run ...` once and returns its full record.
pub fn run_once(
    bin: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Value, String> {
    let out = PathBuf::from("benchmark/out").join(format!(
        "run-{workload}-{seed}-{}-{}.json",
        u8::from(trace),
        std::process::id()
    ));
    let mut cmd = Command::new(bin);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out);
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child, so no process outlives this call.
    let done = cmd
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let record = std::fs::read_to_string(&out)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t));
    let _ = std::fs::remove_file(&out);
    match record {
        Ok(record) if done.status.success() => Ok(record),
        _ => Err(format!(
            "{} run --workload {workload} --seed {seed} --trace {} failed ({}):\n{}",
            bin.display(),
            u8::from(trace),
            done.status,
            String::from_utf8_lossy(&done.stderr)
        )),
    }
}

/// `--pairs N`: N pairs per workload, alternating which binary runs first.
/// A gain (or loss) is claimed only when one side wins at least nine
/// tenths of the pairs, ties counting for neither, and the medians differ
/// by more than the distance between the base side's own quartiles.
fn pairs(args: &Args, spec: &Spec) -> Result<i32, String> {
    let n: usize = args.get("pairs", 10)?;
    let bin_a = PathBuf::from(args.value("a").ok_or("--a BIN is required")?);
    let bin_b = PathBuf::from(args.value("b").ok_or("--b BIN is required")?);
    let quick = args.flag("quick");
    let seconds: f64 = args.get("seconds", if quick { 0.3 } else { spec.run_seconds })?;
    let only = args.value("workload");
    let mut lost = false;
    for workload in spec
        .workloads
        .iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        // Records in pair order on each side, so index i of one side's
        // samples pairs with index i of the other's.
        let (mut a_runs, mut b_runs) = (Vec::new(), Vec::new());
        for i in 0..n {
            // A seed not used while a change was being written.
            let seed = 1000 + i as u64;
            let run = |bin: &Path| run_once(bin, workload, seed, seconds, false, quick);
            if i % 2 == 0 {
                a_runs.push(run(&bin_a)?);
                b_runs.push(run(&bin_b)?);
            } else {
                b_runs.push(run(&bin_b)?);
                a_runs.push(run(&bin_a)?);
            }
            eprintln!("{workload}: pair {}/{n} done", i + 1);
        }
        let a_vals = samples_of(&a_runs.iter().collect::<Vec<_>>(), false);
        let b_vals = samples_of(&b_runs.iter().collect::<Vec<_>>(), false);
        println!(
            "# {workload}: {n} pairs, a = {}, b = {}",
            bin_a.display(),
            bin_b.display()
        );
        for decl in &spec.end_to_end {
            let key = (workload.clone(), decl.name.clone());
            let (Some(a), Some(b)) = (a_vals.get(&key), b_vals.get(&key)) else {
                continue;
            };
            let better = |x: f64, y: f64| if decl.higher_is_better { x > y } else { x < y };
            let b_wins = a.iter().zip(b).filter(|(a, b)| better(**b, **a)).count();
            let a_wins = a.iter().zip(b).filter(|(a, b)| better(**a, **b)).count();
            let (mut a, mut b) = (a.clone(), b.clone());
            let (am, bm) = (stats::median(&mut a), stats::median(&mut b));
            let (aq1, aq3) = stats::quartiles(&mut a);
            let (bq1, bq3) = stats::quartiles(&mut b);
            let apart = (bm - am).abs() > (aq3 - aq1);
            let nine_tenths = (n * 9).div_ceil(10);
            let verdict = if b_wins >= nine_tenths && apart {
                "gain"
            } else if a_wins >= nine_tenths && apart {
                lost = true;
                "loss"
            } else {
                "no claim"
            };
            println!(
                "{:<18} a {:.4} [{:.4}..{:.4}]  b {:.4} [{:.4}..{:.4}] {}  b/a {:.4}  b wins {b_wins}/{n}, a wins {a_wins}/{n}: {verdict}",
                decl.name,
                am,
                aq1,
                aq3,
                bm,
                bq1,
                bq3,
                decl.unit,
                if am == 0.0 { 0.0 } else { bm / am },
            );
        }
    }
    Ok(i32::from(lost))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher: bool, bound: f64) -> MetricDecl {
        MetricDecl {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        let scaled = |f: f64| base.iter().map(|v| v * f).collect::<Vec<_>>();
        let v = |d: &MetricDecl, f: f64| judge(d, &mut base.to_vec(), &mut scaled(f)).0;
        let lower = decl(false, 0.1);
        assert_eq!(v(&lower, 1.05), Verdict::Unchanged);
        assert_eq!(v(&lower, 1.2), Verdict::Regressed);
        assert_eq!(v(&lower, 0.8), Verdict::Improved);
        let higher = decl(true, 0.1);
        assert_eq!(v(&higher, 1.2), Verdict::Improved);
        assert_eq!(v(&higher, 0.8), Verdict::Regressed);
        // A side whose own spread exceeds the bound resolves nothing.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            judge(&lower, &mut base.to_vec(), &mut noisy.to_vec()).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn records_are_found_at_any_depth() {
        let text = r#"{"sets": {"a": [{"workload": "w", "trace": 0, "metrics": {"m": {"value": 2}}}],
                                "b": [{"workload": "w", "trace": 1, "metrics": {"x": {"value": 3}}}]}}"#;
        let v = json::parse(text).unwrap();
        let mut records = Vec::new();
        collect_records(&v, &mut records);
        assert_eq!(records.len(), 2);
        assert_eq!(
            samples_of(&records, false)[&("w".into(), "m".into())],
            vec![2.0]
        );
        assert_eq!(
            samples_of(&records, true)[&("w".into(), "x".into())],
            vec![3.0]
        );
    }
}
