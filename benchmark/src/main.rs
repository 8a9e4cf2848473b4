//! `lhws-benchmark`: the repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! lhws-benchmark run --workload W --seed S [--seconds N] [--trace 0|1] [--quick] [--out F]
//! lhws-benchmark trace --workload W ...     (run --trace 1)
//! lhws-benchmark layers [--quick]           (the per-layer probes alone)
//! lhws-benchmark compare A.json B.json
//! lhws-benchmark compare --pairs N --a BIN_A --b BIN_B [--seconds N]
//! lhws-benchmark selfcheck [--runs R] [--seconds N] [--quick] [--out F]
//! lhws-benchmark inputs --workload W --seed S [--quick]   (raw input bytes)
//! ```

mod compare;
mod host;
mod inputs;
mod json;
mod layers;
mod report;
mod selfcheck;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use spec::Spec;
use workloads::RunCfg;

/// `--name value` pairs, bare `--flags` and positionals.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Args {
        let mut out = Args::default();
        let mut it = args.peekable();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) => match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        out.pairs
                            .push((name.to_string(), it.next().expect("peeked")));
                    }
                    _ => out.flags.push(name.to_string()),
                },
                None => out.positional.push(a),
            }
        }
        out
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// `--name`, parsed; `default` when absent; an error when malformed.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

fn run_cfg(args: &Args, spec: &Spec, trace_default: bool) -> Result<(String, RunCfg), String> {
    let workload = args
        .value("workload")
        .ok_or("--workload is required")?
        .to_string();
    if !spec.workloads.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; known: {}",
            spec.workloads.join(", ")
        ));
    }
    let quick = args.flag("quick");
    let seconds: f64 = args.get("seconds", if quick { 0.3 } else { spec.run_seconds })?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = match args.value("trace") {
        None => trace_default,
        Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok((
        workload,
        RunCfg {
            seed: args.get("seed", 1)?,
            seconds,
            trace,
            quick,
        },
    ))
}

fn dispatch(command: &str, args: &Args) -> Result<i32, String> {
    let spec = Spec::load();
    match command {
        "run" | "trace" => {
            let (workload, cfg) = run_cfg(args, &spec, command == "trace")?;
            // Fix the span clock's origin and the CPU set before any thread
            // starts or is pinned.
            host::epoch();
            host::cpus();
            let outcome = workloads::run(&workload, cfg).expect("workload was validated");
            let out = args.value("out").map(PathBuf::from);
            Ok(outcome.emit(&spec, out.as_deref()))
        }
        "layers" => {
            host::epoch();
            let metrics = layers::run_all(args.flag("quick"));
            for m in &metrics.0 {
                let unit = spec.decl(&m.name).map_or("", |d| d.unit.as_str());
                println!("{:<36} {:>16.4} {unit}{}", m.name, m.value, m.detail());
            }
            Ok(0)
        }
        "inputs" => {
            let (workload, cfg) = run_cfg(args, &spec, false)?;
            let bytes = inputs::dump(&workload, cfg.seed, cfg.seconds, cfg.quick)
                .expect("workload was validated");
            std::io::stdout()
                .write_all(&bytes)
                .map_err(|e| e.to_string())?;
            Ok(0)
        }
        "compare" => compare::main(args, &spec),
        "selfcheck" => selfcheck::main(args, &spec),
        other => Err(format!(
            "unknown command {other:?}; expected run, trace, layers, compare, selfcheck or inputs"
        )),
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("usage: lhws-benchmark <run|trace|layers|compare|selfcheck|inputs> [options]");
        return ExitCode::from(2);
    };
    match dispatch(&command, &Args::parse(argv)) {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("lhws-benchmark {command}: {e}");
            ExitCode::from(2)
        }
    }
}
