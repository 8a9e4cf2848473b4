//! What a run produces and how it is printed: every declared metric by
//! name with its unit, then — as the last line of standard output — the
//! one JSON object the acceptance driver reads.

use std::path::Path;

use crate::host;
use crate::json::Value;
use crate::spec::{MetricDecl, Spec};
use crate::stats::Summary;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// How many samples the value summarises, where that is meaningful.
    pub samples: Option<usize>,
    /// First and third quartile of those samples (layer probes).
    pub quartiles: Option<(f64, f64)>,
}

impl Metric {
    /// `  (n=…, q1..q3)` where known, for the human-readable lines.
    pub fn detail(&self) -> String {
        match (self.samples, self.quartiles) {
            (Some(n), Some((q1, q3))) => format!("  (n={n}, quartiles {q1:.4}..{q3:.4})"),
            (Some(n), None) => format!("  (n={n})"),
            _ => String::new(),
        }
    }
}

/// Collects named values; a name may be set once.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_n(name, value, None);
    }

    pub fn put_n(&mut self, name: &str, value: f64, samples: Option<usize>) {
        self.push(Metric {
            name: name.to_string(),
            value,
            samples,
            quartiles: None,
        });
    }

    /// A probe's repetitions: the median is the value.
    pub fn put_summary(&mut self, name: &str, s: Summary) {
        self.push(Metric {
            name: name.to_string(),
            value: s.median,
            samples: Some(s.samples),
            quartiles: Some((s.q1, s.q3)),
        });
    }

    fn push(&mut self, metric: Metric) {
        assert!(
            self.0.iter().all(|m| m.name != metric.name),
            "metric {} emitted twice",
            metric.name
        );
        self.0.push(metric);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn merge(&mut self, other: Metrics) {
        for m in other.0 {
            self.push(m);
        }
    }
}

/// The result of one `run`.
#[derive(Debug)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Operations attempted and failed over every measured window.
    pub attempted: u64,
    pub failed: u64,
    /// Oracle violations (checksum, reply, shutdown report, Lemma 7). Each
    /// also counts as one failed operation.
    pub violations: Vec<String>,
    pub metrics: Metrics,
    /// Context recorded next to the numbers: thread census, generator
    /// lateness, sample counts, the latency-limit verdict.
    pub notes: Vec<(String, Value)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Failed ÷ attempted operations, oracle violations included.
    pub fn fail_ratio(&self) -> f64 {
        self.failed.min(self.attempted) as f64 / self.attempted.max(1) as f64
    }

    pub fn violate(&mut self, what: String) {
        eprintln!("VIOLATION: {what}");
        self.violations.push(what);
        self.failed += 1;
    }

    /// Fills every declared metric the run did not set with 0 — "not
    /// applicable on this workload" — and rejects undeclared names, so each
    /// declared name is printed exactly once.
    fn close(&mut self, declared: &[MetricDecl]) {
        let broken: Vec<String> = self
            .metrics
            .0
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.clone())
            .collect();
        for name in broken {
            self.violate(format!("metric {name} is not a finite number"));
        }
        for m in &self.metrics.0 {
            assert!(
                declared.iter().any(|d| d.name == m.name),
                "metric {} is not declared in BENCHMARK.json",
                m.name
            );
        }
        for d in declared {
            if self.metrics.get(&d.name).is_none() {
                assert!(
                    d.bound.is_none(),
                    "end-to-end metric {} was not measured",
                    d.name
                );
                self.metrics.put(&d.name, 0.0);
            }
        }
    }

    fn metrics_json(&self, spec: &Spec, with_samples: bool) -> Value {
        Value::Obj(
            self.metrics
                .0
                .iter()
                .map(|m| {
                    let unit = &spec.decl(&m.name).expect("declared").unit;
                    let mut fields = vec![
                        ("value", Value::Num(m.value)),
                        ("unit", Value::str(unit.as_str())),
                    ];
                    if let (true, Some(n)) = (with_samples, m.samples) {
                        fields.push(("samples", Value::Num(n as f64)));
                    }
                    if let (true, Some((q1, q3))) = (with_samples, m.quartiles) {
                        fields.push(("q1", Value::Num(q1)));
                        fields.push(("q3", Value::Num(q3)));
                    }
                    (m.name.clone(), Value::obj(fields))
                })
                .collect(),
        )
    }

    /// The full record (`--out`, `selfcheck`, `compare`).
    pub fn to_json(&self, spec: &Spec) -> Value {
        let mut fields = vec![
            ("workload", Value::str(self.workload.as_str())),
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(self.seconds)),
            ("trace", Value::Num(f64::from(u8::from(self.trace)))),
            ("quick", Value::Bool(self.quick)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "violations",
                Value::Arr(self.violations.iter().map(Value::str).collect()),
            ),
            ("metrics", self.metrics_json(spec, true)),
            ("host", host::host_block()),
        ];
        for (k, v) in &self.notes {
            fields.push((k.as_str(), v.clone()));
        }
        Value::obj(fields)
    }

    /// Prints the run and returns the process exit code.
    pub fn emit(mut self, spec: &Spec, out: Option<&Path>) -> i32 {
        let declared = if self.trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        self.close(declared);
        println!(
            "# {} seed={} seconds={} trace={} quick={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.quick
        );
        for (k, v) in &self.notes {
            println!("# {k}: {}", v.render());
        }
        for d in declared {
            let m = self
                .metrics
                .0
                .iter()
                .find(|m| m.name == d.name)
                .expect("closed above");
            println!("{:<36} {:>16.4} {}{}", m.name, m.value, d.unit, m.detail());
        }
        if let Some(path) = out {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(path, self.to_json(spec).render_pretty()) {
                eprintln!("cannot write {}: {e}", path.display());
                return 2;
            }
        }
        let last = Value::obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_json(spec, false)),
        ]);
        println!("{}", last.render());
        i32::from(!self.correct())
    }
}
