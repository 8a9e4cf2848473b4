//! Dependency-free parser/validator for the Prometheus text exposition
//! format (version 0.0.4), the consumer-side twin of
//! [`lhws_core::encode_prometheus`].
//!
//! Used by CI's obs-smoke job and the loadgen `--scrape` mode to reject
//! a malformed `/metrics` page outright: unknown line shapes, samples
//! without a `# TYPE`, duplicate or interleaved metric families,
//! duplicate series, unparsable values — and, across two scrapes,
//! counters that went backwards ([`check_counters_monotonic`]).

use std::collections::HashMap;

/// One parsed metric family: its `# TYPE`, optional `# HELP`, and every
/// sample line, in document order.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Family name (the `# TYPE` subject).
    pub name: String,
    /// Family kind: `counter`, `gauge`, `histogram`, `summary`, or
    /// `untyped`.
    pub kind: String,
    /// `# HELP` text, when present.
    pub help: Option<String>,
    /// Samples as `(series, value)`; the series includes any label set
    /// verbatim (`name{label="x"}`).
    pub samples: Vec<(String, f64)>,
}

/// Parses and validates an exposition document. Returns the families in
/// document order, or a description of the first violation.
pub fn parse(text: &str) -> Result<Vec<Family>, String> {
    if text.is_empty() {
        return Err("empty exposition".into());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }
    let mut families: Vec<Family> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut closed: HashMap<String, bool> = HashMap::new();

    // The family a series belongs to: strip labels, then the histogram /
    // summary per-series suffixes.
    fn family_of(series: &str) -> &str {
        let base = series.split('{').next().unwrap_or(series);
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(stripped) = base.strip_suffix(suffix) {
                return stripped;
            }
        }
        base
    }

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {n}: HELP without text"))?;
            match index.get(name) {
                Some(&i) => {
                    if families[i].help.is_some() {
                        return Err(format!("line {n}: duplicate HELP for {name}"));
                    }
                    families[i].help = Some(help.to_string());
                }
                None => {
                    index.insert(name.to_string(), families.len());
                    families.push(Family {
                        name: name.to_string(),
                        kind: "untyped".into(),
                        help: Some(help.to_string()),
                        samples: Vec::new(),
                    });
                }
            }
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {n}: TYPE without kind"))?;
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {n}: unknown kind {kind:?} for {name}"));
            }
            match index.get(name) {
                Some(&i) => {
                    if families[i].kind != "untyped" {
                        return Err(format!("line {n}: duplicate TYPE for {name}"));
                    }
                    if !families[i].samples.is_empty() {
                        return Err(format!("line {n}: TYPE for {name} after its samples"));
                    }
                    families[i].kind = kind.to_string();
                }
                None => {
                    index.insert(name.to_string(), families.len());
                    families.push(Family {
                        name: name.to_string(),
                        kind: kind.to_string(),
                        help: None,
                        samples: Vec::new(),
                    });
                }
            }
        } else if let Some(rest) = line.strip_prefix('#') {
            // Plain comment lines are legal and skipped.
            let _ = rest;
        } else {
            // Sample: `<series> <value>[ <timestamp>]`.
            let mut parts = line.split_whitespace();
            let (series, value) = match (parts.next(), parts.next()) {
                (Some(s), Some(v)) => (s, v),
                _ => return Err(format!("line {n}: malformed sample {line:?}")),
            };
            let value: f64 = value
                .parse()
                .map_err(|_| format!("line {n}: unparsable value {value:?}"))?;
            let fam = family_of(series).to_string();
            let &i = index
                .get(&fam)
                .ok_or_else(|| format!("line {n}: sample {series} without # TYPE {fam}"))?;
            if closed.get(&fam).copied().unwrap_or(false) {
                return Err(format!(
                    "line {n}: samples for {fam} are interleaved with another family"
                ));
            }
            if families[i].samples.iter().any(|(s, _)| s == series) {
                return Err(format!("line {n}: duplicate series {series}"));
            }
            // Any family other than this one seen since? Mark all others
            // with samples as closed so a later re-appearance is flagged.
            for f in &families {
                if f.name != fam && !f.samples.is_empty() {
                    closed.insert(f.name.clone(), true);
                }
            }
            families[i].samples.push((series.to_string(), value));
        }
    }
    for f in &families {
        if f.samples.is_empty() {
            return Err(format!("family {} has metadata but no samples", f.name));
        }
    }
    Ok(families)
}

/// Checks that every counter series present in `earlier` is present in
/// `later` with a value at least as large. Run it over two consecutive
/// scrapes of the same process; a counter going backwards means the
/// exporter is broken (or the process silently restarted).
pub fn check_counters_monotonic(earlier: &[Family], later: &[Family]) -> Result<(), String> {
    let later_by_name: HashMap<&str, &Family> =
        later.iter().map(|f| (f.name.as_str(), f)).collect();
    for fam in earlier.iter().filter(|f| f.kind == "counter") {
        let Some(next) = later_by_name.get(fam.name.as_str()) else {
            return Err(format!("counter family {} vanished", fam.name));
        };
        for (series, value) in &fam.samples {
            let Some((_, newer)) = next.samples.iter().find(|(s, _)| s == series) else {
                return Err(format!("counter series {series} vanished"));
            };
            if newer < value {
                return Err(format!(
                    "counter {series} went backwards: {value} -> {newer}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_our_own_exporter_output() {
        let m = lhws_core::MetricsSnapshot::default();
        let text = lhws_core::encode_prometheus(&m, 2, Some(0), &[]);
        let families = parse(&text).expect("own output must validate");
        assert_eq!(families.len(), 26);
        assert!(families.iter().all(|f| f.help.is_some()));
        assert!(families.iter().all(|f| f.samples.len() == 1));
        let workers = families.iter().find(|f| f.name == "lhws_workers").unwrap();
        assert_eq!(
            (workers.kind.as_str(), workers.samples[0].1),
            ("gauge", 2.0)
        );
    }

    #[test]
    fn parses_exporter_output_with_shard_families() {
        let m = lhws_core::MetricsSnapshot::default();
        let shards = vec![
            lhws_core::IoShardSnapshot {
                events: 3,
                wakeups: 2,
            },
            lhws_core::IoShardSnapshot {
                events: 0,
                wakeups: 1,
            },
        ];
        let text = lhws_core::encode_prometheus(&m, 2, Some(0), &shards);
        let families = parse(&text).expect("own output must validate");
        // The two per-shard families join the 26 scalar ones.
        assert_eq!(families.len(), 28);
        let ev = families
            .iter()
            .find(|f| f.name == "lhws_io_shard_events_total")
            .unwrap();
        assert_eq!(ev.kind, "counter");
        assert_eq!(ev.samples.len(), 2);
        assert_eq!(
            ev.samples[0],
            ("lhws_io_shard_events_total{shard=\"0\"}".to_string(), 3.0)
        );
        assert_eq!(
            ev.samples[1],
            ("lhws_io_shard_events_total{shard=\"1\"}".to_string(), 0.0)
        );
    }

    #[test]
    fn rejects_duplicate_family() {
        let text = "# TYPE a counter\na 1\n# TYPE a counter\na 2\n";
        let err = parse(text).unwrap_err();
        assert!(err.contains("duplicate TYPE"), "{err}");
    }

    #[test]
    fn rejects_duplicate_series_and_untyped_samples() {
        let err = parse("# TYPE a counter\na 1\na 2\n").unwrap_err();
        assert!(err.contains("duplicate series"), "{err}");
        let err = parse("a 1\n").unwrap_err();
        assert!(err.contains("without # TYPE"), "{err}");
    }

    #[test]
    fn rejects_interleaved_families() {
        let text = "# TYPE a counter\n# TYPE b counter\na 1\nb 1\na{x=\"1\"} 2\n";
        let err = parse(text).unwrap_err();
        assert!(err.contains("interleaved"), "{err}");
    }

    #[test]
    fn rejects_missing_trailing_newline_and_bad_values() {
        assert!(parse("# TYPE a counter\na 1").is_err());
        assert!(parse("# TYPE a counter\na one\n").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn histogram_series_map_to_their_family() {
        let text = "# TYPE lat histogram\nlat_bucket{le=\"1\"} 1\nlat_bucket{le=\"+Inf\"} 2\nlat_sum 3\nlat_count 2\n";
        let f = parse(text).expect("histogram series belong to the family");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].samples.len(), 4);
    }

    #[test]
    fn monotonic_check_catches_regression() {
        let a = parse("# TYPE a counter\n# TYPE g gauge\na 5\ng 9\n").unwrap();
        let b = parse("# TYPE a counter\n# TYPE g gauge\na 6\ng 1\n").unwrap();
        assert!(check_counters_monotonic(&a, &b).is_ok(), "gauges may fall");
        assert!(
            check_counters_monotonic(&b, &a).is_err(),
            "counters may not"
        );
        let gone = parse("# TYPE g gauge\ng 1\n").unwrap();
        assert!(check_counters_monotonic(&a, &gone).is_err());
    }
}
