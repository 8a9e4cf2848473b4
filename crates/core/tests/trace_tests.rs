//! Trace/metrics coherence and builder-validation tests.
//!
//! The tracing layer promises that its event stream is not merely
//! *plausible* but *exact*: every metrics counter bump at a traced site
//! pairs with exactly one trace event. These tests run real workloads with
//! tracing on and check the two accounting systems against each other, plus
//! the empirical side of Lemma 7 (a worker owns at most `U + 1` live
//! deques when at most `U` suspensions are in flight).

use std::time::Duration;

use lhws_core::trace::{EventKind, SuspendKind};
use lhws_core::{fork2, join_all, simulate_latency, Config, ConfigError, Runtime, RuntimeError};

/// Plenty of ring space: coherence checks require `dropped == 0`.
const CAPACITY: usize = 1 << 16;

fn traced_runtime(workers: usize) -> Runtime {
    Runtime::builder()
        .workers(workers)
        .trace_capacity(CAPACITY)
        .build()
        .unwrap()
}

fn fib(n: u64) -> std::pin::Pin<Box<dyn std::future::Future<Output = u64> + Send>> {
    Box::pin(async move {
        if n < 2 {
            n
        } else {
            let (a, b) = fork2(fib(n - 1), fib(n - 2)).await;
            a + b
        }
    })
}

#[test]
fn steal_events_match_steal_metrics() {
    let rt = traced_runtime(4);
    let got = rt.block_on(fib(16));
    assert_eq!(got, 987);
    let report = rt.shutdown();
    let trace = report.trace.expect("tracing was enabled");
    assert_eq!(trace.dropped, 0, "ring capacity must cover the workload");

    let steal_events = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Steal { .. }))
        .count() as u64;
    assert_eq!(
        steal_events, report.metrics.steals_attempted,
        "one Steal trace event per steals_attempted bump"
    );

    let stats = trace.stats();
    assert_eq!(stats.steal_attempts, steal_events);
    assert_eq!(stats.steal_successes, report.metrics.steals_succeeded);
}

#[test]
fn resume_batches_sum_to_resumed_count() {
    let rt = traced_runtime(3);
    rt.block_on(async {
        let handles: Vec<_> = (0..24)
            .map(|i| {
                lhws_core::spawn(async move {
                    simulate_latency(Duration::from_millis(1 + (i % 4))).await;
                    i
                })
            })
            .collect();
        join_all(handles).await
    });
    let report = rt.shutdown();
    let trace = report.trace.expect("tracing was enabled");
    assert_eq!(trace.dropped, 0);

    let delivered: u64 = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Resume { batch_len, .. } => Some(batch_len as u64),
            _ => None,
        })
        .sum();
    assert_eq!(
        delivered, report.metrics.resumes,
        "Resume batch lengths sum to the drained-resume count"
    );
    assert_eq!(report.metrics.resumes, 24);
    assert_eq!(report.metrics.suspensions, 24);

    let suspends = trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Suspend {
                    kind: SuspendKind::Timer,
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(suspends, report.metrics.suspensions);

    // Every suspension completed, so each lifecycle pairs end to end.
    let stats = trace.stats();
    assert_eq!(stats.suspensions, 24);
    assert_eq!(stats.resumes_delivered, 24);
    assert_eq!(stats.ready_to_exec.count(), 24);
}

#[test]
fn high_water_respects_lemma7_bound() {
    // One worker, U = 8 concurrently suspending tasks: Lemma 7 bounds the
    // worker's live deques by U + 1.
    const U: u64 = 8;
    let rt = traced_runtime(1);
    rt.block_on(async {
        let handles: Vec<_> = (0..U)
            .map(|_| {
                lhws_core::spawn(async {
                    simulate_latency(Duration::from_millis(5)).await;
                })
            })
            .collect();
        join_all(handles).await
    });
    let report = rt.shutdown();
    let stats = report.trace.expect("tracing was enabled").stats();
    assert!(
        stats.max_deque_high_water() <= U + 1,
        "high-water {} exceeds Lemma 7 bound {}",
        stats.max_deque_high_water(),
        U + 1
    );
    // The trace-side high-water and the metrics-side observation agree.
    assert_eq!(
        stats.max_deque_high_water(),
        report.metrics.max_deques_per_worker
    );
}

/// `export_chrome` of a real run — fork-join, then a latency fan-out, on
/// two workers, so steals, suspensions, every resume stage and deque
/// switches are all in the stream — must be a well-formed JSON document.
#[test]
fn exported_chrome_trace_of_a_real_run_is_valid_json() {
    let rt = traced_runtime(2);
    assert_eq!(rt.block_on(fib(14)), 377);
    rt.block_on(async {
        let handles: Vec<_> = (0..32u64)
            .map(|i| {
                lhws_core::spawn(async move {
                    simulate_latency(Duration::from_millis(1 + i % 5)).await;
                })
            })
            .collect();
        join_all(handles).await
    });
    let trace = rt.shutdown().trace.expect("tracing was enabled");
    assert_eq!(trace.dropped, 0, "ring capacity must cover the workload");
    let has = |want: fn(&EventKind) -> bool| trace.events.iter().any(|e| want(&e.kind));
    assert!(has(|k| matches!(k, EventKind::Steal { .. })));
    assert!(has(|k| matches!(k, EventKind::Suspend { .. })));
    assert!(has(|k| matches!(k, EventKind::Resume { .. })));
    assert!(has(|k| matches!(k, EventKind::ResumeReady { .. })));
    assert!(has(|k| matches!(k, EventKind::ResumeExec { .. })));
    assert!(has(|k| matches!(k, EventKind::DequeSwitch { .. })));

    let mut out = Vec::new();
    trace.export_chrome(&mut out).unwrap();
    let text = String::from_utf8(out).expect("export is UTF-8");
    if let Err(e) = json::validate(&text) {
        panic!("export_chrome wrote malformed JSON: {e}");
    }
}

#[test]
fn tracing_disabled_yields_no_trace() {
    let rt = Runtime::builder().workers(2).build().unwrap();
    assert_eq!(rt.block_on(fib(10)), 55);
    assert!(rt.observe().trace_reader().is_none());
    let report = rt.shutdown();
    assert!(report.trace.is_none());
}

// ---------------------------------------------------------------------
// Builder validation: one test per `ConfigError` variant.
// ---------------------------------------------------------------------

fn rejects(err: RuntimeError, want: ConfigError) {
    match err {
        RuntimeError::InvalidConfig(e) => assert_eq!(e, want),
        other => panic!("expected InvalidConfig({want:?}), got {other:?}"),
    }
}

#[test]
fn builder_rejects_zero_workers() {
    let err = Runtime::builder().workers(0).build().unwrap_err();
    rejects(err, ConfigError::ZeroWorkers);
}

#[test]
fn builder_rejects_zero_park_interval() {
    let err = Runtime::builder()
        .workers(1)
        .park_micros(0)
        .build()
        .unwrap_err();
    rejects(err, ConfigError::ZeroParkInterval);
}

#[test]
fn config_validate_catches_direct_field_writes() {
    let cfg = Config {
        workers: 0,
        ..Config::default()
    };
    assert_eq!(cfg.validate(), Err(ConfigError::ZeroWorkers));
    assert!(matches!(
        Runtime::new(cfg),
        Err(RuntimeError::InvalidConfig(ConfigError::ZeroWorkers))
    ));
}

#[test]
fn shutdown_report_is_coherent_with_live_metrics() {
    let rt = traced_runtime(2);
    rt.block_on(fib(12));
    let live = rt.metrics();
    let report = rt.shutdown();
    // Shutdown joins the workers, so its snapshot can only have grown.
    assert!(report.metrics.polls >= live.polls);
    let delta = report.metrics.delta(&live);
    assert_eq!(delta.tasks_spawned, 0, "no tasks spawn after block_on");
}

/// A minimal recursive-descent JSON validator (RFC 8259 grammar, no
/// parse tree) — enough to prove the hand-rolled exporter emits documents
/// that real tools will load, without adding a serde dependency. The
/// repo's one JSON validator.
mod json {
    pub fn validate(text: &str) -> Result<(), String> {
        let b = text.as_bytes();
        let mut pos = skip_ws(b, 0);
        pos = value(b, pos)?;
        pos = skip_ws(b, pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(())
    }

    fn err(what: &str, pos: usize) -> String {
        format!("{what} at byte {pos}")
    }

    fn skip_ws(b: &[u8], mut pos: usize) -> usize {
        while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
            pos += 1;
        }
        pos
    }

    fn value(b: &[u8], pos: usize) -> Result<usize, String> {
        match b.get(pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => string(b, pos),
            Some(b't') => literal(b, pos, b"true"),
            Some(b'f') => literal(b, pos, b"false"),
            Some(b'n') => literal(b, pos, b"null"),
            Some(b'-' | b'0'..=b'9') => number(b, pos),
            _ => Err(err("expected a JSON value", pos)),
        }
    }

    fn literal(b: &[u8], pos: usize, lit: &[u8]) -> Result<usize, String> {
        if b.len() >= pos + lit.len() && &b[pos..pos + lit.len()] == lit {
            Ok(pos + lit.len())
        } else {
            Err(err("bad literal", pos))
        }
    }

    fn object(b: &[u8], mut pos: usize) -> Result<usize, String> {
        pos = skip_ws(b, pos + 1); // past '{'
        if b.get(pos) == Some(&b'}') {
            return Ok(pos + 1);
        }
        loop {
            pos = string(b, pos).map_err(|_| err("expected object key", pos))?;
            pos = skip_ws(b, pos);
            if b.get(pos) != Some(&b':') {
                return Err(err("expected ':'", pos));
            }
            pos = skip_ws(b, pos + 1);
            pos = value(b, pos)?;
            pos = skip_ws(b, pos);
            match b.get(pos) {
                Some(b',') => pos = skip_ws(b, pos + 1),
                Some(b'}') => return Ok(pos + 1),
                _ => return Err(err("expected ',' or '}'", pos)),
            }
        }
    }

    fn array(b: &[u8], mut pos: usize) -> Result<usize, String> {
        pos = skip_ws(b, pos + 1); // past '['
        if b.get(pos) == Some(&b']') {
            return Ok(pos + 1);
        }
        loop {
            pos = value(b, pos)?;
            pos = skip_ws(b, pos);
            match b.get(pos) {
                Some(b',') => pos = skip_ws(b, pos + 1),
                Some(b']') => return Ok(pos + 1),
                _ => return Err(err("expected ',' or ']'", pos)),
            }
        }
    }

    fn string(b: &[u8], mut pos: usize) -> Result<usize, String> {
        if b.get(pos) != Some(&b'"') {
            return Err(err("expected '\"'", pos));
        }
        pos += 1;
        while let Some(&c) = b.get(pos) {
            match c {
                b'"' => return Ok(pos + 1),
                b'\\' => match b.get(pos + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => pos += 2,
                    Some(b'u') => {
                        let hex = b
                            .get(pos + 2..pos + 6)
                            .ok_or_else(|| err("short \\u", pos))?;
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(err("bad \\u escape", pos));
                        }
                        pos += 6;
                    }
                    _ => return Err(err("bad escape", pos)),
                },
                0x00..=0x1f => return Err(err("raw control char in string", pos)),
                _ => pos += 1,
            }
        }
        Err(err("unterminated string", pos))
    }

    fn number(b: &[u8], mut pos: usize) -> Result<usize, String> {
        let start = pos;
        if b.get(pos) == Some(&b'-') {
            pos += 1;
        }
        match b.get(pos) {
            Some(b'0') => pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(b.get(pos), Some(b'0'..=b'9')) {
                    pos += 1;
                }
            }
            _ => return Err(err("bad number", start)),
        }
        if b.get(pos) == Some(&b'.') {
            pos += 1;
            if !matches!(b.get(pos), Some(b'0'..=b'9')) {
                return Err(err("bad fraction", pos));
            }
            while matches!(b.get(pos), Some(b'0'..=b'9')) {
                pos += 1;
            }
        }
        if matches!(b.get(pos), Some(b'e' | b'E')) {
            pos += 1;
            if matches!(b.get(pos), Some(b'+' | b'-')) {
                pos += 1;
            }
            if !matches!(b.get(pos), Some(b'0'..=b'9')) {
                return Err(err("bad exponent", pos));
            }
            while matches!(b.get(pos), Some(b'0'..=b'9')) {
                pos += 1;
            }
        }
        Ok(pos)
    }

    #[cfg(test)]
    mod tests {
        use super::validate;

        #[test]
        fn accepts_valid_documents() {
            for ok in [
                "{}",
                "[]",
                r#"{"a": [1, 2.5, -3e4], "b": {"c": null}, "d": "x\ny"}"#,
                r#"{"displayTimeUnit": "ms", "traceEvents": [{"ph": "i"}]}"#,
                r#""é""#,
                "  [ true , false , null ]  ",
            ] {
                assert_eq!(validate(ok), Ok(()), "rejected valid: {ok}");
            }
        }

        #[test]
        fn rejects_malformed_documents() {
            for bad in [
                "",
                "{",
                "[1, 2,]",
                r#"{"a" 1}"#,
                r#"{"a": 1} extra"#,
                "01",
                "1.",
                r#""unterminated"#,
                r#""bad \x escape""#,
                "[1 2]",
                "{'single': 1}",
            ] {
                assert!(validate(bad).is_err(), "accepted invalid: {bad}");
            }
        }
    }
}
