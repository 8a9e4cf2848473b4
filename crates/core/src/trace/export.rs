//! Chrome-trace/Perfetto JSON export (hand-rolled — the workspace builds
//! offline, without serde).
//!
//! Output follows the Trace Event Format's JSON-object flavor:
//! `{"displayTimeUnit": "ms", "traceEvents": [...]}` where each event is
//! an instant (`"ph": "i"`) on the recording worker's track, plus one
//! complete span (`"ph": "X"`) named `suspended` per fully observed
//! suspension lifecycle (registration → next poll). Timestamps are
//! microseconds with nanosecond fraction, as the format specifies.

use std::collections::HashMap;
use std::io::{self, Write};

use super::{EventKind, StealOutcome, SuspendKind, Trace, NONE_ID};

/// Track id used for events recorded off any worker thread.
const EXTERN_TID: u32 = 9_999;

fn tid(worker: u32) -> u32 {
    if worker == NONE_ID {
        EXTERN_TID
    } else {
        worker
    }
}

/// Nanoseconds → microsecond timestamp string with fractional part.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn outcome_str(o: StealOutcome) -> &'static str {
    match o {
        StealOutcome::Success => "success",
        StealOutcome::Empty => "empty",
        StealOutcome::LostRace => "lost_race",
        StealOutcome::Dead => "dead",
    }
}

fn kind_str(k: SuspendKind) -> &'static str {
    match k {
        SuspendKind::Timer => "timer",
        SuspendKind::External => "external",
    }
}

/// Writes `trace` in Chrome-trace JSON form.
pub(super) fn write_chrome_trace<W: Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    let mut w = io::BufWriter::new(w);
    write!(w, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
    let mut first = true;
    let mut emit = |w: &mut io::BufWriter<&mut W>, line: String| -> io::Result<()> {
        if first {
            first = false;
        } else {
            write!(w, ",")?;
        }
        write!(w, "\n  {line}")?;
        Ok(())
    };

    // Track names.
    for i in 0..trace.workers as u32 {
        emit(
            &mut w,
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {i}, \
                 \"args\": {{\"name\": \"worker-{i}\"}}}}"
            ),
        )?;
    }
    emit(
        &mut w,
        format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {EXTERN_TID}, \
             \"args\": {{\"name\": \"external\"}}}}"
        ),
    )?;

    // Suspension lifecycles observed so far: seq → (suspend_ts, worker, kind).
    let mut suspended: HashMap<u64, (u64, u32, SuspendKind)> = HashMap::new();

    for ev in &trace.events {
        let t = tid(ev.worker);
        let ts = ts_us(ev.ts);
        let line = match ev.kind {
            EventKind::Steal {
                victim_deque,
                victim_worker,
                outcome,
            } => {
                let victim = if victim_deque == NONE_ID {
                    "null".to_string()
                } else {
                    victim_deque.to_string()
                };
                let owner = if victim_worker == NONE_ID {
                    "null".to_string()
                } else {
                    victim_worker.to_string()
                };
                format!(
                    "{{\"name\": \"steal\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                     \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"victim_deque\": {victim}, \
                     \"victim_worker\": {owner}, \"outcome\": \"{}\"}}}}",
                    outcome_str(outcome)
                )
            }
            EventKind::StealBatch { victim, n } => format!(
                "{{\"name\": \"steal_batch\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"victim\": {victim}, \"n\": {n}}}}}"
            ),
            EventKind::Suspend { deque, kind, seq } => {
                suspended.insert(seq, (ev.ts, ev.worker, kind));
                format!(
                    "{{\"name\": \"suspend\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                     \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"deque\": {deque}, \
                     \"kind\": \"{}\", \"seq\": {seq}}}}}",
                    kind_str(kind)
                )
            }
            EventKind::Resume { batch_len, tick } => format!(
                "{{\"name\": \"resume_batch\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"batch_len\": {batch_len}, \
                 \"tick\": {tick}}}}}"
            ),
            EventKind::ResumeReady { seq, enabled_at } => format!(
                "{{\"name\": \"resume_ready\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"seq\": {seq}, \
                 \"enabled_us\": {}}}}}",
                ts_us(enabled_at)
            ),
            EventKind::ResumeExec { seq } => {
                // Close the lifecycle span if its registration was seen.
                if let Some((start, worker, kind)) = suspended.remove(&seq) {
                    let dur = ts_us(ev.ts.saturating_sub(start));
                    emit(
                        &mut w,
                        format!(
                            "{{\"name\": \"suspended\", \"ph\": \"X\", \"pid\": 0, \
                             \"tid\": {}, \"ts\": {}, \"dur\": {dur}, \
                             \"args\": {{\"seq\": {seq}, \"kind\": \"{}\"}}}}",
                            tid(worker),
                            ts_us(start),
                            kind_str(kind)
                        ),
                    )?;
                }
                format!(
                    "{{\"name\": \"resume_exec\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                     \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"seq\": {seq}}}}}"
                )
            }
            EventKind::DequeSwitch { deque } => format!(
                "{{\"name\": \"deque_switch\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"deque\": {deque}}}}}"
            ),
            EventKind::DequeAlloc { live } => format!(
                "{{\"name\": \"deque_alloc\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"live\": {live}}}}}"
            ),
            EventKind::DequeRelease { live } => format!(
                "{{\"name\": \"deque_release\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"live\": {live}}}}}"
            ),
            EventKind::RegistryCompact { deque } => format!(
                "{{\"name\": \"registry_compact\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"deque\": {deque}}}}}"
            ),
            EventKind::Park => format!(
                "{{\"name\": \"park\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}}}"
            ),
            EventKind::Unpark { worker } => format!(
                "{{\"name\": \"unpark\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"worker\": {worker}}}}}"
            ),
            EventKind::Inject => format!(
                "{{\"name\": \"inject\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}}}"
            ),
            EventKind::IoRegister { token } => format!(
                "{{\"name\": \"io_register\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"token\": {token}}}}}"
            ),
            EventKind::IoReady { token } => format!(
                "{{\"name\": \"io_ready\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"token\": {token}}}}}"
            ),
            EventKind::IoDeregister { token } => format!(
                "{{\"name\": \"io_deregister\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"token\": {token}}}}}"
            ),
            EventKind::WorkerDeath { worker } => format!(
                "{{\"name\": \"worker_death\", \"ph\": \"i\", \"s\": \"p\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"worker\": {worker}}}}}"
            ),
            EventKind::WorkerRespawn { worker, rescued } => format!(
                "{{\"name\": \"worker_respawn\", \"ph\": \"i\", \"s\": \"p\", \"pid\": 0, \
                 \"tid\": {t}, \"ts\": {ts}, \"args\": {{\"worker\": {worker}, \
                 \"rescued\": {rescued}}}}}"
            ),
        };
        emit(&mut w, line)?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::super::TraceEvent;
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                TraceEvent {
                    ts: 1_500,
                    worker: 0,
                    kind: EventKind::Suspend {
                        deque: 0,
                        kind: SuspendKind::Timer,
                        seq: 1,
                    },
                },
                TraceEvent {
                    ts: 2_000,
                    worker: NONE_ID,
                    kind: EventKind::Resume {
                        batch_len: 1,
                        tick: 9,
                    },
                },
                TraceEvent {
                    ts: 2_200,
                    worker: 0,
                    kind: EventKind::ResumeReady {
                        seq: 1,
                        enabled_at: 2_000,
                    },
                },
                TraceEvent {
                    ts: 2_900,
                    worker: 0,
                    kind: EventKind::ResumeExec { seq: 1 },
                },
                TraceEvent {
                    ts: 3_000,
                    worker: 1,
                    kind: EventKind::Steal {
                        victim_deque: NONE_ID,
                        victim_worker: NONE_ID,
                        outcome: StealOutcome::Empty,
                    },
                },
            ],
            dropped: 0,
            workers: 2,
        }
    }

    #[test]
    fn export_shape() {
        let mut out = Vec::new();
        sample_trace().export_chrome(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["));
        assert!(s.trim_end().ends_with("]}"));
        // The lifecycle produced a complete span with the right duration
        // (2900ns - 1500ns = 1400ns = 1.400µs).
        assert!(s.contains("\"ph\": \"X\""));
        assert!(s.contains("\"dur\": 1.400"));
        // Null victims serialize as JSON null, not a sentinel number.
        assert!(s.contains("\"victim_deque\": null"));
        // Well-formedness is `tests/trace_tests.rs`'s job: it runs a strict
        // JSON validator over the export of a real traced run.
    }

    #[test]
    fn export_empty_trace() {
        let mut out = Vec::new();
        let t = Trace {
            events: Vec::new(),
            dropped: 0,
            workers: 1,
        };
        t.export_chrome(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("thread_name"));
        assert!(s.trim_end().ends_with("]}"));
    }
}
