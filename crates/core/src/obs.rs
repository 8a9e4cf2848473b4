//! Live observation plane: the blessed handle for watching a running
//! runtime.
//!
//! Everything here is readable *while the schedule is executing* — the
//! counterpart to the quiescent snapshots of
//! [`Runtime::shutdown`](crate::Runtime::shutdown):
//!
//! * [`Observer`] is the single entry point, minted by
//!   [`Runtime::observe`](crate::Runtime::observe). It holds a weak
//!   reference, so an observer (or an exporter task built on one) never
//!   keeps a dead runtime alive, and every accessor degrades to `None`
//!   once the runtime is gone.
//! * [`Observer::trace_reader`] taps the trace rings through the
//!   incremental cursor readers
//!   ([`TraceReader`]) — non-destructive,
//!   overflow-accounted, concurrent with the producers.
//! * [`LiveAudit`] runs the [`audit`](crate::audit)
//!   invariant checks *during* the run by folding reader batches into an
//!   [`AuditState`], instead of waiting for the shutdown trace; one more
//!   poll after shutdown folds in the rest.
//! * [`encode_prometheus`] renders a [`MetricsSnapshot`] in the
//!   Prometheus text exposition format — hand-rolled, dependency-free,
//!   stable metric order — which [`Observer::export_prometheus`] serves
//!   over any transport (the `lhws-obs` crate serves it over `lhws-net`,
//!   from a task inside the observed runtime).

use std::sync::{Arc, Weak};

use crate::driver::IoShardSnapshot;
use crate::metrics::MetricsSnapshot;
use crate::runtime::RtInner;
use crate::trace::{AuditReport, AuditState, TraceReader};

/// Observation handle for a live runtime, from
/// [`Runtime::observe`](crate::Runtime::observe).
///
/// Cheap to clone and `Send`; holds only a weak reference, so it can be
/// moved into tasks running *on* the observed runtime (the self-hosted
/// exporter pattern) without creating a keep-alive cycle. After the
/// runtime shuts down or is dropped, accessors return `None` /
/// [`is_shutdown`](Self::is_shutdown) returns `true`.
#[derive(Clone)]
pub struct Observer {
    rt: Weak<RtInner>,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("alive", &(self.rt.strong_count() > 0))
            .finish()
    }
}

impl Observer {
    pub(crate) fn new(rt: Weak<RtInner>) -> Observer {
        Observer { rt }
    }

    fn inner(&self) -> Option<Arc<RtInner>> {
        self.rt.upgrade()
    }

    /// Point-in-time counter snapshot with registry gauges stitched in,
    /// or `None` once the runtime is gone.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner().map(|rt| rt.registry_metrics())
    }

    /// Number of worker threads (`0` once the runtime is gone).
    pub fn workers(&self) -> usize {
        self.inner().map_or(0, |rt| rt.config.workers)
    }

    /// A fresh incremental cursor reader over the trace rings, or `None`
    /// when tracing is disabled (or the runtime is gone). Each call
    /// registers an independent reader with its own cursors; events are
    /// reclaimed only once every registered reader has passed them.
    pub fn trace_reader(&self) -> Option<TraceReader> {
        self.inner()
            .and_then(|rt| rt.tracer.as_ref().map(|t| t.new_reader()))
    }

    /// A [`LiveAudit`]: the invariant checker fed by an incremental
    /// reader, for running [`audit`](crate::audit) *during* the schedule
    /// and, with one last poll after shutdown, over the whole run. `None`
    /// when tracing is disabled (or the runtime is gone).
    pub fn audit_incremental(&self) -> Option<LiveAudit> {
        let workers = self.workers();
        self.trace_reader()
            .map(|reader| LiveAudit::new(reader, workers))
    }

    /// The I/O driver's per-queue counters — one entry for the in-tree
    /// reactor, none without a reactor or in Block mode — or `None` once
    /// the runtime is gone. Indices match the exported `{shard="N"}`
    /// labels.
    pub fn io_shards(&self) -> Option<Vec<IoShardSnapshot>> {
        self.inner().map(|rt| rt.io_shards_snapshot())
    }

    /// Renders the current metrics in the Prometheus text exposition
    /// format ([`encode_prometheus`]), or `None` once the runtime is
    /// gone.
    pub fn export_prometheus(&self) -> Option<String> {
        let rt = self.inner()?;
        let m = rt.registry_metrics();
        let dropped = rt.tracer.as_ref().map(|t| t.dropped_total());
        let shards = rt.io_shards_snapshot();
        Some(encode_prometheus(&m, rt.config.workers, dropped, &shards))
    }

    /// `true` once the observed runtime has begun shutdown or been
    /// dropped entirely.
    pub fn is_shutdown(&self) -> bool {
        self.inner().is_none_or(|rt| rt.is_shutdown())
    }
}

/// The invariant auditor running *during* the schedule: an incremental
/// [`TraceReader`] feeding an order-tolerant [`AuditState`].
///
/// Poll it periodically while the runtime executes; monotone violations
/// (double resume, deque imbalance, double I/O resolution) are flagged
/// the moment their events are observed —
/// [`violation_count`](Self::violation_count) grows mid-run. At the end,
/// [`poll`](Self::poll) once more after
/// [`Runtime::shutdown`](crate::Runtime::shutdown): the reader's cursor
/// pins reclamation, so that poll returns every event it has not yet
/// seen, and [`report`](Self::report) matches what post-hoc
/// [`audit`](crate::audit) would say about the whole run.
#[derive(Debug)]
pub struct LiveAudit {
    reader: TraceReader,
    state: AuditState,
}

impl LiveAudit {
    fn new(reader: TraceReader, workers: usize) -> LiveAudit {
        LiveAudit {
            reader,
            state: AuditState::new(workers),
        }
    }

    /// Polls the reader once and folds the batch (events + accounted
    /// loss) into the audit. Returns the number of events folded.
    pub fn poll(&mut self) -> usize {
        let batch = self.reader.poll_events();
        self.state.observe(&batch.events);
        self.state.observe_dropped(batch.dropped);
        batch.events.len()
    }

    /// Violations flagged so far by the streaming (monotone) checks.
    pub fn violation_count(&self) -> u64 {
        self.state.violation_count()
    }

    /// The underlying incremental audit state.
    pub fn state(&self) -> &AuditState {
        &self.state
    }

    /// Full report over everything observed so far (order-sensitive
    /// checks included). Non-consuming; call mid-run or at the end.
    pub fn report(&self) -> AuditReport {
        self.state.report()
    }
}

/// The two Prometheus `# TYPE`s the encoder emits.
const KIND_COUNTER: &str = "counter";
const KIND_GAUGE: &str = "gauge";

fn family_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn sample(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    family_header(out, name, kind, help);
    out.push_str(name);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// One family with one `{shard="N"}`-labeled sample per shard. Skipped
/// entirely when `values` is empty — a family with metadata but no
/// samples is an exposition-format violation the parser rejects.
fn shard_family(out: &mut String, name: &str, kind: &str, help: &str, values: &[u64]) {
    if values.is_empty() {
        return;
    }
    family_header(out, name, kind, help);
    for (shard, v) in values.iter().enumerate() {
        out.push_str(name);
        out.push_str("{shard=\"");
        out.push_str(&shard.to_string());
        out.push_str("\"} ");
        out.push_str(&v.to_string());
        out.push('\n');
    }
}

/// Renders a [`MetricsSnapshot`] (plus the worker count, the optional
/// cumulative trace-overflow count, and any per-queue I/O counters from
/// [`Observer::io_shards`]) in the Prometheus text exposition format,
/// version 0.0.4: `# HELP` / `# TYPE` preamble per family, `lhws_`
/// prefix, `_total` suffix on counters, stable order. Scalar families
/// carry one sample; the two I/O families carry one `{shard="N"}`
/// sample per readiness queue and are omitted when `io_shards` is empty.
/// Hand-rolled so the build stays dependency-free; validated by the
/// `lhws-obs` crate's parser in CI.
pub fn encode_prometheus(
    m: &MetricsSnapshot,
    workers: usize,
    trace_dropped: Option<u64>,
    io_shards: &[IoShardSnapshot],
) -> String {
    let mut o = String::with_capacity(4096);
    for (row, value) in m.rows() {
        let (suffix, kind) = if row.kind.is_counter() {
            ("_total", KIND_COUNTER)
        } else {
            ("", KIND_GAUGE)
        };
        let name = format!("lhws_{}{suffix}", row.name);
        sample(&mut o, &name, kind, row.help, value);
    }
    sample(
        &mut o,
        "lhws_workers",
        KIND_GAUGE,
        "Worker threads in the runtime.",
        workers as u64,
    );
    if let Some(dropped) = trace_dropped {
        sample(
            &mut o,
            "lhws_trace_dropped_total",
            KIND_COUNTER,
            "Trace events lost to ring overflow.",
            dropped,
        );
    }
    let events: Vec<u64> = io_shards.iter().map(|s| s.events).collect();
    let wakeups: Vec<u64> = io_shards.iter().map(|s| s.wakeups).collect();
    shard_family(
        &mut o,
        "lhws_io_shard_events_total",
        KIND_COUNTER,
        "Kernel readiness entries delivered by each reactor readiness queue.",
        &events,
    );
    shard_family(
        &mut o,
        "lhws_io_shard_wakeups_total",
        KIND_COUNTER,
        "Productive batched-wait returns per reactor readiness queue (readiness or kick; timeouts and EINTR excluded).",
        &wakeups,
    );
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_text_shape() {
        let m = MetricsSnapshot::default();
        let text = encode_prometheus(&m, 4, Some(3), &[]);
        // Every family has exactly one HELP, one TYPE, one sample.
        let mut names = Vec::new();
        for chunk in text.split("# HELP ").skip(1) {
            let name = chunk.split_whitespace().next().unwrap().to_string();
            assert!(chunk.contains(&format!("# TYPE {name} ")));
            assert!(
                chunk.lines().any(|l| l.starts_with(&format!("{name} "))),
                "sample line for {name}"
            );
            names.push(name);
        }
        assert_eq!(
            names.len(),
            26,
            "22 counters (incl. trace drops) + 4 gauges"
        );
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "no duplicate families");
        assert!(text.contains("lhws_workers 4"));
        assert!(text.contains("lhws_trace_dropped_total 3"));
        assert!(text.ends_with('\n'));
        // Counters carry the _total suffix; gauges don't.
        for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            let mut parts = line.split_whitespace().skip(2);
            let (name, kind) = (parts.next().unwrap(), parts.next().unwrap());
            assert_eq!(
                name.ends_with("_total"),
                kind == "counter",
                "{name} is {kind}"
            );
        }
    }

    #[test]
    fn prometheus_text_omits_trace_family_when_tracing_off() {
        let m = MetricsSnapshot::default();
        let text = encode_prometheus(&m, 1, None, &[]);
        assert!(!text.contains("lhws_trace_dropped_total"));
        assert!(!text.contains("lhws_io_shard_events_total"));
    }

    #[test]
    fn prometheus_shard_families_carry_one_labeled_sample_per_shard() {
        let m = MetricsSnapshot::default();
        let shards = [
            IoShardSnapshot {
                events: 7,
                wakeups: 3,
            },
            IoShardSnapshot {
                events: 0,
                wakeups: 1,
            },
        ];
        let text = encode_prometheus(&m, 2, None, &shards);
        assert!(text.contains("# TYPE lhws_io_shard_events_total counter"));
        assert!(text.contains("lhws_io_shard_events_total{shard=\"0\"} 7"));
        assert!(text.contains("lhws_io_shard_events_total{shard=\"1\"} 0"));
        assert!(text.contains("lhws_io_shard_wakeups_total{shard=\"0\"} 3"));
        assert!(text.contains("lhws_io_shard_wakeups_total{shard=\"1\"} 1"));
        // Exactly one HELP/TYPE pair per family even with many samples.
        assert_eq!(
            text.matches("# TYPE lhws_io_shard_events_total ").count(),
            1
        );
    }

    /// Golden test: the whole exposition, byte for byte, for a snapshot
    /// whose every field holds its own value. Written against the
    /// hand-listed encoder the counter table replaced; scrapers key off
    /// these names, HELP texts, TYPEs and this order.
    #[test]
    fn prometheus_output_is_pinned() {
        let m = MetricsSnapshot {
            polls: 101,
            tasks_spawned: 102,
            forks_promoted: 103,
            steals_attempted: 104,
            steals_succeeded: 105,
            steals_dead_target: 106,
            steal_retries: 107,
            steal_batch_tasks: 108,
            deque_switches: 109,
            deques_allocated: 110,
            suspensions: 111,
            resumes: 112,
            pfor_batches: 113,
            max_deques_per_worker: 114,
            unparks: 115,
            io_registrations: 116,
            io_readiness_events: 117,
            io_timeouts: 118,
            workers_restarted: 119,
            deques_rescued: 120,
            resumes_rerouted: 121,
            registry_compactions: 122,
            live_deques: 123,
            live_deques_high_water: 124,
        };
        let shards = [IoShardSnapshot {
            events: 125,
            wakeups: 126,
        }];
        let expected = r#"# HELP lhws_polls_total Task polls executed.
# TYPE lhws_polls_total counter
lhws_polls_total 101
# HELP lhws_tasks_spawned_total Heap tasks made (spawn, pfor, promoted forks).
# TYPE lhws_tasks_spawned_total counter
lhws_tasks_spawned_total 102
# HELP lhws_forks_promoted_total fork2 right halves promoted to tasks (stolen, or left suspended).
# TYPE lhws_forks_promoted_total counter
lhws_forks_promoted_total 103
# HELP lhws_steals_attempted_total Steal attempts (paper's R includes these).
# TYPE lhws_steals_attempted_total counter
lhws_steals_attempted_total 104
# HELP lhws_steals_succeeded_total Steal attempts that took at least one task.
# TYPE lhws_steals_succeeded_total counter
lhws_steals_succeeded_total 105
# HELP lhws_steals_dead_target_total Steal attempts that landed on a retired deque slot.
# TYPE lhws_steals_dead_target_total counter
lhws_steals_dead_target_total 106
# HELP lhws_steal_retries_total Bounded in-attempt retries after a lost steal race.
# TYPE lhws_steal_retries_total counter
lhws_steal_retries_total 107
# HELP lhws_steal_batch_tasks_total Tasks moved by steal-half batching beyond the first.
# TYPE lhws_steal_batch_tasks_total counter
lhws_steal_batch_tasks_total 108
# HELP lhws_deque_switches_total Active-deque switches on suspension or steal.
# TYPE lhws_deque_switches_total counter
lhws_deque_switches_total 109
# HELP lhws_deques_allocated_total Deques allocated (fresh, not recycled).
# TYPE lhws_deques_allocated_total counter
lhws_deques_allocated_total 110
# HELP lhws_suspensions_total Suspension registrations (timers, channels, external ops).
# TYPE lhws_suspensions_total counter
lhws_suspensions_total 111
# HELP lhws_resumes_total Resume events delivered back to workers.
# TYPE lhws_resumes_total counter
lhws_resumes_total 112
# HELP lhws_pfor_batches_total Parallel-for leaf batches executed.
# TYPE lhws_pfor_batches_total counter
lhws_pfor_batches_total 113
# HELP lhws_unparks_total Targeted worker wake-ups issued.
# TYPE lhws_unparks_total counter
lhws_unparks_total 115
# HELP lhws_io_registrations_total I/O readiness waits filed with a reactor driver.
# TYPE lhws_io_registrations_total counter
lhws_io_registrations_total 116
# HELP lhws_io_readiness_events_total Kernel readiness events resolved into resumes.
# TYPE lhws_io_readiness_events_total counter
lhws_io_readiness_events_total 117
# HELP lhws_io_timeouts_total I/O waits resolved by deadline instead of readiness.
# TYPE lhws_io_timeouts_total counter
lhws_io_timeouts_total 118
# HELP lhws_workers_restarted_total Worker scheduler loops respawned after a panic.
# TYPE lhws_workers_restarted_total counter
lhws_workers_restarted_total 119
# HELP lhws_deques_rescued_total Orphaned deques re-homed by worker respawn rescue.
# TYPE lhws_deques_rescued_total counter
lhws_deques_rescued_total 120
# HELP lhws_resumes_rerouted_total Resume events re-routed past a dead worker incarnation.
# TYPE lhws_resumes_rerouted_total counter
lhws_resumes_rerouted_total 121
# HELP lhws_registry_compactions_total Deque-registry slot compactions.
# TYPE lhws_registry_compactions_total counter
lhws_registry_compactions_total 122
# HELP lhws_live_deques Deques currently in the live set.
# TYPE lhws_live_deques gauge
lhws_live_deques 123
# HELP lhws_live_deques_high_water High-water mark of the live set.
# TYPE lhws_live_deques_high_water gauge
lhws_live_deques_high_water 124
# HELP lhws_max_deques_per_worker Max deques owned by one worker at once (Lemma 7 observable).
# TYPE lhws_max_deques_per_worker gauge
lhws_max_deques_per_worker 114
# HELP lhws_workers Worker threads in the runtime.
# TYPE lhws_workers gauge
lhws_workers 127
# HELP lhws_trace_dropped_total Trace events lost to ring overflow.
# TYPE lhws_trace_dropped_total counter
lhws_trace_dropped_total 128
# HELP lhws_io_shard_events_total Kernel readiness entries delivered by each reactor readiness queue.
# TYPE lhws_io_shard_events_total counter
lhws_io_shard_events_total{shard="0"} 125
# HELP lhws_io_shard_wakeups_total Productive batched-wait returns per reactor readiness queue (readiness or kick; timeouts and EINTR excluded).
# TYPE lhws_io_shard_wakeups_total counter
lhws_io_shard_wakeups_total{shard="0"} 126
"#;
        assert_eq!(encode_prometheus(&m, 127, Some(128), &shards), expected);
    }
}
