//! Spans recorded by the benchmark's own code around its calls into the
//! runtime (spans inside the runtime are a later change). Kept in memory
//! during the traced window and written out once it ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

use crate::stats;

/// One timed interval on the [`crate::host::epoch`] clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Name of the span that caused this one (`""` for a root). Together
    /// with `id` it identifies the parent: spans of one request or job
    /// share the id.
    pub parent: &'static str,
    /// Request or job identifier.
    pub id: u64,
    /// Element or message index within the job (0 where there is none).
    pub elem: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Where tasks on any worker drop their spans. One uncontended lock per
/// span; what that costs is what `span.overhead_ratio` reports.
#[derive(Debug, Default)]
pub struct SpanSink {
    buf: Mutex<Vec<Span>>,
}

impl SpanSink {
    pub fn record(&self, span: Span) {
        self.buf.lock().expect("span sink poisoned").push(span);
    }

    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        self.buf.lock().expect("span sink poisoned").extend(spans);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.buf.lock().expect("span sink poisoned"))
    }
}

/// Durations in µs of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_us)
        .collect()
}

/// Self time in µs of every span called `name`: its duration minus the
/// part of its interval that spans naming it as parent (same id) cover.
pub fn self_times_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent == name) {
        children
            .entry(s.id)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    for intervals in children.values_mut() {
        intervals.sort_unstable();
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in children.get(&s.id).map_or(&[][..], Vec::as_slice) {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e3
        })
        .collect()
}

/// `(p50, p99, self p50, count)` of the spans called `name`, all in µs.
pub fn summary(spans: &[Span], name: &str) -> (f64, f64, f64, usize) {
    let mut d = durations_us(spans, name);
    let mut own = self_times_us(spans, name);
    let d = stats::sorted(&mut d);
    (
        stats::percentile(d, 0.5),
        stats::percentile(d, 0.99),
        stats::median(&mut own),
        d.len(),
    )
}

/// Spans written to a trace file at most: whole jobs or requests, lowest
/// ids first (every span still counts in the run's metrics).
const FILE_SPAN_LIMIT: usize = 100_000;

/// Writes one JSON object per span, ordered by id, and returns how many
/// were written.
pub fn write_jsonl(path: &Path, mut spans: Vec<Span>) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    spans.sort_by_key(|s| (s.id, s.start_ns));
    if let Some(cut) = spans.get(FILE_SPAN_LIMIT).map(|s| s.id) {
        spans.retain(|s| s.id < cut);
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        writeln!(
            out,
            r#"{{"name":"{}","parent":"{}","id":{},"elem":{},"start_ns":{},"end_ns":{}}}"#,
            s.name, s.parent, s.id, s.elem, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: &'static str, id: u64, a: u64, b: u64) -> Span {
        Span {
            name,
            parent,
            id,
            elem: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("job", "", 1, 0, 10_000),
            span("elem", "job", 1, 1_000, 4_000),
            span("elem", "job", 1, 3_000, 6_000), // overlaps the first
            span("elem", "job", 2, 0, 10_000),    // another job's child
            span("job", "", 2, 0, 10_000),
        ];
        let own = self_times_us(&spans, "job");
        assert_eq!(own, vec![5.0, 0.0]);
        // A span nobody names as parent keeps its whole duration.
        assert_eq!(self_times_us(&spans, "elem"), vec![3.0, 3.0, 10.0]);
    }
}
