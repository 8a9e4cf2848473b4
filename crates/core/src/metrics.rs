//! Runtime metrics: relaxed atomic counters, cheap on the hot path.
//!
//! Counter bumps happen on every poll, steal attempt, suspension and
//! resume, so they must not become a coherence bottleneck. [`Counters`]
//! therefore holds one cache-padded [`CounterBlock`] **per worker** — a
//! worker bumps only its own block, so counter traffic never bounces cache
//! lines between cores — plus one shared block for bumps from off-worker
//! threads (`Runtime::spawn` from user threads, tests). A worker's block
//! has one writer, so its bumps are a load and a store ([`WorkerBlock`]);
//! only the shared block pays a locked `fetch_add`. [`Counters::snapshot`]
//! sums the blocks, so snapshot semantics are identical to a single shared
//! block.
//!
//! Every counter is one row of [`ROWS`]: its [`Counter`] (the slot it
//! holds in each block), its name, its [`Kind`], its HELP text and its
//! [`MetricsSnapshot`] field. The name is the field's name and the
//! `/stats` key; `Display` prints it with `_` read as a space, and the
//! Prometheus family is `lhws_<name>`, with `_total` on counters. The
//! snapshot, [`MetricsSnapshot::delta`], `Display`, `encode_prometheus`
//! and `/stats` loop over the table, so a new counter is its field, its
//! variant, its row and its bump sites.

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

/// Pads and aligns a value to 128 bytes — two x86-64 cache lines, covering
/// the adjacent-line prefetcher — so per-worker counter blocks never share
/// a cache line. (In-tree equivalent of `crossbeam_utils::CachePadded`.)
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own pair of cache lines.
    pub fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

/// A counter's identity: its slot in every [`CounterBlock`]. Declared in
/// [`ROWS`] order (a test pins it); each names the [`MetricsSnapshot`]
/// field of its row.
#[derive(Clone, Copy)]
pub(crate) enum Counter {
    Polls,
    TasksSpawned,
    ForksPromoted,
    StealsAttempted,
    StealsSucceeded,
    StealsDeadTarget,
    StealRetries,
    StealBatchTasks,
    DequeSwitches,
    DequesAllocated,
    Suspensions,
    Resumes,
    PforBatches,
    Unparks,
    IoRegistrations,
    IoReadinessEvents,
    IoTimeouts,
    WorkersRestarted,
    DequesRescued,
    ResumesRerouted,
    RegistryCompactions,
    LiveDeques,
    LiveDequesHighWater,
    MaxDequesPerWorker,
}

/// Where a row's value comes from, and whether it only grows.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    /// Summed over the blocks.
    Sum,
    /// The largest value any block holds: a per-worker high-water mark.
    Max,
    /// Filled in from the deque registry by the runtime; only grows.
    RegistryCount,
    /// Filled in from the deque registry by the runtime; a gauge.
    RegistryGauge,
}

impl Kind {
    /// Rows that only grow are Prometheus counters and `delta` subtracts
    /// them; the others are gauges and `delta` keeps the later value.
    pub fn is_counter(self) -> bool {
        matches!(self, Kind::Sum | Kind::RegistryCount)
    }
}

/// One counter: see the module docs.
pub(crate) struct Row {
    pub counter: Counter,
    pub name: &'static str,
    pub kind: Kind,
    pub help: &'static str,
    pub field: fn(&mut MetricsSnapshot) -> &mut u64,
}

const fn row(
    counter: Counter,
    name: &'static str,
    kind: Kind,
    field: fn(&mut MetricsSnapshot) -> &mut u64,
    help: &'static str,
) -> Row {
    Row {
        counter,
        name,
        kind,
        help,
        field,
    }
}

/// The counter table, in export order (`Display`, `/metrics`, `/stats`).
#[rustfmt::skip]
pub(crate) const ROWS: [Row; 24] = {
    use Counter::*;
    use Kind::*;
    [
        row(Polls, "polls", Sum, |m| &mut m.polls,
            "Task polls executed."),
        row(TasksSpawned, "tasks_spawned", Sum, |m| &mut m.tasks_spawned,
            "Heap tasks made (spawn, pfor, promoted forks)."),
        row(ForksPromoted, "forks_promoted", Sum, |m| &mut m.forks_promoted,
            "fork2 right halves promoted to tasks (stolen, or left suspended)."),
        row(StealsAttempted, "steals_attempted", Sum, |m| &mut m.steals_attempted,
            "Steal attempts (paper's R includes these)."),
        row(StealsSucceeded, "steals_succeeded", Sum, |m| &mut m.steals_succeeded,
            "Steal attempts that took at least one task."),
        row(StealsDeadTarget, "steals_dead_target", Sum, |m| &mut m.steals_dead_target,
            "Steal attempts that landed on a retired deque slot."),
        row(StealRetries, "steal_retries", Sum, |m| &mut m.steal_retries,
            "Bounded in-attempt retries after a lost steal race."),
        row(StealBatchTasks, "steal_batch_tasks", Sum, |m| &mut m.steal_batch_tasks,
            "Tasks moved by steal-half batching beyond the first."),
        row(DequeSwitches, "deque_switches", Sum, |m| &mut m.deque_switches,
            "Active-deque switches on suspension or steal."),
        row(DequesAllocated, "deques_allocated", Sum, |m| &mut m.deques_allocated,
            "Deques allocated (fresh, not recycled)."),
        row(Suspensions, "suspensions", Sum, |m| &mut m.suspensions,
            "Suspension registrations (timers, channels, external ops)."),
        row(Resumes, "resumes", Sum, |m| &mut m.resumes,
            "Resume events delivered back to workers."),
        row(PforBatches, "pfor_batches", Sum, |m| &mut m.pfor_batches,
            "Parallel-for leaf batches executed."),
        row(Unparks, "unparks", Sum, |m| &mut m.unparks,
            "Targeted worker wake-ups issued."),
        row(IoRegistrations, "io_registrations", Sum, |m| &mut m.io_registrations,
            "I/O readiness waits filed with a reactor driver."),
        row(IoReadinessEvents, "io_readiness_events", Sum, |m| &mut m.io_readiness_events,
            "Kernel readiness events resolved into resumes."),
        row(IoTimeouts, "io_timeouts", Sum, |m| &mut m.io_timeouts,
            "I/O waits resolved by deadline instead of readiness."),
        row(WorkersRestarted, "workers_restarted", Sum, |m| &mut m.workers_restarted,
            "Worker scheduler loops respawned after a panic."),
        row(DequesRescued, "deques_rescued", Sum, |m| &mut m.deques_rescued,
            "Orphaned deques re-homed by worker respawn rescue."),
        row(ResumesRerouted, "resumes_rerouted", Sum, |m| &mut m.resumes_rerouted,
            "Resume events re-routed past a dead worker incarnation."),
        row(RegistryCompactions, "registry_compactions", RegistryCount, |m| &mut m.registry_compactions,
            "Deque-registry slot compactions."),
        row(LiveDeques, "live_deques", RegistryGauge, |m| &mut m.live_deques,
            "Deques currently in the live set."),
        row(LiveDequesHighWater, "live_deques_high_water", RegistryGauge, |m| &mut m.live_deques_high_water,
            "High-water mark of the live set."),
        row(MaxDequesPerWorker, "max_deques_per_worker", Max, |m| &mut m.max_deques_per_worker,
            "Max deques owned by one worker at once (Lemma 7 observable)."),
    ]
};

/// One block of counters, indexed by [`Counter`]. All updates are
/// `Relaxed`: metrics are diagnostics, not synchronization. The registry
/// rows' slots stay 0.
#[derive(Debug, Default)]
pub(crate) struct CounterBlock([AtomicU64; ROWS.len()]);

impl CounterBlock {
    #[inline]
    pub fn bump(&self, c: Counter) {
        self.0[c as usize].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize].load(Ordering::Relaxed)
    }
}

/// A [`CounterBlock`] with exactly one writer: its owning worker thread
/// (a respawned incarnation runs on the same thread). Its updates are a
/// plain load and store instead of a locked read-modify-write, which is
/// exact because no other thread writes the block; snapshots only load.
#[derive(Debug, Default)]
pub(crate) struct WorkerBlock(CounterBlock);

impl Deref for WorkerBlock {
    type Target = CounterBlock;
    fn deref(&self) -> &CounterBlock {
        &self.0
    }
}

impl WorkerBlock {
    #[inline]
    pub fn bump(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Bulk bump (batch steals add whole-batch counts at once).
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        let a = &self.0 .0[c as usize];
        a.store(a.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// Monotonic max update.
    #[inline]
    pub fn observe_deques(&self, live: u64) {
        let max = &self.0 .0[Counter::MaxDequesPerWorker as usize];
        if live > max.load(Ordering::Relaxed) {
            max.store(live, Ordering::Relaxed);
        }
    }
}

/// All runtime counters: a shared block plus cache-padded per-worker
/// blocks. Derefs to the shared block, so off-worker code bumps
/// `counters.bump(Counter::…)` directly.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    shared: CounterBlock,
    per_worker: Box<[CachePadded<WorkerBlock>]>,
}

impl Deref for Counters {
    type Target = CounterBlock;
    fn deref(&self) -> &CounterBlock {
        &self.shared
    }
}

impl Counters {
    /// Creates counters with one padded block per worker.
    pub fn with_workers(p: usize) -> Self {
        Counters {
            shared: CounterBlock::default(),
            per_worker: (0..p).map(|_| CachePadded::default()).collect(),
        }
    }

    /// The counter block owned by worker `i` — bump through this on worker
    /// hot paths so the update stays core-local.
    #[inline]
    pub fn worker(&self, i: usize) -> &WorkerBlock {
        &self.per_worker[i]
    }

    /// Sums each `Sum` row and takes the largest of each `Max` row over
    /// the blocks; the registry rows are left 0 for the runtime to fill.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let workers = || self.per_worker.iter().map(|b| &b.value.0);
        let mut m = MetricsSnapshot::default();
        for row in &ROWS {
            let values = std::iter::once(&self.shared)
                .chain(workers())
                .map(|b| b.get(row.counter));
            *(row.field)(&mut m) = match row.kind {
                Kind::Sum => values.sum(),
                Kind::Max => values.max().unwrap_or(0),
                Kind::RegistryCount | Kind::RegistryGauge => 0,
            };
        }
        m
    }
}

/// A point-in-time snapshot of the runtime's counters.
///
/// Snapshots are plain data, detached from the live padded counter blocks:
/// `Clone + Copy + Debug`, comparable, and printable via [`fmt::Display`]
/// without any serialization dependency. Use [`MetricsSnapshot::delta`] to
/// get per-run numbers from a long-lived runtime instead of hand-subtracting
/// fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct MetricsSnapshot {
    /// Task polls performed (≥ task count; re-polls after suspension add).
    pub polls: u64,
    /// Heap tasks ever made: spawns, pfor batch tasks and promoted forks.
    /// A `fork2` whose right half runs in place makes none.
    pub tasks_spawned: u64,
    /// `fork2` right halves turned into tasks: stolen by a thief, or
    /// promoted by their owner because the left half suspended (or past
    /// the inline-depth cap). Every other fork stays inline.
    pub forks_promoted: u64,
    /// Steal attempts `R`.
    pub steals_attempted: u64,
    /// Successful steals.
    pub steals_succeeded: u64,
    /// Steal attempts that landed on a dead (freed, not reused) deque. The
    /// live-set draw never returns one, so only a victim retiring between
    /// the draw and the steal counts here: ~0 in steady state.
    pub steals_dead_target: u64,
    /// Benign pop-top races ([`Steal::Retry`](lhws_deque::Steal)) absorbed
    /// inside steal attempts. Counted per inner retry iteration — before
    /// the backoff spin — so the count is exact contention, not retries
    /// folded silently into one attempt.
    pub steal_retries: u64,
    /// Tasks transferred by multi-task (steal-half) steals, counting every
    /// task in each batch of two or more.
    pub steal_batch_tasks: u64,
    /// Deque switches (idle worker resumed one of its ready deques).
    pub deque_switches: u64,
    /// Deques ever allocated in the global registry.
    pub deques_allocated: u64,
    /// Latency suspensions recorded.
    pub suspensions: u64,
    /// Resume events delivered.
    pub resumes: u64,
    /// Resumed-vertex batches injected (pfor vertices pushed).
    pub pfor_batches: u64,
    /// Maximum live (non-freed) deques any worker owned at once
    /// (Lemma 7: ≤ U + 1).
    pub max_deques_per_worker: u64,
    /// Worker unparks issued by the sleeper set (one per injected task or
    /// resume batch at most — never a broadcast).
    pub unparks: u64,
    /// I/O readiness registrations filed with a reactor driver (one per
    /// `read_ready`/`write_ready` wait that reached the kernel).
    pub io_registrations: u64,
    /// Readiness events a reactor driver turned into resume deliveries.
    pub io_readiness_events: u64,
    /// I/O waits that resolved by deadline expiry rather than readiness.
    pub io_timeouts: u64,
    /// Supervised worker respawns after a scheduler-loop panic (0 when
    /// `Config::worker_respawn_budget` is 0 — the fail-stop default).
    pub workers_restarted: u64,
    /// Deques rescued from dead worker incarnations via
    /// `Registry::rescue` (tasks drained and re-injected on respawn).
    pub deques_rescued: u64,
    /// Resume events addressed to a dead worker incarnation and re-routed
    /// to the respawned worker's active deque (epoch-mismatch deliveries).
    pub resumes_rerouted: u64,
    /// Live-set registry shard compactions (dense id lists shrunk after
    /// mass releases).
    pub registry_compactions: u64,
    /// Deques currently in the registry's live set (gauge, racy snapshot).
    pub live_deques: u64,
    /// High-water mark of the registry-wide live set; Lemma 7 bounds it by
    /// `P * (U + 1)`.
    pub live_deques_high_water: u64,
}

impl MetricsSnapshot {
    /// Every row with this snapshot's value, in table order.
    pub(crate) fn rows(mut self) -> impl Iterator<Item = (&'static Row, u64)> {
        ROWS.iter().map(move |row| (row, *(row.field)(&mut self)))
    }

    /// Difference between two snapshots (per-run metrics from a long-lived
    /// runtime). `earlier` must be an older snapshot of the *same* runtime;
    /// every counter is subtracted, while the gauges — `live_deques` and
    /// the high-water marks `live_deques_high_water` and
    /// `max_deques_per_worker` — keep the later value.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let (mut m, mut earlier) = (*self, *earlier);
        for row in ROWS.iter().filter(|row| row.kind.is_counter()) {
            *(row.field)(&mut m) -= *(row.field)(&mut earlier);
        }
        m
    }
}

/// Iterates every counter as `(name, value)` in table order; the name is
/// the field's name (the `/stats` key).
impl IntoIterator for &MetricsSnapshot {
    type Item = (&'static str, u64);
    type IntoIter = std::array::IntoIter<(&'static str, u64), { ROWS.len() }>;

    fn into_iter(self) -> Self::IntoIter {
        let mut m = *self;
        ROWS.map(|row| (row.name, *(row.field)(&mut m))).into_iter()
    }
}

/// One `label: value` line per row, in table order.
impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (row, value)) in self.rows().enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            // 24 columns: the longest label, `live deques high water:`, and a space.
            let label = format!("{}:", row.name.replace('_', " "));
            write!(f, "{label:<24}{value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let c = Counters::default();
        c.bump(Counter::Polls);
        c.bump(Counter::Polls);
        c.bump(Counter::Suspensions);
        let m = c.snapshot();
        assert_eq!(m.polls, 2);
        assert_eq!(m.suspensions, 1);
        assert_eq!(m.resumes, 0);
    }

    #[test]
    fn observe_deques_keeps_max() {
        let c = Counters::with_workers(1);
        for live in [3, 1, 7, 2] {
            c.worker(0).observe_deques(live);
        }
        assert_eq!(c.snapshot().max_deques_per_worker, 7);
    }

    #[test]
    fn delta_subtracts() {
        let c = Counters::default();
        c.bump(Counter::Polls);
        let a = c.snapshot();
        c.bump(Counter::Polls);
        c.bump(Counter::Polls);
        let b = c.snapshot();
        assert_eq!(b.delta(&a).polls, 2);
    }

    /// Golden test: the exact `Display` layout, label order included.
    /// Scrapers and log differs key off this — change it consciously,
    /// update this pin in the same commit.
    #[test]
    fn display_golden_order() {
        let m = MetricsSnapshot::default();
        let expected = "\
polls:                  0
tasks spawned:          0
forks promoted:         0
steals attempted:       0
steals succeeded:       0
steals dead target:     0
steal retries:          0
steal batch tasks:      0
deque switches:         0
deques allocated:       0
suspensions:            0
resumes:                0
pfor batches:           0
unparks:                0
io registrations:       0
io readiness events:    0
io timeouts:            0
workers restarted:      0
deques rescued:         0
resumes rerouted:       0
registry compactions:   0
live deques:            0
live deques high water: 0
max deques per worker:  0";
        assert_eq!(m.to_string(), expected);
    }

    #[test]
    fn display_lists_every_counter() {
        let c = Counters::with_workers(1);
        c.bump(Counter::StealsAttempted);
        c.worker(0).observe_deques(5);
        let s = c.snapshot().to_string();
        assert!(s.contains("steals attempted:       1"));
        assert!(s.contains("max deques per worker:  5"));
        assert_eq!(s.lines().count(), ROWS.len(), "one line per row");
        assert!(s.lines().all(|l| l.find(char::is_numeric) == Some(24)));
    }

    #[test]
    fn steal_counters_sum_and_delta() {
        let c = Counters::with_workers(2);
        c.worker(0).add(Counter::StealBatchTasks, 7);
        c.worker(1).bump(Counter::StealRetries);
        c.bump(Counter::StealRetries);
        let a = c.snapshot();
        assert_eq!(a.steal_batch_tasks, 7);
        assert_eq!(a.steal_retries, 2);
        c.worker(1).add(Counter::StealBatchTasks, 3);
        let d = c.snapshot().delta(&a);
        assert_eq!(d.steal_batch_tasks, 3);
        assert_eq!(d.steal_retries, 0);
    }

    #[test]
    fn delta_covers_steal_counters() {
        let c = Counters::default();
        let a = c.snapshot();
        c.bump(Counter::StealBatchTasks);
        c.bump(Counter::StealRetries);
        c.bump(Counter::StealRetries);
        let d = c.snapshot().delta(&a);
        assert_eq!((d.steal_batch_tasks, d.steal_retries), (1, 2));
    }

    #[test]
    fn io_counters_sum_and_delta() {
        let c = Counters::with_workers(2);
        c.worker(0).bump(Counter::IoRegistrations);
        c.bump(Counter::IoRegistrations);
        c.bump(Counter::IoReadinessEvents);
        let a = c.snapshot();
        assert_eq!(a.io_registrations, 2);
        assert_eq!(a.io_readiness_events, 1);
        assert_eq!(a.io_timeouts, 0);
        c.bump(Counter::IoTimeouts);
        let b = c.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.io_registrations, 0);
        assert_eq!(d.io_timeouts, 1);
    }

    #[test]
    fn per_worker_blocks_aggregate() {
        let c = Counters::with_workers(4);
        for i in 0..4 {
            c.worker(i).bump(Counter::Polls);
        }
        c.bump(Counter::Polls); // shared block
        assert_eq!(c.snapshot().polls, 5);
        c.worker(2).observe_deques(9);
        c.worker(3).observe_deques(3);
        assert_eq!(c.snapshot().max_deques_per_worker, 9);
    }

    #[test]
    fn counter_blocks_are_padded() {
        assert_eq!(std::mem::align_of::<CachePadded<WorkerBlock>>(), 128);
        assert!(std::mem::size_of::<CachePadded<WorkerBlock>>().is_multiple_of(128));
    }

    #[test]
    fn rows_are_declared_in_counter_order() {
        for (i, row) in ROWS.iter().enumerate() {
            assert_eq!(row.counter as usize, i, "{}", row.name);
        }
    }

    /// Every field with its value, read through the derived `Debug`, which
    /// knows nothing of the table.
    fn fields(m: &MetricsSnapshot) -> Vec<(String, u64)> {
        let s = format!("{m:?}");
        let body = s.strip_prefix("MetricsSnapshot { ").unwrap();
        body.strip_suffix(" }")
            .unwrap()
            .split(", ")
            .map(|kv| {
                let (k, v) = kv.split_once(": ").unwrap();
                (k.to_string(), v.parse().unwrap())
            })
            .collect()
    }

    /// Bumps every block-backed row on a worker block and on the shared
    /// block (with distinct amounts), fills the registry rows as the
    /// runtime does, and checks that every field carries its own value
    /// into the snapshot, `delta`, `Display`, the Prometheus text and the
    /// `(name, value)` iterator `/stats` reads.
    #[test]
    fn every_row_reaches_every_consumer() {
        const GAUGES: [&str; 3] = [
            "live_deques",
            "live_deques_high_water",
            "max_deques_per_worker",
        ];
        let c = Counters::with_workers(2);
        let round = |base: u64| {
            for (i, row) in ROWS.iter().enumerate() {
                if matches!(row.kind, Kind::Sum | Kind::Max) {
                    c.worker(1).add(row.counter, base + i as u64);
                    c.bump(row.counter);
                }
            }
            let mut m = c.snapshot();
            for (i, row) in ROWS.iter().enumerate() {
                if !matches!(row.kind, Kind::Sum | Kind::Max) {
                    *(row.field)(&mut m) = 10 * base + i as u64;
                }
            }
            m
        };
        let earlier = round(100);
        let later = round(1000);

        let fields_of_later = fields(&later);
        assert_eq!(fields_of_later.len(), ROWS.len(), "one row per field");
        let mut values: Vec<u64> = fields_of_later.iter().map(|(_, v)| *v).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), ROWS.len(), "every field has its own value");
        assert!(values[0] > 0, "every field is filled");

        let text = later.to_string();
        let prom = crate::obs::encode_prometheus(&later, 1, None, &[]);
        let mut listed: Vec<(String, u64)> = (&later)
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect();
        listed.sort();
        let mut sorted = fields_of_later.clone();
        sorted.sort();
        assert_eq!(listed, sorted, "the /stats iterator names every field");

        let earlier_fields = fields(&earlier);
        let d = fields(&later.delta(&earlier));
        for (i, (name, v)) in fields_of_later.iter().enumerate() {
            let label = format!("{}:", name.replace('_', " "));
            assert!(
                text.lines()
                    .any(|l| l.starts_with(&label) && l.ends_with(&format!(" {v}"))),
                "Display: {name}"
            );
            let gauge = GAUGES.contains(&name.as_str());
            let family = if gauge {
                format!("lhws_{name}")
            } else {
                format!("lhws_{name}_total")
            };
            assert!(
                prom.contains(&format!("\n{family} {v}\n")),
                "Prometheus: {name}"
            );
            let expected = if gauge { *v } else { v - earlier_fields[i].1 };
            assert_eq!(d[i], (name.clone(), expected), "delta: {name}");
        }
    }
}
