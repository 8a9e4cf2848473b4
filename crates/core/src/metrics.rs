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

/// One block of counters. All updates are `Relaxed`: metrics are
/// diagnostics, not synchronization.
#[derive(Debug, Default)]
pub(crate) struct CounterBlock {
    pub polls: AtomicU64,
    pub tasks_spawned: AtomicU64,
    pub forks_promoted: AtomicU64,
    pub steals_attempted: AtomicU64,
    pub steals_succeeded: AtomicU64,
    pub steals_dead_target: AtomicU64,
    pub steal_retries: AtomicU64,
    pub steal_batch_tasks: AtomicU64,
    pub deque_switches: AtomicU64,
    pub deques_allocated: AtomicU64,
    pub suspensions: AtomicU64,
    pub resumes: AtomicU64,
    pub pfor_batches: AtomicU64,
    pub max_deques_per_worker: AtomicU64,
    pub unparks: AtomicU64,
    pub io_registrations: AtomicU64,
    pub io_readiness_events: AtomicU64,
    pub io_timeouts: AtomicU64,
    pub workers_restarted: AtomicU64,
    pub deques_rescued: AtomicU64,
    pub resumes_rerouted: AtomicU64,
}

impl CounterBlock {
    #[inline]
    pub fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`CounterBlock`] with exactly one writer: its owning worker thread
/// (a respawned incarnation runs on the same thread). Its updates are a
/// plain load and store instead of a locked read-modify-write, which is
/// exact because no other thread writes the block; snapshots only load.
/// The counter passed in must be a field of this block.
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
    pub fn bump(&self, c: &AtomicU64) {
        self.add(c, 1);
    }

    /// Bulk bump (batch steals add whole-batch counts at once).
    #[inline]
    pub fn add(&self, c: &AtomicU64, n: u64) {
        c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// Monotonic max update.
    #[inline]
    pub fn observe_deques(&self, live: u64) {
        let max = &self.max_deques_per_worker;
        if live > max.load(Ordering::Relaxed) {
            max.store(live, Ordering::Relaxed);
        }
    }
}

/// All runtime counters: a shared block plus cache-padded per-worker
/// blocks. Derefs to the shared block so counter fields remain directly
/// addressable (`counters.polls`) for off-worker bumps and tests.
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

    fn sum(&self, pick: impl Fn(&CounterBlock) -> &AtomicU64) -> u64 {
        let mut total = pick(&self.shared).load(Ordering::Relaxed);
        for block in self.per_worker.iter() {
            total += pick(block).load(Ordering::Relaxed);
        }
        total
    }

    fn max(&self, pick: impl Fn(&CounterBlock) -> &AtomicU64) -> u64 {
        let mut best = pick(&self.shared).load(Ordering::Relaxed);
        for block in self.per_worker.iter() {
            best = best.max(pick(block).load(Ordering::Relaxed));
        }
        best
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            polls: self.sum(|b| &b.polls),
            tasks_spawned: self.sum(|b| &b.tasks_spawned),
            forks_promoted: self.sum(|b| &b.forks_promoted),
            steals_attempted: self.sum(|b| &b.steals_attempted),
            steals_succeeded: self.sum(|b| &b.steals_succeeded),
            steals_dead_target: self.sum(|b| &b.steals_dead_target),
            steal_retries: self.sum(|b| &b.steal_retries),
            steal_batch_tasks: self.sum(|b| &b.steal_batch_tasks),
            deque_switches: self.sum(|b| &b.deque_switches),
            deques_allocated: self.sum(|b| &b.deques_allocated),
            suspensions: self.sum(|b| &b.suspensions),
            resumes: self.sum(|b| &b.resumes),
            pfor_batches: self.sum(|b| &b.pfor_batches),
            max_deques_per_worker: self.max(|b| &b.max_deques_per_worker),
            unparks: self.sum(|b| &b.unparks),
            io_registrations: self.sum(|b| &b.io_registrations),
            io_readiness_events: self.sum(|b| &b.io_readiness_events),
            io_timeouts: self.sum(|b| &b.io_timeouts),
            workers_restarted: self.sum(|b| &b.workers_restarted),
            deques_rescued: self.sum(|b| &b.deques_rescued),
            resumes_rerouted: self.sum(|b| &b.resumes_rerouted),
            // Registry-derived gauges; the runtime fills these in from the
            // deque registry when it snapshots (Counters cannot see it).
            registry_compactions: 0,
            live_deques: 0,
            live_deques_high_water: 0,
        }
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
    /// Difference between two snapshots (per-run metrics from a long-lived
    /// runtime). `earlier` must be an older snapshot of the *same* runtime;
    /// all monotonic counters are subtracted, while
    /// `max_deques_per_worker` — a lifetime high-water mark, not a rate —
    /// keeps the later value.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut m = *self;
        m.polls = self.polls - earlier.polls;
        m.tasks_spawned = self.tasks_spawned - earlier.tasks_spawned;
        m.forks_promoted = self.forks_promoted - earlier.forks_promoted;
        m.steals_attempted = self.steals_attempted - earlier.steals_attempted;
        m.steals_succeeded = self.steals_succeeded - earlier.steals_succeeded;
        m.steals_dead_target = self.steals_dead_target - earlier.steals_dead_target;
        m.steal_retries = self.steal_retries - earlier.steal_retries;
        m.steal_batch_tasks = self.steal_batch_tasks - earlier.steal_batch_tasks;
        m.deque_switches = self.deque_switches - earlier.deque_switches;
        m.deques_allocated = self.deques_allocated - earlier.deques_allocated;
        m.suspensions = self.suspensions - earlier.suspensions;
        m.resumes = self.resumes - earlier.resumes;
        m.pfor_batches = self.pfor_batches - earlier.pfor_batches;
        // Max is global, not differentiable; keep the later value.
        m.max_deques_per_worker = self.max_deques_per_worker;
        m.unparks = self.unparks - earlier.unparks;
        m.io_registrations = self.io_registrations - earlier.io_registrations;
        m.io_readiness_events = self.io_readiness_events - earlier.io_readiness_events;
        m.io_timeouts = self.io_timeouts - earlier.io_timeouts;
        m.workers_restarted = self.workers_restarted - earlier.workers_restarted;
        m.deques_rescued = self.deques_rescued - earlier.deques_rescued;
        m.resumes_rerouted = self.resumes_rerouted - earlier.resumes_rerouted;
        m.registry_compactions = self.registry_compactions - earlier.registry_compactions;
        // Gauges and high-water marks are not differentiable; keep the
        // later values.
        m.live_deques = self.live_deques;
        m.live_deques_high_water = self.live_deques_high_water;
        m
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "polls:                 {}", self.polls)?;
        writeln!(f, "tasks spawned:         {}", self.tasks_spawned)?;
        writeln!(f, "forks promoted:        {}", self.forks_promoted)?;
        writeln!(
            f,
            "steals:                {} attempted, {} succeeded, {} dead targets",
            self.steals_attempted, self.steals_succeeded, self.steals_dead_target
        )?;
        writeln!(f, "steal retries:         {}", self.steal_retries)?;
        writeln!(f, "steal batch tasks:     {}", self.steal_batch_tasks)?;
        writeln!(f, "deque switches:        {}", self.deque_switches)?;
        writeln!(f, "deques allocated:      {}", self.deques_allocated)?;
        writeln!(f, "suspensions:           {}", self.suspensions)?;
        writeln!(f, "resumes:               {}", self.resumes)?;
        writeln!(f, "pfor batches:          {}", self.pfor_batches)?;
        writeln!(f, "max deques per worker: {}", self.max_deques_per_worker)?;
        writeln!(f, "unparks:               {}", self.unparks)?;
        writeln!(f, "io registrations:      {}", self.io_registrations)?;
        writeln!(f, "io readiness events:   {}", self.io_readiness_events)?;
        writeln!(f, "io timeouts:           {}", self.io_timeouts)?;
        writeln!(f, "workers restarted:     {}", self.workers_restarted)?;
        writeln!(f, "deques rescued:        {}", self.deques_rescued)?;
        writeln!(f, "resumes rerouted:      {}", self.resumes_rerouted)?;
        writeln!(f, "registry compactions:  {}", self.registry_compactions)?;
        write!(
            f,
            "live deques:           {} (high water {})",
            self.live_deques, self.live_deques_high_water
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let c = Counters::default();
        c.bump(&c.polls);
        c.bump(&c.polls);
        c.bump(&c.suspensions);
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
        c.bump(&c.polls);
        let a = c.snapshot();
        c.bump(&c.polls);
        c.bump(&c.polls);
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
polls:                 0
tasks spawned:         0
forks promoted:        0
steals:                0 attempted, 0 succeeded, 0 dead targets
steal retries:         0
steal batch tasks:     0
deque switches:        0
deques allocated:      0
suspensions:           0
resumes:               0
pfor batches:          0
max deques per worker: 0
unparks:               0
io registrations:      0
io readiness events:   0
io timeouts:           0
workers restarted:     0
deques rescued:        0
resumes rerouted:      0
registry compactions:  0
live deques:           0 (high water 0)";
        assert_eq!(m.to_string(), expected);
    }

    #[test]
    fn delta_covers_steal_counters() {
        let c = Counters::default();
        let a = c.snapshot();
        c.bump(&c.steal_batch_tasks);
        c.bump(&c.steal_retries);
        c.bump(&c.steal_retries);
        let d = c.snapshot().delta(&a);
        assert_eq!((d.steal_batch_tasks, d.steal_retries), (1, 2));
    }

    #[test]
    fn display_lists_every_counter() {
        let c = Counters::with_workers(1);
        c.bump(&c.steals_attempted);
        c.worker(0).observe_deques(5);
        let s = c.snapshot().to_string();
        assert!(s.contains("steals:                1 attempted"));
        assert!(s.contains("steal retries:         0"));
        assert!(s.contains("steal batch tasks:     0"));
        assert!(s.contains("max deques per worker: 5"));
        assert!(s.contains("io registrations:      0"));
        assert!(s.contains("registry compactions:  0"));
        assert!(s.contains("live deques:           0 (high water 0)"));
        assert!(s.lines().count() >= 15);
    }

    #[test]
    fn io_counters_sum_and_delta() {
        let c = Counters::with_workers(2);
        c.worker(0).bump(&c.worker(0).io_registrations);
        c.bump(&c.io_registrations);
        c.bump(&c.io_readiness_events);
        let a = c.snapshot();
        assert_eq!(a.io_registrations, 2);
        assert_eq!(a.io_readiness_events, 1);
        assert_eq!(a.io_timeouts, 0);
        c.bump(&c.io_timeouts);
        let b = c.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.io_registrations, 0);
        assert_eq!(d.io_timeouts, 1);
    }

    #[test]
    fn steal_counters_sum_and_delta() {
        let c = Counters::with_workers(2);
        c.worker(0).add(&c.worker(0).steal_batch_tasks, 7);
        c.worker(1).bump(&c.worker(1).steal_retries);
        c.bump(&c.steal_retries);
        let a = c.snapshot();
        assert_eq!(a.steal_batch_tasks, 7);
        assert_eq!(a.steal_retries, 2);
        c.worker(1).add(&c.worker(1).steal_batch_tasks, 3);
        let d = c.snapshot().delta(&a);
        assert_eq!(d.steal_batch_tasks, 3);
        assert_eq!(d.steal_retries, 0);
    }

    #[test]
    fn per_worker_blocks_aggregate() {
        let c = Counters::with_workers(4);
        for i in 0..4 {
            c.worker(i).bump(&c.worker(i).polls);
        }
        c.bump(&c.polls); // shared block
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
}
