//! Runtime configuration: the [`RuntimeBuilder`] setter surface (reached
//! via [`crate::Runtime::builder`]), the plain validated [`Config`] struct
//! it hands to [`Runtime::new`], and the typed [`ConfigError`] rejections.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use crate::fault::{FaultPlan, FaultSite};
use crate::runtime::{Runtime, RuntimeError};

/// How the runtime treats latency-incurring operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatencyMode {
    /// Latency-hiding work stealing (the paper's algorithm): a task that
    /// incurs latency suspends, its worker switches to other work, and the
    /// task is reinjected through the resumed-vertices machinery.
    #[default]
    Hide,
    /// The baseline the paper compares against: the worker *blocks* (the
    /// thread sleeps) for the full latency. One deque per worker; classic
    /// work stealing.
    Block,
}

/// Configuration for [`crate::Runtime`]: plain data, set through
/// [`RuntimeBuilder`] and checked by [`Config::validate`].
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of worker threads (default: available parallelism).
    pub workers: usize,
    /// Latency handling mode.
    pub mode: LatencyMode,
    /// Capacity of the global deque registry (`gDeques`). By Lemma 7 the
    /// algorithm needs at most `P · (U + 1)` deques; the default of 65 536
    /// is comfortable for any realistic suspension width.
    pub registry_capacity: usize,
    /// How long an idle worker parks between scavenging rounds, in
    /// microseconds (cut short at the worker's own next timer deadline).
    /// Bounds wake-up staleness for events that race with parking, and is
    /// a parked thief's steal-poll interval: pushing a task onto a deque
    /// wakes nobody, so a parked worker finds stealable work only when
    /// this expires.
    pub park_micros: u64,
    /// Seed for the per-worker victim-selection RNGs.
    pub seed: u64,
    /// Per-worker trace ring capacity in events (rounded up to a power of
    /// two). `0` (the default) disables tracing entirely: no rings are
    /// allocated and every event site reduces to one never-taken branch.
    /// See [`crate::trace`].
    pub trace_capacity: usize,
    /// Deterministic fault-injection schedule for chaos testing. `None`
    /// (the default) builds no injector at all — every injection site
    /// reduces to one never-taken branch, the same zero-cost pattern as
    /// the tracer. See [`crate::fault`].
    pub fault_plan: Option<FaultPlan>,
    /// How many times a panicked worker's scheduler loop may be respawned
    /// (per worker, on the same OS thread) before the runtime gives up and
    /// poisons. `0` (the default) keeps the fail-stop behavior: the first
    /// scheduler-loop panic poisons the runtime. A nonzero budget enables
    /// the supervision tier: the dead incarnation's deques are rescued via
    /// `Registry::rescue`, salvageable tasks re-injected, and stale resume
    /// deliveries re-routed (see the `workers_restarted`,
    /// `deques_rescued` and `resumes_rerouted` metrics).
    pub worker_respawn_budget: u64,
    /// Safety timeout applied to blocking socket reads/accepts in
    /// [`LatencyMode::Block`] (default 30 s). Block mode has no reactor:
    /// a worker thread sleeps inside the kernel call, so a peer that goes
    /// silent would otherwise pin that worker forever. The timeout bounds
    /// the damage — the read fails with `WouldBlock`/`TimedOut` and the
    /// worker returns to stealing. This is the degraded-Block semantics:
    /// Block mode trades the paper's latency hiding for simplicity, and
    /// this knob is the only thing standing between it and an unbounded
    /// worker stall. Ignored in [`LatencyMode::Hide`] (the reactor's
    /// deadline machinery handles it). Zero is rejected at build time.
    pub io_safety_timeout: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            mode: LatencyMode::default(),
            registry_capacity: 1 << 16,
            park_micros: 100,
            seed: 0x1A7E_11C1,
            trace_capacity: 0,
            fault_plan: None,
            worker_respawn_budget: 0,
            io_safety_timeout: Duration::from_secs(30),
        }
    }
}

impl Config {
    /// Validates the knob combination, returning the first violation. The
    /// single checker behind [`RuntimeBuilder::build`] and
    /// [`Runtime::new`] (all fields are `pub`, so direct writes land here
    /// too).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.park_micros == 0 {
            return Err(ConfigError::ZeroParkInterval);
        }
        if self.io_safety_timeout.is_zero() {
            return Err(ConfigError::ZeroIoSafetyTimeout);
        }
        if self.registry_capacity < self.workers {
            return Err(ConfigError::RegistryTooSmall {
                capacity: self.registry_capacity,
                workers: self.workers,
            });
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate()?;
        }
        Ok(())
    }
}

/// A rejected [`RuntimeBuilder`] knob combination. Each variant names the
/// specific invalid setting so callers can report (or test) it precisely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `workers == 0`: the runtime needs at least one worker thread.
    ZeroWorkers,
    /// `park_micros == 0`: idle workers would spin without ever parking.
    ZeroParkInterval,
    /// `io_safety_timeout == 0`: Block-mode reads would block forever on a
    /// silent peer, pinning the worker thread with no way back.
    ZeroIoSafetyTimeout,
    /// `registry_capacity < workers`: each worker needs at least its one
    /// initial deque slot in the global registry.
    RegistryTooSmall {
        /// The configured registry capacity.
        capacity: usize,
        /// The configured worker count it must cover.
        workers: usize,
    },
    /// A [`FaultPlan`] rate exceeds 1 000 000 ppm (rates are fractions of
    /// one million visits).
    FaultRateOutOfRange {
        /// The injection site whose rate is out of range.
        site: FaultSite,
        /// The offending rate.
        ppm: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "workers must be >= 1"),
            ConfigError::ZeroParkInterval => write!(f, "park_micros must be >= 1"),
            ConfigError::ZeroIoSafetyTimeout => {
                write!(f, "io_safety_timeout must be non-zero")
            }
            ConfigError::RegistryTooSmall { capacity, workers } => write!(
                f,
                "registry_capacity ({capacity}) must be >= workers ({workers})"
            ),
            ConfigError::FaultRateOutOfRange { site, ppm } => {
                write!(f, "fault rate for {site:?} ({ppm} ppm) exceeds 1000000 ppm")
            }
        }
    }
}

impl Error for ConfigError {}

/// Validated constructor for [`Runtime`], reached via
/// [`Runtime::builder`](crate::Runtime::builder), and the only setter
/// surface for [`Config`].
///
/// The setters store exactly what they are given;
/// [`RuntimeBuilder::build`] rejects invalid combinations with a typed
/// [`ConfigError`] (wrapped in [`RuntimeError::InvalidConfig`]).
///
/// ```
/// use lhws_core::Runtime;
///
/// let rt = Runtime::builder().workers(2).build().unwrap();
/// assert_eq!(rt.workers(), 2);
/// ```
#[derive(Debug, Clone, Default)]
#[must_use = "builders do nothing until `build()` is called"]
pub struct RuntimeBuilder {
    cfg: Config,
}

impl RuntimeBuilder {
    /// Starts from defaults ([`Config::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads. `0` is rejected at build time.
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Sets the latency-handling mode.
    pub fn mode(mut self, m: LatencyMode) -> Self {
        self.cfg.mode = m;
        self
    }

    /// Sets the registry capacity. Must cover at least one deque per
    /// worker or build time rejects it.
    pub fn registry_capacity(mut self, c: usize) -> Self {
        self.cfg.registry_capacity = c;
        self
    }

    /// Sets the idle park interval in microseconds. `0` is rejected at
    /// build time.
    pub fn park_micros(mut self, us: u64) -> Self {
        self.cfg.park_micros = us;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// Enables event tracing with the given per-worker ring capacity in
    /// events (rounded up to a power of two; `0` leaves tracing off). See
    /// [`crate::trace`].
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.cfg.trace_capacity = events;
        self
    }

    /// Enables deterministic fault injection with the given plan. Rates
    /// above 1 000 000 ppm are rejected at build time. See [`crate::fault`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = Some(plan);
        self
    }

    /// Sets the per-worker respawn budget. `0` (the default) keeps
    /// fail-stop poisoning; a nonzero budget enables worker supervision
    /// with deque rescue (see [`Config::worker_respawn_budget`]).
    pub fn worker_respawn_budget(mut self, n: u64) -> Self {
        self.cfg.worker_respawn_budget = n;
        self
    }

    /// Sets the Block-mode I/O safety timeout (see
    /// [`Config::io_safety_timeout`] for the degraded-Block semantics this
    /// bounds). A zero duration is rejected at build time.
    pub fn io_safety_timeout(mut self, d: Duration) -> Self {
        self.cfg.io_safety_timeout = d;
        self
    }

    /// Validates the configuration without starting a runtime, returning
    /// the would-be [`Config`].
    pub fn validate(&self) -> Result<Config, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }

    /// Validates the knobs and starts the runtime.
    pub fn build(&self) -> Result<Runtime, RuntimeError> {
        Runtime::new(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Config::default();
        assert!(c.workers >= 1);
        assert_eq!(c.mode, LatencyMode::Hide);
        assert!(c.registry_capacity >= c.workers);
        assert_eq!(c.worker_respawn_budget, 0, "fail-stop by default");
        assert_eq!(c.io_safety_timeout, Duration::from_secs(30));
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn robustness_knobs() {
        assert_eq!(
            RuntimeBuilder::new()
                .io_safety_timeout(Duration::ZERO)
                .validate()
                .err(),
            Some(ConfigError::ZeroIoSafetyTimeout)
        );
        let cfg = RuntimeBuilder::new()
            .worker_respawn_budget(2)
            .io_safety_timeout(Duration::from_secs(5))
            .validate()
            .unwrap();
        assert_eq!(cfg.worker_respawn_budget, 2);
        assert_eq!(cfg.io_safety_timeout, Duration::from_secs(5));
    }

    #[test]
    fn builder_stores_exactly_what_it_is_given() {
        let cfg = RuntimeBuilder::new()
            .workers(3)
            .mode(LatencyMode::Block)
            .seed(9)
            .validate()
            .unwrap();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.mode, LatencyMode::Block);
        assert_eq!(cfg.seed, 9);
        // No clamping: an out-of-range value is rejected, not repaired.
        assert_eq!(
            RuntimeBuilder::new().workers(0).validate().err(),
            Some(ConfigError::ZeroWorkers)
        );
    }
}
