//! # lhws — Latency-Hiding Work Stealing
//!
//! A production-quality Rust reproduction of *Muller & Acar, "Latency-Hiding
//! Work Stealing: Scheduling Interacting Parallel Computations with Work
//! Stealing" (SPAA 2016)*.
//!
//! This facade is the blessed API surface: runtime construction
//! ([`Runtime`], [`RuntimeBuilder`], [`Config`]), structured parallelism
//! ([`spawn`], [`fork2`], [`par_map_reduce`], [`join_all`]), latency
//! operations ([`simulate_latency`], [`external_op`], [`DeadlineExt`]),
//! [`channel`]s, and the observability entry points ([`trace`], [`fault`],
//! [`MetricsSnapshot`]). Live introspection of a running runtime goes through
//! [`Runtime::observe`] — metrics snapshots, incremental
//! [`TraceReader`]s, continuous invariant audits ([`LiveAudit`]), and
//! the Prometheus exporter — with the self-hosted `/metrics` HTTP
//! endpoint in [`obs`]. Import from `lhws::` (or [`prelude`]) rather
//! than from the implementation crates — the facade is what stays
//! stable.
//!
//! Subsystems with their own vocabularies keep a module each:
//!
//! * [`dag`] — the weighted computation-dag model: builders, work/span/
//!   suspension-width metrics, offline schedulers, workload generators.
//! * [`sim`] — a deterministic round-based simulator executing the paper's
//!   Figure 3 pseudocode on weighted dags with any number of virtual workers.
//! * [`net`] — an epoll I/O reactor harvested by the runtime's own idle
//!   workers, and TCP wrappers that turn kernel socket readiness into the
//!   runtime's suspension/resume machinery, so real network waits are
//!   heavy edges (see `examples/server.rs`). The blessed surface
//!   ([`Reactor`], [`ReactorBuilder`], [`ReadyFuture`], [`TcpListener`],
//!   [`TcpStream`]) is re-exported here.
//!
//! ## Quickstart
//!
//! ```
//! use lhws::prelude::*;
//! use std::time::Duration;
//!
//! let rt = Runtime::builder().workers(4).build().unwrap();
//! let out = rt.block_on(async {
//!     // Two branches run in parallel; the right branch incurs latency
//!     // (e.g. waiting for a remote server) without blocking its worker.
//!     let (a, b) = fork2(
//!         async { (1..=10).sum::<u64>() },
//!         async {
//!             simulate_latency(Duration::from_millis(5)).await;
//!             42u64
//!         },
//!     )
//!     .await;
//!     a + b
//! });
//! assert_eq!(out, 97);
//! ```

#![warn(missing_docs)]

// ---------------------------------------------------------------------
// The blessed flat surface.
// ---------------------------------------------------------------------

pub use lhws_core::{
    // Observability.
    audit,
    // Latency-incurring operations and deadlines.
    external_op,
    // Structured parallelism.
    fork2,
    join_all,
    latency_until,
    par_map_reduce,
    simulate_latency,
    spawn,
    yield_now,
    AuditReport,
    AuditState,
    Canceled,
    Completer,
    // Runtime construction and lifecycle.
    Config,
    ConfigError,
    DeadlineExt,
    DeadlineOp,
    ExternalOp,
    FaultPlan,
    FaultSite,
    Fork2,
    IoShardSnapshot,
    JoinHandle,
    LatencyFuture,
    LatencyMode,
    LatencyProfile,
    LiveAudit,
    LiveStats,
    MetricsSnapshot,
    Observer,
    OpError,
    RemoteService,
    Runtime,
    RuntimeBuilder,
    RuntimeError,
    ShutdownReport,
    Trace,
    TraceReader,
    TraceStats,
    YieldNow,
};

// The blessed networking surface: construct reactors through
// [`Reactor::builder`] and bound readiness waits with [`DeadlineExt`].
// Import these from here (or [`prelude`]) rather than from `lhws_net`.
pub use lhws_net::{
    LineReader, Reactor, ReactorBuilder, ReadyFuture, TcpListener, TcpStream, TimedReadyFuture,
};

// Module entry points with their own vocabularies.
pub use lhws_core::channel;
pub use lhws_core::driver;
pub use lhws_core::external;
pub use lhws_core::fault;
pub use lhws_core::rng;
pub use lhws_core::trace;

pub use lhws_dag as dag;
pub use lhws_net as net;
pub use lhws_obs as obs;
pub use lhws_sim as sim;

/// One-line import for applications: `use lhws::prelude::*;`.
///
/// Pulls in the runtime handle and builder types, the structured-parallelism
/// combinators, latency operations, the [`DeadlineExt`] bounding trait, and
/// the channel constructors.
pub mod prelude {
    pub use crate::channel::{mpsc, oneshot};
    pub use crate::{
        external_op, fork2, join_all, par_map_reduce, simulate_latency, spawn, yield_now, Config,
        DeadlineExt, JoinHandle, LatencyMode, LatencyProfile, Reactor, ReactorBuilder, ReadyFuture,
        RemoteService, Runtime, RuntimeBuilder, TcpListener, TcpStream,
    };
}

/// Crate version string, for tooling output headers.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
