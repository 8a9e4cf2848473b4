//! The timer substrate: delivers latency expirations.
//!
//! The paper's model assumes an external world (remote servers, users,
//! storage) that makes suspended vertices ready again after their latency.
//! This module is that world's stand-in, and it has no thread of its own:
//! **the worker is the timer**. Each worker owns one [`Wheel`] shard in its
//! thread-local state and is the only thread that touches it — it files
//! its own latency and deadline registrations into it, fires it where it
//! drains its resume inbox (after every poll and on every idle step), and
//! cancels it when it exits. An expiration therefore reaches its owning
//! deque — the paper's `callback(v, q)` — with no hop through another
//! thread: everything one drain finds due joins the same batch of
//! [`ResumeEvent`]s, so the worker builds a single pfor reinjection tree
//! over the burst. An idle worker parks no longer than its shard's next
//! deadline.
//!
//! The one registration from another thread — a resume held back by the
//! `ResumeDelay` fault — does not reach into the shard: it travels through
//! the owner's inbox, and the owner files it into its own wheel.

mod wheel;

use crate::task::TaskRef;

pub(crate) use wheel::{Payload, Pending, Wheel};

/// A deadline notification callback, invoked exactly once by the owning
/// worker: with `true` when the deadline expired, or `false` when the
/// worker exited (shutdown, poison) before the deadline. Used by
/// [`crate::external::DeadlineOp`] to settle `Err(TimedOut)` /
/// `Err(Canceled)` without a dedicated suspension.
pub(crate) type DeadlineCallback = Box<dyn FnOnce(bool) + Send + 'static>;

/// Resume event delivered to a worker: the paper's `callback(v, q)`
/// arguments.
#[derive(Debug)]
pub(crate) struct ResumeEvent {
    /// The resumed task (`v`).
    pub task: TaskRef,
    /// The owner's local index of the deque it belongs to (`q`).
    pub local_deque: usize,
    /// Trace suspension id pairing this event with its `Suspend` event
    /// (`0` when tracing is off).
    pub seq: u64,
    /// Trace timestamp at which the event was handed to the runtime (the
    /// suspension's *enable* time). Stamped at delivery or at firing.
    pub enabled_at: u64,
    /// Incarnation of the owning worker at registration time. If the
    /// worker died and respawned before the event was drained, its
    /// owner-local deque numbering is void — the drain detects the
    /// mismatch and re-routes the task instead of touching `local_deque`.
    pub epoch: u64,
}
