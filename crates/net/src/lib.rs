//! # lhws-net — socket readiness as heavy edges
//!
//! A network I/O reactor for the latency-hiding work-stealing runtime.
//! The scheduler's claim is that *interaction latency* can be hidden by
//! suspending the waiting computation and working on something else; this
//! crate makes the waits real. An epoll-backed [`Reactor`] turns kernel
//! readiness into the runtime's external-completion resumes, so a task
//! awaiting a socket suspends against its deque exactly like any other
//! heavy edge — the suspension width `U` is literally the number of live
//! connections blocked on the kernel, and the live-deque bound of Lemma 7
//! applies to them unchanged.
//!
//! The reactor has no thread of its own: it is the runtime's
//! [`Driver`](lhws_core::Driver), and an idle worker blocks in its
//! readiness wait instead of its futex, firing completions on its own
//! thread. Each socket is registered once, edge-triggered, through the
//! [`IoDriver`] seam ([`EpollDriver`]); the kernel's reports are cached in
//! its [`Readiness`] word, so a wait costs no `epoll_ctl` and a
//! request/reply round costs one `recv` and one `send`.
//!
//! [`TcpListener`] / [`TcpStream`] retry nonblocking syscalls around
//! [`ReadyFuture`] waits under [`LatencyMode::Hide`](lhws_core::LatencyMode::Hide),
//! and degrade to plain blocking syscalls under
//! [`LatencyMode::Block`](lhws_core::LatencyMode::Block) — giving the
//! paper's two schedulers identical application code to disagree over.
//!
//! ```no_run
//! use lhws_core::{LatencyMode, Runtime};
//! use lhws_net::{Reactor, TcpListener};
//!
//! let rt = Runtime::builder().workers(4).mode(LatencyMode::Hide).build().unwrap();
//! let reactor = Reactor::builder(&rt).build().unwrap();
//! let report = rt.block_on(async move {
//!     let listener = TcpListener::bind(&reactor, "127.0.0.1:0")?;
//!     let (mut conn, _peer) = listener.accept().await?; // suspends, never blocks
//!     conn.write_all(b"hello\n").await?;
//!     std::io::Result::Ok(())
//! });
//! report.unwrap();
//! ```

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod driver;
mod epoll;
mod reactor;
mod readiness;
mod sys;
mod tcp;

pub use driver::{IoDriver, IoEvent, WaitOutcome};
pub use epoll::EpollDriver;
pub use reactor::{Reactor, ReactorBuilder, ReadyFuture, TimedReadyFuture};
/// The per-socket readiness word, public for the model checker
/// (`lhws-check`'s `io_readiness_*` scenarios).
pub use readiness::Readiness;
// Re-exported so readiness futures can be deadline-bounded without a
// direct lhws-core dependency.
pub use lhws_core::DeadlineExt;
pub use tcp::{LineReader, TcpListener, TcpStream};
