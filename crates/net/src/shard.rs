//! One reactor shard: a waiter table, an event thread, and a pluggable
//! [`IoDriver`] backend.
//!
//! The [`Reactor`](crate::Reactor) routes each fd to shard
//! `fd % shards`; everything below that routing decision — registration,
//! cancellation, readiness dispatch, shutdown drain — lives here, once
//! per shard, with no cross-shard state beyond the shared
//! [`IoShardStats`] counter block (cache-padded per shard). The code is
//! the former single-threaded reactor loop, unchanged in protocol:
//! One shard (the default) is byte-compatible with the historical reactor.

use std::collections::HashMap;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::{io, thread};

use parking_lot::Mutex;

use lhws_core::{Completer, DriverHooks, DriverReport, IoShardStats, IoTraceEvent};

use crate::driver::{Interest, InterestSet, IoDriver, IoEvent, WaitOutcome};

/// One registered wait: the token ties trace events together; dropping
/// the completer settles the wait `Err(Canceled)`.
struct Waiter {
    token: u64,
    completer: Completer<()>,
}

#[derive(Default)]
struct FdWaiters {
    read: Option<Waiter>,
    write: Option<Waiter>,
}

impl FdWaiters {
    fn set(&self) -> InterestSet {
        InterestSet {
            read: self.read.is_some(),
            write: self.write.is_some(),
        }
    }
}

/// One shard of the sharded reactor: a registration table mapping fds to
/// at most one waiter per direction, an event thread
/// (`lhws-net-shard-N`) draining the backend's batched
/// [`wait`](IoDriver::wait), and the shutdown drain that settles every
/// in-flight wait `Err(Canceled)`.
///
/// Named for its only in-tree backend; the backend is a `dyn`
/// [`IoDriver`], so an io_uring shard is this exact struct with a
/// different driver boxed in. See the [`driver`](crate::driver) module
/// docs for the invariants this type owns (one waiter per direction,
/// token-matched deregistration, shutdown ordering).
pub struct EpollShard {
    index: usize,
    hooks: DriverHooks,
    stats: Arc<IoShardStats>,
    driver: Box<dyn IoDriver>,
    table: Mutex<HashMap<RawFd, FdWaiters>>,
    thread: Mutex<Option<thread::JoinHandle<()>>>,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for EpollShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpollShard")
            .field("index", &self.index)
            .field("backend", &self.driver.name())
            .field("registered_fds", &self.registered_fds())
            .finish()
    }
}

impl EpollShard {
    pub(crate) fn new(
        index: usize,
        hooks: DriverHooks,
        stats: Arc<IoShardStats>,
        driver: Box<dyn IoDriver>,
    ) -> Arc<EpollShard> {
        Arc::new(EpollShard {
            index,
            hooks,
            stats,
            driver,
            table: Mutex::new(HashMap::new()),
            thread: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Starts the shard's event thread. Called once by the reactor
    /// builder, right after construction.
    pub(crate) fn spawn(self: &Arc<Self>) -> io::Result<()> {
        let shard = Arc::clone(self);
        let handle = thread::Builder::new()
            .name(format!("lhws-net-shard-{}", self.index))
            .spawn(move || shard.event_loop())?;
        *self.thread.lock() = Some(handle);
        Ok(())
    }

    /// This shard's index in the reactor's shard map.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of fds currently holding at least one waiter.
    pub fn registered_fds(&self) -> usize {
        self.table.lock().len()
    }

    /// Files `completer` in the table and arms interest through the
    /// backend. Rejected once shutdown has begun: the completer is
    /// dropped, so the caller's future observes `Err(Canceled)`.
    pub(crate) fn register(
        &self,
        fd: RawFd,
        interest: Interest,
        token: u64,
        completer: Completer<()>,
    ) -> io::Result<()> {
        let mut table = self.table.lock();
        // The flag is checked under the table lock and shutdown closes
        // the backend only after draining the table under this same
        // lock, so a register that sees the flag clear always sees a
        // live backend.
        if self.shutdown.load(Ordering::SeqCst) {
            drop(completer);
            return Err(io::Error::other("reactor is shut down"));
        }
        let entry = table.entry(fd).or_default();
        let is_new = entry.set().is_empty();
        let slot = match interest {
            Interest::Read => &mut entry.read,
            Interest::Write => &mut entry.write,
        };
        if slot.is_some() {
            // One waiter per direction per fd: a second reader/writer on
            // the same socket is an application bug, not a race to paper
            // over silently.
            return Err(io::Error::other(
                "a readiness wait is already registered for this fd and direction",
            ));
        }
        *slot = Some(Waiter { token, completer });
        let set = entry.set();
        let cookie = fd as u32 as u64;
        let armed = if is_new {
            self.driver.register(fd, set, cookie)
        } else {
            self.driver.modify(fd, set, cookie)
        };
        if let Err(e) = armed {
            // Roll back the slot so the failed wait leaves no trace state.
            let entry = table.get_mut(&fd).expect("just inserted");
            match interest {
                Interest::Read => entry.read = None,
                Interest::Write => entry.write = None,
            }
            if entry.set().is_empty() {
                table.remove(&fd);
            }
            return Err(e);
        }
        // Count + trace inside the lock, after the insert: the register
        // event is recorded before any readiness/deregister for the token.
        self.hooks.count_io_registration();
        self.hooks.trace_io(IoTraceEvent::Register { token });
        Ok(())
    }

    /// Removes the wait identified by `(fd, interest, token)` if it is
    /// still registered, disarming interest and tracing `IoDeregister`.
    /// A no-op when readiness (or shutdown) already claimed the waiter.
    pub(crate) fn cancel(&self, fd: RawFd, interest: Interest, token: u64) {
        let waiter = {
            let mut table = self.table.lock();
            let Some(entry) = table.get_mut(&fd) else {
                return;
            };
            let slot = match interest {
                Interest::Read => &mut entry.read,
                Interest::Write => &mut entry.write,
            };
            if !matches!(slot, Some(w) if w.token == token) {
                return;
            }
            let waiter = slot.take().expect("checked above");
            let set = entry.set();
            if self.shutdown.load(Ordering::SeqCst) {
                // Shutdown owns the backend lifecycle; just unfile.
            } else if set.is_empty() {
                table.remove(&fd);
                let _ = self.driver.deregister(fd);
            } else {
                let _ = self.driver.modify(fd, set, fd as u32 as u64);
            }
            self.hooks.trace_io(IoTraceEvent::Deregister { token });
            waiter
        };
        // Dropping the completer settles the wait Err(Canceled) outside
        // the table lock; if the future was suspended the cancellation
        // still delivers its one resume event, so counters balance.
        drop(waiter);
    }

    /// The shard thread: wait for readiness, hand each fired waiter its
    /// completion, re-wait. Exits when the shutdown flag is set (a wake
    /// is posted through the backend to interrupt the wait).
    fn event_loop(self: &Arc<Self>) {
        let mut events: Vec<IoEvent> = Vec::with_capacity(64);
        let mut fired: Vec<Waiter> = Vec::new();
        // An Err from the backend means its readiness queue itself
        // failed — bail out. EINTR is not that: it surfaces as
        // `Interrupted` and re-waits without counting a wakeup.
        loop {
            match self.driver.wait(&mut events, -1) {
                Err(_) => break,
                Ok(WaitOutcome::Interrupted) | Ok(WaitOutcome::TimedOut) => {}
                Ok(WaitOutcome::Ready(n)) => {
                    self.stats.count_wakeup(self.index);
                    self.stats.count_events(self.index, n as u64);
                    for ev in &events {
                        self.dispatch(*ev, &mut fired);
                    }
                }
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
    }

    /// Fires the waiters a single readiness entry unblocks.
    fn dispatch(&self, ev: IoEvent, fired: &mut Vec<Waiter>) {
        let fd = ev.cookie as u32 as RawFd;
        {
            let mut table = self.table.lock();
            let Some(entry) = table.get_mut(&fd) else {
                return; // canceled between wait and here
            };
            let mut dropped = false;
            for (hit, slot) in [(ev.read, &mut entry.read), (ev.write, &mut entry.write)] {
                if hit && slot.is_some() {
                    if self.hooks.drop_readiness() {
                        // Fault injection: swallow this readiness
                        // *without* disarming interest. Level-triggered
                        // arms recover for free (the kernel re-reports
                        // the still-true condition on the next wait);
                        // edge-triggered arms are re-armed below, since
                        // the kernel reports each transition only once.
                        dropped = true;
                        continue;
                    }
                    fired.push(slot.take().expect("checked is_some"));
                }
            }
            let set = entry.set();
            if fired.is_empty() {
                // Nothing claimed (all drops): interest stays armed. An
                // edge-triggered backend needs an explicit re-arm to see
                // the swallowed condition again — `modify` re-evaluates
                // readiness even under EPOLLET.
                if dropped && self.driver.edge_triggered() {
                    let _ = self.driver.modify(fd, set, ev.cookie);
                }
            } else if set.is_empty() {
                table.remove(&fd);
                let _ = self.driver.deregister(fd);
            } else {
                let _ = self.driver.modify(fd, set, ev.cookie);
            }
        }
        // Fire off-worker, outside the table lock: each complete()
        // routes a resume event to the suspended task's owner.
        for waiter in fired.drain(..) {
            self.hooks.trace_io(IoTraceEvent::Ready {
                token: waiter.token,
            });
            self.hooks.count_io_readiness();
            waiter.completer.complete(());
        }
    }

    /// Stops the shard: raises the flag, kicks and joins the event
    /// thread, then — under the table lock, closing the backend before
    /// releasing it, so a racing register can never arm a closed
    /// (possibly reused) descriptor — drains every waiter. Returns the
    /// per-shard drain tally the reactor sums into
    /// [`ShutdownReport::canceled_io_waits`](lhws_core::ShutdownReport::canceled_io_waits).
    pub(crate) fn shutdown_drain(&self) -> DriverReport {
        let mut report = DriverReport::default();
        self.shutdown.store(true, Ordering::SeqCst);
        self.driver.wake();
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
        let canceled: Vec<Waiter> = {
            let mut table = self.table.lock();
            let mut canceled = Vec::new();
            for (_fd, entry) in table.drain() {
                report.drained_registrations += 1;
                for waiter in [entry.read, entry.write].into_iter().flatten() {
                    self.hooks.trace_io(IoTraceEvent::Deregister {
                        token: waiter.token,
                    });
                    report.canceled_waits += 1;
                    canceled.push(waiter);
                }
            }
            self.driver.close();
            canceled
        };
        // Settle outside the lock: each dropped completer delivers an
        // Err(Canceled) resume that the still-running workers drain.
        drop(canceled);
        report
    }
}
