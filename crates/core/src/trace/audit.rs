//! The trace auditor: [`audit`] replays a whole [`Trace`] against the
//! invariants the fault plan attacks, and [`AuditState`] is the same fold
//! fed batch by batch from a live [`TraceReader`](crate::trace::TraceReader).
//! It is the event format's second consumer, next to `stats.rs`.

use std::collections::HashMap;
use std::fmt;

use super::{EventKind, Trace, TraceEvent};

/// How many violation messages [`audit`] keeps verbatim (the count keeps
/// counting past this).
const MAX_VIOLATION_MESSAGES: usize = 16;

/// Result of [`audit`]: counts, the Lemma 7 observables, and every
/// invariant violation found.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AuditReport {
    /// `Suspend` events seen (registrations).
    pub suspensions: u64,
    /// `ResumeReady` events seen (registrations drained by their owner).
    pub readies: u64,
    /// `ResumeExec` events seen (resumed tasks re-polled).
    pub execs: u64,
    /// Registrations with no `ResumeReady` — suspensions still in flight
    /// when the trace was cut. Non-zero is normal for mid-run snapshots
    /// and poisoned runtimes; quiescent drained runs should see `0`.
    pub unresolved: u64,
    /// Maximum simultaneously in-flight suspensions (the paper's `U`,
    /// as observable from the trace).
    pub max_inflight: u64,
    /// Per-worker live-deque high-water marks.
    pub deque_high_water: Vec<u64>,
    /// `IoRegister` events seen (readiness waits filed with a reactor).
    pub io_registered: u64,
    /// `IoReady` events seen (waits resolved by kernel readiness).
    pub io_ready: u64,
    /// `IoDeregister` events seen (waits withdrawn without readiness:
    /// cancel, timeout, or the shutdown drain).
    pub io_deregistered: u64,
    /// Registered I/O waits with neither an `IoReady` nor an
    /// `IoDeregister` — still parked in the registration table when the
    /// trace was cut. Like [`unresolved`](Self::unresolved), non-zero is
    /// normal for mid-run snapshots only.
    pub io_unresolved: u64,
    /// Total violations found (messages beyond the first few are counted,
    /// not stored).
    pub violation_count: u64,
    /// The first violations, as human-readable messages.
    pub violations: Vec<String>,
    /// The trace dropped events (ring overflow), so absence of a paired
    /// event proves nothing. `passed` is `false` in this state.
    pub inconclusive: bool,
}

impl AuditReport {
    /// `true` when no invariant violation was found *and* the trace was
    /// complete enough to tell.
    pub fn passed(&self) -> bool {
        self.violation_count == 0 && !self.inconclusive
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit: {} — {} suspensions, {} ready, {} executed, {} unresolved, U={}, high-water {:?}",
            if self.passed() {
                "PASS"
            } else if self.inconclusive {
                "INCONCLUSIVE (trace dropped events)"
            } else {
                "FAIL"
            },
            self.suspensions,
            self.readies,
            self.execs,
            self.unresolved,
            self.max_inflight,
            self.deque_high_water,
        )?;
        if self.io_registered + self.io_ready + self.io_deregistered > 0 {
            writeln!(
                f,
                "  io: {} registered, {} readiness, {} deregistered, {} unresolved",
                self.io_registered, self.io_ready, self.io_deregistered, self.io_unresolved,
            )?;
        }
        for v in &self.violations {
            writeln!(f, "  violation: {v}")?;
        }
        if self.violation_count as usize > self.violations.len() {
            writeln!(
                f,
                "  … and {} more",
                self.violation_count as usize - self.violations.len()
            )?;
        }
        Ok(())
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct SeqRec {
    suspends: u32,
    readies: u32,
    execs: u32,
    /// Timestamp of the first `Suspend` with this tag.
    suspended_at: Option<u64>,
    /// Timestamp of the first `ResumeReady` with this tag.
    ready_at: Option<u64>,
}

#[derive(Debug, Default, Clone, Copy)]
struct IoRec {
    registers: u32,
    readies: u32,
    deregisters: u32,
}

/// Incremental, order-tolerant form of [`audit`]: feed it event batches as
/// they arrive (e.g. from a
/// [`TraceReader`](crate::trace::TraceReader)) and ask for an
/// [`AuditReport`] at any point.
///
/// A live reader's batch is a per-ring-consistent cut, not a globally
/// consistent one: polling ring A before ring B can surface a causally
/// *later* event from B (say a `ResumeReady`) in an earlier batch than its
/// causally earlier `Suspend` from A. `AuditState` therefore splits the
/// invariant checks in two:
///
/// - **Monotone** violations — duplicate suspends/readies, duplicate I/O
///   registration, double I/O resolution, per-worker deque-walk breaks —
///   only ever become *more* true as events arrive, so they are flagged
///   the moment the offending event is observed (this is what makes
///   continuous audit useful during a chaos soak).
/// - **Order-sensitive** checks — ready-without-suspend, more execs than
///   readies, I/O resolution without registration, unresolved counts, and
///   the Lemma 7 bound — are evaluated at [`report`](Self::report) time
///   over the accumulated tallies, where a transiently reordered pair has
///   already been matched up.
///
/// `U` (the maximum number of suspensions in flight at one instant) is a
/// function of the events' timestamps, not of the order they were read
/// in: each tag keeps its `Suspend` and `ResumeReady` times, and
/// [`report`](Self::report) sweeps them. A batch that carries one ring's
/// events up to a later instant than another's therefore cannot
/// under-count `U`, nor trip a false Lemma 7 violation with it.
///
/// Feeding one complete timestamp-sorted trace in a single batch yields
/// the same verdict and counts as [`audit`] — which is in fact implemented
/// on top of this type.
#[derive(Debug, Clone, Default)]
pub struct AuditState {
    seqs: HashMap<u64, SeqRec>,
    io: HashMap<u64, IoRec>,
    io_registered: u64,
    io_ready: u64,
    io_deregistered: u64,
    live: Vec<Option<u64>>,
    high: Vec<u64>,
    suspensions: u64,
    readies: u64,
    execs: u64,
    violation_count: u64,
    violations: Vec<String>,
    dropped: u64,
}

impl AuditState {
    /// New auditor for a runtime with `workers` worker threads.
    pub fn new(workers: usize) -> AuditState {
        AuditState {
            live: vec![None; workers],
            high: vec![0; workers],
            ..AuditState::default()
        }
    }

    fn violate(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_VIOLATION_MESSAGES {
            self.violations.push(msg);
        }
    }

    /// Folds a batch of events into the audit. Batches must each preserve
    /// per-worker recording order (any [`TraceReader`](crate::trace::TraceReader)
    /// batch or timestamp-sorted [`Trace`] does); cross-worker order may
    /// skew freely between batches.
    pub fn observe(&mut self, events: &[TraceEvent]) {
        for ev in events {
            match ev.kind {
                // The tracer tags every registration; an untagged (`0`)
                // event is counted but has nothing to pair with.
                EventKind::Suspend { seq, .. } => {
                    self.suspensions += 1;
                    if seq != 0 {
                        let rec = self.seqs.entry(seq).or_default();
                        rec.suspends += 1;
                        rec.suspended_at.get_or_insert(ev.ts);
                        let n = rec.suspends;
                        if n > 1 {
                            self.violate(format!("suspension seq {seq:#x} registered {n} times"));
                        }
                    }
                }
                EventKind::ResumeReady { seq, .. } => {
                    self.readies += 1;
                    if seq != 0 {
                        let rec = self.seqs.entry(seq).or_default();
                        rec.readies += 1;
                        rec.ready_at.get_or_insert(ev.ts);
                        let n = rec.readies;
                        if n > 1 {
                            self.violate(format!("suspension seq {seq:#x} resumed {n} times"));
                        }
                    }
                }
                EventKind::ResumeExec { seq } => {
                    self.execs += 1;
                    if seq != 0 {
                        self.seqs.entry(seq).or_default().execs += 1;
                    }
                }
                EventKind::DequeAlloc { live: l } => {
                    let w = ev.worker as usize;
                    if w < self.live.len() {
                        let expect = self.live[w].map_or(1, |cur| cur + 1);
                        if l as u64 != expect {
                            self.violate(format!(
                                "worker {w}: deque alloc jumped live count to {l} (expected {expect})"
                            ));
                        }
                        self.live[w] = Some(l as u64);
                        self.high[w] = self.high[w].max(l as u64);
                    }
                }
                EventKind::DequeRelease { live: l } => {
                    let w = ev.worker as usize;
                    if w < self.live.len() {
                        match self.live[w] {
                            Some(cur) if cur > 0 && l as u64 == cur - 1 => {
                                self.live[w] = Some(l as u64)
                            }
                            Some(cur) => {
                                self.violate(format!(
                                    "worker {w}: deque release moved live count {cur} → {l} (expected {})",
                                    cur.saturating_sub(1)
                                ));
                                self.live[w] = Some(l as u64);
                            }
                            None => {
                                self.violate(format!(
                                    "worker {w}: deque release before any allocation"
                                ));
                                self.live[w] = Some(l as u64);
                            }
                        }
                    }
                }
                EventKind::IoRegister { token } => {
                    self.io_registered += 1;
                    let rec = self.io.entry(token).or_default();
                    rec.registers += 1;
                    let n = rec.registers;
                    if n > 1 {
                        self.violate(format!("io token {token:#x} registered {n} times"));
                    }
                }
                EventKind::IoReady { token } | EventKind::IoDeregister { token } => {
                    let rec = self.io.entry(token).or_default();
                    if matches!(ev.kind, EventKind::IoReady { .. }) {
                        self.io_ready += 1;
                        rec.readies += 1;
                    } else {
                        self.io_deregistered += 1;
                        rec.deregisters += 1;
                    }
                    if rec.readies + rec.deregisters > 1 {
                        let (r, d) = (rec.readies, rec.deregisters);
                        self.violate(format!(
                            "io token {token:#x} resolved {} times ({r} ready, {d} deregister)",
                            r + d,
                        ));
                    }
                }
                EventKind::WorkerDeath { worker } => {
                    // The dead incarnation's owner-local deque numbering is
                    // void: the respawned worker restarts its live-deque
                    // walk from scratch (its first DequeAlloc reports
                    // live = 1 again). Suspension seq pairing is *not*
                    // reset — a resume for a pre-death registration must
                    // still settle exactly once.
                    let w = worker as usize;
                    if w < self.live.len() {
                        self.live[w] = None;
                    }
                }
                _ => {}
            }
        }
    }

    /// Accounts events lost before they could be observed (ring overflow
    /// reported by a [`Trace`]'s `dropped`, whole-run or per poll). Any loss makes the final report
    /// inconclusive: absence of a paired event proves nothing.
    pub fn observe_dropped(&mut self, dropped: u64) {
        self.dropped += dropped;
    }

    /// Violations flagged so far by the monotone streaming checks. The
    /// final [`report`](Self::report) may add order-sensitive ones on top.
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// Events known lost so far (cumulative [`observe_dropped`](Self::observe_dropped)).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Evaluates the order-sensitive checks over everything observed so
    /// far and returns the full report. Non-consuming: a live auditor can
    /// report mid-run and keep observing.
    pub fn report(&self) -> AuditReport {
        let mut violation_count = self.violation_count;
        let mut violations = self.violations.clone();
        let mut violate = |msg: String| {
            violation_count += 1;
            if violations.len() < MAX_VIOLATION_MESSAGES {
                violations.push(msg);
            }
        };

        // Deferred pairing checks, in sorted key order so reports are
        // reproducible (HashMap iteration is not).
        let mut seq_keys: Vec<u64> = self.seqs.keys().copied().collect();
        seq_keys.sort_unstable();
        let mut unresolved = 0u64;
        for seq in seq_keys {
            let rec = self.seqs[&seq];
            if rec.readies > 0 && rec.suspends == 0 {
                violate(format!(
                    "resume for seq {seq:#x} with no matching suspension"
                ));
            }
            if rec.execs > rec.readies {
                violate(format!(
                    "seq {seq:#x} executed {} times but made ready only {}",
                    rec.execs, rec.readies
                ));
            }
            if rec.suspends > 0 && rec.readies == 0 {
                unresolved += 1;
            }
        }

        let mut io_keys: Vec<u64> = self.io.keys().copied().collect();
        io_keys.sort_unstable();
        let mut io_unresolved = 0u64;
        for token in io_keys {
            let rec = self.io[&token];
            if rec.registers == 0 && rec.readies > 0 {
                violate(format!(
                    "io readiness for token {token:#x} with no registration"
                ));
            }
            if rec.registers == 0 && rec.deregisters > 0 {
                violate(format!(
                    "io deregister for token {token:#x} with no registration"
                ));
            }
            if rec.registers > 0 && rec.readies + rec.deregisters == 0 {
                io_unresolved += 1;
            }
        }

        // Lemma 7: at most U + 1 live deques per worker.
        let max_inflight = self.max_inflight();
        for (w, &hw) in self.high.iter().enumerate() {
            if hw > max_inflight + 1 {
                violate(format!(
                    "worker {w}: live-deque high-water {hw} exceeds Lemma 7 bound U+1 = {}",
                    max_inflight + 1
                ));
            }
        }

        AuditReport {
            suspensions: self.suspensions,
            readies: self.readies,
            execs: self.execs,
            unresolved,
            max_inflight,
            deque_high_water: self.high.clone(),
            io_registered: self.io_registered,
            io_ready: self.io_ready,
            io_deregistered: self.io_deregistered,
            io_unresolved,
            violation_count,
            violations,
            inconclusive: self.dropped > 0,
        }
    }

    /// The paper's `U`: the most suspensions in flight at one instant,
    /// swept over timestamps. A suspension is in flight from its
    /// `Suspend` to its `ResumeReady` (to the end of the trace while
    /// unresolved). At equal timestamps suspends count first, so a tie
    /// never hides a suspension from the Lemma 7 bound.
    fn max_inflight(&self) -> u64 {
        // `(ts, is_ready)`: `false` sorts first, the tie rule above.
        let mut edges: Vec<(u64, bool)> = Vec::with_capacity(2 * self.seqs.len());
        for rec in self.seqs.values() {
            let Some(s) = rec.suspended_at else { continue };
            edges.push((s, false));
            if let Some(r) = rec.ready_at {
                edges.push((r.max(s), true));
            }
        }
        edges.sort_unstable();
        let (mut inflight, mut max) = (0u64, 0u64);
        for (_, ready) in edges {
            if ready {
                inflight -= 1;
            } else {
                inflight += 1;
                max = max.max(inflight);
            }
        }
        max
    }
}

/// Replays `trace` and checks the scheduler's invariants:
///
/// 1. **Pairing** — every `seq` tag is suspended at most once, made ready
///    at most once, never ready without a suspension, and never executed
///    more often than it was made ready. (An exec count *below* the ready
///    count is legal: a resumed task that completed or panicked before its
///    re-poll never executes.)
/// 2. **Deque balance** — each worker's `DequeAlloc`/`DequeRelease` live
///    counts form a walk by ±1 that never goes negative: no double-free,
///    no leaked allocation slot.
/// 3. **Lemma 7** — every worker's live-deque high-water mark is at most
///    `U + 1`, where `U` is the maximum number of simultaneously in-flight
///    suspensions observed in the trace.
/// 4. **I/O wait pairing** — every reactor wait token is registered
///    exactly once and resolved at most once, by *either* an `IoReady`
///    (kernel readiness consumed) *or* an `IoDeregister` (cancel, timeout
///    or shutdown drain) — never both, never without a registration.
///
/// Works on any [`Trace`]; quiescent shutdown traces give the strongest
/// verdict. A trace with dropped events yields `inconclusive`.
pub fn audit(trace: &Trace) -> AuditReport {
    let mut state = AuditState::new(trace.workers);
    state.observe(&trace.events);
    state.observe_dropped(trace.dropped);
    state.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SuspendKind;

    #[test]
    fn audit_resets_deque_walk_across_worker_death() {
        // Without the WorkerDeath arm the respawned worker's fresh
        // DequeAlloc { live: 1 } would violate the ±1 walk (2 expected).
        let t = trace_of(
            vec![
                ev(1, 0, EventKind::DequeAlloc { live: 1 }),
                ev(2, 0, EventKind::WorkerDeath { worker: 0 }),
                ev(
                    3,
                    0,
                    EventKind::WorkerRespawn {
                        worker: 0,
                        rescued: 1,
                    },
                ),
                ev(4, 0, EventKind::DequeAlloc { live: 1 }),
                ev(5, 0, EventKind::DequeRelease { live: 0 }),
            ],
            1,
        );
        let r = audit(&t);
        assert!(r.passed(), "{r}");

        // Suspension pairing survives the death: a pre-death registration
        // resumed after respawn still settles exactly once…
        let t = trace_of(
            vec![
                suspend(1, 0, 9),
                ev(2, 0, EventKind::WorkerDeath { worker: 0 }),
                ev(
                    3,
                    0,
                    EventKind::WorkerRespawn {
                        worker: 0,
                        rescued: 0,
                    },
                ),
                ready(4, 0, 9),
            ],
            1,
        );
        assert!(audit(&t).passed());

        // …and a double resume across the death is still flagged.
        let t = trace_of(
            vec![
                suspend(1, 0, 9),
                ready(2, 0, 9),
                ev(3, 0, EventKind::WorkerDeath { worker: 0 }),
                ev(
                    4,
                    0,
                    EventKind::WorkerRespawn {
                        worker: 0,
                        rescued: 0,
                    },
                ),
                ready(5, 0, 9),
            ],
            1,
        );
        assert!(!audit(&t).passed());
    }

    fn ev(ts: u64, worker: u32, kind: EventKind) -> TraceEvent {
        TraceEvent { ts, worker, kind }
    }

    fn suspend(ts: u64, worker: u32, seq: u64) -> TraceEvent {
        ev(
            ts,
            worker,
            EventKind::Suspend {
                deque: 0,
                kind: SuspendKind::Timer,
                seq,
            },
        )
    }

    fn ready(ts: u64, worker: u32, seq: u64) -> TraceEvent {
        ev(
            ts,
            worker,
            EventKind::ResumeReady {
                seq,
                enabled_at: ts,
            },
        )
    }

    fn trace_of(events: Vec<TraceEvent>, workers: usize) -> Trace {
        Trace {
            events,
            dropped: 0,
            workers,
        }
    }

    #[test]
    fn audit_passes_clean_lifecycle() {
        let t = trace_of(
            vec![
                ev(1, 0, EventKind::DequeAlloc { live: 1 }),
                suspend(2, 0, 9),
                ready(3, 0, 9),
                ev(4, 0, EventKind::ResumeExec { seq: 9 }),
                ev(5, 0, EventKind::DequeRelease { live: 0 }),
            ],
            1,
        );
        let r = audit(&t);
        assert!(r.passed(), "{r}");
        assert_eq!(
            (r.suspensions, r.readies, r.execs, r.unresolved),
            (1, 1, 1, 0)
        );
        assert_eq!(r.max_inflight, 1);
        assert_eq!(r.deque_high_water, vec![1]);
    }

    #[test]
    fn audit_flags_double_resume_and_orphan() {
        let t = trace_of(
            vec![
                suspend(1, 0, 5),
                ready(2, 0, 5),
                ready(3, 0, 5),
                ready(4, 0, 6),
            ],
            1,
        );
        let r = audit(&t);
        assert!(!r.passed());
        assert_eq!(r.violation_count, 2, "{r}");
    }

    #[test]
    fn audit_flags_deque_imbalance_and_lemma7() {
        // live jumps 1 → 3 (skipped alloc) and exceeds U+1 (no suspensions
        // at all, so the bound is 1).
        let t = trace_of(
            vec![
                ev(1, 0, EventKind::DequeAlloc { live: 1 }),
                ev(2, 0, EventKind::DequeAlloc { live: 3 }),
            ],
            1,
        );
        let r = audit(&t);
        assert!(!r.passed());
        assert!(r.violations.iter().any(|v| v.contains("jumped")), "{r}");
        assert!(r.violations.iter().any(|v| v.contains("Lemma 7")), "{r}");
    }

    #[test]
    fn audit_marks_dropped_traces_inconclusive() {
        let mut t = trace_of(vec![suspend(1, 0, 5), ready(2, 0, 5)], 1);
        t.dropped = 3;
        let r = audit(&t);
        assert!(!r.passed());
        assert!(r.inconclusive);
        assert_eq!(r.violation_count, 0);
    }

    #[test]
    fn audit_io_pairing_pass_and_fail() {
        // Clean: one wait resolved by readiness, one by deregistration,
        // one still in flight (unresolved, not a violation).
        let t = trace_of(
            vec![
                ev(1, 0, EventKind::IoRegister { token: 1 }),
                ev(2, u32::MAX, EventKind::IoReady { token: 1 }),
                ev(3, 0, EventKind::IoRegister { token: 2 }),
                ev(4, 0, EventKind::IoDeregister { token: 2 }),
                ev(5, 0, EventKind::IoRegister { token: 3 }),
            ],
            1,
        );
        let r = audit(&t);
        assert!(r.passed(), "{r}");
        assert_eq!(
            (
                r.io_registered,
                r.io_ready,
                r.io_deregistered,
                r.io_unresolved
            ),
            (3, 1, 1, 1)
        );
        assert!(format!("{r}").contains("io:"));

        // Double resolution (ready then deregister) and an orphan ready.
        let t = trace_of(
            vec![
                ev(1, 0, EventKind::IoRegister { token: 7 }),
                ev(2, u32::MAX, EventKind::IoReady { token: 7 }),
                ev(3, 0, EventKind::IoDeregister { token: 7 }),
                ev(4, u32::MAX, EventKind::IoReady { token: 8 }),
            ],
            1,
        );
        let r = audit(&t);
        assert!(!r.passed());
        assert_eq!(r.violation_count, 2, "{r}");

        // Double registration of one token.
        let t = trace_of(
            vec![
                ev(1, 0, EventKind::IoRegister { token: 9 }),
                ev(2, 0, EventKind::IoRegister { token: 9 }),
            ],
            1,
        );
        assert!(!audit(&t).passed());
    }

    #[test]
    fn audit_counts_unresolved_without_violating() {
        let t = trace_of(vec![suspend(1, 0, 5), suspend(2, 0, 6), ready(3, 0, 5)], 1);
        let r = audit(&t);
        assert!(r.passed(), "in-flight suspensions are not violations: {r}");
        assert_eq!(r.unresolved, 1);
        assert_eq!(r.max_inflight, 2);
    }

    #[test]
    fn audit_state_tolerates_cross_batch_reorder() {
        // A live reader polling ring B before ring A can observe a
        // ResumeReady in an earlier batch than its causally earlier
        // Suspend. The incremental auditor must neither flag it nor read
        // a different `U` than the single-shot audit of the same events.
        let mut st = AuditState::new(2);
        st.observe(&[ready(10, 1, 5)]);
        st.observe(&[suspend(2, 0, 5)]);
        let r = st.report();
        assert!(r.passed(), "{r}");
        assert_eq!((r.suspensions, r.readies, r.unresolved), (1, 1, 0));
        let single = audit(&trace_of(vec![suspend(2, 0, 5), ready(10, 1, 5)], 2));
        assert_eq!(r.max_inflight, single.max_inflight);
        assert_eq!(r.max_inflight, 1);
    }

    #[test]
    fn live_u_matches_posthoc_under_ring_skew() {
        // The reader drains ring 0 before ring 1, so one batch can carry
        // worker 1's events up to a later instant (ts 40) than worker 0's
        // (nothing yet). Suspensions a and b overlap in time (30..40), so
        // U = 2, and worker 0's three live deques sit exactly at U + 1.
        let ring1 = [suspend(10, 1, 0xb), ready(40, 1, 0xb)];
        let ring0 = [
            ev(5, 0, EventKind::DequeAlloc { live: 1 }),
            ev(20, 0, EventKind::DequeAlloc { live: 2 }),
            ev(30, 0, EventKind::DequeAlloc { live: 3 }),
            suspend(30, 0, 0xa),
            ready(50, 0, 0xa),
        ];
        let mut st = AuditState::new(2);
        st.observe(&ring1);
        st.observe(&ring0);
        let live = st.report();
        let mut events = [ring1.as_slice(), &ring0].concat();
        events.sort_by_key(|e| e.ts);
        let posthoc = audit(&trace_of(events, 2));
        assert_eq!(posthoc.max_inflight, 2);
        assert_eq!(live.max_inflight, posthoc.max_inflight);
        assert!(live.passed(), "no false Lemma 7 violation: {live}");
        assert!(posthoc.passed(), "{posthoc}");
    }

    #[test]
    fn audit_state_batch_split_matches_single_shot() {
        let events = vec![
            ev(1, 0, EventKind::DequeAlloc { live: 1 }),
            suspend(2, 0, 9),
            ev(3, 1, EventKind::DequeAlloc { live: 1 }),
            suspend(3, 1, 11),
            ready(4, 0, 9),
            ev(5, 0, EventKind::ResumeExec { seq: 9 }),
            suspend(5, 1, 12),
            ready(6, 1, 11),
            ev(7, 1, EventKind::ResumeExec { seq: 11 }),
            ev(8, 0, EventKind::DequeRelease { live: 0 }),
            ready(8, 1, 12),
            ev(9, 1, EventKind::DequeRelease { live: 0 }),
            ev(9, 0, EventKind::IoRegister { token: 3 }),
            ev(10, u32::MAX, EventKind::IoReady { token: 3 }),
        ];
        let single = audit(&trace_of(events.clone(), 2));
        assert!(single.passed(), "{single}");
        assert_eq!(single.max_inflight, 2);
        for split in 1..events.len() {
            let mut st = AuditState::new(2);
            st.observe(&events[..split]);
            st.observe(&events[split..]);
            let r = st.report();
            assert_eq!(r.passed(), single.passed(), "split at {split}: {r}");
            assert_eq!(r.violation_count, single.violation_count);
            assert_eq!(r.suspensions, single.suspensions);
            assert_eq!(r.max_inflight, single.max_inflight);
            assert_eq!(r.deque_high_water, single.deque_high_water);
        }
    }

    #[test]
    fn audit_state_streams_monotone_violations_before_report() {
        let mut st = AuditState::new(1);
        st.observe(&[suspend(1, 0, 5), ready(2, 0, 5)]);
        assert_eq!(st.violation_count(), 0);
        st.observe(&[ready(3, 0, 5)]);
        assert_eq!(st.violation_count(), 1, "duplicate ready flagged live");
        // Order-sensitive orphan only appears in the report.
        st.observe(&[ready(4, 0, 77)]);
        assert_eq!(st.violation_count(), 1);
        let r = st.report();
        assert_eq!(r.violation_count, 2, "{r}");
        assert!(!r.passed());
    }

    #[test]
    fn audit_state_dropped_makes_inconclusive() {
        let mut st = AuditState::new(1);
        st.observe(&[suspend(1, 0, 5), ready(2, 0, 5)]);
        assert!(st.report().passed());
        st.observe_dropped(2);
        assert_eq!(st.dropped(), 2);
        let r = st.report();
        assert!(r.inconclusive && !r.passed());
    }
}
