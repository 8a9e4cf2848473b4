//! # lhws-check — the model-checking scenario suite
//!
//! This crate points the [`lhws_checkrt`] exhaustive-interleaving
//! scheduler at the *real* concurrency cores of the workspace: the
//! Chase–Lev deque, the live-set [`Registry`](lhws_deque::Registry), the
//! external-op settlement race, the socket readiness word
//! ([`Readiness`](lhws_net::Readiness)), and the suspend/resume/steal
//! triangle from the paper. Each [`Scenario`] is an ordinary closure that builds
//! the structure under test, spawns model threads, and asserts the
//! invariants the TLA+ specs under `specs/tla/` state abstractly:
//!
//! * **NoLostTasks / NoDoubleExecution** — every pushed item is claimed
//!   exactly once across owner pops, thief steals, and rescue drains.
//! * **AtMostOnceSettle** — of {completer, deadline, cancel}, exactly one
//!   settles an external op.
//! * **ReleaseFindsOwnId** — the ABA-guarded release/swap-remove path
//!   never evicts a foreign id (the registry's own `debug_assert!`s are
//!   the checked invariant; under the dev profile they fire as panics,
//!   which the checker reports with a replayable schedule).
//! * **BatchOrderIncreasing** — `steal_batch_into` yields items in
//!   strictly increasing push order.
//! * **NoLostEdge** — a reader clearing its cached readable bit never
//!   erases a kernel report for data its `recv` did not see.
//!
//! Scenarios run in **both** build modes. In a normal build the ported
//! structures use raw `std` atomics, so each scenario step between two
//! checker operations (spawn/join/`Event`/checker `Mutex`) executes as
//! one atomic block — coarse-grained, but still deterministic, because
//! the checker runs exactly one model thread at a time. Under
//! `RUSTFLAGS="--cfg lhws_check"` the structures' own atomics become
//! schedule points and the interesting interleavings (a thief's CAS
//! landing between an owner's two index updates) are explored for real.
//! The seeded unsound mutations (`--cfg lhws_check_mutation`) are only
//! refutable in that fine-grained mode, which is why their scenarios are
//! compiled under `all(lhws_check, lhws_check_mutation)`.

pub use lhws_checkrt::{
    decode_schedule, encode_schedule, explore, replay, CheckFailure, CheckOptions, CheckReport,
    Strategy,
};

pub mod scenarios;

/// One named model-checking scenario over a real workspace structure.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// CLI/test identifier, also the prefix of replayable schedules.
    pub name: &'static str,
    /// One line of intent, shown by `lhws-check --list`.
    pub about: &'static str,
    /// The body: builds structures, spawns model threads, asserts.
    pub run: fn(),
    /// `true` for seeded-mutation scenarios: the checker is *expected*
    /// to find a failing schedule, and not finding one is the error.
    pub expect_refuted: bool,
    /// How this scenario's schedule space is enumerated.
    pub strategy: Strategy,
}

impl Scenario {
    /// Exploration bounds: the environment-tunable defaults
    /// ([`CheckOptions::from_env`]) with this scenario's strategy.
    pub fn options(&self) -> CheckOptions {
        let mut opts = CheckOptions::from_env();
        opts.strategy = self.strategy;
        opts
    }

    /// Explores the scenario under its [`options`](Self::options).
    pub fn check(&self) -> CheckReport {
        explore(self.name, &self.options(), self.run)
    }

    /// Re-executes one recorded schedule (`name@choices` or bare
    /// choices) of this scenario.
    pub fn replay(&self, schedule: &str) -> CheckReport {
        replay(self.name, &self.options(), schedule, self.run)
    }

    /// Whether `report` is the outcome this scenario expects: a pass for
    /// invariant scenarios, a refutation for seeded mutations.
    pub fn outcome_ok(&self, report: &CheckReport) -> bool {
        report.failure.is_some() == self.expect_refuted
    }
}

/// All registered scenarios, in presentation order.
pub fn all() -> Vec<Scenario> {
    scenarios::all()
}

/// Looks up a scenario by exact name.
pub fn find(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

/// Resolves a replay spec (`name@choices`) to its scenario and replays
/// it. Errors when the name prefix is missing or unknown.
pub fn run_replay(spec: &str) -> Result<(Scenario, CheckReport), String> {
    let (name, _) = spec
        .rsplit_once('@')
        .ok_or_else(|| format!("replay spec {spec:?} is missing the `name@` prefix"))?;
    let scenario = find(name).ok_or_else(|| {
        format!(
            "unknown scenario {name:?} (try `lhws-check --list`; mutation \
             scenarios need a `--cfg lhws_check_mutation` build)"
        )
    })?;
    let report = scenario.replay(spec);
    Ok((scenario, report))
}
