//! Every registered scenario explored at its default bounds, plus the
//! seeded-mutation refutation and replay-determinism checks.
//!
//! These run in both build modes. A plain `cargo test -p lhws-check`
//! explores coarse-grained schedules (checker operations only); CI's
//! `check-smoke` job re-runs with `RUSTFLAGS="--cfg lhws_check --cfg
//! lhws_check_mutation"` so the structures' own atomics become schedule
//! points and the mutation tests light up.

use lhws_check::Strategy;

/// Runs one scenario by name and asserts its expected outcome.
fn check(name: &str) {
    let s = lhws_check::find(name).expect("scenario registered");
    let rep = s.check();
    assert!(
        s.outcome_ok(&rep),
        "unexpected outcome for {name}: {}",
        rep.summary()
    );
    // DFS scenarios at default bounds must exhaust their bounded space
    // (anything else means the budgets silently cap coverage).
    if s.strategy == Strategy::Dfs && !s.expect_refuted {
        assert!(
            rep.complete,
            "{name} did not exhaust its bounded space: {}",
            rep.summary()
        );
    }
}

#[test]
fn chase_lev_owner_thief_holds() {
    check("chase_lev_owner_thief");
}

#[test]
fn chase_lev_last_element_holds() {
    check("chase_lev_last_element");
}

#[test]
fn chase_lev_steal_batch_holds() {
    check("chase_lev_steal_batch");
}

#[test]
fn registry_live_set_holds() {
    check("registry_live_set");
}

#[test]
fn registry_aba_guard_holds() {
    check("registry_aba_guard");
}

#[test]
fn respawn_rescue_holds() {
    check("respawn_rescue");
}

#[test]
fn settle_completer_vs_deadline_holds() {
    check("settle_completer_vs_deadline");
}

#[test]
fn settle_cancel_vs_deadline_holds() {
    check("settle_cancel_vs_deadline");
}

#[test]
fn join_fast_path_vs_steal_holds() {
    check("join_fast_path_vs_steal");
}

#[test]
fn task_join_handshake_holds() {
    check("task_join_handshake");
}

#[test]
fn join_inline_escaped_waker_holds() {
    check("join_inline_escaped_waker");
}

#[test]
fn fork2_popback_vs_steal_holds() {
    check("fork2_popback_vs_steal");
}

#[test]
fn fork2_popback_vs_steal_pending_holds() {
    check("fork2_popback_vs_steal_pending");
}

#[test]
fn fork2_popback_vs_steal_panic_holds() {
    check("fork2_popback_vs_steal_panic");
}

#[test]
fn mpsc_close_vs_recv_holds() {
    check("mpsc_close_vs_recv");
}

#[test]
fn mpsc_swap_fifo_holds() {
    check("mpsc_swap_fifo");
}

#[test]
fn io_readiness_clear_vs_report_holds() {
    check("io_readiness_clear_vs_report");
}

#[test]
fn suspend_resume_steal_holds() {
    check("suspend_resume_steal");
}

#[test]
fn registry_churn_random_holds() {
    check("registry_churn_random");
}

/// Explores a seeded-mutation scenario: the checker must *refute* it
/// within bounded depth, and the recorded schedule must reproduce the
/// same failure deterministically.
#[cfg(all(lhws_check, lhws_check_mutation))]
fn refuted_and_replayable(name: &str) {
    let s = lhws_check::find(name).expect("mutation scenario registered");
    let rep = s.check();
    let failure = rep
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("mutation survived exploration: {}", rep.summary()));

    let replayed = s.replay(&failure.schedule);
    let refailure = replayed
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("replay did not reproduce: {}", replayed.summary()));
    assert_eq!(
        refailure.message, failure.message,
        "replay reproduced a different failure"
    );
    assert_eq!(replayed.schedules, 1, "replay runs exactly one execution");
}

/// The soundness demonstration: the single-wide-CAS steal-half.
#[cfg(all(lhws_check, lhws_check_mutation))]
#[test]
fn wide_cas_mutation_is_refuted_and_replayable() {
    refuted_and_replayable("chase_lev_wide_cas_unsound");
}

/// A readable bit cleared without the tick rule loses an edge.
#[cfg(all(lhws_check, lhws_check_mutation))]
#[test]
fn tickless_clear_mutation_is_refuted_and_replayable() {
    refuted_and_replayable("io_readiness_tickless_clear_unsound");
}

/// An inline run that gives its count back by load + store loses an
/// escaped waker's concurrent release.
#[cfg(all(lhws_check, lhws_check_mutation))]
#[test]
fn inline_racy_release_mutation_is_refuted_and_replayable() {
    refuted_and_replayable("join_inline_racy_release_unsound");
}

/// An owner that does not wait for its thief's publish reads a handle
/// that is not there yet, or retires the slot under the thief.
#[cfg(all(lhws_check, lhws_check_mutation))]
#[test]
fn unwaited_publish_mutation_is_refuted_and_replayable() {
    refuted_and_replayable("fork2_unwaited_publish_unsound");
}

/// Same workload with the sound per-item-CAS batch steal, for contrast:
/// exhaustive within bounds and clean.
#[cfg(all(lhws_check, lhws_check_mutation))]
#[test]
fn sound_batch_survives_same_bounds_as_mutation() {
    let s = lhws_check::find("chase_lev_steal_batch").expect("scenario registered");
    let rep = s.check();
    assert!(rep.passed(), "sound batch refuted: {}", rep.summary());
}
