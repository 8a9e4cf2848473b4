//! The scenario library: each module checks one concurrency core.

pub mod channel;
pub mod deque;
pub mod join;
pub mod readiness;
pub mod registry;
pub mod settle;
pub mod triangle;

use crate::{Scenario, Strategy};

/// All registered scenarios, in presentation order. The seeded-mutation
/// scenarios are only present in `--cfg lhws_check --cfg
/// lhws_check_mutation` builds: coarse mode cannot interleave inside the
/// mutated operations, so exploring them there could (misleadingly) pass.
pub fn all() -> Vec<Scenario> {
    // `mut` is only exercised when the mutation scenario is compiled in.
    #[cfg_attr(not(all(lhws_check, lhws_check_mutation)), allow(unused_mut))]
    let mut v = vec![
        Scenario {
            name: "chase_lev_owner_thief",
            about: "owner pops bottom while a thief steals top: exactly-once, LIFO/FIFO order",
            run: deque::owner_thief,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "chase_lev_last_element",
            about: "pop vs steal race on the final element: exactly one winner",
            run: deque::last_element,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "chase_lev_steal_batch",
            about: "steal-half batching vs owner pops: no loss, no dup, increasing batch order",
            run: deque::steal_batch,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "registry_live_set",
            about: "register/release vs random-live-id thief draws: exactly-once, live_len",
            run: registry::live_set,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "registry_aba_guard",
            about: "release/reuse recycling vs thief draws: back-pointer ABA guard holds",
            run: registry::aba_guard,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "respawn_rescue",
            about: "supervisor rescue(owner) vs in-flight thief: drains exactly once, then empty",
            run: registry::respawn_rescue,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "settle_completer_vs_deadline",
            about: "external-op settle race: completer vs deadline, at-most-once, winner's value",
            run: settle::completer_vs_deadline,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "settle_cancel_vs_deadline",
            about:
                "external-op settle race: cancel (completer drop) vs deadline, op still resolves",
            run: settle::cancel_vs_deadline,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "mpsc_close_vs_recv",
            about:
                "two senders send and drop vs the receiver: all once, per-sender FIFO, no lost wake",
            run: channel::close_vs_recv,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "mpsc_swap_fifo",
            about: "sends land while the receiver's swapped-in buffer is non-empty: order kept",
            run: channel::swap_fifo,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "io_readiness_clear_vs_report",
            about: "reader clears its readable bit by the tick rule vs a report: no lost edge",
            run: readiness::clear_vs_report,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "join_fast_path_vs_steal",
            about:
                "owner's pop-back vs a thief for a forked child: one poll, one read, no lost wake",
            run: join::fast_path_vs_steal,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "task_join_handshake",
            about:
                "fused task: complete vs JoinHandle poll vs drop in every order, output freed once",
            run: join::join_handshake,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "join_inline_escaped_waker",
            about: "inline run vs an escaped waker: freed once, after the last waker",
            run: join::inline_escaped_waker,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "suspend_resume_steal",
            about:
                "the paper's triangle: deque switch on suspend, resume delivery, thief in flight",
            run: triangle::suspend_resume_steal,
            expect_refuted: false,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "registry_churn_random",
            about: "4 owners x 3 thieves register/drain/release churn (seeded random walks)",
            run: registry::churn,
            expect_refuted: false,
            strategy: Strategy::Random {
                seed: 0xC0FF_EE00_1234_5678,
                iterations: 48,
            },
        },
    ];
    #[cfg(all(lhws_check, lhws_check_mutation))]
    v.extend([
        Scenario {
            name: "chase_lev_wide_cas_unsound",
            about: "seeded mutation: single wide-CAS steal-half — the checker must refute it",
            run: deque::wide_cas_unsound,
            expect_refuted: true,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "join_inline_racy_release_unsound",
            about: "seeded mutation: inline release by load + store, not an RMW — must be refuted",
            run: join::inline_racy_release_unsound,
            expect_refuted: true,
            strategy: Strategy::Dfs,
        },
        Scenario {
            name: "io_readiness_tickless_clear_unsound",
            about: "seeded mutation: readable bit cleared without the tick rule — must be refuted",
            run: readiness::tickless_clear_unsound,
            expect_refuted: true,
            strategy: Strategy::Dfs,
        },
    ]);
    v
}
