//! Property-based tests over random series-parallel programs and random
//! deque operation sequences.
//!
//! These were originally written against `proptest`; the build environment
//! is offline, so they now use hand-rolled generators over the in-tree
//! `rand` shim. Each property runs a fixed number of seeded cases, so the
//! suite is deterministic — a failure message prints the case index, which
//! reproduces the exact input.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lhws::dag::builder::Block;
use lhws::dag::offline::{greedy_bound, greedy_schedule, validate_schedule};
use lhws::dag::suspension::{max_prefix_crossing, suspension_width, suspension_width_witness};
use lhws::dag::Metrics;
use lhws::sim::speedup::{run_lhws, run_ws};
use lhws_deque::{DequeKind, Steal, WorkerHandle};

// ---------------------------------------------------------------------
// Random block programs.
// ---------------------------------------------------------------------

/// Random (small) block program: leaves are plain work or a latency
/// followed by work; interior nodes are binary `par` or 1–3-way `seq`,
/// nested up to `depth` levels (mirrors the old proptest strategy).
fn gen_block(rng: &mut StdRng, depth: u32) -> Block {
    if depth == 0 || rng.gen_bool(0.3) {
        return if rng.gen_bool(0.5) {
            Block::work(rng.gen_range(1u64..6))
        } else {
            Block::seq([Block::latency(rng.gen_range(2u64..40)), Block::work(1)])
        };
    }
    if rng.gen_bool(0.5) {
        Block::par(gen_block(rng, depth - 1), gen_block(rng, depth - 1))
    } else {
        let n = rng.gen_range(1usize..4);
        Block::seq(
            (0..n)
                .map(|_| gen_block(rng, depth - 1))
                .collect::<Vec<_>>(),
        )
    }
}

/// Runs `body` for `cases` deterministic seeds, labelling failures with
/// the offending case index (re-run a single case by plugging the index
/// into `StdRng::seed_from_u64(BASE + index)`).
fn for_cases(base_seed: u64, cases: u64, mut body: impl FnMut(&mut StdRng, u64)) {
    for i in 0..cases {
        let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(i));
        body(&mut rng, i);
    }
}

/// Compiled dags always validate and match the block's analytic
/// work/span/U.
#[test]
fn block_compilation_is_consistent() {
    for_cases(0xB10C, 64, |rng, case| {
        let b = gen_block(rng, 5);
        let dag = b.build(); // panics internally if invalid
        let m = Metrics::compute(&dag);
        assert_eq!(m.work, b.analytic_work(), "case {case}");
        assert_eq!(m.span, b.analytic_span(), "case {case}");
        assert_eq!(
            suspension_width(&dag),
            b.analytic_suspension_width(),
            "case {case}"
        );
    });
}

/// The flow-based witness is a valid executed-prefix partition achieving
/// U, and any topological prefix is a lower bound.
#[test]
fn suspension_witness_valid() {
    for_cases(0x5059, 64, |rng, case| {
        let b = gen_block(rng, 5);
        let dag = b.build();
        let (u, in_s) = suspension_width_witness(&dag);
        if u > 0 {
            assert_eq!(
                lhws::dag::suspension::check_partition(&dag, &in_s),
                Some(u),
                "case {case}"
            );
        }
        assert!(
            max_prefix_crossing(&dag, dag.topo_order()) <= u,
            "case {case}"
        );
    });
}

/// Theorem 1 on random programs, all worker counts.
#[test]
fn greedy_bound_holds() {
    for_cases(0x6EED, 64, |rng, case| {
        let b = gen_block(rng, 5);
        let p = rng.gen_range(1usize..12);
        let dag = b.build();
        let s = greedy_schedule(&dag, p);
        assert!(validate_schedule(&dag, &s).is_ok(), "case {case}");
        assert!(s.length <= greedy_bound(&dag, p), "case {case}");
    });
}

/// The LHWS simulator executes every random program correctly and within
/// the paper's structural bounds.
#[test]
fn lhws_sim_correct_on_random_programs() {
    for_cases(0x514A, 64, |rng, case| {
        let b = gen_block(rng, 5);
        let p = rng.gen_range(1usize..9);
        let seed = rng.gen_range(0u64..1000);
        let dag = b.build();
        let u = suspension_width(&dag);
        let s = run_lhws(&dag, p, seed);
        assert!(validate_schedule(&dag, &s.schedule).is_ok(), "case {case}");
        assert_eq!(s.schedule.entries.len(), dag.len(), "case {case}");
        assert!(s.max_deques_per_worker <= u + 1, "Lemma 7, case {case}");
        assert!(s.max_live_suspended <= u, "case {case}");
        assert!(s.token_identity_holds(), "case {case}");
        assert!(
            s.rounds <= s.lemma1_bound(dag.work()) + 1,
            "Lemma 1, case {case}"
        );
    });
}

/// The blocking baseline is also correct (just slower).
#[test]
fn ws_sim_correct_on_random_programs() {
    for_cases(0xB10C2, 64, |rng, case| {
        let b = gen_block(rng, 5);
        let p = rng.gen_range(1usize..9);
        let seed = rng.gen_range(0u64..1000);
        let dag = b.build();
        let s = run_ws(&dag, p, seed);
        assert!(validate_schedule(&dag, &s.schedule).is_ok(), "case {case}");
        assert_eq!(s.schedule.entries.len(), dag.len(), "case {case}");
    });
}

/// Determinism: the same seed replays the same execution.
#[test]
fn sim_deterministic() {
    for_cases(0xDE7E, 64, |rng, case| {
        let b = gen_block(rng, 5);
        let seed = rng.gen_range(0u64..100);
        let dag = b.build();
        let a = run_lhws(&dag, 4, seed);
        let c = run_lhws(&dag, 4, seed);
        assert_eq!(a.rounds, c.rounds, "case {case}");
        assert_eq!(a.steal_attempts, c.steal_attempts, "case {case}");
        assert_eq!(a.schedule.entries, c.schedule.entries, "case {case}");
    });
}

/// Text serialization roundtrips every random program exactly.
#[test]
fn serial_roundtrip() {
    use lhws::dag::serial::{from_text, to_text};
    for_cases(0x5E41, 48, |rng, case| {
        let b = gen_block(rng, 5);
        let dag = b.build();
        let back = from_text(&to_text(&dag)).expect("roundtrip parses");
        assert_eq!(back.len(), dag.len(), "case {case}");
        assert_eq!(
            Metrics::compute(&back),
            Metrics::compute(&dag),
            "case {case}"
        );
        assert_eq!(
            suspension_width(&back),
            suspension_width(&dag),
            "case {case}"
        );
    });
}

/// Both Spoonhower suspension-policy variants execute every random
/// program correctly (they differ in cost, not in correctness).
#[test]
fn suspend_policy_variants_correct() {
    use lhws::sim::{LhwsSim, SimConfig, SuspendPolicy};
    for_cases(0x5057, 48, |rng, case| {
        let b = gen_block(rng, 5);
        let p = rng.gen_range(1usize..6);
        let seed = rng.gen_range(0u64..200);
        let dag = b.build();
        for policy in [SuspendPolicy::WholeDeque, SuspendPolicy::NewDequeOnResume] {
            let s = LhwsSim::new(&dag, SimConfig::new(p).seed(seed).suspend_policy(policy)).run();
            assert!(validate_schedule(&dag, &s.schedule).is_ok(), "case {case}");
            assert_eq!(s.schedule.entries.len(), dag.len(), "case {case}");
        }
    });
}

/// Corollary 1 (enabling span) on random programs at random P.
#[test]
fn enabling_span_bound_random() {
    for_cases(0xE5BA, 48, |rng, case| {
        let b = gen_block(rng, 5);
        let p = rng.gen_range(1usize..8);
        let seed = rng.gen_range(0u64..500);
        let dag = b.build();
        let m = Metrics::compute(&dag);
        let u = suspension_width(&dag);
        let lg = if u <= 1 {
            0
        } else {
            64 - (u - 1).leading_zeros() as u64
        };
        let s = run_lhws(&dag, p, seed);
        let bound = (2 * m.span * (1 + lg)).max(m.span);
        assert!(
            s.enabling_span <= bound,
            "case {case}: S*={} > bound {} (S={}, U={})",
            s.enabling_span,
            bound,
            m.span,
            u
        );
    });
}

// ---------------------------------------------------------------------
// Deque semantics: Chase–Lev vs the mutex oracle.
// ---------------------------------------------------------------------

/// A single-threaded operation sequence applied to both deques must
/// produce identical results (sequential semantics agreement).
#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    Pop,
    Steal,
}

fn gen_ops(rng: &mut StdRng) -> Vec<Op> {
    let n = rng.gen_range(0usize..200);
    (0..n)
        .map(|_| match rng.gen_range(0u32..3) {
            0 => Op::Push(rng.gen()),
            1 => Op::Pop,
            _ => Op::Steal,
        })
        .collect()
}

#[test]
fn chase_lev_matches_mutex_oracle() {
    for_cases(0xC1A5, 128, |rng, case| {
        let ops = gen_ops(rng);
        let (cw, cs) = WorkerHandle::<u32>::new(DequeKind::ChaseLev);
        let (mw, ms) = WorkerHandle::<u32>::new(DequeKind::Mutex);
        for op in &ops {
            match op {
                Op::Push(v) => {
                    cw.push_bottom(*v);
                    mw.push_bottom(*v);
                }
                Op::Pop => {
                    assert_eq!(cw.pop_bottom(), mw.pop_bottom(), "case {case}");
                }
                Op::Steal => {
                    // Sequentially, Retry cannot occur.
                    let a = match cs.steal() {
                        Steal::Success(v) => Some(v),
                        _ => None,
                    };
                    let b = match ms.steal() {
                        Steal::Success(v) => Some(v),
                        _ => None,
                    };
                    assert_eq!(a, b, "case {case}");
                }
            }
            assert_eq!(cw.len(), mw.len(), "case {case}");
        }
        // Drain both and compare the leftovers in owner order.
        loop {
            let a = cw.pop_bottom();
            let b = mw.pop_bottom();
            assert_eq!(&a, &b, "case {case}");
            if a.is_none() {
                break;
            }
        }
    });
}

// ---------------------------------------------------------------------
// Concurrent deque linearization under randomized schedules.
// ---------------------------------------------------------------------

/// Under concurrent owner traffic and two thieves, every pushed item is
/// obtained exactly once across pops and steals.
#[test]
fn concurrent_exactly_once() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    for_cases(0xEACE, 8, |rng, case| {
        let total = rng.gen_range(1000usize..5000);
        let burst = rng.gen_range(1usize..8);

        let (w, s) = lhws_deque::chase_lev::deque::<usize>();
        let done = Arc::new(AtomicBool::new(false));
        let thieves: Vec<_> = (0..2)
            .map(|_| {
                let s = s.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match s.steal() {
                            Steal::Success(v) => got.push(v),
                            Steal::Retry => {}
                            Steal::Empty => {
                                if done.load(Ordering::Acquire) && s.is_empty() {
                                    break;
                                }
                            }
                        }
                    }
                    got
                })
            })
            .collect();

        let mut mine = Vec::new();
        let mut next = 0;
        while next < total {
            for _ in 0..burst {
                if next < total {
                    w.push_bottom(next);
                    next += 1;
                }
            }
            if let Some(v) = w.pop_bottom() {
                mine.push(v);
            }
        }
        while let Some(v) = w.pop_bottom() {
            mine.push(v);
        }
        done.store(true, Ordering::Release);

        let mut all = mine;
        for t in thieves {
            all.extend(t.join().unwrap());
        }
        all.sort_unstable();
        let expect: Vec<usize> = (0..total).collect();
        assert_eq!(all, expect, "case {case}");
    });
}
