//! `deque` layer (`chase_lev.rs`) through `lhws_deque::{WorkerHandle,
//! StealerHandle}`: the owner's push/pop, a thief's steal alone and
//! against a busy owner, and steal-half batches.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use lhws_deque::{DequeKind, Steal, WorkerHandle};

use super::{ns_per_iter, repeat, repeat_pair, Scale};
use crate::report::Metrics;

pub fn probe(scale: &Scale, m: &mut Metrics) {
    m.put_summary("deque.push_pop_ns", repeat(scale, || push_pop(scale)));
    m.put_summary("deque.steal_ns", repeat(scale, || steal(scale)));
    let (contended, retry_ratio) = repeat_pair(scale, || steal_contended(scale));
    m.put_summary("deque.steal_contended_ns", contended);
    m.put_summary("deque.steal_retry_ratio", retry_ratio);
    m.put_summary(
        "deque.steal_batch_ns_per_item",
        repeat(scale, || steal_batch(scale)),
    );
}

fn push_pop(scale: &Scale) -> f64 {
    let (w, _s) = WorkerHandle::<usize>::new(DequeKind::ChaseLev);
    let n = scale.iters(200_000);
    ns_per_iter(n, || {
        for i in 0..n {
            w.push_bottom(black_box(i));
            black_box(w.pop_bottom());
        }
    })
}

fn steal(scale: &Scale) -> f64 {
    let (w, s) = WorkerHandle::<usize>::new(DequeKind::ChaseLev);
    let n = scale.iters(100_000);
    (0..n).for_each(|i| w.push_bottom(i));
    ns_per_iter(n, || {
        for _ in 0..n {
            black_box(s.steal());
        }
    })
}

/// A thief stealing while the owner keeps pushing and popping at the other
/// end: ns per successful steal, and the share of attempts that lost a
/// race (`Steal::Retry`).
fn steal_contended(scale: &Scale) -> (f64, f64) {
    let (w, s) = WorkerHandle::<usize>::new(DequeKind::ChaseLev);
    let wanted = scale.iters(100_000);
    let stop = &AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            // The owner keeps a shallow deque, so both ends meet often.
            while !stop.load(Ordering::Relaxed) {
                if w.len() < 8 {
                    (0..8).for_each(|i| w.push_bottom(i));
                }
                w.push_bottom(0);
                black_box(w.pop_bottom());
            }
        });
        let (mut won, mut retries, mut attempts) = (0usize, 0usize, 0usize);
        let start = Instant::now();
        while won < wanted {
            attempts += 1;
            match s.steal() {
                Steal::Success(v) => {
                    black_box(v);
                    won += 1;
                }
                Steal::Retry => retries += 1,
                Steal::Empty => {}
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / won as f64;
        stop.store(true, Ordering::Relaxed);
        (ns, retries as f64 / attempts as f64)
    })
}

fn steal_batch(scale: &Scale) -> f64 {
    let (w, s) = WorkerHandle::<usize>::new(DequeKind::ChaseLev);
    let n = scale.iters(65_536);
    (0..n).for_each(|i| w.push_bottom(i));
    let mut out = Vec::with_capacity(8);
    ns_per_iter(n, || {
        let mut taken = 0;
        while taken < n {
            out.clear();
            if let Steal::Success(k) = s.steal_batch_into(8, &mut out) {
                taken += k;
            }
        }
        black_box(&out);
    })
}
