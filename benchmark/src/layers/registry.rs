//! `registry` layer (`registry.rs`) through `lhws_deque::Registry`: the
//! register/release pair every suspension-driven deque switch pays, and
//! the thief's victim draw over the live set.

use std::hint::black_box;

use lhws_deque::{DequeKind, Registry, StealerHandle, WorkerHandle};

use super::{ns_per_iter, repeat, repeat_pair, Scale};
use crate::host;
use crate::report::Metrics;

const LIVE: usize = 1024;

pub fn probe(scale: &Scale, m: &mut Metrics) {
    m.put_summary(
        "registry.register_release_ns",
        repeat(scale, || register_release(scale)),
    );
    let full = populated(0);
    m.put_summary(
        "registry.random_live_id_ns",
        repeat(scale, || draw(&full, scale).0),
    );
    let sparse = populated(90);
    let (dead90, hit_ratio) = repeat_pair(scale, || draw(&sparse, scale));
    m.put_summary("registry.random_live_id_ns_dead90", dead90);
    m.put_summary("registry.live_hit_ratio", hit_ratio);
}

fn stealer() -> StealerHandle<usize> {
    WorkerHandle::new(DequeKind::ChaseLev).1
}

fn register_release(scale: &Scale) -> f64 {
    let n = scale.iters(4096);
    let registry = Registry::<usize>::with_capacity_and_shards(n, host::nproc());
    let stealers: Vec<_> = (0..n).map(|_| stealer()).collect();
    ns_per_iter(n, || {
        for s in stealers {
            let id = registry
                .register(0, s)
                .expect("capacity covers every register");
            black_box(registry.release(id));
        }
    })
}

/// A registry of [`LIVE`] registered deques of which `dead_pct` % have
/// been released again.
fn populated(dead_pct: usize) -> Registry<usize> {
    let registry = Registry::with_capacity_and_shards(LIVE, host::nproc());
    for i in 0..LIVE {
        let id = registry
            .register(i % host::nproc(), stealer())
            .expect("capacity covers every register");
        if (i * 100 / LIVE) % 100 < dead_pct && i % 10 != 9 {
            registry.release(id);
        }
    }
    registry
}

/// ns per `random_live_id` draw, and the share of draws that landed on a
/// live deque.
fn draw(registry: &Registry<usize>, scale: &Scale) -> (f64, f64) {
    let n = scale.iters(400_000);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut live = 0usize;
    let ns = ns_per_iter(n, || {
        for _ in 0..n {
            // xorshift64: a uniform word per draw, as the workers' own RNG.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if let Some(id) = registry.random_live_id(x) {
                live += usize::from(registry.is_live(id));
            }
        }
    });
    (ns, live as f64 / n as f64)
}
