//! Regression test for children sitting in a buffer until the parent's poll
//! returns: `fork2`'s right branch must be stealable while the left one
//! still runs.
//!
//! Alone in its test binary, because it needs both vCPUs to itself. Each
//! branch spins for 20 ms of *wall* time, so two branches side by side
//! take 20 ms however slow the host is, and one after the other take 40.

use std::time::{Duration, Instant};

use lhws_core::{fork2, Runtime};

const BRANCH: Duration = Duration::from_millis(20);

fn spin() -> (Instant, Instant) {
    let start = Instant::now();
    while start.elapsed() < BRANCH {
        std::hint::spin_loop();
    }
    (start, Instant::now())
}

#[test]
fn right_branch_starts_while_left_still_runs() {
    let rt = Runtime::builder().workers(2).build().unwrap();
    // A buffered child makes every attempt serial, to the millisecond; a
    // busy host can only make some attempts late.
    let mut seen = Vec::new();
    for _ in 0..5 {
        let begun = Instant::now();
        let ((_, left_end), (right_start, _)) =
            rt.block_on(fork2(async { spin() }, async { spin() }));
        let wall = begun.elapsed();
        if right_start < left_end && wall < BRANCH * 3 / 2 {
            return;
        }
        seen.push((right_start.saturating_duration_since(left_end), wall));
    }
    panic!("no attempt overlapped the branches: (right start after left end, wall) = {seen:?}");
}
