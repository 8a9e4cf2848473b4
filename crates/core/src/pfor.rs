//! Pfor tasks: parallel reinjection of resumed vertices.
//!
//! When several suspended tasks belonging to one deque resume together, the
//! owner cannot afford to re-schedule them one by one (the paper: "since
//! there can be arbitrarily many resumed vertices at a check point, a
//! worker cannot handle them by itself without harming performance").
//! Instead, `addResumedVertices` pushes a single *pfor* task holding the
//! whole batch. When that task runs — on the owner or on a thief — it
//! splits the batch in half, re-pushing one half as a fresh stealable pfor
//! task, until batches reach [`PFOR_GRAIN`] and the resumed tasks
//! themselves are scheduled. The unfolding forms a balanced binary tree
//! with logarithmic span and at most one internal node per leaf, exactly
//! the pfor tree of the paper's analysis (§4.1).

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::metrics::Counter;
use crate::runtime::RtInner;
use crate::task::{self, TaskRef};
use crate::worker;

/// Pfor unfolding grain: batches of at most this many resumed tasks are
/// scheduled directly; larger ones split in half into stealable subtasks.
const PFOR_GRAIN: usize = 4;

/// Future body of a pfor task.
struct PforFuture {
    tasks: Vec<TaskRef>,
}

impl Future for PforFuture {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let mut tasks = std::mem::take(&mut self.tasks);
        worker::with_worker(|w| {
            let w = w.expect("pfor tasks only run on worker threads");
            // Split off stealable halves until the remainder fits the grain.
            while tasks.len() > PFOR_GRAIN {
                let right = tasks.split_off(tasks.len() / 2);
                w.push_spawned(new_pfor_task(w.rt(), right));
            }
            // Each task that is still idle is claimed and scheduled.
            for task in tasks {
                if task.try_claim_for_queue() {
                    w.push_spawned(task);
                }
            }
        });
        Poll::Ready(())
    }
}

/// Creates a QUEUED pfor task over `tasks` (ready to be pushed to a deque).
pub(crate) fn new_pfor_task(rt: &RtInner, tasks: Vec<TaskRef>) -> TaskRef {
    debug_assert!(!tasks.is_empty());
    rt.counters.bump(Counter::TasksSpawned);
    task::new_detached(rt.id, PforFuture { tasks })
}
