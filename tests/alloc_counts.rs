//! What the task layer allocates, pinned with a counting global allocator:
//! a spawn is one block of at most 120 bytes for a 64-byte future, a fork
//! whose right half is popped back and run in place allocates nothing, and
//! a fork's take-back that pops down past tasks pushed above its slot adds
//! nothing to the tasks themselves.
//!
//! The allocator counts per thread, and each test measures the polls of
//! one future on the worker of a one-worker runtime, so nothing else in the
//! process shows in a count. `SERIAL` runs the tests one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::Mutex;
use std::task::{Context, Poll};

use lhws::{fork2, spawn, yield_now, Runtime};

/// The allocator: `System`'s, counting each thread's allocations.
struct Counting;

thread_local! {
    /// Allocations (and reallocations) made on this thread, and their bytes.
    static MADE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: a thread's last frees run after its locals are gone.
    let _ = MADE.try_with(|m| {
        let (n, b) = m.get();
        m.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the count beside it touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f`, counting the allocations (and their bytes) it makes on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let (n, b) = MADE.with(Cell::get);
    let out = f();
    let (n2, b2) = MADE.with(Cell::get);
    (out, (n2 - n, b2 - b))
}

/// Runs `fut` to completion, counting the allocations (and their bytes)
/// made on the polling thread during its polls.
async fn tallied<F: Future>(fut: F) -> (F::Output, (u64, u64)) {
    let mut fut = pin!(fut);
    let mut tally = (0, 0);
    std::future::poll_fn(move |cx: &mut Context<'_>| {
        let (poll, (n, b)) = counted(|| fut.as_mut().poll(cx));
        tally = (tally.0 + n, tally.1 + b);
        poll.map(|v| (v, tally))
    })
    .await
}

/// Runs `body` on a fresh one-worker runtime, alone.
fn on_one_worker<T: Send + 'static>(body: impl Future<Output = T> + Send + 'static) -> T {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rt = Runtime::builder().workers(1).build().unwrap();
    rt.block_on(body)
}

/// A 64-byte future.
struct Pad([u64; 8]);

impl Future for Pad {
    type Output = u64;
    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<u64> {
        Poll::Ready(self.0[0])
    }
}

#[test]
fn spawning_a_64_byte_future_is_one_allocation_of_at_most_120_bytes() {
    assert_eq!(std::mem::size_of::<Pad>(), 64);
    let (n, bytes) = on_one_worker(async {
        let (h, made) = counted(|| spawn(Pad([9; 8])));
        assert_eq!(h.await, 9);
        made
    });
    assert_eq!(n, 1, "one block per spawned task");
    assert!(bytes <= 120, "a {bytes}-byte block for a 64-byte future");
}

#[test]
fn a_popped_back_fork_allocates_nothing() {
    let (out, made) = on_one_worker(async {
        // No warm-up: even a worker's first fork allocates nothing.
        tallied(fork2(async { 1u32 }, async { 2u32 })).await
    });
    assert_eq!(out, (1, 2));
    assert_eq!(made, (0, 0), "the right half ran in place");
}

#[test]
fn a_take_back_past_promoted_tasks_adds_no_allocation() {
    // The left half's own fork suspends, so that fork promotes its right
    // half into a task above the outer slot; the outer take-back pops down
    // past that task, promotes its own right half, and pushes the task
    // back. The two promotions are the only blocks.
    fn fork() -> impl Future<Output = (((), u32), u32)> + Send {
        fork2(fork2(yield_now(), async { 1u32 }), async { 2u32 })
    }
    let (out, made) = on_one_worker(async {
        // Once to warm the worker's buffers, then measured.
        fork().await;
        tallied(fork()).await
    });
    assert_eq!(out, (((), 1), 2));
    assert_eq!(made.0, 2, "two promoted right halves, nothing else");
}
