//! Readiness-word scenarios: the real [`lhws_net::Readiness`], whose
//! atomics come from `lhws_core::sync` (instrumented in fine mode).
//!
//! A socket registered edge-triggered gets one kernel report per arrival,
//! so a reader that clears its cached readable bit must never erase the
//! report for data its syscall did not see: with the bit clear it files a
//! waiter and makes no syscall, and no further edge would come. The reader
//! clears by the tick rule (DESIGN.md §10 "Register once,
//! edge-triggered"); the harvester sets the bit and fires a filed waiter
//! under the same mutex the reader files under, as the reactor's table
//! lock does.

use std::sync::Arc;

use lhws_checkrt::sync::{AtomicU32, Mutex, Ordering};
use lhws_checkrt::thread;
use lhws_net::Readiness;

/// The reader's waiter, as the table keeps it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Waiter {
    NotFiled,
    Filed,
    Fired,
}

/// One socket: bytes queued in the kernel, its readiness word, and the
/// waiter slot under the table lock.
struct Socket {
    queued: AtomicU32,
    word: Readiness,
    waiter: Mutex<Waiter>,
}

/// One byte arrives while the reader drains the socket. The reader
/// snapshots the word, does a model `recv` (taking whatever is queued —
/// `EAGAIN` or a short read; both clear), clears with `clear`, then files
/// a waiter only if its bit is clear. No terminal state may have data
/// queued, the bit clear and the waiter unfired: that reader would sleep
/// forever.
fn race(clear: fn(&Readiness, u64)) {
    let sock = Arc::new(Socket {
        queued: AtomicU32::new(0),
        word: Readiness::new(),
        waiter: Mutex::new(Waiter::NotFiled),
    });
    let kernel = Arc::clone(&sock);
    let harvester = thread::spawn(move || {
        // The byte arrives; the kernel queues one edge report for it.
        kernel.queued.fetch_add(1, Ordering::SeqCst);
        // Dispatch: set the bit and fire a filed waiter under the lock.
        let mut waiter = kernel.waiter.lock();
        kernel.word.set(Readiness::READABLE);
        if *waiter == Waiter::Filed {
            *waiter = Waiter::Fired;
        }
    });

    let seen = sock.word.snapshot();
    assert_ne!(seen & Readiness::READABLE, 0, "a fresh socket is tried");
    sock.queued.swap(0, Ordering::SeqCst);
    clear(&sock.word, seen);
    {
        let mut waiter = sock.waiter.lock();
        if sock.word.snapshot() & Readiness::READABLE == 0 {
            *waiter = Waiter::Filed;
        }
    }
    harvester.join().expect("harvester panicked");

    let queued = sock.queued.load(Ordering::SeqCst);
    let readable = sock.word.snapshot() & Readiness::READABLE != 0;
    let waiter = *sock.waiter.lock();
    assert!(
        queued == 0 || readable || waiter == Waiter::Fired,
        "lost wake-up: {queued} byte(s) queued, readable bit clear, waiter {waiter:?}"
    );
}

/// The tick rule: the clear is skipped when a report landed since the
/// snapshot.
pub fn clear_vs_report() {
    race(|word, seen| {
        word.clear(Readiness::READABLE, seen);
    });
}

/// The seeded mutation: the same reader clears without the tick check,
/// so a report between its `recv` and its clear is erased — the checker
/// must refute it.
#[cfg(all(lhws_check, lhws_check_mutation))]
pub fn tickless_clear_unsound() {
    race(|word, _seen| word.clear_ignoring_tick(Readiness::READABLE));
}
