//! Channel scenarios: the real [`lhws_core::channel::mpsc`], whose shared
//! queue sits behind a `crate::sync::Mutex` (instrumented in fine mode).
//!
//! A receive pops from the receiver's own buffer and, when that is empty,
//! swaps the whole shared queue into it under one lock (DESIGN.md §7
//! "Channels"). The receiver polls off-runtime with an [`Event`]-backed
//! waker, one event per receive: a parked receive registers its waker,
//! and the send or closure that unblocks it takes the registration under
//! the same lock and wakes it once, so a lost wake-up is a reported
//! deadlock.
//!
//! [`Event`]: lhws_checkrt::sync::Event

use lhws_checkrt::thread;
use lhws_core::channel::{mpsc, MpscReceiver};

use super::settle::block_on_op;

/// Receives until the channel reports closed.
fn drain(rx: &mut MpscReceiver<u32>, got: &mut Vec<u32>) {
    while let Some(v) = block_on_op(rx.recv()) {
        got.push(v);
    }
}

/// Two sender handles send `1, 2` and `3` and drop while the receiver
/// drains. Every message arrives exactly once, `1` before `2`, and the
/// last sender's drop wakes the parked receiver into `None`.
pub fn close_vs_recv() {
    let (tx, mut rx) = mpsc::<u32>();
    let tx2 = tx.clone();
    let a = thread::spawn(move || {
        tx.send(1).unwrap();
        tx.send(2).unwrap();
    });
    let b = thread::spawn(move || tx2.send(3).unwrap());

    let mut got = Vec::new();
    drain(&mut rx, &mut got);
    a.join().expect("sender a panicked");
    b.join().expect("sender b panicked");

    let mut sorted = got.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, [1, 2, 3], "each message exactly once: {got:?}");
    let pos = |v| got.iter().position(|&x| x == v).unwrap();
    assert!(pos(1) < pos(2), "one sender's messages reordered: {got:?}");
}

/// Sends land while the receiver's buffer still holds a message from an
/// earlier swap: the next swap must append behind it, never ahead.
pub fn swap_fifo() {
    let (tx, mut rx) = mpsc::<u32>();
    tx.send(1).unwrap();
    tx.send(2).unwrap();
    // Swaps both into the receiver's buffer; `2` stays there.
    assert_eq!(rx.try_recv(), Some(1));
    let s = thread::spawn(move || {
        tx.send(3).unwrap();
        tx.send(4).unwrap();
    });

    let mut got = Vec::new();
    drain(&mut rx, &mut got);
    s.join().expect("sender panicked");
    assert_eq!(got, [2, 3, 4], "send order lost across a swap");
}
