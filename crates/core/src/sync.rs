//! Synchronization indirection for the model checker (DESIGN.md §15).
//!
//! Same story as [`lhws_deque::sync`], re-exported so this crate's
//! modules (external-op settlement, the mpsc channel, and future ports) have a local
//! `crate::sync` switch point: plain std/parking_lot names in normal
//! builds, `lhws_checkrt::sync`'s instrumented wrappers under
//! `RUSTFLAGS="--cfg lhws_check"`.

pub use lhws_deque::sync::*;
