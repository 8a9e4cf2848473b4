//! Synchronization indirection for the model checker (DESIGN.md §15).
//!
//! Same story as [`lhws_deque::sync`], re-exported so this crate's
//! modules (and `lhws-net` and `lhws-obs`, as `lhws_core::sync`) have a
//! local switch point: std names and the poison-free [`Mutex`] in normal
//! builds, `lhws_checkrt::sync`'s instrumented wrappers under
//! `RUSTFLAGS="--cfg lhws_check"`.

pub use lhws_deque::sync::*;
