//! Workspace-level umbrella crate for the raven-guard reproduction.
//!
//! This crate exists to host the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`). The actual library surface lives
//! in [`raven_core`] and the per-subsystem crates it re-exports.

#![forbid(unsafe_code)]
// Outputs of this crate are serialized or merged: an exact float `==`
// flips when one FMA is reordered, so compare bits or use a tolerance.
#![cfg_attr(not(test), deny(clippy::float_cmp))]
pub use raven_core as core;
