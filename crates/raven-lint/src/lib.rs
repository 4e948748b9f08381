//! `raven-lint`: a workspace invariant auditor.
//!
//! The reproduction makes two promises that ordinary tests cannot fully
//! police: sweep artifacts are **bit-identical** for any worker count, and
//! the safety path (controller → guard → USB board → PLC) stays predictable
//! under its 1 ms deadline. Both are invariants about *what the source is
//! allowed to say*, not about any single execution — so this crate checks
//! them statically, the way the paper argues anomalies should be caught
//! mechanically rather than by convention.
//!
//! The auditor keeps only the checks the compiler and plain tests cannot
//! make. The retired rules live on elsewhere (see
//! `docs/STATIC_ANALYSIS.md`, "Checked by the toolchain and tests"): the
//! wall-clock, hash-collection and lock bans (R1, R2, R10) are
//! `clippy::disallowed_methods`/`disallowed_types` over the root
//! `clippy.toml`; the unsafe audit (R6) is rustc's `unsafe_code` plus
//! `clippy::undocumented_unsafe_blocks`; no-panic on the safety cycle (R3)
//! is clippy's panic lints denied in the crates the cycle runs through; RNG
//! stream discipline (R9) is the `simbus::obs::streams::Stream` type; the
//! allocation-free cycle (R8), artifact schemas (R11) and the registry ↔
//! doc tables are tier-1 tests.
//!
//! What is left needs no parser: a small lexer strips comments and string
//! literals so rules never fire on prose, a region tracker excludes
//! `#[cfg(test)]` modules, and three rules run over each file:
//!
//! * **R4 exhaustive-safety-match** — wildcard `_` arms forbidden in
//!   `match`es over safety-critical enums, so adding a state forces every
//!   handler to be revisited (clippy cannot see a `(s, _) => s` tuple arm).
//! * **R5 registry-name-literal** — a name registered in `simbus::obs`
//!   (event kind, metric or metric family, channel, span) may not be
//!   spelled as a raw string literal outside the registry; the names are
//!   read from the registry's own `ALL`/`FAMILIES` arrays.
//! * **R7 no-float-eq** — no `==`/`!=` against float literals in
//!   merged-artifact crates.
//!
//! The crate is a library with no options of its own: the caller hands
//! [`run`] a workspace root and a `'static` [`Config`]. The workspace's
//! policy (roots, watched enums, R7 crates and the audited exceptions,
//! each with a one-line justification) is one constant in the tier-1 test
//! `tests/lint_audit.rs`, so `cargo test` runs the audit; an exception that
//! matches no finding is itself a finding.

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod lexer;
pub mod rules;

pub use config::{AllowEntry, Config, WatchedEnum};
pub use engine::{run, AuditReport};
pub use lexer::SourceFile;
pub use rules::Finding;
