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
//! The auditor keeps only the checks the compiler cannot make. The
//! wall-clock, hash-collection and lock bans (the retired R1, R2 and R10)
//! are `clippy::disallowed_methods`/`disallowed_types` over the root
//! `clippy.toml`, and the unsafe audit (R6) is rustc's `unsafe_code` plus
//! `clippy::undocumented_unsafe_blocks`, all denied in the root
//! `[workspace.lints]`.
//!
//! The auditor needs no registry crate (only the vendored serde stubs, see
//! `vendor/README.md`): a small lexer strips comments and string literals
//! so rules never fire on prose, a region tracker excludes `#[cfg(test)]`
//! modules where panics are legitimate, an item/signature parser builds a
//! symbol table and an approximate workspace call graph, and a rule engine
//! applies six rules (see `docs/STATIC_ANALYSIS.md`):
//!
//! * **R3 no-panic-in-hot-path** — `unwrap`/`expect`/`panic!` forbidden in
//!   every function *transitively reachable* from the hot-path entry
//!   points (`Simulation::step`, the detector verdict path, the rig board
//!   cycle); panic isolation belongs to the campaign executor, not the
//!   safety loop.
//! * **R4 exhaustive-safety-match** — wildcard `_` arms forbidden in
//!   `match`es over safety-critical enums, so adding a state forces every
//!   handler to be revisited.
//! * **R5 doc-code drift** — the `simbus::obs` registries (event kinds,
//!   metrics, channels, spans, RNG streams) must agree with
//!   `docs/OBSERVABILITY.md`, both directions, and emit sites must go
//!   through the registry constants.
//! * **R7 no-float-eq** — no `==`/`!=` against float literals in
//!   merged-artifact crates.
//! * **R9 rng-stream-discipline** — every `stream_rng`/`derive_seed`
//!   label comes from `simbus::obs::streams`, whose constants must be
//!   unique workspace-wide.
//! * **R11 artifact-schema-drift** — fields of serialized structs backing
//!   golden artifacts must match the keys actually present in
//!   `results/*.json`, both directions.
//!
//! Intentional exceptions live in `raven-lint.toml`, each with a one-line
//! justification; stale or unjustified entries are themselves findings.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod config;
pub mod engine;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;

pub use config::{AllowEntry, Config, WatchedEnum};
pub use engine::{run, AuditReport};
pub use lexer::SourceFile;
pub use rules::Finding;
