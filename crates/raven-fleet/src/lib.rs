//! Fleet layer for the raven-guard reproduction: many teleoperation
//! sessions at once, each with the semantics of the validated
//! one-session loop.
//!
//! The paper validates its dynamic-model detector one teleoperation
//! session at a time; a production deployment serves *fleets* of
//! concurrent sessions. This crate runs many sessions without changing
//! what any one of them computes, on two planes:
//!
//! * **Rig plane** — [`run_fleet`] runs N fully simulated sessions
//!   (each a [`raven_core::SessionSpec`] with its own seed, scenario,
//!   attack, and chaos schedule) as one campaign-executor sweep of
//!   [`raven_core::run_spec`]. Every session's
//!   [`raven_core::SessionArtifact`] (outcome, event log, metrics,
//!   incident report) is therefore **bit-identical** to the same spec
//!   run standalone, for any worker count — pinned by
//!   `tests/fleet_equiv.rs`.
//! * **Monitor plane** — [`FleetMonitor`] multiplexes thousands of
//!   telemetry streams over M lanes of a
//!   [`raven_detect::BatchDetector`], recycling lanes as sessions turn
//!   active and idle. Idle (Pedal-Up) sessions hold no lane, schedule
//!   their next wake in a virtual-time [`WakeQueue`] instead of being
//!   polled, and consume **zero** detector assessments — the scaling
//!   claim the 10k-session soak test executes. The lane schedule is
//!   settled first; the scheduled phases are then assessed as one
//!   campaign-executor sweep.
//!
//! Determinism doctrine: the executor merges rig sessions and monitor
//! chunks in run order, the wake queue orders strictly by
//! `(wake_time_ns, session_id)`, and
//! per-session work never reads sibling state — so fleet output is a
//! pure function of the specs.

#![forbid(unsafe_code)]
// Outputs of this crate are serialized or merged: an exact float `==`
// flips when one FMA is reordered, so compare bits or use a tolerance.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod monitor;
pub mod queue;
pub mod rig;

pub use monitor::{FleetMonitor, MonitorConfig, MonitorReport, MonitorSession, SessionTotals};
pub use queue::WakeQueue;
pub use rig::{run_fleet, standard_mix};
