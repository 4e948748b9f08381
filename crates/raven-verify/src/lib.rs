//! Deterministic chaos testing for the raven-guard reproduction.
//!
//! The crates below `raven-verify` prove the *happy path*: the detector
//! catches the paper's attacks, the campaigns reproduce Table IV and
//! Fig. 9. This crate attacks the reproduction itself, three ways:
//!
//! * [`sessions`] — verification sessions: the fleet's
//!   [`raven_core::SessionSpec`]s sized for the oracles and run by
//!   [`raven_core::run_standalone`] under a seed-driven
//!   [`simbus::ChaosSchedule`]: packet reorder/duplication/corruption and
//!   loss bursts on the console link, stuck and bit-flipped encoders,
//!   dropped USB frames and transient board silence at the hardware layer.
//!   Every fault is virtual-time-scheduled from the run's root seed, so a
//!   chaos run replays byte-identically.
//! * [`oracles`] — cross-cutting safety invariants asserted over a
//!   completed run's [`raven_core::SessionArtifact`]: bounded end-effector motion while mitigation is
//!   active, E-STOP latched within the paper's one-cycle lookahead of an
//!   unsafe verdict, verdict/bookkeeping consistency, chaos-fault
//!   attribution, tamper-evident forensic export (`raven-ledger`
//!   chain verification plus four-way tamper diagnosis), and
//!   byte-identical replay.
//! * [`probes`] — white-box conformance checks that drive a
//!   [`raven_detect::DynamicDetector`] and [`raven_detect::GuardInterceptor`]
//!   directly with crafted thresholds, pinning down each decision the
//!   detector makes (fusion rule, end-effector limit, block path, hold
//!   semantics, alarm bookkeeping); the verdict probes also run on a
//!   [`raven_detect::BatchDetector`] lane, the fleet monitor's path.
//!
//! The oracle suite's teeth are proven by the **mutation kill-suite**
//! (`tests/mutation_kill.rs`): `raven-detect` exposes
//! [`raven_detect::DetectorMutation`] — a registry of deliberately-seeded
//! defects, installed with `set_mutation` — and every mutant must fail at
//! least one oracle or probe, while the unmutated detector passes all of them
//! over the whole chaos matrix (`tests/chaos_matrix.rs`). A mutant enters
//! an end-to-end session through `run_standalone`'s pre-boot hook.

#![forbid(unsafe_code)]

pub mod oracles;
pub mod probes;
pub mod sessions;

pub use oracles::{
    fleet_isolation, run_ledger, run_oracles, Expectations, OracleReport, OracleVerdict,
};
pub use probes::{all_probes, lane_probes, ProbeResult};
pub use sessions::{for_oracles, observed};
