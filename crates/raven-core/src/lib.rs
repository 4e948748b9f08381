//! Facade of the raven-guard reproduction: the assembled full-system
//! simulation (paper Fig. 7(a)) and the experiment runners that regenerate
//! every table and figure of the DSN 2016 paper's evaluation.
//!
//! * [`sim`] — [`Simulation`]: console → ITP/UDP → control software →
//!   interceptor chain (malware + dynamic-model guard) → USB board →
//!   PLC/motors → plant → encoders, on a deterministic 1 ms virtual clock;
//! * [`scenario`] — [`AttackSetup`]: the attacks a run can install;
//! * [`session`] — [`SessionSpec`]: one session's recipe, its runner
//!   [`run_spec`] (the only way the crate starts a session), and its
//!   record [`SessionArtifact`] (the fleet's unit and the safety oracles'
//!   evidence);
//! * [`training`] — the fault-free threshold-learning protocol (§IV.C);
//! * [`experiments`] — one module per paper artifact: Table I, Table II,
//!   Table IV, Figures 5, 6, 8, 9;
//! * [`forensics`] — the tamper-evident incident sink: seq-suffixed
//!   incident files pinned by a hash-chained ledger (`raven-ledger`).

#![forbid(unsafe_code)]
// Outputs of this crate are serialized or merged: an exact float `==`
// flips when one FMA is reordered, so compare bits or use a tolerance.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod campaign;
pub mod dual;
pub mod experiments;
pub mod forensics;
pub mod scenario;
pub mod session;
pub mod sim;
pub mod training;
pub mod viz;

pub use campaign::executor::{
    parse_workers, run_sweep, run_sweep_observed, ExecutorConfig, RunError, SweepResult,
    SweepStats, WORKERS_ENV,
};
pub use campaign::trace::{RunLifecycle, SegmentUtilization, SweepSegment, SweepTraceCollector};
pub use dual::{Arm, DualArmSession, DualOutcome};
pub use forensics::{
    incident_file_name, manifest_candidates, AppendReceipt, IncidentSink, MANIFEST_REL_PATH,
};
pub use scenario::AttackSetup;
pub use session::{
    run_spec, run_standalone, session_thresholds, SessionArtifact, SessionRun, SessionSpec,
};
pub use sim::{
    cycle_signals, CycleRecord, DetectorSetup, IncidentReport, Sample, SessionOutcome, SimConfig,
    Simulation, Workload,
};
