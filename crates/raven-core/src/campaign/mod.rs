//! The campaign executor — the engine behind the paper's "attack
//! injection engine … programmed to … inject malicious inputs/commands
//! with different values and activation periods … at different times
//! during a running trajectory" (§IV.A.2).
//!
//! Every multi-session job is one sweep on [`executor`]: threshold
//! training, the Table IV and Fig. 9 runners (each run a `SimConfig`
//! plus an `AttackSetup`), the ablations, and the rig-plane fleet.
//! [`trace`] records a sweep's per-worker timeline.

pub mod executor;
pub mod trace;

pub use executor::{run_sweep, ExecutorConfig, FoldedSweep, RunError, SweepStats};
pub use trace::{RunLifecycle, SegmentUtilization, SweepSegment, SweepTraceCollector};
