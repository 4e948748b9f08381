//! Deterministic simulation substrate for the raven-guard reproduction.
//!
//! The paper's system runs on ROS middleware over an RT-Preempt Linux kernel
//! with a hard 1 ms control period (§II.B, §III.D). This crate replaces that
//! stack with a deterministic, virtual-time equivalent:
//!
//! * [`time`] — virtual clock with nanosecond resolution and the robot's
//!   1 ms control tick;
//! * [`net`] — simulated UDP links with loss, delay, and jitter (carries the
//!   ITP teleoperation protocol and the malware's exfiltration traffic);
//! * [`trace`] — time-series recording for experiment analysis (the
//!   equivalent of the paper's logged robot runs);
//! * [`obs`] — structured events and metrics (the flight-recorder
//!   substrate; see `docs/OBSERVABILITY.md`);
//! * [`span`] — hierarchical span tracing with virtual-time boundaries,
//!   Chrome Trace / Perfetto export and per-stage wall-clock profiles
//!   (disabled by default; the wall clock stays in sidecars);
//! * [`chaos`] — seed-driven accidental-fault schedules (link corruption,
//!   stuck encoders, board silence) for the chaos/oracle test harness;
//! * [`rng`] — seed-derivation helpers so every experiment is reproducible.
//!
//! Everything here is single-threaded by design: experiments advance a
//! [`time::SimClock`] explicitly, so runs are bit-for-bit reproducible — a
//! property the detection-accuracy experiments (Table IV, Fig. 9) rely on.

#![forbid(unsafe_code)]
// Outputs of this crate are serialized or merged: an exact float `==`
// flips when one FMA is reordered, so compare bits or use a tolerance.
#![cfg_attr(not(test), deny(clippy::float_cmp))]
// The 1 ms safety cycle runs through this crate: no panic path outside
// tests (each sanctioned site is an item-level `#[expect]` with its reason).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod chaos;
pub mod net;
pub mod obs;
pub mod rng;
pub mod span;
pub mod time;
pub mod trace;

pub use chaos::{ChaosConfig, ChaosFault, ChaosFaultKind, ChaosSchedule};
pub use net::{LinkConfig, SimLink};
pub use obs::{
    Event, EventKind, EventLog, FieldValue, Histogram, Metrics, Observer, Severity, StageStats,
};
pub use span::{ChromeTraceBuilder, SpanGuard, SpanHandle, SpanRecord, SpanRecorder};
pub use time::{SimClock, SimDuration, SimTime, CONTROL_PERIOD};
pub use trace::TraceRecorder;
