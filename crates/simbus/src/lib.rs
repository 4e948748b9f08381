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
    shared_observer, Event, EventKind, EventLog, FieldValue, Histogram, Metrics, Observer,
    Severity, SharedObserver, StageStats,
};
pub use span::{ChromeTraceBuilder, SpanGuard, SpanHandle, SpanRecord, SpanRecorder};
pub use time::{SimClock, SimDuration, SimTime, CONTROL_PERIOD};
pub use trace::TraceRecorder;
