//! The RAVEN II control software.
//!
//! The software half of the paper's Fig. 1(b): a 1 ms loop that turns
//! teleoperation inputs into USB motor commands. Modules map one-to-one to
//! the paper's description of the control system (§II.B):
//!
//! * [`state_machine`] — the operational state machine of Fig. 1(c)
//!   (E-STOP → Init → Pedal Up ⇄ Pedal Down), with fault latching;
//! * [`chain`] — the kinematic chain of Fig. 2 (FK/IK/coupling pipeline);
//! * [`pid`] — the per-motor PID controllers;
//! * [`safety`] — RAVEN's software safety checks (DAC thresholds, joint and
//!   workspace limits) — the *baseline* detector of Table IV, and the checks
//!   whose check-then-write ordering opens the TOCTOU window of §III;
//! * [`controller`] — [`RavenController`], the assembled control loop.
//!
//! # Example
//!
//! ```
//! use raven_control::{ControllerConfig, OperatorInput, RavenController};
//! use raven_hw::UsbFeedbackPacket;
//! use raven_kinematics::ArmConfig;
//!
//! let mut ctl = RavenController::new(ArmConfig::raven_ii_left(), ControllerConfig::raven_ii());
//! ctl.press_start();
//! let feedback = UsbFeedbackPacket::default();
//! let packet = ctl.cycle(None, &feedback);
//! // During Init the software advertises the Init state nibble to the PLC.
//! assert_eq!(packet.state, raven_hw::RobotState::Init);
//! ```

#![forbid(unsafe_code)]
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

pub mod chain;
pub mod controller;
pub mod pid;
pub mod safety;
pub mod state_machine;

pub use chain::{ChainOutput, KinematicChain};
pub use controller::{ControllerConfig, CycleTelemetry, OperatorInput, RavenController};
pub use pid::{Pid, PidGains};
pub use safety::{SafetyChecker, SafetyConfig, SafetyViolation};
pub use state_machine::{ControlEvent, FaultReason, StateMachine};
