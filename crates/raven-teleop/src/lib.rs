//! Teleoperation side of the RAVEN II reproduction.
//!
//! The master console of the paper's Fig. 1(d): the surgeon's manipulators
//! sampled at the control rate and shipped over UDP to the robot.
//!
//! * [`itp`] — the ITP-like wire protocol ("a protocol based on the UDP
//!   packet protocol", paper §II.B); attack scenario A mutates these packets;
//! * [`traj`] — surgical trajectory generators (minimum-jerk reaches,
//!   circles, Lissajous sweeps, suturing loops, operator tremor), standing in
//!   for the paper's recorded surgeon motions;
//! * [`console`] — the master console emulator of §IV.A, with foot-pedal
//!   schedules.

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

pub mod console;
pub mod itp;
pub mod traj;

pub use console::{MasterConsole, PedalSchedule};
pub use itp::{ItpError, ItpPacket, ITP_PACKET_LEN};
pub use traj::{
    standard_workloads, Circle, Lissajous, MinimumJerk, Suturing, Trajectory, WithTremor,
};
