//! Kinematics of the RAVEN II surgical manipulator.
//!
//! The paper's kinematic chain (Fig. 2) translates operator commands into
//! motor commands:
//!
//! ```text
//! pos_d/ori_d ──▶ inverse kinematics ──▶ jpos_d ──▶ coupling ──▶ mpos_d
//!      ▲                                                            │
//!      └────── forward kinematics ◀── jpos ◀── coupling⁻¹ ◀── mpos (encoders)
//! ```
//!
//! Like the paper's dynamic model (§IV.A.1), we model the **first three
//! degrees of freedom** — the positioning joints: shoulder (rotational),
//! elbow (rotational), and tool insertion (translational). These "contribute
//! most to the instruments' end-effectors' positions, while the other four
//! degrees of freedom are instrument joints, mainly affecting the orientation
//! of the end-effectors" (paper §IV.A.1). The four wrist DOF are carried
//! through the stack as kinematic pass-through servo channels.
//!
//! The RAVEN II positioning mechanism is a *spherical linkage*: the first two
//! revolute axes intersect at a fixed remote center (the surgical port), with
//! link arc angles of 75° and 52° (Hannaford et al., "Raven-II: An open
//! platform for surgical robotics research", IEEE TBME 2013 — the paper's
//! ref. \[12\]). The tool slides through the remote center along the direction
//! set by the two revolute joints.
//!
//! # Example
//!
//! ```
//! use raven_kinematics::{ArmConfig, JointState};
//!
//! let arm = ArmConfig::raven_ii_left();
//! let joints = JointState::new(0.5, 1.6, 0.35);
//! let pos = arm.position(&joints);
//! let solved = arm.inverse(pos)?;
//! assert!((solved.shoulder - joints.shoulder).abs() < 1e-9);
//! # Ok::<(), raven_kinematics::IkError>(())
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

pub mod config;
pub mod coupling;
pub mod joints;
pub mod limits;
pub mod spherical;

pub use config::{ArmConfig, LinkTrig};
pub use coupling::CouplingMatrix;
pub use joints::{JointState, MotorState, NUM_AXES, NUM_CHANNELS, WRIST_AXES};
pub use limits::{JointLimits, LimitViolation};
pub use spherical::IkError;
