//! Dynamics of the RAVEN II surgical robot: the physical plant and the
//! real-time estimator model at the heart of the paper's defense.
//!
//! The paper models the robot with "two sets of second-order ordinary
//! differential equations … including link (joint) and motor dynamics"
//! (§IV.A.1), integrated with explicit Euler or 4th-order Runge–Kutta at a
//! 1 ms step. This crate implements those equations twice, deliberately:
//!
//! * [`plant::RavenPlant`] — the **ground-truth physical system** standing in
//!   for the real robot: Maxon RE40/RE30 DC motors, elastic cable
//!   transmissions, and configuration-dependent 3-DOF manipulator dynamics,
//!   integrated with RK4 at sub-millisecond substeps;
//! * [`estimator::RtModel`] — the **real-time model** the detector runs one
//!   control step ahead of the plant. It uses the same equations but a
//!   coarser integrator (Euler or RK4 at 1 ms, selectable as in Fig. 8) and,
//!   optionally, perturbed parameters to reproduce the model-vs-robot
//!   mismatch the paper measures (Fig. 8's mpos/jpos errors).
//!
//! The split is the reproduction's substitute for the physical robot: the
//! paper validates its model against the hardware; we validate the estimator
//! against the higher-fidelity plant (see DESIGN.md §3).
//!
//! # Example
//!
//! ```
//! use raven_dynamics::{PlantParams, RavenPlant};
//!
//! let mut plant = RavenPlant::new(PlantParams::raven_ii());
//! plant.release_brakes(); // the robot powers up in E-STOP with brakes on
//! // Apply a small torque on the shoulder motor for 10 control periods.
//! for _ in 0..10 {
//!     plant.step_control_period(&[0.01, 0.0, 0.0]);
//! }
//! assert!(plant.state().motor_vel()[0] > 0.0);
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

pub mod batch;
pub mod cable;
pub mod estimator;
pub mod link;
pub mod motor;
pub mod params;
pub mod plant;
pub mod state;

pub use batch::BatchModel;
pub use cable::CableParams;
pub use estimator::{RtModel, RtModelConfig};
pub use link::LinkParams;
pub use motor::MotorParams;
pub use params::{DacScale, PlantParams};
pub use plant::RavenPlant;
pub use state::PlantState;
