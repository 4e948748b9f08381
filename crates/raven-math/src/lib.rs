//! Mathematical foundations for the raven-guard reproduction of
//! *"Targeted Attacks on Teleoperated Surgical Robots: Dynamic Model-based
//! Detection and Mitigation"* (DSN 2016).
//!
//! The paper's dynamic model (§IV.A.1) integrates two sets of second-order
//! ordinary differential equations (motor and link dynamics) with the explicit
//! Euler and 4th-order Runge–Kutta methods, and its detector (§IV.C) learns
//! alarm thresholds as high percentiles of instant velocities over fault-free
//! runs. This crate provides exactly those foundations:
//!
//! * [`vec3::Vec3`], [`mat3::Mat3`], [`quat::Quat`], [`se3::Pose`] — 3-D
//!   geometry used by the kinematic chain (Fig. 2 of the paper);
//! * [`ode`] — generic fixed-step integrators ([`ode::Method::Euler`],
//!   [`ode::Method::Rk4`]) over user-defined state vectors;
//! * [`stats`] — running summary statistics, percentile estimation for
//!   threshold learning, and the confusion-matrix metrics (ACC/TPR/FPR/F1)
//!   reported in Table IV;
//! * [`angles`] — angle wrapping and unit conversions.
//!
//! # Example
//!
//! ```
//! use raven_math::ode::Method;
//!
//! // Integrate a unit-gain first-order lag: x' = -x, x(0) = 1.
//! let mut x = [1.0_f64];
//! for _ in 0..1000 {
//!     x = Method::Euler.step(&x, 0.0, 1e-3, &|s: &[f64; 1], _t| [-s[0]]);
//! }
//! assert!((x[0] - (-1.0_f64).exp()).abs() < 1e-3);
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

pub mod angles;
pub mod mat3;
pub mod ode;
pub mod quat;
pub mod se3;
pub mod stats;
pub mod vec3;

pub use mat3::Mat3;
pub use quat::Quat;
pub use se3::Pose;
pub use vec3::Vec3;
