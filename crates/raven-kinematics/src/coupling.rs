//! Joint ↔ motor coupling through the cable transmission.
//!
//! RAVEN's joints are cable-driven: each motor winds a capstan whose cable
//! routes through the preceding joints, so the mapping between joint
//! positions and motor positions is an invertible linear map
//! `mpos = N · K · jpos`, where `N` is the diagonal matrix of transmission
//! ratios and `K` a unit-lower-triangular cable-routing coupling. The
//! insertion axis cable passes over the shoulder and elbow pulleys, which is
//! why corrupting one motor command can disturb the end-effector in a
//! direction the operator never commanded (paper Table I, "Abrupt Jump").

use raven_math::Mat3;
use raven_math::Vec3;
use serde::{Deserialize, Serialize};

use crate::joints::{JointState, MotorState, NUM_AXES};

/// Invertible linear map between joint space and motor space.
///
/// # Example
///
/// ```
/// use raven_kinematics::{CouplingMatrix, JointState};
///
/// let c = CouplingMatrix::raven_ii();
/// let j = JointState::new(0.3, 1.1, 0.2);
/// let m = c.joints_to_motors(&j);
/// let back = c.motors_to_joints(&m);
/// assert!((back.shoulder - j.shoulder).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CouplingMatrix {
    forward: Mat3,
    inverse: Mat3,
}

impl CouplingMatrix {
    /// Builds a coupling from transmission ratios and cable-routing
    /// coefficients.
    ///
    /// `ratios[i]` is motor radians per joint unit (radians for axes 0–1,
    /// meters for axis 2). `routing` are the sub-diagonal coefficients
    /// `(k21, k31, k32)` of the unit-lower-triangular routing matrix.
    ///
    /// # Panics
    ///
    /// Panics if any ratio is zero or non-finite (the map must be
    /// invertible).
    #[expect(
        clippy::expect_used,
        reason = "a unit-triangular matrix times a diagonal one with the nonzero ratios \
                  asserted above is invertible"
    )]
    pub fn new(ratios: [f64; NUM_AXES], routing: (f64, f64, f64)) -> Self {
        for r in ratios {
            assert!(r.is_finite() && r != 0.0, "transmission ratio must be nonzero, got {r}");
        }
        let (k21, k31, k32) = routing;
        let n = Mat3::diagonal(ratios[0], ratios[1], ratios[2]);
        let k = Mat3::from_rows([1.0, 0.0, 0.0], [k21, 1.0, 0.0], [k31, k32, 1.0]);
        let forward = n * k;
        let inverse =
            forward.inverse().expect("unit-triangular times nonsingular diagonal is invertible");
        CouplingMatrix { forward, inverse }
    }

    /// The RAVEN II-like coupling: capstan/gearhead ratios from ref. \[12\]
    /// scale, with the insertion cable routed over the first two joints.
    pub fn raven_ii() -> Self {
        // Motor rad per joint rad for the rotational axes; motor rad per
        // meter for insertion (capstan radius ≈ 5.96 mm ⇒ ~167.8 rad/m,
        // plus gearing).
        CouplingMatrix::new([75.94, 75.94, 167.8], (0.0, 0.08, 0.14))
    }

    /// Maps joint positions to motor positions.
    pub fn joints_to_motors(&self, joints: &JointState) -> MotorState {
        let v = self.forward * Vec3::from(joints.to_array());
        MotorState::new(v.to_array())
    }

    /// Maps motor positions to joint positions.
    pub fn motors_to_joints(&self, motors: &MotorState) -> JointState {
        let v = self.inverse * Vec3::from(motors.to_array());
        JointState::from_array(v.to_array())
    }

    /// Maps joint-space velocities to motor-space velocities (same linear
    /// map; the coupling is configuration-independent).
    pub fn joint_vel_to_motor_vel(&self, jvel: [f64; NUM_AXES]) -> [f64; NUM_AXES] {
        (self.forward * Vec3::from(jvel)).to_array()
    }

    /// Maps motor-space velocities to joint-space velocities.
    pub fn motor_vel_to_joint_vel(&self, mvel: [f64; NUM_AXES]) -> [f64; NUM_AXES] {
        (self.inverse * Vec3::from(mvel)).to_array()
    }

    /// Maps a joint-side torque/force vector to the motor side
    /// (`τ_m = (Nᵀ)⁻¹ τ_j` for the dual map; here the routing transpose).
    pub fn joint_torque_to_motor_torque(&self, tau_j: [f64; NUM_AXES]) -> [f64; NUM_AXES] {
        (self.inverse.transpose() * Vec3::from(tau_j)).to_array()
    }

    /// The forward matrix (`mpos = F · jpos`).
    pub fn forward_matrix(&self) -> &Mat3 {
        &self.forward
    }

    /// The inverse matrix (`jpos = F⁻¹ · mpos`).
    pub fn inverse_matrix(&self) -> &Mat3 {
        &self.inverse
    }
}

impl Default for CouplingMatrix {
    fn default() -> Self {
        CouplingMatrix::raven_ii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_identity() {
        let c = CouplingMatrix::raven_ii();
        let j = JointState::new(0.5, -0.3, 0.22);
        let back = c.motors_to_joints(&c.joints_to_motors(&j));
        assert!((back.shoulder - j.shoulder).abs() < 1e-12);
        assert!((back.elbow - j.elbow).abs() < 1e-12);
        assert!((back.insertion - j.insertion).abs() < 1e-12);
    }

    #[test]
    fn ratios_scale_as_expected() {
        let c = CouplingMatrix::new([10.0, 20.0, 30.0], (0.0, 0.0, 0.0));
        let m = c.joints_to_motors(&JointState::new(1.0, 1.0, 1.0));
        assert_eq!(m.to_array(), [10.0, 20.0, 30.0]);
    }

    #[test]
    fn routing_couples_insertion_to_proximal_joints() {
        let c = CouplingMatrix::raven_ii();
        // Pure shoulder motion moves the insertion *motor* (cable routing),
        // even though the insertion joint is still.
        let m = c.joints_to_motors(&JointState::new(1.0, 0.0, 0.0));
        assert!(m.angles[2].abs() > 1.0, "expected routing coupling, got {m}");
        // But mapping back yields zero insertion joint motion.
        let j = c.motors_to_joints(&m);
        assert!(j.insertion.abs() < 1e-12);
    }

    #[test]
    fn velocity_maps_are_consistent_with_position_maps() {
        let c = CouplingMatrix::raven_ii();
        let jvel = [0.1, -0.2, 0.05];
        let mvel = c.joint_vel_to_motor_vel(jvel);
        let back = c.motor_vel_to_joint_vel(mvel);
        for i in 0..NUM_AXES {
            assert!((back[i] - jvel[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn torque_map_preserves_power() {
        // Power balance: τ_jᵀ q̇ = τ_mᵀ θ̇m for the dual torque map.
        let c = CouplingMatrix::raven_ii();
        let jvel = [0.3, 0.1, -0.2];
        let tau_j = [2.0, -1.0, 0.5];
        let mvel = c.joint_vel_to_motor_vel(jvel);
        let tau_m = c.joint_torque_to_motor_torque(tau_j);
        let p_joint: f64 = (0..3).map(|i| tau_j[i] * jvel[i]).sum();
        let p_motor: f64 = (0..3).map(|i| tau_m[i] * mvel[i]).sum();
        assert!((p_joint - p_motor).abs() < 1e-9, "{p_joint} vs {p_motor}");
    }

    #[test]
    #[should_panic(expected = "transmission ratio")]
    fn zero_ratio_panics() {
        let _ = CouplingMatrix::new([1.0, 0.0, 1.0], (0.0, 0.0, 0.0));
    }
}
