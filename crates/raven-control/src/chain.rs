//! The kinematic chain pipeline of Fig. 2 in the paper.
//!
//! Per control cycle: encoder feedback gives current motor positions
//! (`mpos`), the coupling inverse gives current joints (`jpos`), forward
//! kinematics gives the end-effector position (`pos`); the desired
//! end-effector position (`pos_d`) goes through inverse kinematics to
//! desired joints (`jpos_d`) and through the coupling to desired motors
//! (`mpos_d`).

use raven_kinematics::{ArmConfig, IkError, JointState, MotorState};
use raven_math::Vec3;
use serde::{Deserialize, Serialize};

/// All intermediate results of one pipeline evaluation, exposed so callers
/// (the safety checker, the trace recorder, the detector) never recompute
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChainOutput {
    /// Current joint positions (from encoders through the coupling).
    pub current_joints: JointState,
    /// Current end-effector position (FK of `current_joints`).
    pub current_pos: Vec3,
    /// Desired joint positions (IK of the desired position).
    pub desired_joints: JointState,
    /// Desired motor positions (coupling of `desired_joints`).
    pub desired_motors: MotorState,
}

/// The chain evaluator; owns the arm geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct KinematicChain {
    arm: ArmConfig,
}

impl KinematicChain {
    /// Creates a chain over an arm configuration.
    pub fn new(arm: ArmConfig) -> Self {
        KinematicChain { arm }
    }

    /// The arm geometry.
    pub fn arm(&self) -> &ArmConfig {
        &self.arm
    }

    /// Current joints and end-effector position for measured motors.
    pub fn current(&self, motors: &MotorState) -> (JointState, Vec3) {
        let joints = self.arm.motors_to_joints(motors);
        let pos = self.arm.position(&joints);
        (joints, pos)
    }

    /// Full pipeline: the measured pose from [`KinematicChain::current`] +
    /// desired end-effector position → desired joints and motors.
    ///
    /// Taking `current`'s result instead of the motors keeps a controller
    /// cycle at one forward-kinematics evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`IkError`] when `desired_pos` has no IK solution; the
    /// controller latches an IK-failure fault in that case (Table I's
    /// "Unwanted state (IK-fail)").
    pub fn resolve(
        &self,
        (current_joints, current_pos): (JointState, Vec3),
        desired_pos: Vec3,
    ) -> Result<ChainOutput, IkError> {
        let desired_joints = self.arm.inverse(desired_pos)?;
        let desired_motors = self.arm.joints_to_motors(&desired_joints);
        Ok(ChainOutput { current_joints, current_pos, desired_joints, desired_motors })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> KinematicChain {
        KinematicChain::new(ArmConfig::raven_ii_left())
    }

    #[test]
    fn resolve_roundtrips_current_position() {
        let c = chain();
        let joints = JointState::new(0.3, 1.3, 0.28);
        let motors = c.arm().joints_to_motors(&joints);
        let current = c.current(&motors);
        let (j, pos) = current;
        assert!((j.shoulder - joints.shoulder).abs() < 1e-9);
        // Resolving the current position as the target yields the current
        // joints/motors (a hold command).
        let out = c.resolve(current, pos).unwrap();
        assert!(out.desired_motors.delta(motors).max_abs() < 1e-6);
        assert!((out.current_pos - pos).norm() < 1e-12);
    }

    #[test]
    fn resolve_reaches_nearby_targets() {
        let c = chain();
        let joints = JointState::new(0.0, 1.4, 0.3);
        let motors = c.arm().joints_to_motors(&joints);
        let current = c.current(&motors);
        let target = current.1 + Vec3::new(1e-3, -1e-3, 0.5e-3);
        let out = c.resolve(current, target).unwrap();
        // FK of the desired joints lands on the target.
        let reached = c.arm().position(&out.desired_joints);
        assert!((reached - target).norm() < 1e-9);
    }

    #[test]
    fn resolve_propagates_ik_failure() {
        let c = chain();
        let motors = MotorState::default();
        let err = c.resolve(c.current(&motors), c.arm().remote_center).unwrap_err();
        assert!(matches!(err, IkError::InsertionOutOfRange { .. }));
    }
}
