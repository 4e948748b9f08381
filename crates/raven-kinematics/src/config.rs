//! Arm configuration: geometry, coupling, and limits in one place.

use raven_math::Vec3;

use crate::coupling::CouplingMatrix;
use crate::joints::{JointState, MotorState};
use crate::limits::JointLimits;
use crate::spherical::{self, IkError};

/// Geometry and transmission of one RAVEN II arm.
///
/// Construct with [`ArmConfig::raven_ii_left`] /
/// [`ArmConfig::raven_ii_right`] or customize via [`ArmConfig::builder`].
///
/// # Example
///
/// ```
/// use raven_kinematics::ArmConfig;
/// use raven_math::Vec3;
///
/// let arm = ArmConfig::builder()
///     .remote_center(Vec3::new(0.0, 0.1, 0.0))
///     .build();
/// assert_eq!(arm.remote_center.y, 0.1);
/// ```
///
/// The link arc angles are fixed once built (read them through
/// [`ArmConfig::alpha1`] / [`ArmConfig::alpha2`]), so their sines and
/// cosines are computed once in [`ArmConfigBuilder::build`] and every
/// FK and IK evaluation reads the cached [`LinkTrig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArmConfig {
    alpha1: f64,
    alpha2: f64,
    trig: LinkTrig,
    /// Remote center (surgical port) in the base frame (meters).
    pub remote_center: Vec3,
    /// Cable coupling between joint and motor space.
    pub coupling: CouplingMatrix,
    /// Mechanical joint ranges.
    pub limits: JointLimits,
}

impl ArmConfig {
    /// The left arm of a RAVEN II (link angles 75°/52°, port at origin).
    pub fn raven_ii_left() -> Self {
        ArmConfig::builder().build()
    }

    /// The right arm: mirrored about the sagittal plane (port offset along
    /// +X; geometry otherwise identical because the mechanism is symmetric).
    pub fn raven_ii_right() -> Self {
        ArmConfig::builder().remote_center(Vec3::new(0.30, 0.0, 0.0)).build()
    }

    /// Starts building a custom arm.
    pub fn builder() -> ArmConfigBuilder {
        ArmConfigBuilder::default()
    }

    /// First link arc angle α1 (radians); 75° on RAVEN II.
    pub fn alpha1(&self) -> f64 {
        self.alpha1
    }

    /// Second link arc angle α2 (radians); 52° on RAVEN II.
    pub fn alpha2(&self) -> f64 {
        self.alpha2
    }

    /// Sines and cosines of the link arc angles, computed when the arm was
    /// built.
    pub fn link_trig(&self) -> LinkTrig {
        self.trig
    }

    /// End-effector position for the positioning joints (forward
    /// kinematics).
    pub fn position(&self, joints: &JointState) -> Vec3 {
        spherical::position(self, joints)
    }

    /// [`ArmConfig::position`] from the shoulder's and elbow's
    /// `(sin, cos)` and the insertion depth: the call-free FK core that
    /// `position` itself ends in, so it returns the same bits as
    /// `position(&JointState::new(shoulder, elbow, insertion))` when given
    /// `shoulder.sin_cos()` and `elbow.sin_cos()`. For callers that make
    /// their libm calls for many poses first, in whole-row loops.
    ///
    /// ```
    /// use raven_kinematics::{ArmConfig, JointState};
    ///
    /// let arm = ArmConfig::raven_ii_left();
    /// let (shoulder, elbow, insertion) = (0.3_f64, 1.4_f64, 0.28);
    /// let tip = arm.position_from_sin_cos(shoulder.sin_cos(), elbow.sin_cos(), insertion);
    /// assert_eq!(tip, arm.position(&JointState::new(shoulder, elbow, insertion)));
    /// ```
    pub fn position_from_sin_cos(
        &self,
        shoulder: (f64, f64),
        elbow: (f64, f64),
        insertion: f64,
    ) -> Vec3 {
        spherical::position_from_sin_cos(self, shoulder, elbow, insertion)
    }

    /// Inverse kinematics for an end-effector position.
    ///
    /// # Errors
    ///
    /// Returns [`IkError`] when the target is non-finite, at the remote
    /// center, or outside the mechanism's directional workspace. Joint
    /// limits are *not* applied here — the control software checks them
    /// separately (that ordering is part of the attack surface the paper
    /// describes).
    pub fn inverse(&self, position: Vec3) -> Result<JointState, IkError> {
        spherical::inverse(self, position)
    }

    /// Convenience: joint state to motor state through the coupling.
    pub fn joints_to_motors(&self, joints: &JointState) -> MotorState {
        self.coupling.joints_to_motors(joints)
    }

    /// Convenience: motor state to joint state through the coupling.
    pub fn motors_to_joints(&self, motors: &MotorState) -> JointState {
        self.coupling.motors_to_joints(motors)
    }

    /// End-effector position reached by a motor state (coupling + FK).
    pub fn motor_to_position(&self, motors: &MotorState) -> Vec3 {
        self.position(&self.motors_to_joints(motors))
    }

    /// A safe mid-workspace joint configuration (homing target).
    pub fn home_joints(&self) -> JointState {
        self.limits.center()
    }
}

impl Default for ArmConfig {
    fn default() -> Self {
        ArmConfig::raven_ii_left()
    }
}

/// Sines and cosines of the two link arc angles of an [`ArmConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkTrig {
    /// `sin α1`.
    pub sa1: f64,
    /// `cos α1`.
    pub ca1: f64,
    /// `sin α2`.
    pub sa2: f64,
    /// `cos α2`.
    pub ca2: f64,
}

impl LinkTrig {
    fn new(alpha1: f64, alpha2: f64) -> Self {
        let (sa1, ca1) = alpha1.sin_cos();
        let (sa2, ca2) = alpha2.sin_cos();
        LinkTrig { sa1, ca1, sa2, ca2 }
    }
}

/// Builder for [`ArmConfig`].
#[derive(Debug, Clone)]
pub struct ArmConfigBuilder {
    alpha1: f64,
    alpha2: f64,
    remote_center: Vec3,
    coupling: CouplingMatrix,
    limits: JointLimits,
}

impl Default for ArmConfigBuilder {
    fn default() -> Self {
        ArmConfigBuilder {
            alpha1: raven_math::angles::deg_to_rad(75.0),
            alpha2: raven_math::angles::deg_to_rad(52.0),
            remote_center: Vec3::ZERO,
            coupling: CouplingMatrix::raven_ii(),
            limits: JointLimits::raven_ii(),
        }
    }
}

impl ArmConfigBuilder {
    /// Sets the first link arc angle (radians).
    ///
    /// # Panics
    ///
    /// Panics if the angle is not strictly between 0 and π (the spherical
    /// mechanism degenerates otherwise).
    pub fn alpha1(mut self, radians: f64) -> Self {
        assert!(radians > 0.0 && radians < std::f64::consts::PI, "alpha1 out of (0, π)");
        self.alpha1 = radians;
        self
    }

    /// Sets the second link arc angle (radians).
    ///
    /// # Panics
    ///
    /// Panics if the angle is not strictly between 0 and π.
    pub fn alpha2(mut self, radians: f64) -> Self {
        assert!(radians > 0.0 && radians < std::f64::consts::PI, "alpha2 out of (0, π)");
        self.alpha2 = radians;
        self
    }

    /// Sets the remote center (surgical port) position.
    pub fn remote_center(mut self, at: Vec3) -> Self {
        self.remote_center = at;
        self
    }

    /// Sets the joint/motor coupling.
    pub fn coupling(mut self, coupling: CouplingMatrix) -> Self {
        self.coupling = coupling;
        self
    }

    /// Sets the joint limits.
    pub fn limits(mut self, limits: JointLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Finalizes the configuration and computes its [`LinkTrig`].
    pub fn build(self) -> ArmConfig {
        ArmConfig {
            alpha1: self.alpha1,
            alpha2: self.alpha2,
            trig: LinkTrig::new(self.alpha1, self.alpha2),
            remote_center: self.remote_center,
            coupling: self.coupling,
            limits: self.limits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_arm_is_left() {
        assert_eq!(ArmConfig::default(), ArmConfig::raven_ii_left());
    }

    #[test]
    fn right_arm_is_offset() {
        let l = ArmConfig::raven_ii_left();
        let r = ArmConfig::raven_ii_right();
        assert_ne!(l.remote_center, r.remote_center);
        assert_eq!(l.alpha1(), r.alpha1());
    }

    #[test]
    fn builder_overrides() {
        let arm = ArmConfig::builder()
            .alpha1(1.0)
            .alpha2(0.8)
            .remote_center(Vec3::new(1.0, 2.0, 3.0))
            .build();
        assert_eq!(arm.alpha1(), 1.0);
        assert_eq!(arm.alpha2(), 0.8);
        assert_eq!(arm.remote_center, Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "alpha1")]
    fn degenerate_alpha_panics() {
        let _ = ArmConfig::builder().alpha1(0.0);
    }

    #[test]
    fn home_is_within_limits_and_reachable() {
        let arm = ArmConfig::raven_ii_left();
        let home = arm.home_joints();
        assert!(arm.limits.contains(&home));
        let back = arm.inverse(arm.position(&home)).unwrap();
        assert!((back.shoulder - home.shoulder).abs() < 1e-9);
    }

    #[test]
    fn motor_to_position_composes() {
        let arm = ArmConfig::raven_ii_left();
        let j = JointState::new(0.4, 1.2, 0.3);
        let m = arm.joints_to_motors(&j);
        let p = arm.motor_to_position(&m);
        assert!((p - arm.position(&j)).norm() < 1e-9);
    }
}
