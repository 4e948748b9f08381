//! DC motor models.
//!
//! The RAVEN II drives its positioning axes with Maxon RE40 motors and the
//! instrument axes with RE30s (paper §IV.A.1: "modeling the MAXON RE40 and
//! RE30 DC motors used by the robot"). We model the mechanical side — the
//! electrical time constant (~0.1 ms) is far below the 1 ms control period,
//! so the current loop is treated as ideal: commanded current maps directly
//! to shaft torque through the torque constant.

use serde::{Deserialize, Serialize};

/// Parameters of one brushed DC motor (mechanical side).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MotorParams {
    /// Torque constant `Kt` (N·m/A).
    pub torque_constant: f64,
    /// Rotor + capstan inertia (kg·m²).
    pub rotor_inertia: f64,
    /// Viscous friction at the shaft (N·m·s/rad).
    pub viscous_friction: f64,
    /// Coulomb friction magnitude at the shaft (N·m).
    pub coulomb_friction: f64,
    /// Maximum continuous current (A); the amplifier saturates here.
    pub max_current: f64,
}

impl MotorParams {
    /// Maxon RE40 (150 W): Kt = 60.3 mN·m/A, rotor inertia 134 g·cm²
    /// (datasheet values; capstan adds ~20%).
    pub fn maxon_re40() -> Self {
        MotorParams {
            torque_constant: 0.0603,
            rotor_inertia: 1.6e-5,
            viscous_friction: 1.2e-5,
            coulomb_friction: 4.0e-3,
            max_current: 3.0,
        }
    }

    /// Maxon RE30 (60 W): Kt = 25.9 mN·m/A, rotor inertia 34.5 g·cm².
    pub fn maxon_re30() -> Self {
        MotorParams {
            torque_constant: 0.0259,
            rotor_inertia: 4.2e-6,
            viscous_friction: 6.0e-6,
            coulomb_friction: 2.0e-3,
            max_current: 3.0,
        }
    }

    /// Shaft torque for a commanded current, with amplifier saturation.
    pub fn torque_from_current(&self, current: f64) -> f64 {
        self.torque_constant * current.clamp(-self.max_current, self.max_current)
    }

    /// Stall torque at the amplifier's current limit.
    pub fn max_torque(&self) -> f64 {
        self.torque_constant * self.max_current
    }
}

/// The smoothed sign of shaft velocity `omega` (rad/s) that scales the
/// Coulomb friction: `tanh(ω / 2.0)`, the motor's one libm call.
///
/// The smoothing keeps the dynamics integrable at the 1 ms Euler step the
/// paper's real-time model uses (motor shafts spin at hundreds of rad/s in
/// operation, so the 2 rad/s smoothing band is far below working speeds).
#[inline]
pub(crate) fn coulomb_sign(omega: f64) -> f64 {
    (omega / 2.0).tanh()
}

/// Total friction torque opposing shaft velocity `omega`, given
/// `sign = coulomb_sign(omega)`: viscous plus smoothed Coulomb friction.
/// Call-free, so the right-hand side can run it after its libm calls.
#[inline]
pub(crate) fn friction(viscous: f64, coulomb: f64, omega: f64, sign: f64) -> f64 {
    viscous * omega + coulomb * sign
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torque_is_linear_below_saturation() {
        let m = MotorParams::maxon_re40();
        assert!((m.torque_from_current(1.0) - 0.0603).abs() < 1e-12);
        assert!((m.torque_from_current(-2.0) + 0.1206).abs() < 1e-12);
    }

    #[test]
    fn amplifier_saturates() {
        let m = MotorParams::maxon_re40();
        assert_eq!(m.torque_from_current(100.0), m.max_torque());
        assert_eq!(m.torque_from_current(-100.0), -m.max_torque());
    }

    /// Friction at `omega` on the motor's own constants.
    fn friction_at(m: &MotorParams, omega: f64) -> f64 {
        friction(m.viscous_friction, m.coulomb_friction, omega, coulomb_sign(omega))
    }

    #[test]
    fn friction_opposes_motion_and_is_odd() {
        let m = MotorParams::maxon_re40();
        for w in [0.1, 1.0, 50.0, 400.0] {
            assert!(friction_at(&m, w) > 0.0);
            assert!((friction_at(&m, -w) + friction_at(&m, w)).abs() < 1e-15);
        }
        assert_eq!(friction_at(&m, 0.0), 0.0);
    }

    #[test]
    fn coulomb_dominates_at_low_speed_viscous_at_high() {
        let m = MotorParams::maxon_re40();
        let low = friction_at(&m, 0.5);
        assert!((low - m.coulomb_friction * (0.5_f64 / 2.0).tanh()).abs() < 1e-5);
        let high = friction_at(&m, 2000.0);
        assert!(high > m.viscous_friction * 2000.0);
        assert!(high < m.viscous_friction * 2000.0 + m.coulomb_friction * 1.01);
    }

    #[test]
    fn re30_is_smaller_than_re40() {
        let a = MotorParams::maxon_re40();
        let b = MotorParams::maxon_re30();
        assert!(b.torque_constant < a.torque_constant);
        assert!(b.rotor_inertia < a.rotor_inertia);
        assert!(b.max_torque() < a.max_torque());
    }
}
