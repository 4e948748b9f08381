//! Detection features: the "instant velocity and acceleration" statistics
//! of the paper's §IV.C.
//!
//! For a candidate DAC command, the detector predicts the next plant state
//! with the real-time model and computes, per positioning axis:
//!
//! * **motor acceleration** — change of motor velocity over one step;
//! * **motor velocity** — predicted next motor velocity;
//! * **joint velocity** — predicted next joint velocity;
//!
//! plus the predicted **end-effector step** (meters over one control
//! period), which the paper's safety rule caps at 1 mm per 1–2 ms.
//!
//! [`BatchDetector::assess_lanes`](crate::BatchDetector::assess_lanes)
//! computes them for every lane at once, reading the predictions straight
//! from the estimator batch's state rows.

use raven_kinematics::NUM_AXES;
use serde::{Deserialize, Serialize};

/// Per-axis instant features for one candidate command.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct InstantFeatures {
    /// |Δ motor velocity| / dt per axis (rad/s²).
    pub motor_accel: [f64; NUM_AXES],
    /// |predicted motor velocity| per axis (rad/s).
    pub motor_vel: [f64; NUM_AXES],
    /// |predicted joint velocity| per axis (rad/s, rad/s, m/s).
    pub joint_vel: [f64; NUM_AXES],
    /// Predicted end-effector displacement over one step (meters).
    pub ee_step: f64,
}

impl InstantFeatures {
    /// Iterates the nine (variable, axis) magnitudes in a fixed order:
    /// motor_accel[0..3], motor_vel[0..3], joint_vel[0..3].
    pub fn flattened(&self) -> [f64; 3 * NUM_AXES] {
        [
            self.motor_accel[0],
            self.motor_accel[1],
            self.motor_accel[2],
            self.motor_vel[0],
            self.motor_vel[1],
            self.motor_vel[2],
            self.joint_vel[0],
            self.joint_vel[1],
            self.joint_vel[2],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattened_order_is_stable() {
        let f = InstantFeatures {
            motor_accel: [1.0, 2.0, 3.0],
            motor_vel: [4.0, 5.0, 6.0],
            joint_vel: [7.0, 8.0, 9.0],
            ee_step: 0.0,
        };
        assert_eq!(f.flattened(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
    }
}
