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

use raven_dynamics::PlantState;
use raven_kinematics::{ArmConfig, NUM_AXES};
use raven_math::Vec3;
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
    /// Computes features from the current state and the model's one-step
    /// prediction, given `ee_now`, the current state's end-effector
    /// position (`arm.position(&current.joint_pos())`).
    ///
    /// The detector's assessment needs FK of the *current* state twice —
    /// once for the one-step `ee_step` feature and once as the start point
    /// of the lookahead rollout. FK is pure, so hoisting it to the caller
    /// and sharing the result is bit-identical to recomputing it (pinned
    /// by `verdict_features_match_the_iterated_scalar_model` in
    /// `tests/batch_equiv.rs`), and saves one trig-heavy evaluation per
    /// armed cycle.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    pub fn compute(
        arm: &ArmConfig,
        current: &PlantState,
        predicted: &PlantState,
        dt: f64,
        ee_now: Vec3,
    ) -> Self {
        assert!(dt.is_finite() && dt > 0.0, "invalid feature dt {dt}");
        let mv_now = current.motor_vel();
        let mv_next = predicted.motor_vel();
        let jv_next = predicted.joint_vel();
        let mut motor_accel = [0.0; NUM_AXES];
        let mut motor_vel = [0.0; NUM_AXES];
        let mut joint_vel = [0.0; NUM_AXES];
        for i in 0..NUM_AXES {
            motor_accel[i] = ((mv_next[i] - mv_now[i]) / dt).abs();
            motor_vel[i] = mv_next[i].abs();
            joint_vel[i] = jv_next[i].abs();
        }
        let ee_next = arm.position(&predicted.joint_pos());
        InstantFeatures { motor_accel, motor_vel, joint_vel, ee_step: ee_now.distance(ee_next) }
    }

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
    use raven_dynamics::{PlantParams, RtModel};
    use raven_kinematics::JointState;

    /// The arm, its plant, a resting state and that state's end-effector
    /// position.
    fn setup() -> (ArmConfig, PlantParams, PlantState, Vec3) {
        let params = PlantParams::raven_ii();
        let arm = ArmConfig::builder().coupling(params.coupling()).build();
        let state = params.rest_state(JointState::new(0.0, 1.4, 0.25));
        let ee = arm.position(&state.joint_pos());
        (arm, params, state, ee)
    }

    #[test]
    fn rest_prediction_has_small_features() {
        let (arm, params, state, ee) = setup();
        let model = RtModel::new(params);
        let predicted = model.predict(&state, &[0, 0, 0]);
        let f = InstantFeatures::compute(&arm, &state, &predicted, 1e-3, ee);
        // Gravity sag only: everything small.
        for v in f.flattened() {
            assert!(v.is_finite());
        }
        assert!(f.ee_step < 1e-4, "resting arm should not step {}", f.ee_step);
    }

    #[test]
    fn violent_command_produces_large_features() {
        let (arm, params, state, ee) = setup();
        let model = RtModel::new(params);
        let quiet = model.predict(&state, &[100, 0, 0]);
        let violent = model.predict(&state, &[30_000, 0, 0]);
        let fq = InstantFeatures::compute(&arm, &state, &quiet, 1e-3, ee);
        let fv = InstantFeatures::compute(&arm, &state, &violent, 1e-3, ee);
        assert!(fv.motor_accel[0] > 10.0 * fq.motor_accel[0].max(1.0));
        assert!(fv.motor_vel[0] > fq.motor_vel[0]);
    }

    #[test]
    fn features_are_absolute_values() {
        let (arm, params, state, ee) = setup();
        let model = RtModel::new(params);
        let neg = model.predict(&state, &[-30_000, 0, 0]);
        let f = InstantFeatures::compute(&arm, &state, &neg, 1e-3, ee);
        for v in f.flattened() {
            assert!(v >= 0.0);
        }
    }

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

    #[test]
    #[should_panic(expected = "invalid feature dt")]
    fn zero_dt_panics() {
        let (arm, _, state, ee) = setup();
        let _ = InstantFeatures::compute(&arm, &state, &state, 0.0, ee);
    }
}
