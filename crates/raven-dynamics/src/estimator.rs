//! The real-time dynamic model (the detector's one-step-ahead predictor).
//!
//! "At each cycle of software control loop the model receives the same
//! control commands (DAC values) sent to the physical robot … and estimates
//! the next motor and joint positions" (paper §IV.A.1). [`RtModel`] is that
//! component: given the current (measured or tracked) plant state and the
//! DAC command about to be executed, it predicts the state one control
//! period ahead using a single Euler or RK4 step — cheap enough to run well
//! inside the 1 ms budget (the paper measures 0.011 ms/step for Euler,
//! 0.032 ms/step for RK4; Fig. 8).

use raven_kinematics::NUM_AXES;
use raven_math::ode::Method;
use serde::{Deserialize, Serialize};

use crate::params::PlantParams;
use crate::plant::derivative;
use crate::state::{PlantState, ODE_DIM};

/// Configuration of the real-time model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RtModelConfig {
    /// Integration method (the paper compares Euler and RK4).
    pub method: Method,
    /// Step size in seconds; the paper uses the 1 ms control period.
    pub step_size: f64,
}

impl Default for RtModelConfig {
    fn default() -> Self {
        RtModelConfig { method: Method::Euler, step_size: 1e-3 }
    }
}

/// One-step-ahead predictor over the plant dynamics.
///
/// # Example
///
/// ```
/// use raven_dynamics::{PlantParams, PlantState, RtModel};
/// use raven_kinematics::JointState;
///
/// let params = PlantParams::raven_ii();
/// let model = RtModel::new(params);
/// let state = params.rest_state(JointState::new(0.0, 1.4, 0.25));
/// let next = model.predict(&state, &[500, 0, 0]);
/// assert!(next.motor_vel()[0] > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct RtModel {
    params: PlantParams,
    config: RtModelConfig,
    /// Tracked model state, for running the model in parallel with the
    /// robot (Fig. 8's validation mode).
    tracked: Option<PlantState>,
}

impl RtModel {
    /// Creates a model with Euler @ 1 ms (the paper's production choice).
    pub fn new(params: PlantParams) -> Self {
        Self::with_config(params, RtModelConfig::default())
    }

    /// Creates a model with an explicit integrator configuration.
    ///
    /// # Panics
    ///
    /// Panics if the step size is not positive and finite.
    pub fn with_config(params: PlantParams, config: RtModelConfig) -> Self {
        assert!(
            config.step_size.is_finite() && config.step_size > 0.0,
            "invalid model step size {}",
            config.step_size
        );
        RtModel { params, config, tracked: None }
    }

    /// The model's parameter set (possibly perturbed relative to the plant).
    pub fn params(&self) -> &PlantParams {
        &self.params
    }

    /// The integrator configuration.
    pub fn config(&self) -> RtModelConfig {
        self.config
    }

    /// Predicts the state one step ahead of `state` under DAC command `dac`.
    pub fn predict(&self, state: &PlantState, dac: &[i16; NUM_AXES]) -> PlantState {
        let tau = self.params.dac_to_torque(dac);
        self.predict_torque(state, &tau)
    }

    /// Predicts one step ahead under explicit shaft torques.
    pub fn predict_torque(&self, state: &PlantState, tau: &[f64; NUM_AXES]) -> PlantState {
        let deriv = |x: &[f64; ODE_DIM], _t: f64| derivative(&self.params, x, tau);
        let x = self.config.method.step(&state.x, 0.0, self.config.step_size, &deriv);
        PlantState { x, wrist: state.wrist }
    }

    /// Starts (or restarts) parallel tracking from a known state.
    pub fn reset_tracking(&mut self, state: PlantState) {
        self.tracked = Some(state);
    }

    /// Advances the tracked state by one step under `dac`, returning the new
    /// tracked state. Used to run the model open-loop in parallel with the
    /// robot, as in the paper's Fig. 8 validation.
    ///
    /// # Panics
    ///
    /// Panics if tracking was never started with [`RtModel::reset_tracking`].
    #[expect(
        clippy::expect_used,
        reason = "documented precondition of the offline Fig. 8 validation loop, which never \
                  runs on the control cycle"
    )]
    pub fn track_step(&mut self, dac: &[i16; NUM_AXES]) -> PlantState {
        let current = self.tracked.expect("call reset_tracking before track_step");
        let next = self.predict(&current, dac);
        self.tracked = Some(next);
        next
    }

    /// The current tracked state, if tracking is active.
    pub fn tracked(&self) -> Option<&PlantState> {
        self.tracked.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plant::RavenPlant;
    use raven_kinematics::JointState;

    fn rest_state(params: &PlantParams) -> PlantState {
        params.rest_state(JointState::new(0.0, 1.4, 0.25))
    }

    #[test]
    fn prediction_moves_commanded_motor() {
        let params = PlantParams::raven_ii();
        let model = RtModel::new(params);
        let s = rest_state(&params);
        let next = model.predict(&s, &[2000, 0, 0]);
        assert!(next.motor_vel()[0] > 0.0);
        assert!(next.is_finite());
    }

    #[test]
    fn euler_and_rk4_agree_to_first_order() {
        let params = PlantParams::raven_ii();
        let euler =
            RtModel::with_config(params, RtModelConfig { method: Method::Euler, step_size: 1e-3 });
        let rk4 =
            RtModel::with_config(params, RtModelConfig { method: Method::Rk4, step_size: 1e-3 });
        let s = rest_state(&params);
        let a = euler.predict(&s, &[1000, -500, 200]);
        let b = rk4.predict(&s, &[1000, -500, 200]);
        // Velocities differ at O(dt) on the light rotors; positions — what
        // the detector thresholds — must agree tightly after one step.
        for i in [0, 1, 2, 6, 7, 8] {
            assert!(
                (a.x[i] - b.x[i]).abs() < 1e-3 * (1.0 + b.x[i].abs()),
                "position component {i}: euler {} vs rk4 {}",
                a.x[i],
                b.x[i]
            );
        }
        // Velocity signs agree wherever the velocity is meaningfully large
        // (near zero, gravity-loaded cable reactions can flip the sign
        // within one step — a sub-encoder-tick effect).
        for i in [3, 4, 5, 9, 10, 11] {
            if a.x[i].abs() > 0.2 && b.x[i].abs() > 0.2 {
                assert!(
                    a.x[i] * b.x[i] >= 0.0,
                    "velocity component {i} changed sign: euler {} vs rk4 {}",
                    a.x[i],
                    b.x[i]
                );
            }
        }
    }

    #[test]
    fn model_tracks_plant_closely_over_short_horizon() {
        // Same parameters, same torque profile: the 1 ms Euler model should
        // stay close to the finely-integrated plant over a 100 ms horizon.
        let params = PlantParams::raven_ii();
        let mut plant = RavenPlant::with_state(params, rest_state(&params));
        plant.release_brakes();
        let mut model = RtModel::new(params);
        model.reset_tracking(*plant.state());

        let mut max_jpos_err: f64 = 0.0;
        for k in 0..100 {
            let dac = [(800.0 * (k as f64 * 0.06).sin()) as i16, 300, -200];
            plant.step_control_period(&[
                params.dac_to_torque(&dac)[0],
                params.dac_to_torque(&dac)[1],
                params.dac_to_torque(&dac)[2],
            ]);
            let predicted = model.track_step(&dac);
            let err = predicted.joint_pos().delta(plant.true_joints()).max_abs();
            max_jpos_err = max_jpos_err.max(err);
        }
        assert!(max_jpos_err < 0.02, "open-loop model diverged: {max_jpos_err}");
    }

    #[test]
    fn tracking_lifecycle() {
        let params = PlantParams::raven_ii();
        let mut model = RtModel::new(params);
        assert!(model.tracked().is_none());
        model.reset_tracking(rest_state(&params));
        assert!(model.tracked().is_some());
        let s1 = model.track_step(&[0, 0, 0]);
        assert_eq!(model.tracked().copied().unwrap(), s1);
    }

    #[test]
    #[should_panic(expected = "reset_tracking")]
    fn track_without_reset_panics() {
        let mut model = RtModel::new(PlantParams::raven_ii());
        let _ = model.track_step(&[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "step size")]
    fn invalid_step_size_panics() {
        let _ = RtModel::with_config(
            PlantParams::raven_ii(),
            RtModelConfig { method: Method::Euler, step_size: 0.0 },
        );
    }

    #[test]
    fn perturbed_model_differs_but_stays_close() {
        let params = PlantParams::raven_ii();
        let exact = RtModel::new(params);
        let rough = RtModel::new(params.perturbed(42, 0.03));
        let s = rest_state(&params);
        let a = exact.predict(&s, &[1500, 0, 0]);
        let b = rough.predict(&s, &[1500, 0, 0]);
        assert_ne!(a.x, b.x);
        assert!((a.motor_vel()[0] - b.motor_vel()[0]).abs() / a.motor_vel()[0].abs() < 0.15);
    }
}
