//! Bit-identity of the ODE right-hand side against an independent oracle.
//!
//! `plant::derivative` and the batch kernel make every libm call first and
//! then run call-free arithmetic through one shared core. `batch_equiv`
//! compares those two paths with each other, so a mistake in the shared
//! core would pass it. This suite compares them with a verbatim copy of
//! the right-hand side as it was written before, with each `tanh`,
//! `sin` and `cos` interleaved with the arithmetic that reads it. Every
//! output must match it bit for bit: the plant's derivative and its
//! control period (brakes on and off), `RtModel::predict` under Euler and
//! RK4, and a 3-lane `BatchModel::step_lanes`.

use proptest::prelude::*;
use raven_dynamics::plant::derivative;
use raven_dynamics::{
    BatchModel, LinkParams, MotorParams, PlantParams, PlantState, RavenPlant, RtModel,
    RtModelConfig,
};
use raven_kinematics::{JointState, NUM_AXES};
use raven_math::ode::Method;

/// The call-interleaved right-hand side, copied verbatim from
/// `plant::derivative`, `MotorParams::friction` and the `LinkParams`
/// helpers before the libm-first rewrite. Test-only: nothing else may
/// call it.
mod reference {
    use super::*;

    fn motor_friction(m: &MotorParams, omega: f64) -> f64 {
        m.viscous_friction * omega + m.coulomb_friction * (omega / 2.0).tanh()
    }

    fn u_z(p: &LinkParams, elbow: f64) -> f64 {
        -p.sin_a1_sin_a2 * elbow.cos() + p.cos_a1_cos_a2
    }

    fn du_z(p: &LinkParams, elbow: f64) -> f64 {
        p.sin_a1_sin_a2 * elbow.sin()
    }

    fn inertia(p: &LinkParams, elbow: f64, insertion: f64) -> [f64; 3] {
        let uz = u_z(p, elbow);
        let lever_sq = insertion * insertion * (1.0 - uz * uz).max(0.0);
        [
            p.shoulder_inertia + p.tool_mass * lever_sq,
            p.elbow_inertia + p.tool_mass * insertion * insertion,
            p.tool_mass,
        ]
    }

    fn gravity_load(p: &LinkParams, elbow: f64, insertion: f64) -> [f64; 3] {
        let g = p.gravity * p.tool_mass;
        [0.0, g * insertion * du_z(p, elbow), g * u_z(p, elbow)]
    }

    fn link_friction(p: &LinkParams, qd: &[f64; 3]) -> [f64; 3] {
        let mut f = [0.0; 3];
        for i in 0..3 {
            f[i] = p.viscous[i] * qd[i] + p.coulomb[i] * (qd[i] / 0.02).tanh();
        }
        f
    }

    fn acceleration(p: &LinkParams, q: &[f64; 3], qd: &[f64; 3], tau: &[f64; 3]) -> [f64; 3] {
        let (elbow, insertion) = (q[1], q[2]);
        let m = inertia(p, elbow, insertion);
        let grav = gravity_load(p, elbow, insertion);
        let fric = link_friction(p, qd);

        let uz = u_z(p, elbow);
        let duz = du_z(p, elbow);
        let dm11_dq2 = -2.0 * p.tool_mass * insertion * insertion * uz * duz;
        let dm11_dq3 = 2.0 * p.tool_mass * insertion * (1.0 - uz * uz).max(0.0);
        let dm22_dq3 = 2.0 * p.tool_mass * insertion;

        let c1 = (dm11_dq2 * qd[1] + dm11_dq3 * qd[2]) * qd[0];
        let c2 = dm22_dq3 * qd[2] * qd[1] - 0.5 * dm11_dq2 * qd[0] * qd[0];
        let c3 = -0.5 * (dm11_dq3 * qd[0] * qd[0] + dm22_dq3 * qd[1] * qd[1]);

        [
            (tau[0] - c1 - grav[0] - fric[0]) / m[0],
            (tau[1] - c2 - grav[1] - fric[1]) / m[1],
            (tau[2] - c3 - grav[2] - fric[2]) / m[2],
        ]
    }

    pub fn derivative(params: &PlantParams, x: &[f64; 12], tau_m: &[f64; NUM_AXES]) -> [f64; 12] {
        let mpos = [x[0], x[1], x[2]];
        let mvel = [x[3], x[4], x[5]];
        let jpos = [x[6], x[7], x[8]];
        let jvel = [x[9], x[10], x[11]];

        let (k21, k31, k32) = params.routing;
        let kq = [jpos[0], k21 * jpos[0] + jpos[1], k31 * jpos[0] + k32 * jpos[1] + jpos[2]];
        let kqd = [jvel[0], k21 * jvel[0] + jvel[1], k31 * jvel[0] + k32 * jvel[1] + jvel[2]];

        let mut f = [0.0; NUM_AXES];
        let mut mdot = [0.0; NUM_AXES];
        for i in 0..NUM_AXES {
            let cable = &params.cables[i];
            let stretch = mpos[i] / cable.ratio - kq[i];
            let stretch_rate = mvel[i] / cable.ratio - kqd[i];
            f[i] = cable.stiffness * stretch + cable.damping * stretch_rate;
            let reaction = f[i] / cable.ratio;
            let friction = motor_friction(&params.motors[i], mvel[i]);
            mdot[i] = (tau_m[i] - friction - reaction) / params.motors[i].rotor_inertia;
        }
        let tau_cable = [f[0] + k21 * f[1] + k31 * f[2], f[1] + k32 * f[2], f[2]];

        let jdot = acceleration(&params.links, &jpos, &jvel, &tau_cable);

        [
            mvel[0], mvel[1], mvel[2], //
            mdot[0], mdot[1], mdot[2], //
            jvel[0], jvel[1], jvel[2], //
            jdot[0], jdot[1], jdot[2], //
        ]
    }

    /// One control period of `RavenPlant` before the rewrite: 10 RK4
    /// substeps, with the motor shafts clamped while braked.
    pub fn control_period(
        params: &PlantParams,
        x0: &[f64; 12],
        tau: &[f64; NUM_AXES],
        braked: bool,
    ) -> [f64; 12] {
        let substeps = RavenPlant::DEFAULT_SUBSTEPS;
        let h = RavenPlant::CONTROL_PERIOD / f64::from(substeps);
        let torques = if braked { [0.0; NUM_AXES] } else { *tau };
        let mut x = *x0;
        for _ in 0..substeps {
            if braked {
                let frozen = x;
                let deriv = |x: &[f64; 12], _t: f64| {
                    let mut x_clamped = *x;
                    for i in 0..3 {
                        x_clamped[i] = frozen[i];
                        x_clamped[3 + i] = 0.0;
                    }
                    let mut d = derivative(params, &x_clamped, &torques);
                    d[..6].fill(0.0);
                    d
                };
                x = Method::Rk4.step(&x, 0.0, h, &deriv);
                x[..3].copy_from_slice(&frozen[..3]);
                x[3..6].fill(0.0);
            } else {
                x = Method::Rk4
                    .step(&x, 0.0, h, &|x: &[f64; 12], _t: f64| derivative(params, x, &torques));
            }
        }
        x
    }
}

/// A velocity whose Coulomb smoothing `tanh(v / band)` sees every regime:
/// ordinary arguments, both signed zeros, saturated arguments (|x| ≥ 22,
/// where `tanh` returns ±1) and tiny ones (|x| < 2⁻⁵⁵, where it returns x).
fn velocity(band: f64) -> impl Strategy<Value = f64> {
    prop_oneof![
        (-30.0..30.0f64).prop_map(move |u| u * band),
        (-30.0..30.0f64).prop_map(move |u| u * band),
        Just(0.0),
        Just(-0.0),
        (22.0..500.0f64, any::<bool>()).prop_map(move |(u, neg)| (if neg { -u } else { u }) * band),
        (-1.0..1.0f64).prop_map(move |u| u * band * 2f64.powi(-56)),
    ]
}

/// A plant state: a pose anywhere in the elbow's trig range, cable
/// stretch about the rest pose, and velocities from [`velocity`]. A
/// braked state has its shafts stopped, as `engage_brakes` leaves them.
fn state() -> impl Strategy<Value = [f64; 12]> {
    (
        (-1.5..1.5f64, -3.5..3.5f64, 0.05..0.45f64),
        prop::array::uniform3(-0.3..0.3f64),
        prop::array::uniform3(velocity(2.0)),
        prop::array::uniform3(velocity(0.02)),
        any::<bool>(),
    )
        .prop_map(|((s, e, i), stretch, mvel, jvel, braked)| {
            let params = PlantParams::raven_ii();
            let mut x = params.rest_state(JointState::new(s, e, i)).x;
            for a in 0..NUM_AXES {
                x[a] += stretch[a];
                x[3 + a] = if braked { 0.0 } else { mvel[a] };
                x[9 + a] = jvel[a];
            }
            x
        })
}

/// Shaft torques, signed zeros included.
fn torques() -> impl Strategy<Value = [f64; NUM_AXES]> {
    prop::array::uniform3(prop_oneof![-0.4..0.4f64, Just(0.0), Just(-0.0)])
}

/// A parameter set: the nominal robot or a perturbed model of it.
fn params() -> impl Strategy<Value = PlantParams> {
    (0..64u64, 0.0..0.05f64).prop_map(|(seed, fraction)| {
        let nominal = PlantParams::raven_ii();
        if seed == 0 {
            nominal
        } else {
            nominal.perturbed(seed, fraction)
        }
    })
}

fn method() -> impl Strategy<Value = Method> {
    prop_oneof![Just(Method::Euler), Just(Method::Rk4)]
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn derivative_matches_the_call_interleaved_oracle(
        params in params(),
        x in state(),
        tau in torques(),
    ) {
        let want = reference::derivative(&params, &x, &tau);
        prop_assert_eq!(bits(&derivative(&params, &x, &tau)), bits(&want));
    }

    #[test]
    fn plant_periods_match_the_oracle_braked_and_released(
        params in params(),
        x in state(),
        tau in torques(),
        braked in any::<bool>(),
    ) {
        let mut plant = RavenPlant::with_state(params, PlantState { x, wrist: [0.0; 4] });
        if !braked {
            plant.release_brakes();
        }
        let mut want = x;
        for period in 0..3 {
            plant.step_control_period(&tau);
            want = reference::control_period(&params, &want, &tau, braked);
            prop_assert!(bits(&plant.state().x) == bits(&want), "period {period}");
        }
    }

    #[test]
    fn rt_model_predict_matches_the_oracle(
        params in params(),
        x in state(),
        tau in torques(),
        method in method(),
    ) {
        let model = RtModel::with_config(params, RtModelConfig { method, step_size: 1e-3 });
        let got = model.predict_torque(&PlantState { x, wrist: [0.0; 4] }, &tau);
        let want = method.step(&x, 0.0, 1e-3, &|x: &[f64; 12], _t: f64| {
            reference::derivative(&params, x, &tau)
        });
        prop_assert!(bits(&got.x) == bits(&want), "{method}");
    }

    #[test]
    fn three_batch_lanes_match_the_oracle(
        lanes in prop::array::uniform3((params(), state(), torques())),
        method in method(),
    ) {
        let config = RtModelConfig { method, step_size: 1e-3 };
        let mut batch = BatchModel::with_params(&lanes.map(|(p, _, _)| p), config);
        for (l, (_, x, tau)) in lanes.iter().enumerate() {
            batch.load_state(l, &PlantState { x: *x, wrist: [0.0; 4] });
            batch.set_torque(l, tau);
        }
        let mut want = lanes.map(|(_, x, _)| x);
        for step in 0..2 {
            batch.step_lanes();
            for (l, (params, _, tau)) in lanes.iter().enumerate() {
                want[l] = method.step(&want[l], 0.0, 1e-3, &|x: &[f64; 12], _t: f64| {
                    reference::derivative(params, x, tau)
                });
                prop_assert!(
                    bits(&batch.state(l).x) == bits(&want[l]),
                    "{method} lane {l} step {step}"
                );
            }
        }
    }
}
