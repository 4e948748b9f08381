//! Structure-of-arrays batch kernel for the real-time estimator.
//!
//! The paper's detection budget is per control cycle *per robot*
//! (§IV.A.1: 0.011 ms/step Euler, 0.032 ms/step RK4), so a fleet of M
//! teleoperation sessions pays the estimator inner loop M times per
//! millisecond. [`BatchModel`] steps M sessions per call over
//! cache-dense parallel arrays: the 12-dim ODE state, shaft torques,
//! and the per-axis transmission constants are all stored dim-major
//! (`x[dim * lanes + lane]`). A derivative first makes every lane's
//! libm calls in whole-row loops, then runs the cable, motor and link
//! arithmetic through the *same* call-free core the scalar path uses.
//!
//! # Bit-identity contract
//!
//! Every lane of a batched step computes *exactly* the scalar
//! expressions of [`crate::plant::derivative`] and
//! [`raven_math::ode::Method::step`], in the same order, on the same
//! values. IEEE-754 arithmetic is deterministic, so a batch of M lanes
//! is bitwise-equal to M independent [`RtModel::predict`](crate::RtModel::predict) calls — the
//! property the scalar detector relies on when it delegates its own
//! stepping to a 1-lane batch, and the one `tests/batch_equiv.rs` pins
//! under proptest across perturbed parameter sets and both
//! integrators. All scratch (RK4 stages, libm and cable-force rows) is
//! allocated once at construction; stepping never allocates.

use raven_kinematics::{NUM_AXES, WRIST_AXES};
use raven_math::ode::{BatchScratch, Method};

use crate::estimator::RtModelConfig;
use crate::link::{self, LinkLibm, LinkParams};
use crate::motor;
use crate::params::PlantParams;
use crate::plant::Axis;
use crate::state::{PlantState, ODE_DIM};

/// Per-lane parameters, flattened dim-major (`row[axis * lanes + lane]`)
/// so the derivative's lane-inner loops read every operand in lane
/// order.
#[derive(Debug, Clone)]
struct SoaParams {
    lanes: usize,
    /// Cable and motor constants per axis (`NUM_AXES * lanes`).
    axes: Vec<Axis>,
    /// Cable-routing coefficients (`lanes` each).
    k21: Vec<f64>,
    k31: Vec<f64>,
    k32: Vec<f64>,
    /// Link dynamics, evaluated per lane.
    links: Vec<LinkParams>,
}

impl SoaParams {
    fn from_params(params: &[PlantParams]) -> Self {
        let m = params.len();
        let mut soa = SoaParams {
            lanes: m,
            axes: vec![Axis::default(); NUM_AXES * m],
            k21: vec![0.0; m],
            k31: vec![0.0; m],
            k32: vec![0.0; m],
            links: vec![LinkParams::default(); m],
        };
        for (l, p) in params.iter().enumerate() {
            soa.set_lane(l, p);
        }
        soa
    }

    /// Writes one lane's columns; the other lanes' are untouched.
    fn set_lane(&mut self, lane: usize, params: &PlantParams) {
        let m = self.lanes;
        for i in 0..NUM_AXES {
            self.axes[i * m + lane] = Axis::of(params, i);
        }
        (self.k21[lane], self.k31[lane], self.k32[lane]) = params.routing;
        self.links[lane] = params.links;
    }
}

/// Flattened batch derivative: per lane it is *exactly*
/// [`crate::plant::derivative`] (same expressions, same evaluation
/// order, through the same call-free core), restructured so each phase
/// sweeps contiguous lanes. The libm calls come first, in whole-row
/// loops; the arithmetic after them calls nothing. `elbow` receives the
/// elbow's sine row then its cosine row (`2 * lanes`); `phys` is
/// `PHYS_ROWS * lanes` scratch for the Coulomb-sign rows and the
/// `kq` / `kqd` / cable-force rows.
fn derivative_lanes(
    soa: &SoaParams,
    x: &[f64],
    tau: &[f64],
    elbow: &mut [f64],
    phys: &mut [f64],
    out: &mut [f64],
) {
    let m = soa.lanes;
    debug_assert_eq!(x.len(), ODE_DIM * m);
    debug_assert_eq!(out.len(), ODE_DIM * m);
    debug_assert_eq!(tau.len(), NUM_AXES * m);
    debug_assert_eq!(elbow.len(), 2 * m);
    debug_assert_eq!(phys.len(), PHYS_ROWS * m);

    let (mv, jp, jv) = (NUM_AXES * m, 2 * NUM_AXES * m, 3 * NUM_AXES * m);
    let (sin_elbow, cos_elbow) = elbow.split_at_mut(m);
    let (motor_sign, rest) = phys.split_at_mut(NUM_AXES * m);
    let (joint_sign, rest) = rest.split_at_mut(NUM_AXES * m);
    let (kq, rest) = rest.split_at_mut(NUM_AXES * m);
    let (kqd, f) = rest.split_at_mut(NUM_AXES * m);

    // Libm first: the motor and joint Coulomb signs and the elbow's sine
    // and cosine, for every lane.
    for (s, &w) in motor_sign.iter_mut().zip(&x[mv..jp]) {
        *s = motor::coulomb_sign(w);
    }
    for (s, &v) in joint_sign.iter_mut().zip(&x[jv..]) {
        *s = link::coulomb_sign(v);
    }
    for ((s, c), &e) in sin_elbow.iter_mut().zip(cos_elbow.iter_mut()).zip(&x[jp + m..jp + 2 * m]) {
        (*s, *c) = (e.sin(), e.cos());
    }

    // d mpos = mvel, d jpos = jvel: whole-row copies.
    out[..mv].copy_from_slice(&x[mv..jp]);
    out[jp..jv].copy_from_slice(&x[jv..]);

    // Routing rows: kq = K·jpos, kqd = K·jvel (unit-lower-triangular K),
    // matching the scalar `kq` / `kqd` arrays element for element.
    kq[..m].copy_from_slice(&x[jp..jp + m]);
    kqd[..m].copy_from_slice(&x[jv..jv + m]);
    for l in 0..m {
        kq[m + l] = soa.k21[l] * x[jp + l] + x[jp + m + l];
        kqd[m + l] = soa.k21[l] * x[jv + l] + x[jv + m + l];
        kq[2 * m + l] = soa.k31[l] * x[jp + l] + soa.k32[l] * x[jp + m + l] + x[jp + 2 * m + l];
        kqd[2 * m + l] = soa.k31[l] * x[jv + l] + soa.k32[l] * x[jv + m + l] + x[jv + 2 * m + l];
    }

    // Cable forces and motor accelerations, lane-inner over the rows.
    for r in 0..NUM_AXES * m {
        (f[r], out[mv + r]) =
            soa.axes[r].rhs(x[r], x[mv + r], kq[r], kqd[r], tau[r], motor_sign[r]);
    }

    // Joint torques Kᵀ·f and link accelerations, per lane.
    for l in 0..m {
        let tau_cable = [
            f[l] + soa.k21[l] * f[m + l] + soa.k31[l] * f[2 * m + l],
            f[m + l] + soa.k32[l] * f[2 * m + l],
            f[2 * m + l],
        ];
        let jpos = [x[jp + l], x[jp + m + l], x[jp + 2 * m + l]];
        let jvel = [x[jv + l], x[jv + m + l], x[jv + 2 * m + l]];
        let libm = LinkLibm {
            sin_elbow: sin_elbow[l],
            cos_elbow: cos_elbow[l],
            sign: [joint_sign[l], joint_sign[m + l], joint_sign[2 * m + l]],
        };
        let jdot = soa.links[l].acceleration(&jpos, &jvel, &tau_cable, &libm);
        out[jv + l] = jdot[0];
        out[jv + m + l] = jdot[1];
        out[jv + 2 * m + l] = jdot[2];
    }
}

/// Rows of derivative scratch per lane: motor and joint Coulomb signs
/// and the `kq`, `kqd` and cable-force rows (`NUM_AXES` each).
const PHYS_ROWS: usize = 5 * NUM_AXES;

/// M estimator sessions stepped together over structure-of-arrays
/// storage.
///
/// # Example
///
/// ```
/// use raven_dynamics::{BatchModel, PlantParams, RtModel};
/// use raven_kinematics::JointState;
///
/// let params = PlantParams::raven_ii();
/// let state = params.rest_state(JointState::new(0.0, 1.4, 0.25));
/// let scalar = RtModel::new(params);
///
/// let mut batch = BatchModel::with_params(&[params, params.perturbed(7, 0.02)], scalar.config());
/// batch.load_state(0, &state);
/// batch.load_state(1, &state);
/// batch.set_dac(0, &[500, 0, 0]);
/// batch.set_dac(1, &[500, 0, 0]);
/// batch.step_lanes();
///
/// // Lane 0 (exact parameters) is bit-identical to the scalar model.
/// assert_eq!(batch.state(0), scalar.predict(&state, &[500, 0, 0]));
/// ```
#[derive(Debug, Clone)]
pub struct BatchModel {
    config: RtModelConfig,
    params: Vec<PlantParams>,
    soa: SoaParams,
    /// ODE states, dim-major: `x[dim * lanes + lane]`.
    x: Vec<f64>,
    /// Wrist servo positions, carried outside the ODE (`WRIST_AXES * lanes`).
    wrist: Vec<f64>,
    /// Latched shaft torques (`NUM_AXES * lanes`).
    tau: Vec<f64>,
    /// Step output, swapped with `x` after each step.
    next: Vec<f64>,
    /// Integrator scratch: k1..k4 + stage (`5 * ODE_DIM * lanes`).
    k: Vec<f64>,
    /// Derivative scratch: Coulomb-sign and kq/kqd/cable-force rows
    /// (`PHYS_ROWS * lanes`).
    phys: Vec<f64>,
    /// The elbow's sine and cosine rows (`2 * lanes`) of each step's
    /// first derivative evaluation, kept for
    /// [`first_elbow_sin_cos`](Self::first_elbow_sin_cos).
    first_elbow: Vec<f64>,
    /// The same rows for RK4's later stages (`2 * lanes`), overwritten
    /// by each stage.
    stage_elbow: Vec<f64>,
}

impl BatchModel {
    /// Creates a batch with one lane per parameter set, every lane at
    /// the all-zero state with zero latched torque. All lanes share one
    /// integrator configuration (a fleet mixing integrators would break
    /// the single-dispatch step loop).
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty or the step size is not positive and
    /// finite (same contract as [`RtModel::with_config`](crate::RtModel::with_config)).
    pub fn with_params(params: &[PlantParams], config: RtModelConfig) -> Self {
        assert!(!params.is_empty(), "batch model needs at least one lane");
        assert!(
            config.step_size.is_finite() && config.step_size > 0.0,
            "invalid model step size {}",
            config.step_size
        );
        let m = params.len();
        BatchModel {
            config,
            params: params.to_vec(),
            soa: SoaParams::from_params(params),
            x: vec![0.0; ODE_DIM * m],
            wrist: vec![0.0; WRIST_AXES * m],
            tau: vec![0.0; NUM_AXES * m],
            next: vec![0.0; ODE_DIM * m],
            k: vec![0.0; 5 * ODE_DIM * m],
            phys: vec![0.0; PHYS_ROWS * m],
            first_elbow: vec![0.0; 2 * m],
            stage_elbow: vec![0.0; 2 * m],
        }
    }

    /// Number of sessions stepped per call.
    pub fn lanes(&self) -> usize {
        self.soa.lanes
    }

    /// The shared integrator configuration.
    pub fn config(&self) -> RtModelConfig {
        self.config
    }

    /// Rebinds one lane to a new parameter set — the lane-recycling
    /// primitive the fleet monitor uses when a retired session's lane is
    /// re-admitted to a different rig. Updates the lane's SoA columns in
    /// place; the other lanes' columns are untouched, so (per the
    /// bit-identity contract) sibling trajectories are bitwise
    /// unaffected. State and latched torque are *not* reset — callers
    /// re-admitting a lane load fresh state explicitly.
    pub fn set_lane_params(&mut self, lane: usize, params: PlantParams) {
        let m = self.soa.lanes;
        assert!(lane < m, "lane {lane} out of {m}");
        self.params[lane] = params;
        self.soa.set_lane(lane, &params);
    }

    /// Scatters a session state into the lane's SoA columns.
    pub fn load_state(&mut self, lane: usize, state: &PlantState) {
        let m = self.soa.lanes;
        assert!(lane < m, "lane {lane} out of {m}");
        for d in 0..ODE_DIM {
            self.x[d * m + lane] = state.x[d];
        }
        for w in 0..WRIST_AXES {
            self.wrist[w * m + lane] = state.wrist[w];
        }
    }

    /// Gathers one lane back into a session state.
    pub fn state(&self, lane: usize) -> PlantState {
        let m = self.soa.lanes;
        assert!(lane < m, "lane {lane} out of {m}");
        let mut out = PlantState::default();
        for d in 0..ODE_DIM {
            out.x[d] = self.x[d * m + lane];
        }
        for w in 0..WRIST_AXES {
            out.wrist[w] = self.wrist[w * m + lane];
        }
        out
    }

    /// Latches a lane's shaft torques from a DAC command (the same
    /// [`PlantParams::dac_to_torque`] conversion as the scalar path,
    /// done once per command instead of once per integration step).
    pub fn set_dac(&mut self, lane: usize, dac: &[i16; NUM_AXES]) {
        let tau = self.params[lane].dac_to_torque(dac);
        self.set_torque(lane, &tau);
    }

    /// Latches a lane's shaft torques directly.
    pub fn set_torque(&mut self, lane: usize, tau: &[f64; NUM_AXES]) {
        let m = self.soa.lanes;
        assert!(lane < m, "lane {lane} out of {m}");
        for (i, &t) in tau.iter().enumerate() {
            self.tau[i * m + lane] = t;
        }
    }

    /// Advances every lane by one integration step under its latched
    /// torques. Allocation-free: all stage storage was reserved at
    /// construction.
    ///
    /// The step's first derivative evaluation (Euler's only one, RK4's
    /// `k1`) is at the state the step starts from; its elbow sine and
    /// cosine rows stay readable through
    /// [`first_elbow_sin_cos`](Self::first_elbow_sin_cos) until the next
    /// step.
    pub fn step_lanes(&mut self) {
        let BatchModel { config, soa, x, tau, next, k, phys, first_elbow, stage_elbow, .. } = self;
        let n = x.len();
        let (k1, rest) = k.split_at_mut(n);
        let (k2, rest) = rest.split_at_mut(n);
        let (k3, rest) = rest.split_at_mut(n);
        let (k4, stage) = rest.split_at_mut(n);
        let mut scratch = BatchScratch { k1, k2, k3, k4, stage };
        let soa: &SoaParams = soa;
        let tau: &[f64] = tau;
        let phys: &mut [f64] = phys;
        let mut first = true;
        let mut deriv = |xs: &[f64], _t: f64, dxs: &mut [f64]| {
            let elbow =
                if std::mem::take(&mut first) { &mut *first_elbow } else { &mut *stage_elbow };
            derivative_lanes(soa, xs, tau, elbow, phys, dxs)
        };
        config.method.step_batch(x, 0.0, config.step_size, &mut deriv, &mut scratch, next);
        std::mem::swap(x, next);
    }

    /// Advances every lane's motor and joint *positions* by one
    /// integration step, bit-identical to the position rows
    /// [`step_lanes`](Self::step_lanes) would produce — the final step
    /// of a rollout whose result is read only through the position
    /// [`row`](Self::row)s.
    ///
    /// Under [`Method::Euler`] the
    /// derivative of a position row is a copy of its velocity row, so
    /// each position advances as `x[pos] + dt * x[vel]` (the expression
    /// `Method::step_batch` computes for it) with no derivative
    /// evaluation. RK4's position update needs the stage velocities, so
    /// under [`Method::Rk4`] this is a full `step_lanes`.
    ///
    /// Velocity rows are left untouched under Euler: after this call only
    /// the positions are valid, until the next
    /// [`load_state`](Self::load_state) of each lane.
    pub fn step_positions(&mut self) {
        match self.config.method {
            Method::Rk4 => self.step_lanes(),
            Method::Euler => {
                let (m, dt) = (self.soa.lanes, self.config.step_size);
                // Rows `[pos, pos + NUM_AXES)` are positions, the next
                // NUM_AXES rows their velocities.
                for pos in [0, 2 * NUM_AXES] {
                    let rows = &mut self.x[pos * m..(pos + 2 * NUM_AXES) * m];
                    let (p, v) = rows.split_at_mut(NUM_AXES * m);
                    for (p, &v) in p.iter_mut().zip(v.iter()) {
                        *p += dt * v;
                    }
                }
            }
        }
    }

    /// One state dimension across every lane: `row(d)[lane]` is
    /// `state(lane).x[d]`, read in place with no gather.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= ODE_DIM`.
    pub fn row(&self, dim: usize) -> &[f64] {
        assert!(dim < ODE_DIM, "state dimension {dim} out of {ODE_DIM}");
        let m = self.soa.lanes;
        &self.x[dim * m..(dim + 1) * m]
    }

    /// The elbow's sine row and cosine row from the first derivative
    /// evaluation of the last [`step_lanes`](Self::step_lanes): for each
    /// lane, `elbow.sin()` and `elbow.cos()` of the elbow angle that step
    /// started from (the loaded one, for a step right after
    /// [`load_state`](Self::load_state)), under either integrator. They
    /// have the bits of `elbow.sin_cos()`, so forward kinematics of that
    /// pose can reuse them instead of calling libm again. An Euler
    /// [`step_positions`](Self::step_positions) evaluates no derivative
    /// and leaves them as they were.
    pub fn first_elbow_sin_cos(&self) -> (&[f64], &[f64]) {
        self.first_elbow.split_at(self.soa.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::RtModel;
    use raven_kinematics::JointState;

    fn rest(params: &PlantParams) -> PlantState {
        params.rest_state(JointState::new(0.1, 1.3, 0.22))
    }

    #[test]
    fn single_lane_matches_scalar_model_bitwise() {
        for method in Method::all() {
            let params = PlantParams::raven_ii();
            let config = RtModelConfig { method, step_size: 1e-3 };
            let scalar = RtModel::with_config(params, config);
            let mut batch = BatchModel::with_params(&[params], config);
            let mut state = rest(&params);
            state.wrist = [0.1, -0.2, 0.3, 0.05];
            let dac = [1200, -700, 350];
            for _ in 0..50 {
                let expected = scalar.predict(&state, &dac);
                batch.load_state(0, &state);
                batch.set_dac(0, &dac);
                batch.step_lanes();
                let got = batch.state(0);
                assert_eq!(got, expected, "{method} single-lane step diverged");
                state = expected;
            }
        }
    }

    #[test]
    fn lanes_match_independent_scalar_models_bitwise() {
        for method in Method::all() {
            let base = PlantParams::raven_ii();
            let params: Vec<PlantParams> =
                (0..6).map(|l| base.perturbed(l as u64 + 1, 0.03)).collect();
            let config = RtModelConfig { method, step_size: 1e-3 };
            let scalars: Vec<RtModel> =
                params.iter().map(|p| RtModel::with_config(*p, config)).collect();
            let mut batch = BatchModel::with_params(&params, config);
            let mut states: Vec<PlantState> = params.iter().map(rest).collect();
            for step in 0..30 {
                for (l, s) in states.iter().enumerate() {
                    batch.load_state(l, s);
                    let dac = [(step * 100) as i16, -(l as i16) * 300, 250];
                    batch.set_dac(l, &dac);
                }
                batch.step_lanes();
                for (l, s) in states.iter_mut().enumerate() {
                    let dac = [(step * 100) as i16, -(l as i16) * 300, 250];
                    let expected = scalars[l].predict(s, &dac);
                    assert_eq!(batch.state(l), expected, "{method} lane {l} diverged at {step}");
                    *s = expected;
                }
            }
        }
    }

    #[test]
    fn latched_torque_steps_match_repeated_predicts() {
        // Stepping twice under one latched torque must equal two scalar
        // predicts with the same DAC — the lookahead-rollout pattern.
        let params = PlantParams::raven_ii();
        let config = RtModelConfig::default();
        let scalar = RtModel::with_config(params, config);
        let mut batch = BatchModel::with_params(&[params], config);
        let state = rest(&params);
        let dac = [900, 500, -400];
        batch.load_state(0, &state);
        batch.set_dac(0, &dac);
        batch.step_lanes();
        batch.step_lanes();
        let expected = scalar.predict(&scalar.predict(&state, &dac), &dac);
        assert_eq!(batch.state(0), expected);
    }

    #[test]
    fn position_step_matches_full_step_positions_bitwise() {
        let base = PlantParams::raven_ii();
        for method in Method::all() {
            let config = RtModelConfig { method, step_size: 1e-3 };
            for m in [1usize, 64] {
                let params: Vec<PlantParams> =
                    (0..m).map(|l| base.perturbed(l as u64 + 11, 0.03)).collect();
                for prior in 0..=3 {
                    let mut full = BatchModel::with_params(&params, config);
                    for (l, p) in params.iter().enumerate() {
                        let mut s = rest(p);
                        // A moving start, so velocity rows are nonzero.
                        s.x[3] = 0.4 - 0.01 * l as f64;
                        s.x[10] = -0.2 + 0.005 * l as f64;
                        full.load_state(l, &s);
                        full.set_dac(l, &[900 - 20 * l as i16, -600, 300 + 5 * l as i16]);
                    }
                    for _ in 0..prior {
                        full.step_lanes();
                    }
                    let mut positions = full.clone();
                    full.step_lanes();
                    positions.step_positions();
                    for l in 0..m {
                        let (want, got) = (full.state(l), positions.state(l));
                        for d in (0..NUM_AXES).chain(2 * NUM_AXES..3 * NUM_AXES) {
                            assert_eq!(
                                got.x[d].to_bits(),
                                want.x[d].to_bits(),
                                "{method}, {m} lanes, {prior} prior steps: lane {l} row {d}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn first_elbow_rows_have_the_bits_of_the_loaded_elbow_sin_cos() {
        let base = PlantParams::raven_ii();
        let m = 64;
        let params: Vec<PlantParams> =
            (0..m).map(|l| base.perturbed(l as u64 + 21, 0.03)).collect();
        for method in Method::all() {
            let config = RtModelConfig { method, step_size: 1e-3 };
            let mut batch = BatchModel::with_params(&params, config);
            for step in 0..3 {
                let mut elbows = Vec::with_capacity(m);
                for (l, p) in params.iter().enumerate() {
                    // A distinct, moving elbow per lane, so a lane slip or a
                    // later stage's rows fail the comparison.
                    let elbow = 0.4 + 0.029 * l as f64 + 0.1 * step as f64;
                    let mut s = p.rest_state(JointState::new(0.1, elbow, 0.22));
                    s.x[10] = 0.5 - 0.013 * l as f64;
                    batch.load_state(l, &s);
                    batch.set_dac(l, &[900, -600 + 10 * l as i16, 300]);
                    elbows.push(elbow);
                }
                batch.step_lanes();
                let (sin, cos) = batch.first_elbow_sin_cos();
                for (l, elbow) in elbows.iter().enumerate() {
                    let (s, c) = elbow.sin_cos();
                    assert_eq!(sin[l].to_bits(), s.to_bits(), "{method} step {step} lane {l} sin");
                    assert_eq!(cos[l].to_bits(), c.to_bits(), "{method} step {step} lane {l} cos");
                }
                for (d, row) in (0..ODE_DIM).map(|d| (d, batch.row(d))) {
                    for (l, v) in row.iter().enumerate() {
                        assert_eq!(v.to_bits(), batch.state(l).x[d].to_bits(), "row {d} lane {l}");
                    }
                }
            }
        }
    }

    #[test]
    fn wrist_channels_pass_through_untouched() {
        let params = PlantParams::raven_ii();
        let mut batch = BatchModel::with_params(&[params, params], RtModelConfig::default());
        let mut s = rest(&params);
        s.wrist = [0.4, -0.1, 0.2, 0.9];
        batch.load_state(1, &s);
        batch.step_lanes();
        assert_eq!(batch.state(1).wrist, s.wrist);
        assert_eq!(batch.state(0).wrist, [0.0; WRIST_AXES]);
    }

    #[test]
    fn lane_param_swap_rebinds_one_lane_and_leaves_siblings_bitwise() {
        // Recycling a lane onto new parameters mid-run: the recycled
        // lane tracks a scalar model of the *new* parameters, and the
        // sibling's trajectory is bitwise-identical to a run where the
        // swap never happened.
        let base = PlantParams::raven_ii();
        let old = base.perturbed(3, 0.03);
        let new = base.perturbed(9, 0.03);
        let config = RtModelConfig::default();
        let dac = [800, -300, 450];

        let mut batch = BatchModel::with_params(&[base, old], config);
        let mut solo = BatchModel::with_params(&[base], config);
        let mut sib = rest(&base);
        for step in 0..40 {
            if step == 20 {
                batch.set_lane_params(1, new);
                batch.load_state(1, &rest(&new));
            }
            batch.load_state(0, &sib);
            batch.set_dac(0, &dac);
            batch.set_dac(1, &dac);
            batch.step_lanes();
            solo.load_state(0, &sib);
            solo.set_dac(0, &dac);
            solo.step_lanes();
            sib = solo.state(0);
            assert_eq!(batch.state(0), sib, "sibling perturbed at step {step}");
        }
        // And the recycled lane matches a scalar model of the new params
        // stepped the same 20 post-swap cycles.
        let scalar = RtModel::with_config(new, config);
        let mut expect = rest(&new);
        for _ in 20..40 {
            expect = scalar.predict(&expect, &dac);
        }
        assert_eq!(batch.state(1), expect);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_batch_panics() {
        let _ = BatchModel::with_params(&[], RtModelConfig::default());
    }

    #[test]
    #[should_panic(expected = "step size")]
    fn invalid_step_size_panics() {
        let _ = BatchModel::with_params(
            &[PlantParams::raven_ii()],
            RtModelConfig { method: Method::Euler, step_size: f64::NAN },
        );
    }
}
