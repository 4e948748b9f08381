//! The ground-truth physical plant.
//!
//! [`RavenPlant`] stands in for the physical RAVEN II: it receives motor
//! torques (decoded from DAC words by the motor controllers), integrates the
//! coupled motor/cable/link ODEs with RK4 at sub-millisecond substeps, and
//! exposes quantized encoder readings — the feedback path of Fig. 1(b) in
//! the paper. Fail-safe brakes (engaged by the PLC in every state except
//! "Pedal Down") clamp the motor shafts, which is why the paper notes that
//! attacking outside Pedal Down "may not have the desired malicious effect"
//! (§III.B.3).

use std::sync::Arc;

use raven_kinematics::{JointState, MotorState, NUM_AXES, WRIST_AXES};
use serde::{Deserialize, Serialize};

use crate::link::LinkLibm;
use crate::motor;
use crate::params::PlantParams;
use crate::state::{PlantState, ODE_DIM};

mod prefix;

pub use prefix::PlantPrefix;
use prefix::{Lookup, Origin, PeriodInputs};

/// Derivative of the 12-dimensional plant state under shaft torques `tau_m`.
///
/// Shared by the plant and the real-time estimator so both integrate the
/// same physics (with their own parameter sets). Every libm value comes
/// first; the arithmetic after it calls nothing (DESIGN.md §5).
#[inline(always)]
pub fn derivative(
    params: &PlantParams,
    x: &[f64; ODE_DIM],
    tau_m: &[f64; NUM_AXES],
) -> [f64; ODE_DIM] {
    let mpos = [x[0], x[1], x[2]];
    let mvel = [x[3], x[4], x[5]];
    let jpos = [x[6], x[7], x[8]];
    let jvel = [x[9], x[10], x[11]];
    let motor_sign = mvel.map(motor::coulomb_sign);
    let link = LinkLibm::at(jpos[1], &jvel);

    // Cable stretch in cable space: stretch = N⁻¹·mpos − K·jpos, where K is
    // the unit-lower-triangular routing matrix. The elastic energy
    // U = ½ Σ kᵢ·stretchᵢ² yields joint torques Kᵀ·f and motor reactions
    // fᵢ/nᵢ with f = k∘stretch + b∘stretch_rate — energy-consistent by
    // construction.
    let (k21, k31, k32) = params.routing;
    let kq = [jpos[0], k21 * jpos[0] + jpos[1], k31 * jpos[0] + k32 * jpos[1] + jpos[2]];
    let kqd = [jvel[0], k21 * jvel[0] + jvel[1], k31 * jvel[0] + k32 * jvel[1] + jvel[2]];

    let mut f = [0.0; NUM_AXES]; // cable-space forces
    let mut mdot = [0.0; NUM_AXES];
    for i in 0..NUM_AXES {
        let axis = Axis::of(params, i);
        (f[i], mdot[i]) = axis.rhs(mpos[i], mvel[i], kq[i], kqd[i], tau_m[i], motor_sign[i]);
    }
    // Joint torques: Kᵀ · f.
    let tau_cable = [f[0] + k21 * f[1] + k31 * f[2], f[1] + k32 * f[2], f[2]];

    let jdot = params.links.acceleration(&jpos, &jvel, &tau_cable, &link);

    [
        mvel[0], mvel[1], mvel[2], // d mpos
        mdot[0], mdot[1], mdot[2], // d mvel
        jvel[0], jvel[1], jvel[2], // d jpos
        jdot[0], jdot[1], jdot[2], // d jvel
    ]
}

/// The constants one transmission axis contributes to the right-hand
/// side: its cable's ratio, stiffness and damping, and its motor's
/// friction and rotor inertia.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Axis {
    ratio: f64,
    stiffness: f64,
    damping: f64,
    viscous: f64,
    coulomb: f64,
    rotor_inertia: f64,
}

impl Axis {
    /// Axis `i` of `params`.
    #[inline]
    pub(crate) fn of(params: &PlantParams, i: usize) -> Self {
        let (cable, motor) = (&params.cables[i], &params.motors[i]);
        Axis {
            ratio: cable.ratio,
            stiffness: cable.stiffness,
            damping: cable.damping,
            viscous: motor.viscous_friction,
            coulomb: motor.coulomb_friction,
            rotor_inertia: motor.rotor_inertia,
        }
    }

    /// The axis's cable-space force and shaft acceleration, given the
    /// routed joint position `kq` and velocity `kqd` and the motor's
    /// `sign = motor::coulomb_sign(mvel)`: the call-free cable and motor
    /// arithmetic both right-hand sides share.
    #[inline]
    pub(crate) fn rhs(
        &self,
        mpos: f64,
        mvel: f64,
        kq: f64,
        kqd: f64,
        tau: f64,
        sign: f64,
    ) -> (f64, f64) {
        let stretch = mpos / self.ratio - kq;
        let stretch_rate = mvel / self.ratio - kqd;
        let f = self.stiffness * stretch + self.damping * stretch_rate;
        let reaction = f / self.ratio;
        let friction = motor::friction(self.viscous, self.coulomb, mvel, sign);
        (f, (tau - friction - reaction) / self.rotor_inertia)
    }
}

/// Quantized encoder snapshot of the three positioning motors plus the wrist
/// servo channels — what the USB read path reports back to the control
/// software each millisecond.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EncoderReading {
    /// Encoder counts per positioning motor.
    pub counts: [i32; NUM_AXES],
    /// Wrist channel positions in millidegree-scale integer units.
    pub wrist_counts: [i32; WRIST_AXES],
}

/// The simulated physical robot.
///
/// # Example
///
/// ```
/// use raven_dynamics::{PlantParams, RavenPlant};
///
/// let mut plant = RavenPlant::new(PlantParams::raven_ii());
/// plant.release_brakes();
/// plant.step_control_period(&[0.02, 0.0, 0.0]);
/// assert!(plant.state().is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct RavenPlant {
    params: PlantParams,
    state: PlantState,
    brakes_engaged: bool,
    substeps: u32,
    time: f64,
    wrist_target: [f64; WRIST_AXES],
    prefix: Option<PrefixCursor>,
}

/// A plant's place on a shared [`PlantPrefix`] while it stays attached.
#[derive(Debug, Clone)]
struct PrefixCursor {
    prefix: Arc<PlantPrefix>,
    /// The next control period.
    period: usize,
    /// The ODE state the next period must start from: the origin, then
    /// each period's output.
    expected: [f64; ODE_DIM],
    /// Whether this plant integrated any period it was attached for.
    recorded: bool,
}

impl PrefixCursor {
    /// Whether the plant starts this period on the shared trajectory. A
    /// braked period starts from the previous output with the shafts
    /// stopped: that is what `engage_brakes` writes before it, in every
    /// run alike.
    fn on_path(&self, x: &[f64; ODE_DIM], inputs: &PeriodInputs, dt: f64) -> bool {
        let mut expected = self.expected;
        if inputs.braked() {
            expected[3..6].fill(0.0);
        }
        dt.to_bits() == RavenPlant::CONTROL_PERIOD.to_bits() && prefix::same_bits(x, &expected)
    }
}

impl RavenPlant {
    /// Default number of RK4 substeps per 1 ms control period.
    pub const DEFAULT_SUBSTEPS: u32 = 10;

    /// The control period (seconds) [`RavenPlant::step_control_period`]
    /// advances by; the only period a [`PlantPrefix`] records.
    pub const CONTROL_PERIOD: f64 = 1e-3;

    /// Creates a plant at the mid-workspace rest configuration with brakes
    /// engaged (the robot powers up in E-STOP; paper Fig. 1(c)).
    pub fn new(params: PlantParams) -> Self {
        let home = raven_kinematics::JointLimits::raven_ii().center();
        Self::with_state(params, params.rest_state(home))
    }

    /// Creates a plant in an explicit initial state.
    pub fn with_state(params: PlantParams, state: PlantState) -> Self {
        RavenPlant {
            params,
            state,
            brakes_engaged: true,
            substeps: Self::DEFAULT_SUBSTEPS,
            time: 0.0,
            wrist_target: state.wrist,
            prefix: None,
        }
    }

    /// Attaches the plant to a trajectory prefix shared with the sibling
    /// runs of a sweep, from its current state on (see [`PlantPrefix`]).
    /// Returns `false`, leaving the plant detached, unless its parameters,
    /// ODE state and substeps are bit-equal to the prefix's origin (the
    /// first plant offered fixes it).
    pub fn share_prefix(&mut self, prefix: Arc<PlantPrefix>) -> bool {
        let origin = Origin { params: self.params, x0: self.state.x, substeps: self.substeps };
        let attached = prefix.admits(&origin);
        self.prefix = attached.then_some(PrefixCursor {
            prefix,
            period: 0,
            expected: self.state.x,
            recorded: false,
        });
        attached
    }

    /// Overrides the number of RK4 substeps per control period.
    ///
    /// # Panics
    ///
    /// Panics if `substeps` is zero.
    pub fn set_substeps(&mut self, substeps: u32) {
        assert!(substeps > 0, "substeps must be positive");
        self.substeps = substeps;
        // A shared prefix was keyed on the old substeps.
        self.prefix = None;
    }

    /// Current plant state.
    pub fn state(&self) -> &PlantState {
        &self.state
    }

    /// Plant parameters.
    pub fn params(&self) -> &PlantParams {
        &self.params
    }

    /// Simulated physical time (seconds).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Engages the fail-safe power-off brakes (PLC action in Pedal Up,
    /// Init, and E-STOP states).
    pub fn engage_brakes(&mut self) {
        self.brakes_engaged = true;
        // Power-off brakes stop the shafts; cable stretch relaxes quickly,
        // so joint velocity collapses too.
        for i in 3..6 {
            self.state.x[i] = 0.0;
        }
    }

    /// Releases the brakes (PLC action on entering Pedal Down).
    pub fn release_brakes(&mut self) {
        self.brakes_engaged = false;
    }

    /// `true` while the fail-safe brakes hold the motors.
    pub fn brakes_engaged(&self) -> bool {
        self.brakes_engaged
    }

    /// Sets the wrist servo targets (kinematic channels 3–6).
    pub fn set_wrist_targets(&mut self, targets: [f64; WRIST_AXES]) {
        self.wrist_target = targets;
    }

    /// Advances the plant by one 1 ms control period under constant shaft
    /// torques (zero-order hold, as the motor controllers apply between
    /// USB packets).
    pub fn step_control_period(&mut self, tau_m: &[f64; NUM_AXES]) {
        self.step(tau_m, Self::CONTROL_PERIOD);
    }

    /// Advances the plant by `dt` seconds under constant shaft torques.
    ///
    /// An attached [`PlantPrefix`] replays the ODE step when a sibling run
    /// already integrated it from the same state under the same inputs.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    pub fn step(&mut self, tau_m: &[f64; NUM_AXES], dt: f64) {
        assert!(dt.is_finite() && dt > 0.0, "invalid plant step dt = {dt}");
        let h = dt / f64::from(self.substeps);
        let torques = if self.brakes_engaged { [0.0; NUM_AXES] } else { *tau_m };
        let inputs = PeriodInputs::new(self.brakes_engaged, &torques);
        let lookup = match &self.prefix {
            Some(cursor) if cursor.on_path(&self.state.x, &inputs, dt) => {
                cursor.prefix.replay_period(cursor.period, &inputs)
            }
            _ => Lookup::Miss,
        };
        if let Lookup::Hit(out) = lookup {
            self.state.x = out;
            for _ in 0..self.substeps {
                self.time += h;
            }
        } else {
            self.integrate(torques, h);
        }
        self.advance_prefix(lookup, &inputs);
        // Wrist servos: exact first-order lag toward their targets.
        let lag = (-dt / self.params.wrist_time_constant).exp();
        for i in 0..WRIST_AXES {
            if !self.brakes_engaged {
                self.state.wrist[i] =
                    self.wrist_target[i] + (self.state.wrist[i] - self.wrist_target[i]) * lag;
            }
        }
    }

    /// Moves an attached plant's cursor past the period just stepped: it
    /// offers an integrated frontier period to the prefix, and detaches on
    /// a miss, on losing a frontier race, or at the cap.
    fn advance_prefix(&mut self, lookup: Lookup, inputs: &PeriodInputs) {
        let Some(cursor) = &mut self.prefix else { return };
        let on_path = match lookup {
            Lookup::Hit(_) => true,
            Lookup::Frontier => {
                cursor.recorded = true;
                cursor.prefix.record_period(cursor.period, inputs, &self.state.x)
            }
            Lookup::Miss => false,
        };
        cursor.period += 1;
        cursor.expected = self.state.x;
        if on_path && cursor.period < cursor.prefix.cap() {
            return;
        }
        if on_path && !cursor.recorded {
            cursor.prefix.note_full_replay();
        }
        self.prefix = None;
    }

    /// Runs RK4 over one step of `substeps × h` seconds.
    fn integrate(&mut self, torques: [f64; NUM_AXES], h: f64) {
        for _ in 0..self.substeps {
            let x = &self.state.x;
            self.state.x = if self.brakes_engaged {
                rk4_substep::<true>(&self.params, x, &torques, h)
            } else {
                rk4_substep::<false>(&self.params, x, &torques, h)
            };
            self.time += h;
        }
    }

    /// Quantized encoder snapshot (what the USB boards report back).
    pub fn read_encoders(&self) -> EncoderReading {
        let m = self.state.motor_pos();
        let mut counts = [0i32; NUM_AXES];
        for (c, a) in counts.iter_mut().zip(m.angles.iter()) {
            *c = (a * self.params.encoder_counts_per_rad).round() as i32;
        }
        let mut wrist_counts = [0i32; WRIST_AXES];
        for (c, w) in wrist_counts.iter_mut().zip(self.state.wrist.iter()) {
            *c = (w * 1000.0).round() as i32;
        }
        EncoderReading { counts, wrist_counts }
    }

    /// Reconstructs motor positions from an encoder reading (the control
    /// software's view of `mpos`).
    pub fn decode_encoders(&self, reading: &EncoderReading) -> MotorState {
        let mut angles = [0.0; NUM_AXES];
        for (a, c) in angles.iter_mut().zip(reading.counts.iter()) {
            *a = f64::from(*c) / self.params.encoder_counts_per_rad;
        }
        MotorState::new(angles)
    }

    /// Ground-truth joint state (not available to the controller; used by
    /// experiments to label adverse impact).
    pub fn true_joints(&self) -> JointState {
        self.state.joint_pos()
    }
}

/// One RK4 substep from `x`: the stages and update of
/// [`Method::Rk4`](raven_math::ode::Method::Rk4)'s step, written out so the right-hand
/// side inlines into every stage instead of being called through a
/// closure.
///
/// While `BRAKED`, the brakes clamp the motor shafts: every stage holds
/// `mpos` at `x`'s and `mvel` at zero, and only the joint side settles
/// against the taut cable.
#[inline]
fn rk4_substep<const BRAKED: bool>(
    params: &PlantParams,
    x: &[f64; ODE_DIM],
    tau: &[f64; NUM_AXES],
    h: f64,
) -> [f64; ODE_DIM] {
    let stage = |k: &[f64; ODE_DIM], step: f64| {
        let mut out = *x;
        for i in 0..ODE_DIM {
            out[i] += step * k[i];
        }
        out
    };
    let half = h * 0.5;
    let k1 = stage_derivative::<BRAKED>(params, x, x, tau);
    let k2 = stage_derivative::<BRAKED>(params, x, &stage(&k1, half), tau);
    let k3 = stage_derivative::<BRAKED>(params, x, &stage(&k2, half), tau);
    let k4 = stage_derivative::<BRAKED>(params, x, &stage(&k3, h), tau);
    let mut next = *x;
    for i in 0..ODE_DIM {
        next[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
    if BRAKED {
        next[..3].copy_from_slice(&x[..3]);
        next[3..6].fill(0.0);
    }
    next
}

/// The derivative at RK4 stage state `s` of the substep from `x`, with
/// the shafts clamped while `BRAKED`.
#[inline(always)]
fn stage_derivative<const BRAKED: bool>(
    params: &PlantParams,
    x: &[f64; ODE_DIM],
    s: &[f64; ODE_DIM],
    tau: &[f64; NUM_AXES],
) -> [f64; ODE_DIM] {
    if !BRAKED {
        return derivative(params, s, tau);
    }
    let mut clamped = *s;
    clamped[..3].copy_from_slice(&x[..3]); // mpos held
    clamped[3..6].fill(0.0); // mvel zero
    let mut d = derivative(params, &clamped, tau);
    d[..6].fill(0.0);
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resting_plant() -> RavenPlant {
        let mut p = RavenPlant::new(PlantParams::raven_ii());
        p.release_brakes();
        p
    }

    #[test]
    fn rest_state_stays_near_rest_without_torque() {
        // Gravity at the mid-workspace configuration is small but nonzero;
        // the plant should sag slowly, not fly away.
        let mut plant = resting_plant();
        let j0 = plant.true_joints();
        for _ in 0..200 {
            plant.step_control_period(&[0.0; 3]);
        }
        let j1 = plant.true_joints();
        assert!(plant.state().is_finite());
        assert!(j1.delta(j0).max_abs() < 0.2, "drifted too far: {:?}", j1.delta(j0));
    }

    #[test]
    fn torque_accelerates_the_commanded_axis() {
        let mut plant = resting_plant();
        let j0 = plant.true_joints();
        for _ in 0..100 {
            plant.step_control_period(&[0.05, 0.0, 0.0]);
        }
        let j1 = plant.true_joints();
        assert!(j1.shoulder > j0.shoulder + 1e-4, "shoulder did not move");
        // Negative torque moves it back.
        let mut plant = resting_plant();
        for _ in 0..100 {
            plant.step_control_period(&[-0.05, 0.0, 0.0]);
        }
        assert!(plant.true_joints().shoulder < j0.shoulder - 1e-4);
    }

    #[test]
    fn brakes_hold_the_motors() {
        let mut plant = RavenPlant::new(PlantParams::raven_ii());
        assert!(plant.brakes_engaged());
        let m0 = plant.state().motor_pos();
        for _ in 0..100 {
            plant.step_control_period(&[0.18, 0.18, 0.07]); // full torque
        }
        let m1 = plant.state().motor_pos();
        assert_eq!(m0, m1, "brakes must clamp the shafts");
    }

    #[test]
    fn release_then_engage_stops_motion() {
        let mut plant = resting_plant();
        for _ in 0..50 {
            plant.step_control_period(&[0.08, 0.0, 0.0]);
        }
        assert!(plant.state().motor_vel()[0].abs() > 0.0);
        plant.engage_brakes();
        let m_frozen = plant.state().motor_pos();
        for _ in 0..50 {
            plant.step_control_period(&[0.08, 0.0, 0.0]);
        }
        assert_eq!(plant.state().motor_pos(), m_frozen);
        assert_eq!(plant.state().motor_vel(), [0.0; 3]);
    }

    #[test]
    fn encoder_roundtrip_quantizes() {
        let plant = RavenPlant::new(PlantParams::raven_ii());
        let reading = plant.read_encoders();
        let decoded = plant.decode_encoders(&reading);
        let truth = plant.state().motor_pos();
        for i in 0..3 {
            let err = (decoded.angles[i] - truth.angles[i]).abs();
            assert!(err <= 0.5 / plant.params().encoder_counts_per_rad + 1e-12);
        }
    }

    #[test]
    fn wrist_servos_track_targets() {
        let mut plant = resting_plant();
        plant.set_wrist_targets([0.5, -0.2, 0.1, 0.0]);
        for _ in 0..300 {
            plant.step_control_period(&[0.0; 3]);
        }
        let w = plant.state().wrist;
        assert!((w[0] - 0.5).abs() < 1e-3);
        assert!((w[1] + 0.2).abs() < 1e-3);
    }

    #[test]
    fn substeps_refine_but_do_not_change_physics() {
        let params = PlantParams::raven_ii();
        let run = |substeps: u32| {
            let mut p = RavenPlant::new(params);
            p.release_brakes();
            p.set_substeps(substeps);
            for _ in 0..100 {
                p.step_control_period(&[0.03, -0.02, 0.01]);
            }
            p.true_joints()
        };
        let coarse = run(5);
        let fine = run(40);
        assert!(coarse.delta(fine).max_abs() < 1e-4, "integration not converged");
    }

    #[test]
    fn time_advances() {
        let mut plant = resting_plant();
        for _ in 0..10 {
            plant.step_control_period(&[0.0; 3]);
        }
        assert!((plant.time() - 0.010).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid plant step")]
    fn bad_dt_panics() {
        let mut plant = resting_plant();
        plant.step(&[0.0; 3], -1.0);
    }

    #[test]
    #[should_panic(expected = "substeps")]
    fn zero_substeps_panics() {
        let mut plant = resting_plant();
        plant.set_substeps(0);
    }
}
