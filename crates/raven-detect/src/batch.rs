//! Fleet-scale detection: M detector sessions assessed per call over
//! one structure-of-arrays estimator batch.
//!
//! The paper's detection budget is per control cycle per robot; a
//! teleoperation fleet multiplies it by the number of concurrent
//! sessions. [`BatchDetector`] amortizes that product: one
//! [`BatchModel`] steps every session's estimator lane together, and
//! the threshold checks are swept across the lanes' verdicts.
//!
//! This is the only implementation of the paper's verdict chain:
//! model-predicted features, the three-way threshold fusion plus the
//! end-effector step limit, alarm accounting, and the E-STOP request.
//! Each lane carries its own mode state (learning/armed thresholds),
//! measurement tracker, and alarm counters. [`DynamicDetector`] is a
//! 1-lane view of this type, so a fleet lane and a single guarded
//! robot run the same code and face the same mutation kill-suite. Two
//! scalar-only concerns stay out of the batch: threshold *learning*
//! (train scalar, arm lanes with the learned thresholds) and the
//! mitigation actuation (a fleet supervisor reads the per-lane verdicts
//! and drives each session's guard).
//!
//! [`DynamicDetector`]: crate::detector::DynamicDetector

use raven_dynamics::batch::BatchModel;
use raven_dynamics::PlantState;
use raven_dynamics::RtModel;
use raven_kinematics::{ArmConfig, MotorState, NUM_AXES};
use raven_math::Vec3;

use crate::detector::{Assessment, DetectorConfig, DetectorMode, FusionRule, Mitigation};
use crate::features::InstantFeatures;
use crate::mutants::DetectorMutation;
use crate::thresholds::DetectionThresholds;

/// A lane's mode: armed *means* having thresholds, so the armed
/// assessment path is infallible by construction (no `Option` to unwrap
/// inside the control cycle, where clippy's `unwrap_used` is denied).
#[derive(Debug, Clone, Copy)]
enum ModeState {
    Learning,
    Armed(DetectionThresholds),
}

/// Reconstructs the tracked plant state from one encoder measurement:
/// joint positions through the coupling, velocities by differencing
/// against the previous sample.
fn measured_state(
    arm: &ArmConfig,
    dt: f64,
    last_mpos: &mut Option<MotorState>,
    last_jpos: &mut Option<[f64; NUM_AXES]>,
    mpos: MotorState,
) -> PlantState {
    let jpos = arm.motors_to_joints(&mpos);
    let ja = jpos.to_array();
    let mvel = match *last_mpos {
        Some(last) => {
            let d = mpos.delta(last);
            [d.angles[0] / dt, d.angles[1] / dt, d.angles[2] / dt]
        }
        None => [0.0; NUM_AXES],
    };
    let jvel = match *last_jpos {
        Some(last) => [(ja[0] - last[0]) / dt, (ja[1] - last[1]) / dt, (ja[2] - last[2]) / dt],
        None => [0.0; NUM_AXES],
    };
    *last_mpos = Some(mpos);
    *last_jpos = Some(ja);
    let mut state = PlantState::default();
    state.set_motor_pos(mpos);
    state.set_joint_pos(jpos);
    state.x[3] = mvel[0];
    state.x[4] = mvel[1];
    state.x[5] = mvel[2];
    state.x[9] = jvel[0];
    state.x[10] = jvel[1];
    state.x[11] = jvel[2];
    state
}

/// Per-session state carried alongside the shared SoA storage.
#[derive(Debug)]
struct SessionLane {
    arm: ArmConfig,
    mode: ModeState,
    tracked: Option<PlantState>,
    last_mpos: Option<MotorState>,
    last_jpos: Option<[f64; NUM_AXES]>,
    assessments: u64,
    alarms: u64,
    first_alarm_assessment: Option<u64>,
    estop_requested: bool,
}

/// M detector sessions over one SoA estimator batch.
///
/// # Example
///
/// ```
/// use raven_detect::{BatchDetector, DetectorConfig, DynamicDetector};
/// use raven_dynamics::{PlantParams, RtModel};
/// use raven_kinematics::{ArmConfig, JointState};
///
/// let params = PlantParams::raven_ii();
/// let arm = ArmConfig::builder().coupling(params.coupling()).build();
/// let model = RtModel::new(params.perturbed(1, 0.02));
/// let config = DetectorConfig::default();
///
/// let mut batch =
///     BatchDetector::from_models(&[arm.clone(), arm.clone()], &[model.clone(), model], config);
/// let mpos = params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25));
/// batch.sync_lane(0, mpos);
/// batch.sync_lane(1, mpos);
/// let verdicts = batch.assess_lanes(&[Some([200, 0, 0]), Some([150, 0, 0])]);
/// assert!(verdicts.iter().all(|v| v.is_some()));
/// ```
#[derive(Debug)]
pub struct BatchDetector {
    config: DetectorConfig,
    model: BatchModel,
    lanes: Vec<SessionLane>,
    /// Current end-effector position per lane, stashed by the one-step
    /// pass so the lookahead pass reuses it (FK is pure, so sharing the
    /// evaluation is bit-identical to recomputing it).
    ee_now: Vec<Vec3>,
    /// `(sin, cos)` of each lane's measured shoulder angle, filled by the
    /// verdict's libm loop.
    now_shoulder: Vec<(f64, f64)>,
    /// `(sin, cos)` of each lane's shoulder and elbow in the pose being
    /// checked: the one-step prediction, later the rollout's end.
    shoulder: Vec<(f64, f64)>,
    elbow: Vec<(f64, f64)>,
    /// Reused per-call verdict storage, one slot per lane.
    verdicts: Vec<Option<Assessment>>,
    /// Installed kill-suite mutant, if any (`None` ⇒ production behavior).
    mutation: Option<DetectorMutation>,
}

impl BatchDetector {
    /// Builds one lane per (arm, model) pair, every lane in learning
    /// mode. All models must share one integrator configuration (the
    /// batch dispatches the step once for every lane).
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty or of different lengths, or if
    /// the model configurations disagree.
    pub fn from_models(arms: &[ArmConfig], models: &[RtModel], config: DetectorConfig) -> Self {
        assert!(!models.is_empty(), "batch detector needs at least one session");
        assert_eq!(arms.len(), models.len(), "one arm config per model");
        let shared = models[0].config();
        for m in models {
            assert_eq!(m.config(), shared, "all lanes must share one integrator configuration");
        }
        let params: Vec<raven_dynamics::PlantParams> = models.iter().map(|m| *m.params()).collect();
        let m = models.len();
        BatchDetector {
            config,
            model: BatchModel::with_params(&params, shared),
            lanes: arms
                .iter()
                .map(|arm| SessionLane {
                    arm: arm.clone(),
                    mode: ModeState::Learning,
                    tracked: None,
                    last_mpos: None,
                    last_jpos: None,
                    assessments: 0,
                    alarms: 0,
                    first_alarm_assessment: None,
                    estop_requested: false,
                })
                .collect(),
            ee_now: vec![Vec3::default(); m],
            now_shoulder: vec![(0.0, 0.0); m],
            shoulder: vec![(0.0, 0.0); m],
            elbow: vec![(0.0, 0.0); m],
            verdicts: vec![None; m],
            mutation: None,
        }
    }

    /// Installs (or clears) a kill-suite mutant on every lane. Exists
    /// for the `raven-verify` mutation kill-suite; `None`, the default,
    /// is the production detector.
    pub fn set_mutation(&mut self, mutation: Option<DetectorMutation>) {
        self.mutation = mutation;
    }

    /// The installed kill-suite mutant, if any.
    pub fn mutation(&self) -> Option<DetectorMutation> {
        self.mutation
    }

    /// Number of sessions in the batch.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The shared detector configuration.
    pub fn config(&self) -> DetectorConfig {
        self.config
    }

    /// One lane's operating mode.
    pub fn lane_mode(&self, lane: usize) -> DetectorMode {
        match self.lanes[lane].mode {
            ModeState::Learning => DetectorMode::Learning,
            ModeState::Armed(_) => DetectorMode::Armed,
        }
    }

    /// One lane's thresholds, once armed.
    pub(crate) fn lane_thresholds(&self, lane: usize) -> Option<&DetectionThresholds> {
        match &self.lanes[lane].mode {
            ModeState::Learning => None,
            ModeState::Armed(t) => Some(t),
        }
    }

    /// Arms one lane with learned thresholds (typically from a scalar
    /// training campaign — the batch itself never learns).
    pub fn arm_lane(&mut self, lane: usize, thresholds: DetectionThresholds) {
        self.lanes[lane].mode = ModeState::Armed(thresholds);
    }

    /// Feeds one lane's measured motor positions for this cycle:
    /// velocities by differencing, joint states through the coupling.
    pub fn sync_lane(&mut self, lane: usize, mpos: MotorState) {
        let l = &mut self.lanes[lane];
        l.tracked =
            Some(measured_state(&l.arm, self.config.dt, &mut l.last_mpos, &mut l.last_jpos, mpos));
    }

    /// Clears one lane's per-session state (counters, tracked
    /// measurement) while keeping its thresholds — the batched
    /// equivalent of `DynamicDetector::reset_session`, scoped to a
    /// single lane so the rest of the fleet is untouched.
    pub fn reset_session(&mut self, lane: usize) {
        let l = &mut self.lanes[lane];
        l.tracked = None;
        l.last_mpos = None;
        l.last_jpos = None;
        l.assessments = 0;
        l.alarms = 0;
        l.first_alarm_assessment = None;
        l.estop_requested = false;
    }

    /// Recycles one lane for a newly admitted session: rebinds the
    /// estimator lane to the session's model parameters, installs its
    /// arm config, clears all per-session state, and arms it with the
    /// session's thresholds (or leaves it learning when `None`). The
    /// other lanes' SoA columns are untouched, so sibling trajectories
    /// stay bitwise identical — the dynamic arrive/retire counterpart
    /// of constructing a fresh batch.
    ///
    /// # Panics
    ///
    /// Panics if the model's integrator configuration differs from the
    /// batch's shared configuration.
    pub fn admit_lane(
        &mut self,
        lane: usize,
        arm: ArmConfig,
        model: &RtModel,
        thresholds: Option<DetectionThresholds>,
    ) {
        assert_eq!(
            model.config(),
            self.model.config(),
            "admitted lanes must share the batch integrator configuration"
        );
        self.model.set_lane_params(lane, *model.params());
        self.model.load_state(lane, &PlantState::default());
        self.model.set_torque(lane, &[0.0; NUM_AXES]);
        let l = &mut self.lanes[lane];
        l.arm = arm;
        l.mode = match thresholds {
            Some(t) => ModeState::Armed(t),
            None => ModeState::Learning,
        };
        self.reset_session(lane);
    }

    /// Retires one lane: clears its per-session state, disarms it, and
    /// parks the estimator lane at the benign rest state with zero
    /// torque, ready for [`admit_lane`](Self::admit_lane) to recycle.
    pub fn retire_lane(&mut self, lane: usize) {
        self.lanes[lane].mode = ModeState::Learning;
        self.reset_session(lane);
        self.model.load_state(lane, &PlantState::default());
        self.model.set_torque(lane, &[0.0; NUM_AXES]);
    }

    /// Assesses one candidate DAC command per lane, stepping every
    /// session's estimator together. Returns one verdict slot per lane;
    /// `None` where the lane is parked or has no synced measurement yet.
    /// Lanes in learning mode return non-alarming assessments
    /// (observation happens on the scalar trainer).
    ///
    /// A `None` slot *parks* its lane this cycle: no assessment, no
    /// counter movement, verdict `None`. That is how the fleet monitor
    /// runs a batch where only a subset of sessions is active. Parked
    /// (and unsynced) lanes still ride the batch's model steps (the
    /// one-step prediction and the lookahead rollout), but are re-loaded
    /// with the benign rest state and zero torque on every call, so an
    /// idle lane can never drift toward non-finite values over a long
    /// soak and never influences an engaged sibling (lanes are
    /// arithmetically independent).
    ///
    /// Allocation-free after construction: the integrator scratch and
    /// the verdict storage are reused across calls.
    ///
    /// After each model step the libm calls come first: one lane loop
    /// makes every engaged lane's `sin_cos` calls, and call-free loops
    /// then compute the tip positions and features through
    /// [`ArmConfig::position_from_sin_cos`], the same FK core
    /// [`ArmConfig::position`] ends in. The measured elbow's sine and
    /// cosine are not computed here at all: the model step's first
    /// derivative evaluation made them for the same angle
    /// ([`BatchModel::first_elbow_sin_cos`]).
    ///
    /// # Panics
    ///
    /// Panics if `dacs` does not supply exactly one slot per lane, or if
    /// the configured `dt` is not positive and finite.
    pub fn assess_lanes(&mut self, dacs: &[Option<[i16; NUM_AXES]>]) -> &[Option<Assessment>] {
        let m = self.lanes.len();
        assert_eq!(dacs.len(), m, "one DAC slot per lane");
        let dt = self.config.dt;
        assert!(dt.is_finite() && dt > 0.0, "invalid feature dt {dt}");
        for (l, (dac, lane)) in dacs.iter().zip(&self.lanes).enumerate() {
            match (dac, &lane.tracked) {
                (Some(dac), Some(current)) => {
                    self.model.load_state(l, current);
                    self.model.set_dac(l, dac);
                }
                _ => {
                    // Parked or unsynced: reload rest state + zero torque
                    // each call so the still-stepped lane stays finite.
                    self.model.load_state(l, &PlantState::default());
                    self.model.set_torque(l, &[0.0; NUM_AXES]);
                }
            }
        }
        self.model.step_lanes();
        // State rows: motor velocity, joint position, joint velocity.
        let (mv, jp, jv) = (NUM_AXES, 2 * NUM_AXES, 3 * NUM_AXES);
        // Libm first: the measured shoulder and the predicted shoulder and
        // elbow of every engaged lane (a command *and* a synced
        // measurement).
        let model = &self.model;
        let (shoulder, elbow, insertion) = (model.row(jp), model.row(jp + 1), model.row(jp + 2));
        for (l, (dac, lane)) in dacs.iter().zip(&self.lanes).enumerate() {
            let (Some(_), Some(current)) = (dac, &lane.tracked) else { continue };
            self.now_shoulder[l] = current.x[jp].sin_cos();
            self.shoulder[l] = shoulder[l].sin_cos();
            self.elbow[l] = elbow[l].sin_cos();
        }
        // One-step features, call-free: the current and predicted tips,
        // and the predicted velocities read from the model rows.
        let (sin_elbow, cos_elbow) = model.first_elbow_sin_cos();
        let mv_next = [model.row(mv), model.row(mv + 1), model.row(mv + 2)];
        let jv_next = [model.row(jv), model.row(jv + 1), model.row(jv + 2)];
        for (l, (dac, lane)) in dacs.iter().zip(&self.lanes).enumerate() {
            let (Some(_), Some(current)) = (dac, &lane.tracked) else {
                self.verdicts[l] = None;
                continue;
            };
            let now_elbow = (sin_elbow[l], cos_elbow[l]);
            let ee_now =
                lane.arm.position_from_sin_cos(self.now_shoulder[l], now_elbow, current.x[jp + 2]);
            let ee_next =
                lane.arm.position_from_sin_cos(self.shoulder[l], self.elbow[l], insertion[l]);
            let mut features = InstantFeatures::default();
            for i in 0..NUM_AXES {
                features.motor_accel[i] = ((mv_next[i][l] - current.x[mv + i]) / dt).abs();
                features.motor_vel[i] = mv_next[i][l].abs();
                features.joint_vel[i] = jv_next[i][l].abs();
            }
            features.ee_step = ee_now.distance(ee_next);
            self.ee_now[l] = ee_now;
            // Stash the partial verdict; ee_step may still grow below.
            self.verdicts[l] =
                Some(Assessment { features, threshold_alarm: false, ee_alarm: false });
        }
        // Lookahead rollout: the whole batch holds the latched torques for
        // the remaining steps, then each lane checks its cumulative EE
        // displacement. Only the end pose is read, so the last step
        // advances positions alone (`step_positions`); the next call's
        // `load_state` on every lane overwrites the stale velocity rows.
        if self.config.lookahead_steps > 1 {
            for _ in 2..self.config.lookahead_steps {
                self.model.step_lanes();
            }
            self.model.step_positions();
            let model = &self.model;
            let (shoulder, elbow, insertion) =
                (model.row(jp), model.row(jp + 1), model.row(jp + 2));
            for (l, verdict) in self.verdicts.iter().enumerate() {
                if verdict.is_some() {
                    self.shoulder[l] = shoulder[l].sin_cos();
                    self.elbow[l] = elbow[l].sin_cos();
                }
            }
            for (l, (verdict, lane)) in self.verdicts.iter_mut().zip(&self.lanes).enumerate() {
                let Some(assessment) = verdict else { continue };
                let end =
                    lane.arm.position_from_sin_cos(self.shoulder[l], self.elbow[l], insertion[l]);
                assessment.features.ee_step =
                    assessment.features.ee_step.max(self.ee_now[l].distance(end));
            }
        }
        // Threshold sweep + per-lane alarm accounting.
        for l in 0..m {
            let Some(mut assessment) = self.verdicts[l] else { continue };
            let ModeState::Armed(thresholds) = self.lanes[l].mode else { continue };
            assessment.threshold_alarm =
                self.threshold_alarm_for(&thresholds, &assessment.features);
            assessment.ee_alarm = self.ee_alarm_for(&assessment.features);
            self.lanes[l].assessments += 1;
            if assessment.alarm() {
                self.count_alarm(l);
                let first = self.first_alarm_index(l);
                let estop =
                    self.config.mitigation == Mitigation::EStop && self.estop_request_enabled();
                let lane = &mut self.lanes[l];
                lane.first_alarm_assessment.get_or_insert(first);
                lane.estop_requested |= estop;
            }
            self.verdicts[l] = Some(assessment);
        }
        &self.verdicts
    }

    // ---- kill-suite hook points -------------------------------------
    //
    // Each verdict decision the mutation kill-suite needs to sabotage
    // routes through one of these helpers. With no mutation installed
    // (the default) each returns the production value; otherwise it
    // applies the seeded defect. See `crate::mutants`.

    /// Fused threshold-exceedance decision for one assessment.
    fn threshold_alarm_for(
        &self,
        thresholds: &DetectionThresholds,
        features: &InstantFeatures,
    ) -> bool {
        use DetectorMutation as M;
        let mut f = *features;
        match self.mutation {
            Some(M::ThresholdsIgnored) => return false,
            Some(M::FusionBecomesAnyOne) => return thresholds.any_alarm(&f),
            Some(M::FusionDropsJointVel) => {
                return (0..NUM_AXES).any(|i| {
                    f.motor_accel[i] > thresholds.motor_accel[i]
                        && f.motor_vel[i] > thresholds.motor_vel[i]
                });
            }
            Some(M::SwappedVelAccel) => std::mem::swap(&mut f.motor_accel, &mut f.motor_vel),
            _ => {}
        }
        match self.config.fusion {
            FusionRule::AllThree => thresholds.fused_alarm(&f),
            FusionRule::AnyOne => thresholds.any_alarm(&f),
        }
    }

    /// Hard end-effector step-limit decision for one assessment.
    fn ee_alarm_for(&self, features: &InstantFeatures) -> bool {
        use DetectorMutation as M;
        match self.mutation {
            Some(M::EeCheckDisabled) => false,
            Some(M::EeLimitTenfold) => features.ee_step > 10.0 * self.config.ee_step_limit,
            _ => features.ee_step > self.config.ee_step_limit,
        }
    }

    /// Bumps a lane's alarm counter on an alarming assessment.
    fn count_alarm(&mut self, lane: usize) {
        if self.mutation != Some(DetectorMutation::AlarmCounterStuck) {
            self.lanes[lane].alarms += 1;
        }
    }

    /// The 1-based assessment index recorded for a lane's first alarm.
    fn first_alarm_index(&self, lane: usize) -> u64 {
        if self.mutation == Some(DetectorMutation::FirstAlarmOffByOne) {
            self.lanes[lane].assessments + 1
        } else {
            self.lanes[lane].assessments
        }
    }

    /// Whether the E-STOP mitigation is allowed to request the stop.
    fn estop_request_enabled(&self) -> bool {
        self.mutation != Some(DetectorMutation::EstopRequestDropped)
    }

    /// Commands assessed while armed, per lane.
    pub fn lane_assessments(&self, lane: usize) -> u64 {
        self.lanes[lane].assessments
    }

    /// Alarms raised while armed, per lane.
    pub fn lane_alarms(&self, lane: usize) -> u64 {
        self.lanes[lane].alarms
    }

    /// Assessment index (1-based) of the lane's first alarm, if any.
    pub fn lane_first_alarm_assessment(&self, lane: usize) -> Option<u64> {
        self.lanes[lane].first_alarm_assessment
    }

    /// `true` when the lane's E-STOP mitigation has been requested.
    pub fn lane_estop_requested(&self, lane: usize) -> bool {
        self.lanes[lane].estop_requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DynamicDetector;
    use raven_dynamics::PlantParams;
    use raven_kinematics::JointState;

    fn session(seed: u64) -> (ArmConfig, RtModel, PlantParams) {
        let params = PlantParams::raven_ii();
        let arm = ArmConfig::builder().coupling(params.coupling()).build();
        let model = RtModel::new(params.perturbed(seed, 0.02));
        (arm, model, params)
    }

    fn trained_thresholds(
        arm: &ArmConfig,
        model: &RtModel,
        params: &PlantParams,
    ) -> DetectionThresholds {
        let mut det = DynamicDetector::new(arm.clone(), model.clone(), DetectorConfig::default());
        let coupling = params.coupling();
        for k in 0..1500u64 {
            let t = k as f64 * 1e-3;
            let j = JointState::new(
                0.1 * (2.0 * t).sin(),
                1.4 + 0.08 * (1.5 * t).cos(),
                0.25 + 0.01 * t.sin(),
            );
            det.sync_measurement(coupling.joints_to_motors(&j));
            det.assess(&[200, 150, -100]);
        }
        det.end_learning_run();
        det.arm().expect("fault-free samples observed");
        *det.thresholds().expect("armed")
    }

    /// One-step features of `dac` on a 1-lane learning batch synced at a
    /// resting pose, with the configured `dt`.
    fn one_step_features(dac: [i16; NUM_AXES], dt: f64) -> InstantFeatures {
        let (arm, model, params) = session(1);
        let config = DetectorConfig { lookahead_steps: 1, dt, ..DetectorConfig::default() };
        let mut batch = BatchDetector::from_models(&[arm], &[model], config);
        batch.sync_lane(0, params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25)));
        batch.assess_lanes(&[Some(dac)])[0].expect("synced").features
    }

    #[test]
    fn features_are_magnitudes_that_grow_with_the_command() {
        let rest = one_step_features([0, 0, 0], 1e-3);
        assert!(rest.ee_step < 1e-4, "resting arm should not step {}", rest.ee_step);
        let quiet = one_step_features([100, 0, 0], 1e-3);
        let violent = one_step_features([30_000, 0, 0], 1e-3);
        let reverse = one_step_features([-30_000, 0, 0], 1e-3);
        for f in [rest, quiet, violent, reverse] {
            assert!(f.flattened().iter().chain([&f.ee_step]).all(|v| v.is_finite() && *v >= 0.0));
        }
        assert!(violent.motor_accel[0] > 10.0 * quiet.motor_accel[0].max(1.0));
        assert!(violent.motor_vel[0] > quiet.motor_vel[0]);
        assert!(reverse.motor_vel[0] > quiet.motor_vel[0]);
    }

    #[test]
    #[should_panic(expected = "invalid feature dt")]
    fn zero_dt_panics() {
        let _ = one_step_features([100, 0, 0], 0.0);
    }

    #[test]
    fn unsynced_lane_yields_none_and_does_not_count() {
        let (arm, model, params) = session(1);
        let config = DetectorConfig::default();
        let mut batch =
            BatchDetector::from_models(&[arm.clone(), arm], &[model.clone(), model], config);
        let mpos = params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25));
        batch.sync_lane(0, mpos);
        let verdicts = batch.assess_lanes(&[Some([100, 0, 0]), Some([100, 0, 0])]);
        assert!(verdicts[0].is_some());
        assert!(verdicts[1].is_none());
        assert_eq!(batch.lane_assessments(1), 0);
    }

    #[test]
    fn masked_assessment_parks_lanes_without_perturbing_siblings() {
        // An engaged lane beside a parking sibling is bit-identical to the
        // same lane in a batch of its own; parked lanes don't assess,
        // don't count, and resume cleanly.
        let (arm, model, params) = session(3);
        let thresholds = trained_thresholds(&arm, &model, &params);
        let config = DetectorConfig::default();
        let mut masked = BatchDetector::from_models(
            &[arm.clone(), arm.clone()],
            &[model.clone(), model.clone()],
            config,
        );
        let mut solo = BatchDetector::from_models(
            std::slice::from_ref(&arm),
            std::slice::from_ref(&model),
            config,
        );
        masked.arm_lane(0, thresholds);
        masked.arm_lane(1, thresholds);
        solo.arm_lane(0, thresholds);

        let coupling = params.coupling();
        for k in 0..30u64 {
            let t = k as f64 * 1e-3;
            let j = JointState::new(0.1 * (2.0 * t).sin(), 1.4 + 0.05 * (3.0 * t).cos(), 0.25);
            let mpos = coupling.joints_to_motors(&j);
            masked.sync_lane(0, mpos);
            solo.sync_lane(0, mpos);
            let dac = [400, -200, 150];
            // Lane 1 alternates active/parked; lane 0 never parks.
            let lane1 = if k % 3 == 0 {
                masked.sync_lane(1, mpos);
                Some(dac)
            } else {
                None
            };
            let got = masked.assess_lanes(&[Some(dac), lane1]).to_vec();
            let expected = solo.assess_lanes(&[Some(dac)])[0];
            assert_eq!(got[0], expected, "engaged lane diverged at cycle {k}");
            assert_eq!(got[1].is_some(), lane1.is_some());
        }
        assert_eq!(masked.lane_assessments(0), solo.lane_assessments(0));
        assert_eq!(masked.lane_assessments(1), 10);
    }

    #[test]
    fn admit_retire_recycles_a_lane_onto_a_new_session() {
        let (arm_a, model_a, params) = session(4);
        let (arm_b, model_b, _) = session(5);
        let thresholds = trained_thresholds(&arm_a, &model_a, &params);
        let config = DetectorConfig::default();
        let mut batch = BatchDetector::from_models(
            &[arm_a.clone(), arm_a.clone()],
            &[model_a.clone(), model_a.clone()],
            config,
        );
        batch.arm_lane(0, thresholds);
        batch.arm_lane(1, thresholds);
        let mut fresh = BatchDetector::from_models(
            std::slice::from_ref(&arm_b),
            std::slice::from_ref(&model_b),
            config,
        );
        fresh.arm_lane(0, thresholds);

        let coupling = params.coupling();
        let mpos = coupling.joints_to_motors(&JointState::new(0.0, 1.4, 0.25));
        batch.sync_lane(0, mpos);
        batch.sync_lane(1, mpos);
        batch.assess_lanes(&[Some([300, 0, 0]), Some([300, 0, 0])]);
        assert_eq!(batch.lane_assessments(1), 1);

        // Session on lane 1 leaves; a new session (different model) takes
        // the lane. The recycled lane must match a from-scratch batch of
        // the new session bit-for-bit.
        batch.retire_lane(1);
        assert_eq!(batch.lane_mode(1), DetectorMode::Learning);
        assert_eq!(batch.lane_assessments(1), 0);
        batch.admit_lane(1, arm_b, &model_b, Some(thresholds));
        assert_eq!(batch.lane_mode(1), DetectorMode::Armed);

        for k in 0..20u64 {
            let t = k as f64 * 1e-3;
            let j = JointState::new(0.08 * (2.5 * t).sin(), 1.42, 0.24);
            let m = coupling.joints_to_motors(&j);
            batch.sync_lane(0, mpos);
            batch.sync_lane(1, m);
            fresh.sync_lane(0, m);
            let got = batch.assess_lanes(&[Some([200, 0, 0]), Some([500, -100, 50])]).to_vec();
            let expected = fresh.assess_lanes(&[Some([500, -100, 50])])[0];
            assert_eq!(got[1], expected, "recycled lane diverged at cycle {k}");
        }
        assert_eq!(batch.lane_assessments(1), fresh.lane_assessments(0));
    }

    #[test]
    #[should_panic(expected = "integrator configuration")]
    fn admitting_a_mismatched_model_config_panics() {
        let (arm, model, _) = session(6);
        let mut batch = BatchDetector::from_models(
            std::slice::from_ref(&arm),
            std::slice::from_ref(&model),
            DetectorConfig::default(),
        );
        let other = RtModel::with_config(
            *model.params(),
            raven_dynamics::RtModelConfig { step_size: 5e-4, ..model.config() },
        );
        batch.admit_lane(0, arm, &other, None);
    }

    #[test]
    fn estop_flag_is_per_lane() {
        let (arm, model, params) = session(2);
        let thresholds = trained_thresholds(&arm, &model, &params);
        let config = DetectorConfig::default();
        let mut batch =
            BatchDetector::from_models(&[arm.clone(), arm], &[model.clone(), model], config);
        batch.arm_lane(0, thresholds);
        batch.arm_lane(1, thresholds);
        let coupling = params.coupling();
        let calm = coupling.joints_to_motors(&JointState::new(0.0, 1.4, 0.25));
        batch.sync_lane(0, calm);
        batch.sync_lane(1, calm);
        batch.assess_lanes(&[Some([150, 0, 0]), Some([150, 0, 0])]);
        // Lane 1 sees a runaway measurement + saturating command.
        let mut hot = calm;
        hot.angles[0] += 0.05;
        batch.sync_lane(0, calm);
        batch.sync_lane(1, hot);
        let verdicts = batch.assess_lanes(&[Some([150, 0, 0]), Some([32_000, 0, 0])]);
        assert!(!verdicts[0].expect("lane 0").alarm());
        assert!(verdicts[1].expect("lane 1").alarm());
        assert!(!batch.lane_estop_requested(0));
        assert!(batch.lane_estop_requested(1));
        assert_eq!(batch.lane_first_alarm_assessment(1), Some(2));
    }

    #[test]
    fn clearing_a_mutant_restores_the_production_verdicts() {
        // A mutant that has run and then been cleared leaves nothing
        // behind: every later verdict and lane counter is bit-equal to a
        // twin batch that was never mutated.
        let sessions: Vec<_> = (7..10).map(session).collect();
        let thresholds = trained_thresholds(&sessions[0].0, &sessions[0].1, &sessions[0].2);
        let arms: Vec<_> = sessions.iter().map(|(a, _, _)| a.clone()).collect();
        let models: Vec<_> = sessions.iter().map(|(_, m, _)| m.clone()).collect();
        let coupling = sessions[0].2.coupling();
        let calm = coupling.joints_to_motors(&JointState::new(0.0, 1.4, 0.25));
        let mut hot = calm;
        hot.angles[0] += 0.05;
        // Per lane and cycle: calm or runaway measurement, gentle or
        // saturating command, so both alarm outcomes occur.
        let drive = |batch: &mut BatchDetector, k: usize| -> Vec<Option<Assessment>> {
            let mut dacs = [None; 3];
            for (l, dac) in dacs.iter_mut().enumerate() {
                let violent = (k + l).is_multiple_of(3);
                batch.sync_lane(l, if violent { hot } else { calm });
                *dac = Some(if violent { [32_000, -300, 0] } else { [150 + 50 * l as i16, 0, 0] });
            }
            batch.assess_lanes(&dacs).to_vec()
        };
        let bits = |v: &[Option<Assessment>]| -> Vec<Option<(Vec<u64>, bool, bool)>> {
            v.iter()
                .map(|a| {
                    a.map(|a| {
                        let f = a.features;
                        let raw = f.flattened().into_iter().chain([f.ee_step]).map(f64::to_bits);
                        (raw.collect(), a.threshold_alarm, a.ee_alarm)
                    })
                })
                .collect()
        };
        for mutant in DetectorMutation::ALL {
            let mut mutated = BatchDetector::from_models(&arms, &models, DetectorConfig::default());
            let mut twin = BatchDetector::from_models(&arms, &models, DetectorConfig::default());
            for l in 0..3 {
                mutated.arm_lane(l, thresholds);
                twin.arm_lane(l, thresholds);
            }
            mutated.set_mutation(Some(mutant));
            for k in 0..6 {
                drive(&mut mutated, k);
                drive(&mut twin, k);
            }
            mutated.set_mutation(None);
            assert_eq!(mutated.mutation(), None);
            // The mutant may have bent this session's bookkeeping; a new
            // session on both batches starts the comparison clean.
            for l in 0..3 {
                mutated.reset_session(l);
                twin.reset_session(l);
            }
            for k in 0..9 {
                let got = drive(&mut mutated, k);
                let want = drive(&mut twin, k);
                assert_eq!(bits(&got), bits(&want), "{mutant}: verdicts diverged at cycle {k}");
            }
            for l in 0..3 {
                assert_eq!(mutated.lane_assessments(l), twin.lane_assessments(l), "{mutant}");
                assert_eq!(mutated.lane_alarms(l), twin.lane_alarms(l), "{mutant}");
                assert_eq!(
                    mutated.lane_first_alarm_assessment(l),
                    twin.lane_first_alarm_assessment(l),
                    "{mutant}"
                );
                assert_eq!(
                    mutated.lane_estop_requested(l),
                    twin.lane_estop_requested(l),
                    "{mutant}"
                );
            }
            assert!(twin.lane_alarms(0) > 0, "the drive must exercise the alarm path");
        }
    }
}
