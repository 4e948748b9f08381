//! The dynamic model-based anomaly detector and its mitigation policies —
//! the paper's §IV.C, implemented as a guard on the USB write path.
//!
//! Placement matters: the paper argues the detector belongs "at lower layers
//! of control structure and just before the commands are going to be
//! executed on the physical robot" (§IV.C), downstream of any compromised
//! software. [`GuardInterceptor`] therefore runs at the interceptor chain's
//! guard slot, downstream of the malware: it sees exactly the bytes the board
//! would execute — including any malware mutations — and vets them against
//! the model's one-step prediction *before* they reach the motors.

use raven_dynamics::RtModel;
use raven_hw::channel::{Interceptor, WriteAction, WriteContext};
use raven_hw::{RobotState, UsbCommandPacket};
use raven_kinematics::{ArmConfig, MotorState, NUM_AXES};
use serde::{Deserialize, Serialize};
use simbus::obs::{names, spans, Event, EventKind, Severity};
use simbus::{SpanGuard, SpanHandle};

use crate::batch::BatchDetector;
use crate::features::InstantFeatures;
use crate::thresholds::{DetectionThresholds, ThresholdLearner};

/// What to do when a command is judged unsafe (paper §IV.C: "either
/// correcting the malicious control command by forcing the robot to stay in
/// a previously safe state or stopping the commands from execution and put
/// the control software into a safe state (E-STOP)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Mitigation {
    /// Record alarms but forward every command unchanged (shadow mode) —
    /// used by the evaluation campaigns to measure detection probability
    /// without altering the physical outcome (Table IV, Fig. 9).
    Observe,
    /// Replace the command with a zero-torque hold and keep holding for a
    /// cooldown window (availability-preserving: the brakes stay off and
    /// teleoperation resumes once commands look safe again).
    BlockAndHold,
    /// Suppress the command and demand an emergency stop
    /// (safety-maximizing).
    #[default]
    EStop,
}

/// How per-variable threshold exceedances combine into an alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FusionRule {
    /// The paper's rule: alarm only when motor acceleration, motor velocity
    /// AND joint velocity all exceed on some axis ("raises an alert only
    /// when all three variables indicate an abnormality", §IV.C).
    #[default]
    AllThree,
    /// Ablation: any single exceedance alarms (more sensitive, more false
    /// alarms — the case the paper's fusion is designed to avoid).
    AnyOne,
}

/// Detector configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Percentile band for threshold learning (paper: 99.8–99.9).
    pub percentile_band: (f64, f64),
    /// Alarm fusion rule.
    pub fusion: FusionRule,
    /// Prediction horizon in control steps. 1 reproduces the paper's
    /// detector; 2 matches its "1 mm jump within 1–2 milliseconds" phrasing
    /// exactly; larger horizons model the §IV.C future-work "custom trusted
    /// hardware module" with budget for deeper rollouts: the candidate
    /// command is *held* for `lookahead_steps` model steps and the
    /// cumulative end-effector displacement is checked against the limit.
    /// The rollout's last step only needs the end pose: under Euler it
    /// advances positions without evaluating the dynamics, so a horizon
    /// of `h > 1` costs `h − 1` derivative evaluations (`4h` under RK4).
    pub lookahead_steps: u32,
    /// Hard cap on the predicted end-effector step per control period
    /// (paper: 1 mm per 1–2 ms, from expert surgeons).
    pub ee_step_limit: f64,
    /// Mitigation policy on alarm.
    pub mitigation: Mitigation,
    /// Cycles to keep substituting after an alarm in
    /// [`Mitigation::BlockAndHold`] — prevents an attacker from ratcheting
    /// velocity up between isolated alarms.
    pub hold_cooldown_cycles: u32,
    /// Control period (seconds).
    pub dt: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            percentile_band: (99.8, 99.9),
            fusion: FusionRule::AllThree,
            lookahead_steps: 2,
            ee_step_limit: 1.0e-3,
            mitigation: Mitigation::EStop,
            hold_cooldown_cycles: 50,
            dt: 1e-3,
        }
    }
}

/// One command assessment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Assessment {
    /// The computed instant features.
    pub features: InstantFeatures,
    /// Fused threshold exceedance (motor accel ∧ motor vel ∧ joint vel on
    /// some axis).
    pub threshold_alarm: bool,
    /// Predicted end-effector step above the hard 1 mm limit.
    pub ee_alarm: bool,
}

impl Assessment {
    /// Overall alarm decision.
    pub fn alarm(&self) -> bool {
        self.threshold_alarm || self.ee_alarm
    }
}

/// Operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorMode {
    /// Accumulating fault-free statistics; never alarms.
    Learning,
    /// Armed with thresholds; assessing every Pedal-Down command.
    Armed,
}

/// Attempted to arm a detector that never saw a fault-free sample — there
/// is nothing to learn thresholds from (the paper's protocol trains on 600
/// fault-free runs first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoFaultFreeSamples;

impl std::fmt::Display for NoFaultFreeSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("cannot arm: no fault-free samples observed")
    }
}

impl std::error::Error for NoFaultFreeSamples {}

/// The detector core: real-time model + measurement tracking + thresholds.
///
/// The verdict chain itself runs on a 1-lane [`BatchDetector`], the
/// single implementation shared with fleet monitoring. This type adds
/// what only a guarded robot needs: threshold learning, the mitigation
/// state the [`GuardInterceptor`] acts on, and the verdict and
/// mitigation-window spans.
///
/// Its owner feeds encoder measurements each cycle via
/// [`DynamicDetector::sync_measurement`] and lends it to a
/// [`GuardInterceptor`] for each command write.
#[derive(Debug)]
pub struct DynamicDetector {
    model: RtModel,
    /// The verdict chain: lane 0 is this session.
    core: BatchDetector,
    learner: ThresholdLearner,
    /// Ring buffer of recent non-alarming commands; substitution uses the
    /// *oldest* entry (~128 ms back), guaranteed to predate any attack the
    /// detector catches within its latency.
    safe_history: std::collections::VecDeque<[i16; raven_hw::DAC_CHANNELS]>,
    hold_cooldown: u32,
    spans: SpanHandle,
    /// Open `span.mitigation.window` guard: opened on the first alarm,
    /// closed when the hold cooldown drains (or at session reset/teardown).
    mitigation_span: Option<SpanGuard>,
}

impl DynamicDetector {
    /// Creates a detector in learning mode.
    ///
    /// `model` is the real-time model — typically built from a *perturbed*
    /// parameter set, reflecting that the paper's hand-tuned model does not
    /// match the robot exactly (Fig. 8).
    pub fn new(arm: ArmConfig, model: RtModel, config: DetectorConfig) -> Self {
        let core = BatchDetector::from_models(&[arm], std::slice::from_ref(&model), config);
        DynamicDetector {
            model,
            core,
            learner: ThresholdLearner::new(),
            safe_history: std::collections::VecDeque::new(),
            hold_cooldown: 0,
            spans: SpanHandle::default(),
            mitigation_span: None,
        }
    }

    /// Installs a span handle so every assessment runs under a
    /// `span.detector.verdict` span and alarms open the
    /// `span.mitigation.window` span. Disabled handles cost nothing.
    pub fn set_span_handle(&mut self, handle: SpanHandle) {
        self.spans = handle;
    }

    /// Closes the mitigation-window span, if one is open.
    pub fn close_mitigation_window(&mut self) {
        self.mitigation_span = None;
    }

    /// Installs (or clears) a kill-suite mutant. Test-only: exists solely
    /// for the `raven-verify` mutation kill-suite.
    #[cfg(feature = "mutant-hooks")]
    pub fn set_mutation(&mut self, mutation: Option<crate::mutants::DetectorMutation>) {
        self.core.set_mutation(mutation);
    }

    /// The installed kill-suite mutant, if any.
    #[cfg(feature = "mutant-hooks")]
    pub fn mutation(&self) -> Option<crate::mutants::DetectorMutation> {
        self.core.mutation()
    }

    /// Current mode.
    pub fn mode(&self) -> DetectorMode {
        self.core.lane_mode(0)
    }

    /// The configuration.
    pub fn config(&self) -> DetectorConfig {
        self.core.config()
    }

    /// Learned thresholds, once armed.
    pub fn thresholds(&self) -> Option<&DetectionThresholds> {
        self.core.lane_thresholds(0)
    }

    /// The threshold learner (for inspection and the 600-run protocol).
    pub fn learner(&self) -> &ThresholdLearner {
        &self.learner
    }

    /// The real-time model the assessment path is configured from. The
    /// actual stepping runs on a 1-lane batch kernel built from this
    /// model's parameters; the two are bit-identical by the batch
    /// module's equivalence contract.
    pub fn model(&self) -> &RtModel {
        &self.model
    }

    /// Commands assessed while armed.
    pub fn assessments(&self) -> u64 {
        self.core.lane_assessments(0)
    }

    /// Alarms raised while armed.
    pub fn alarms(&self) -> u64 {
        self.core.lane_alarms(0)
    }

    /// `true` once any alarm has fired in this session.
    pub fn alarmed(&self) -> bool {
        self.alarms() > 0
    }

    /// Assessment index (1-based) of the first alarm, if any — the basis of
    /// detection-latency measurements.
    pub fn first_alarm_assessment(&self) -> Option<u64> {
        self.core.lane_first_alarm_assessment(0)
    }

    /// `true` when the E-STOP mitigation has been requested.
    pub fn estop_requested(&self) -> bool {
        self.core.lane_estop_requested(0)
    }

    /// Feeds the measured motor positions for this cycle (from the encoder
    /// feedback). The detector reconstructs velocities by differencing and
    /// joint states through the coupling — the same information the real
    /// detector extracts from the USB read path.
    pub fn sync_measurement(&mut self, mpos: MotorState) {
        self.core.sync_lane(0, mpos);
    }

    /// Assesses a candidate DAC command against the model's prediction.
    /// Returns `None` when no measurement has been synced yet.
    ///
    /// The instant features come from the one-step prediction (the paper's
    /// detector); with `lookahead_steps > 1` the command is additionally
    /// rolled out over the horizon and the *cumulative* end-effector
    /// displacement is checked against the limit. In learning mode the
    /// features feed the threshold learner and never alarm.
    pub fn assess(&mut self, dac: &[i16; NUM_AXES]) -> Option<Assessment> {
        let _verdict = self.spans.begin(spans::DETECTOR_VERDICT);
        let assessment = self.core.assess_lanes(std::slice::from_ref(dac))[0]?;
        if self.mode() == DetectorMode::Learning {
            self.learner.observe(&assessment.features);
        } else if assessment.alarm() && self.spans.is_enabled() && self.mitigation_span.is_none() {
            self.mitigation_span = Some(self.spans.begin_floating(spans::MITIGATION_WINDOW));
        }
        Some(assessment)
    }

    /// Marks the end of one fault-free learning run.
    pub fn end_learning_run(&mut self) {
        self.learner.end_run();
    }

    /// Finalizes learning: computes thresholds at the configured percentile
    /// band and arms the detector.
    ///
    /// # Errors
    ///
    /// Returns [`NoFaultFreeSamples`] when no fault-free samples were
    /// observed — there is nothing to learn from.
    pub fn arm(&mut self) -> Result<(), NoFaultFreeSamples> {
        let (lo, hi) = self.config().percentile_band;
        let thresholds = self.learner.learn(lo, hi).ok_or(NoFaultFreeSamples)?;
        self.arm_with(thresholds);
        Ok(())
    }

    /// Arms with externally supplied thresholds (e.g. deserialized from a
    /// previous training campaign).
    pub fn arm_with(&mut self, thresholds: DetectionThresholds) {
        self.core.arm_lane(0, thresholds);
    }

    /// Clears per-session alarm state (between campaign runs).
    pub fn reset_session(&mut self) {
        self.core.reset_session(0);
        self.safe_history.clear();
        self.hold_cooldown = 0;
        self.mitigation_span = None;
    }

    /// Depth of the safe-command history (cycles).
    const SAFE_HISTORY_DEPTH: usize = 128;

    fn remember_safe(&mut self, dac: [i16; raven_hw::DAC_CHANNELS]) {
        if self.safe_history.len() == Self::SAFE_HISTORY_DEPTH {
            self.safe_history.pop_front();
        }
        self.safe_history.push_back(dac);
    }

    /// The oldest remembered safe command, if any.
    fn held_safe(&self) -> Option<[i16; raven_hw::DAC_CHANNELS]> {
        self.safe_history.front().copied()
    }

    // ---- guard-side kill-suite hook points --------------------------
    //
    // The verdict hooks live on `BatchDetector`; these three sabotage
    // only the mitigation the guard actuates. The `not(mutant-hooks)`
    // versions are the production logic, verbatim. See `crate::mutants`.

    /// Whether the guard's block/substitute path is active at all.
    #[cfg(not(feature = "mutant-hooks"))]
    fn block_path_enabled(&self) -> bool {
        true
    }

    #[cfg(feature = "mutant-hooks")]
    fn block_path_enabled(&self) -> bool {
        self.mutation() != Some(crate::mutants::DetectorMutation::BlockPathDisabled)
    }

    /// Cooldown cycles loaded after an alarming block-and-hold cycle.
    #[cfg(not(feature = "mutant-hooks"))]
    fn cooldown_reload(&self) -> u32 {
        self.config().hold_cooldown_cycles
    }

    #[cfg(feature = "mutant-hooks")]
    fn cooldown_reload(&self) -> u32 {
        if self.mutation() == Some(crate::mutants::DetectorMutation::CooldownIgnored) {
            0
        } else {
            self.config().hold_cooldown_cycles
        }
    }

    /// The remembered safe command that block-and-hold substitutes.
    #[cfg(not(feature = "mutant-hooks"))]
    fn substitution_source(&self) -> Option<[i16; raven_hw::DAC_CHANNELS]> {
        self.held_safe()
    }

    #[cfg(feature = "mutant-hooks")]
    fn substitution_source(&self) -> Option<[i16; raven_hw::DAC_CHANNELS]> {
        if self.mutation() == Some(crate::mutants::DetectorMutation::HoldSubstitutesLatest) {
            self.safe_history.back().copied()
        } else {
            self.held_safe()
        }
    }
}

/// The write-path guard: assesses every Pedal-Down command packet before it
/// reaches the USB board, and mitigates on alarm.
///
/// It borrows the detector its owner holds for the length of one write and
/// reports assessments, verdicts and blocked commands into the observer of
/// the [`WriteContext`] (events stamped with the write's virtual time).
#[derive(Debug)]
pub struct GuardInterceptor<'a> {
    detector: &'a mut DynamicDetector,
}

impl<'a> GuardInterceptor<'a> {
    /// Interceptor name.
    pub const NAME: &'static str = "dynamic-model-guard";

    /// Creates a guard over a borrowed detector.
    pub fn new(detector: &'a mut DynamicDetector) -> Self {
        GuardInterceptor { detector }
    }
}

impl Interceptor for GuardInterceptor<'_> {
    fn on_write(&mut self, buf: &mut Vec<u8>, ctx: &mut WriteContext<'_>) -> WriteAction {
        let Ok(pkt) = UsbCommandPacket::decode_unchecked(buf) else {
            // Undecodable buffers cannot be executed by the board anyway.
            return WriteAction::Forward;
        };
        // Outside Pedal Down the brakes hold the robot; commands are inert.
        if pkt.state != RobotState::PedalDown {
            return WriteAction::Forward;
        }
        let det = &mut *self.detector;
        let dac3 = [pkt.dac[0], pkt.dac[1], pkt.dac[2]];
        let Some(assessment) = det.assess(&dac3) else {
            return WriteAction::Forward;
        };
        if det.mode() == DetectorMode::Armed {
            ctx.obs.metrics.inc(names::DETECTOR_ASSESSMENTS);
        }
        let holding = det.hold_cooldown > 0;
        if !assessment.alarm() && !holding {
            det.remember_safe(pkt.dac);
            return WriteAction::Forward;
        }
        // "blocked" = the board does not receive the command verbatim
        // (dropped outright, or substituted with a safe hold).
        let (action, blocked) = if !det.block_path_enabled() {
            (WriteAction::Forward, false)
        } else {
            match det.config().mitigation {
                Mitigation::Observe => (WriteAction::Forward, false),
                Mitigation::EStop => (WriteAction::Drop, true),
                Mitigation::BlockAndHold => {
                    // Substitute a zero-torque hold, keeping the incoming
                    // state byte (the watchdog must keep toggling or the
                    // PLC will independently E-STOP), and keep substituting
                    // through the cooldown window. Substituting the *last
                    // seen* command would be unsafe: the first packets of
                    // an injection pass before velocity builds and would be
                    // replayed forever.
                    if assessment.alarm() {
                        det.hold_cooldown = det.cooldown_reload();
                    } else {
                        det.hold_cooldown = det.hold_cooldown.saturating_sub(1);
                        if det.hold_cooldown == 0 {
                            det.close_mitigation_window();
                        }
                    }
                    match det.substitution_source() {
                        None => (WriteAction::Drop, true),
                        Some(mut dac) => {
                            // Wrist channels are positional set-points, not
                            // torques — hold them at their freshly
                            // commanded values.
                            dac[3..].copy_from_slice(&pkt.dac[3..]);
                            let replacement =
                                UsbCommandPacket { state: pkt.state, watchdog: pkt.watchdog, dac };
                            buf.clear();
                            buf.extend_from_slice(&replacement.encode());
                            (WriteAction::Forward, true)
                        }
                    }
                }
            }
        };
        if blocked {
            ctx.obs.metrics.inc(names::DETECTOR_BLOCKED_COMMANDS);
        }
        if assessment.alarm() {
            ctx.obs.metrics.inc(names::DETECTOR_ALARMS);
            let action_label = match action {
                WriteAction::Drop => "drop",
                WriteAction::Forward if blocked => "hold",
                WriteAction::Forward => "observe",
            };
            ctx.obs.event(
                Event::new(ctx.time, "detector", Severity::Warn, EventKind::DetectorVerdict)
                    .with("assessment", det.assessments())
                    .with("seq", ctx.seq)
                    .with("threshold_alarm", assessment.threshold_alarm)
                    .with("ee_alarm", assessment.ee_alarm)
                    .with("ee_step_mm", assessment.features.ee_step * 1e3)
                    .with("action", action_label),
            );
        }
        action
    }

    fn name(&self) -> &str {
        Self::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_dynamics::PlantParams;
    use raven_kinematics::JointState;
    use simbus::{Observer, SimTime};

    fn setup(mitigation: Mitigation) -> (DynamicDetector, PlantParams) {
        let params = PlantParams::raven_ii();
        let arm = ArmConfig::builder().coupling(params.coupling()).build();
        let model = RtModel::new(params.perturbed(1, 0.02));
        let config = DetectorConfig { mitigation, ..DetectorConfig::default() };
        let det = DynamicDetector::new(arm, model, config);
        (det, params)
    }

    /// Trains on gentle synthetic motion and arms.
    fn train_and_arm(d: &mut DynamicDetector, params: &PlantParams) {
        let coupling = params.coupling();
        for k in 0..2000u64 {
            let t = k as f64 * 1e-3;
            // Gentle sinusoidal joint motion, ~0.1 rad amplitude.
            let j = JointState::new(
                0.1 * (2.0 * t).sin(),
                1.4 + 0.08 * (1.5 * t).cos(),
                0.25 + 0.01 * (1.0 * t).sin(),
            );
            d.sync_measurement(coupling.joints_to_motors(&j));
            d.assess(&[200, 150, -100]);
        }
        d.end_learning_run();
        d.arm().expect("training fed fault-free samples");
    }

    /// Feeds a measurement showing the shoulder motor running away
    /// (~50 rad/s over one cycle), as seen mid-injection.
    fn runaway_measurement(det: &mut DynamicDetector, params: &PlantParams) {
        let mut m = params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25));
        m.angles[0] += 0.05;
        det.sync_measurement(m);
    }

    fn pedal_down_packet(dac0: i16) -> Vec<u8> {
        UsbCommandPacket {
            state: RobotState::PedalDown,
            watchdog: true,
            dac: [dac0, 0, 0, 0, 0, 0, 0, 0],
        }
        .encode()
        .to_vec()
    }

    fn ctx(obs: &mut Observer) -> WriteContext<'_> {
        WriteContext {
            time: SimTime::ZERO,
            seq: 0,
            process: raven_hw::UsbChannel::PROCESS,
            fd: raven_hw::UsbChannel::BOARD_FD,
            obs,
        }
    }

    /// Runs one write through a guard over `det`.
    fn guard_write(
        det: &mut DynamicDetector,
        buf: &mut Vec<u8>,
        obs: &mut Observer,
    ) -> WriteAction {
        GuardInterceptor::new(det).on_write(buf, &mut ctx(obs))
    }

    /// Resets the session and syncs a resting measurement.
    fn rest(det: &mut DynamicDetector, params: &PlantParams) {
        det.reset_session();
        det.sync_measurement(params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25)));
    }

    #[test]
    fn learning_mode_never_alarms() {
        let (mut d, params) = setup(Mitigation::EStop);
        d.sync_measurement(params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25)));
        let a = d.assess(&[30_000, 0, 0]).unwrap();
        assert!(!a.alarm());
        assert_eq!(d.alarms(), 0);
        assert_eq!(d.mode(), DetectorMode::Learning);
    }

    #[test]
    fn armed_detector_flags_violent_command_and_passes_gentle() {
        let (mut d, params) = setup(Mitigation::EStop);
        train_and_arm(&mut d, &params);
        d.reset_session(); // fresh session: no stale differenced velocity
        d.sync_measurement(params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25)));
        let gentle = d.assess(&[150, 100, -50]).unwrap();
        assert!(!gentle.alarm(), "gentle command must pass: {gentle:?}");
        // Mid-attack: the measured motors are already running away (as they
        // are a couple of milliseconds into a torque injection), and the
        // malicious command would keep accelerating them.
        let mut m = params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25));
        m.angles[0] += 0.05; // 50 rad/s measured over one cycle
        d.sync_measurement(m);
        let violent = d.assess(&[32_000, 0, 0]).unwrap();
        assert!(violent.alarm(), "runaway + saturating command must alarm: {violent:?}");
        assert!(d.alarmed());
        assert!(d.estop_requested());
    }

    #[test]
    fn guard_drops_alarming_packet_in_estop_mode() {
        let (mut det, params) = setup(Mitigation::EStop);
        let mut obs = Observer::default();
        train_and_arm(&mut det, &params);
        rest(&mut det, &params);
        let mut safe = pedal_down_packet(150);
        assert_eq!(guard_write(&mut det, &mut safe, &mut obs), WriteAction::Forward);
        runaway_measurement(&mut det, &params);
        let mut hot = pedal_down_packet(32_000);
        assert_eq!(guard_write(&mut det, &mut hot, &mut obs), WriteAction::Drop);
        assert!(det.estop_requested());
    }

    #[test]
    fn guard_substitutes_last_safe_in_hold_mode() {
        let (mut det, params) = setup(Mitigation::BlockAndHold);
        let mut obs = Observer::default();
        train_and_arm(&mut det, &params);
        rest(&mut det, &params);
        let mut safe = pedal_down_packet(150);
        guard_write(&mut det, &mut safe, &mut obs);
        runaway_measurement(&mut det, &params);
        let mut hot = pedal_down_packet(32_000);
        assert_eq!(guard_write(&mut det, &mut hot, &mut obs), WriteAction::Forward);
        let substituted = UsbCommandPacket::decode_unchecked(&hot).unwrap();
        assert_eq!(substituted.dac[0], 150, "last-safe DAC substituted");
        assert!(!det.estop_requested(), "hold mode must not demand E-STOP");
    }

    #[test]
    fn guard_ignores_non_pedal_down_states() {
        let (mut det, params) = setup(Mitigation::EStop);
        train_and_arm(&mut det, &params);
        det.sync_measurement(params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25)));
        let mut pkt =
            UsbCommandPacket { state: RobotState::PedalUp, watchdog: true, dac: [32_000; 8] }
                .encode()
                .to_vec();
        let mut obs = Observer::default();
        assert_eq!(guard_write(&mut det, &mut pkt, &mut obs), WriteAction::Forward);
        assert_eq!(det.assessments(), 0);
    }

    #[test]
    fn guard_forwards_without_measurement() {
        let (mut det, params) = setup(Mitigation::EStop);
        train_and_arm(&mut det, &params);
        det.reset_session(); // clears the tracked state
        let mut pkt = pedal_down_packet(32_000);
        let mut obs = Observer::default();
        assert_eq!(guard_write(&mut det, &mut pkt, &mut obs), WriteAction::Forward);
    }

    #[test]
    fn reset_session_clears_counters_but_keeps_thresholds() {
        let (mut d, params) = setup(Mitigation::EStop);
        train_and_arm(&mut d, &params);
        d.sync_measurement(params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25)));
        d.assess(&[32_000, 0, 0]);
        assert!(d.alarmed());
        d.reset_session();
        assert!(!d.alarmed());
        assert!(!d.estop_requested());
        assert_eq!(d.mode(), DetectorMode::Armed);
        assert!(d.thresholds().is_some());
    }

    #[test]
    fn arming_without_samples_errors() {
        let (mut det, _) = setup(Mitigation::EStop);
        assert_eq!(det.arm(), Err(NoFaultFreeSamples));
        assert_eq!(det.mode(), DetectorMode::Learning);
    }

    #[test]
    fn observed_guard_reports_assessments_verdicts_and_blocks() {
        let (mut det, params) = setup(Mitigation::EStop);
        train_and_arm(&mut det, &params);
        rest(&mut det, &params);
        let mut o = Observer::new(64);
        let mut safe = pedal_down_packet(150);
        guard_write(&mut det, &mut safe, &mut o);
        runaway_measurement(&mut det, &params);
        let mut hot = pedal_down_packet(32_000);
        assert_eq!(guard_write(&mut det, &mut hot, &mut o), WriteAction::Drop);
        assert_eq!(o.metrics.counter("detector.assessments"), 2);
        assert_eq!(o.metrics.counter("detector.alarms"), 1);
        assert_eq!(o.metrics.counter("detector.blocked_commands"), 1);
        assert_eq!(o.events.count_kind("detector.verdict"), 1);
        let verdict = o.events.last().unwrap();
        assert_eq!(verdict.field("action"), Some(&simbus::obs::FieldValue::Str("drop".into())));
    }
}
