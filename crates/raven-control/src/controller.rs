//! The RAVEN control software: one object, one method per 1 ms cycle.
//!
//! [`RavenController::cycle`] is the software control loop of Fig. 1(b) and
//! Fig. 2 in the paper: ingest operator input and encoder feedback, run the
//! state machine, evaluate the kinematic chain, run the PIDs, apply the
//! software safety checks, and emit the USB command packet. Everything the
//! attack later corrupts happens *after* this method returns — that is the
//! TOCTOU gap.

use raven_dynamics::{DacScale, PlantParams};
use raven_hw::{
    RobotState, UsbCommandPacket, UsbFeedbackPacket, DAC_CHANNELS, WRIST_RAD_PER_COUNT,
};
use raven_kinematics::{ArmConfig, JointState, MotorState, NUM_AXES, WRIST_AXES};
use raven_math::Vec3;
use serde::{Deserialize, Serialize};

use crate::chain::{ChainOutput, KinematicChain};
use crate::pid::{Pid, PidGains};
use crate::safety::{SafetyChecker, SafetyConfig};
use crate::state_machine::{ControlEvent, FaultReason, StateMachine};

/// One teleoperation input sample, as decoded from an ITP packet.
///
/// The console sends *incremental* motions ("The operator commands are sent
/// to the control software as incremental motions", paper §II.B).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OperatorInput {
    /// Foot pedal state.
    pub pedal: bool,
    /// Desired end-effector increment for this cycle (meters).
    pub delta_pos: Vec3,
    /// Desired wrist servo positions (radians).
    pub wrist: [f64; WRIST_AXES],
}

/// Calibration and configuration of the control software.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Encoder resolution assumed when decoding feedback (counts/rad).
    pub encoder_counts_per_rad: f64,
    /// DAC scaling used when converting torques to counts.
    pub dac: DacScale,
    /// Torque constants per positioning motor (N·m/A).
    pub torque_constants: [f64; NUM_AXES],
    /// Homing speed (motor rad per cycle).
    pub homing_step: f64,
    /// Homing convergence tolerance (motor rad).
    pub homing_tolerance: f64,
    /// Homing timeout (cycles) before a homing-failure fault.
    pub homing_timeout: u64,
    /// Minimum homing duration (cycles): the init phase runs its mechanical
    /// and electronic self-tests for at least this long (paper §II.B).
    pub homing_min_cycles: u64,
    /// Software safety thresholds.
    pub safety: SafetyConfig,
    /// Largest per-cycle end-effector increment accepted from the console
    /// (meters); larger requests are clamped in magnitude.
    pub max_delta_pos: f64,
    /// Master–slave leash: the desired end-effector position may lead the
    /// measured position by at most this distance (meters). Bounds the
    /// tracking error a network fault — or a scenario-A injection — can
    /// accumulate.
    pub max_tracking_error: f64,
}

impl ControllerConfig {
    /// Configuration matching [`PlantParams::raven_ii`].
    pub fn raven_ii() -> Self {
        let p = PlantParams::raven_ii();
        ControllerConfig {
            encoder_counts_per_rad: p.encoder_counts_per_rad,
            dac: p.dac,
            torque_constants: [
                p.motors[0].torque_constant,
                p.motors[1].torque_constant,
                p.motors[2].torque_constant,
            ],
            homing_step: 0.02,
            homing_tolerance: 0.02,
            homing_timeout: 30_000,
            homing_min_cycles: 150,
            safety: SafetyConfig::raven_ii(),
            max_delta_pos: 5.0e-4, // 0.5 mm per ms = 0.5 m/s tool speed cap
            max_tracking_error: 0.020,
        }
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig::raven_ii()
    }
}

/// Everything one cycle computed — the telemetry the experiments record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CycleTelemetry {
    /// State during this cycle.
    pub state: RobotState,
    /// Measured motor positions.
    pub mpos: MotorState,
    /// Estimated motor velocities (finite difference).
    pub mvel: [f64; NUM_AXES],
    /// Current joints.
    pub jpos: JointState,
    /// Current end-effector position.
    pub pos: Vec3,
    /// Desired motor positions (None outside Init/Pedal Down).
    pub mpos_d: Option<MotorState>,
    /// Desired end-effector position (None outside Pedal Down).
    pub pos_d: Option<Vec3>,
    /// DAC words sent this cycle.
    pub dac: [i16; DAC_CHANNELS],
    /// Safety violation latched this cycle, if any.
    pub fault: Option<FaultReason>,
}

/// The control software.
///
/// # Example
///
/// ```
/// use raven_control::{ControllerConfig, RavenController};
/// use raven_kinematics::ArmConfig;
///
/// let ctl = RavenController::new(ArmConfig::raven_ii_left(), ControllerConfig::raven_ii());
/// assert!(ctl.state_machine().is_estop());
/// ```
#[derive(Debug, Clone)]
pub struct RavenController {
    chain: KinematicChain,
    config: ControllerConfig,
    sm: StateMachine,
    safety: SafetyChecker,
    pids: [Pid; NUM_AXES],
    watchdog_phase: bool,
    watchdog_frozen: bool,
    desired_pos: Option<Vec3>,
    homing_target: Option<MotorState>,
    homing_setpoint: Option<MotorState>,
    homing_elapsed: u64,
    last_mpos: Option<MotorState>,
    wrist_cmd: [f64; WRIST_AXES],
    last_telemetry: Option<CycleTelemetry>,
    cycles: u64,
}

impl RavenController {
    /// Creates the control software in the power-on E-STOP state.
    pub fn new(arm: ArmConfig, config: ControllerConfig) -> Self {
        RavenController {
            chain: KinematicChain::new(arm),
            config,
            sm: StateMachine::new(),
            safety: SafetyChecker::new(config.safety),
            pids: [
                Pid::new(PidGains::raven_positioning()),
                Pid::new(PidGains::raven_positioning()),
                Pid::new(PidGains::raven_insertion()),
            ],
            watchdog_phase: false,
            watchdog_frozen: false,
            desired_pos: None,
            homing_target: None,
            homing_setpoint: None,
            homing_elapsed: 0,
            last_mpos: None,
            wrist_cmd: [0.0; WRIST_AXES],
            last_telemetry: None,
            cycles: 0,
        }
    }

    /// The software state machine (read-only view).
    pub fn state_machine(&self) -> &StateMachine {
        &self.sm
    }

    /// The kinematic chain (read-only view).
    pub fn chain(&self) -> &KinematicChain {
        &self.chain
    }

    /// Telemetry of the most recent cycle.
    pub fn telemetry(&self) -> Option<&CycleTelemetry> {
        self.last_telemetry.as_ref()
    }

    /// Cycles executed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Operator pressed the physical start button.
    pub fn press_start(&mut self) {
        self.sm.apply(ControlEvent::StartPressed);
        self.watchdog_frozen = false;
        self.homing_target = None;
        self.homing_setpoint = None;
        self.homing_elapsed = 0;
    }

    /// Operator pressed the E-STOP button (software side; the PLC latches
    /// independently).
    pub fn press_estop(&mut self) {
        self.latch_fault(FaultReason::OperatorStop);
    }

    /// An external guard (the dynamic-model detector) demands a halt.
    pub fn guard_stop(&mut self) {
        self.latch_fault(FaultReason::GuardStop);
    }

    fn latch_fault(&mut self, reason: FaultReason) {
        self.sm.apply(ControlEvent::Fault(reason));
        // "Upon detecting any unsafe motor commands, the control software
        // stops sending the watchdog signal" (paper §II.B).
        self.watchdog_frozen = true;
        self.desired_pos = None;
        for pid in &mut self.pids {
            pid.reset();
        }
    }

    /// Runs one 1 ms control cycle and returns the USB command packet to
    /// write to the board.
    pub fn cycle(
        &mut self,
        input: Option<&OperatorInput>,
        feedback: &UsbFeedbackPacket,
    ) -> UsbCommandPacket {
        const DT: f64 = 1e-3;
        self.cycles += 1;

        // PLC E-STOP reported through the feedback path: mirror it in
        // software (the hardware has already braked the arm).
        if feedback.plc_fault && !self.sm.is_estop() {
            self.latch_fault(FaultReason::PlcStop);
        }

        // Decode feedback.
        let mpos = self.decode_motors(feedback);
        let mvel = match self.last_mpos {
            Some(last) => {
                let d = mpos.delta(last);
                [d.angles[0] / DT, d.angles[1] / DT, d.angles[2] / DT]
            }
            None => [0.0; NUM_AXES],
        };
        self.last_mpos = Some(mpos);
        let (jpos, pos) = self.chain.current(&mpos);

        // Pedal events.
        if let Some(inp) = input {
            if inp.pedal && self.sm.state() == RobotState::PedalUp {
                self.enter_pedal_down(pos);
            } else if !inp.pedal && self.sm.state() == RobotState::PedalDown {
                self.sm.apply(ControlEvent::PedalReleased);
                self.desired_pos = None;
            }
            self.wrist_cmd = inp.wrist;
        }

        let mut dac = [0i16; DAC_CHANNELS];
        let mut mpos_d: Option<MotorState> = None;
        let mut fault: Option<FaultReason> = None;

        match self.sm.state() {
            RobotState::EStop => { /* outputs stay zero */ }
            RobotState::Init => {
                let target = *self.homing_target.get_or_insert_with(|| {
                    self.chain.arm().joints_to_motors(&self.chain.arm().home_joints())
                });
                let setpoint = self.advance_homing(&mpos, &target);
                mpos_d = Some(setpoint);
                self.run_pids(&setpoint, &mpos, &mvel, DT, &mut dac);
                self.homing_elapsed += 1;
                if self.homing_elapsed >= self.config.homing_min_cycles
                    && setpoint.delta(target).max_abs() < 1e-9
                    && mpos.delta(target).max_abs() < self.config.homing_tolerance
                {
                    self.sm.apply(ControlEvent::HomingComplete);
                    self.desired_pos = None;
                } else if self.homing_elapsed > self.config.homing_timeout {
                    fault = Some(FaultReason::HomingFailure);
                }
            }
            RobotState::PedalUp => {
                // Brakes hold the robot; software idles with zero output.
                for pid in &mut self.pids {
                    pid.reset();
                }
            }
            RobotState::PedalDown => {
                let desired = self.desired_pos.get_or_insert(pos);
                if let Some(inp) = input {
                    let mut d = inp.delta_pos;
                    let n = d.norm();
                    if n > self.config.max_delta_pos {
                        d = d * (self.config.max_delta_pos / n);
                    }
                    *desired += d;
                }
                // Leash the target to the measured position.
                let lead = *desired - pos;
                if lead.norm() > self.config.max_tracking_error {
                    *desired = pos + lead * (self.config.max_tracking_error / lead.norm());
                }
                let desired = *desired;
                match self.chain.resolve(desired) {
                    Ok(out) => {
                        mpos_d = Some(out.desired_motors);
                        self.run_pids(&out.desired_motors, &mpos, &mvel, DT, &mut dac);
                        self.fill_wrist_dac(&mut dac);
                        if let Err(v) = self.safety_check(&out, &mpos, &dac) {
                            fault = Some(v);
                        }
                    }
                    Err(_) => fault = Some(FaultReason::IkFailure),
                }
            }
        }

        if let Some(reason) = fault {
            self.latch_fault(reason);
            dac = [0; DAC_CHANNELS];
            mpos_d = None;
        }

        // Watchdog: a square wave while healthy, frozen after a fault.
        if !self.watchdog_frozen {
            self.watchdog_phase = !self.watchdog_phase;
        }

        self.last_telemetry = Some(CycleTelemetry {
            state: self.sm.state(),
            mpos,
            mvel,
            jpos,
            pos,
            mpos_d,
            pos_d: self.desired_pos,
            dac,
            fault,
        });

        UsbCommandPacket { state: self.sm.state(), watchdog: self.watchdog_phase, dac }
    }

    fn enter_pedal_down(&mut self, current_pos: Vec3) {
        self.sm.apply(ControlEvent::PedalPressed);
        self.desired_pos = Some(current_pos);
        for pid in &mut self.pids {
            pid.reset();
        }
    }

    fn decode_motors(&self, feedback: &UsbFeedbackPacket) -> MotorState {
        let mut angles = [0.0; NUM_AXES];
        for (a, e) in angles.iter_mut().zip(feedback.encoders.iter()) {
            *a = f64::from(*e) / self.config.encoder_counts_per_rad;
        }
        MotorState::new(angles)
    }

    fn advance_homing(&mut self, mpos: &MotorState, target: &MotorState) -> MotorState {
        let mut setpoint = *self.homing_setpoint.get_or_insert(*mpos);
        for i in 0..NUM_AXES {
            let err = target.angles[i] - setpoint.angles[i];
            let step = err.clamp(-self.config.homing_step, self.config.homing_step);
            setpoint.angles[i] += step;
        }
        self.homing_setpoint = Some(setpoint);
        setpoint
    }

    fn run_pids(
        &mut self,
        desired: &MotorState,
        measured: &MotorState,
        mvel: &[f64; NUM_AXES],
        dt: f64,
        dac: &mut [i16; DAC_CHANNELS],
    ) {
        for i in 0..NUM_AXES {
            let err = desired.angles[i] - measured.angles[i];
            let torque = self.pids[i].update(err, mvel[i], dt);
            let current = torque / self.config.torque_constants[i];
            dac[i] = self.config.dac.to_dac(current);
        }
    }

    fn fill_wrist_dac(&self, dac: &mut [i16; DAC_CHANNELS]) {
        for i in 0..WRIST_AXES {
            let counts = self.wrist_cmd[i] / WRIST_RAD_PER_COUNT;
            dac[3 + i] = counts.round().clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16;
        }
    }

    fn safety_check(
        &mut self,
        out: &ChainOutput,
        mpos: &MotorState,
        dac: &[i16; DAC_CHANNELS],
    ) -> Result<(), FaultReason> {
        self.safety
            .check_cycle(&out.desired_joints, &out.desired_motors, mpos, dac)
            .map_err(|v| v.fault_reason())
    }

    /// Total software safety violations latched so far.
    pub fn safety_violations(&self) -> u64 {
        self.safety.violations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_hw::RobotState;

    fn mk() -> (RavenController, ControllerConfig) {
        let cfg = ControllerConfig::raven_ii();
        (RavenController::new(ArmConfig::raven_ii_left(), cfg), cfg)
    }

    /// Feedback consistent with the plant resting at `joints`.
    fn feedback_at(ctl: &RavenController, joints: JointState) -> UsbFeedbackPacket {
        let m = ctl.chain().arm().joints_to_motors(&joints);
        let cfg = ControllerConfig::raven_ii();
        let mut encoders = [0i32; DAC_CHANNELS];
        for (e, a) in encoders.iter_mut().zip(m.angles.iter()) {
            *e = (a * cfg.encoder_counts_per_rad).round() as i32;
        }
        UsbFeedbackPacket { state: RobotState::EStop, watchdog: false, plc_fault: false, encoders }
    }

    fn home_feedback(ctl: &RavenController) -> UsbFeedbackPacket {
        feedback_at(ctl, ctl.chain().arm().home_joints())
    }

    #[test]
    fn estop_emits_zero_dac_and_estop_state() {
        let (mut ctl, _) = mk();
        let fb = home_feedback(&ctl);
        let pkt = ctl.cycle(None, &fb);
        assert_eq!(pkt.state, RobotState::EStop);
        assert_eq!(pkt.dac, [0; DAC_CHANNELS]);
    }

    #[test]
    fn start_button_begins_homing_and_completes() {
        let (mut ctl, _) = mk();
        ctl.press_start();
        let fb = home_feedback(&ctl);
        let pkt = ctl.cycle(None, &fb);
        assert_eq!(pkt.state, RobotState::Init);
        // Already at home: homing converges within a few cycles.
        for _ in 0..200 {
            ctl.cycle(None, &fb);
        }
        assert_eq!(ctl.state_machine().state(), RobotState::PedalUp);
    }

    #[test]
    fn pedal_transitions() {
        let (mut ctl, _) = mk();
        ctl.press_start();
        let fb = home_feedback(&ctl);
        for _ in 0..200 {
            ctl.cycle(None, &fb);
        }
        let pedal_on = OperatorInput { pedal: true, ..Default::default() };
        let pkt = ctl.cycle(Some(&pedal_on), &fb);
        assert_eq!(pkt.state, RobotState::PedalDown);
        let pedal_off = OperatorInput { pedal: false, ..Default::default() };
        let pkt = ctl.cycle(Some(&pedal_off), &fb);
        assert_eq!(pkt.state, RobotState::PedalUp);
    }

    #[test]
    fn watchdog_toggles_every_cycle_while_healthy() {
        let (mut ctl, _) = mk();
        let fb = home_feedback(&ctl);
        let a = ctl.cycle(None, &fb).watchdog;
        let b = ctl.cycle(None, &fb).watchdog;
        let c = ctl.cycle(None, &fb).watchdog;
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn fault_freezes_watchdog_and_zeroes_dac() {
        let (mut ctl, _) = mk();
        ctl.press_start();
        let fb = home_feedback(&ctl);
        for _ in 0..200 {
            ctl.cycle(None, &fb);
        }
        let pedal_on = OperatorInput { pedal: true, ..Default::default() };
        ctl.cycle(Some(&pedal_on), &fb);
        // A huge desired jump: the per-cycle clamp holds it, so instead
        // drive an IK failure by teleporting feedback to an impossible pose.
        ctl.guard_stop();
        let pkt1 = ctl.cycle(Some(&pedal_on), &fb);
        let pkt2 = ctl.cycle(Some(&pedal_on), &fb);
        assert_eq!(pkt1.state, RobotState::EStop);
        assert_eq!(pkt1.dac, [0; DAC_CHANNELS]);
        assert_eq!(pkt1.watchdog, pkt2.watchdog, "watchdog must freeze after a fault");
    }

    #[test]
    fn pedal_down_tracks_small_increments() {
        let (mut ctl, _) = mk();
        ctl.press_start();
        let fb = home_feedback(&ctl);
        for _ in 0..200 {
            ctl.cycle(None, &fb);
        }
        let input = OperatorInput {
            pedal: true,
            delta_pos: Vec3::new(1e-4, 0.0, 0.0),
            wrist: [0.1, 0.0, 0.0, 0.0],
        };
        let mut saw_nonzero_dac = false;
        let mut fb = fb;
        for _ in 0..50 {
            let pkt = ctl.cycle(Some(&input), &fb);
            assert_eq!(pkt.state, RobotState::PedalDown);
            if pkt.dac[..3].iter().any(|&d| d != 0) {
                saw_nonzero_dac = true;
            }
            // Wrist channel mirrors the commanded wrist position.
            assert!(pkt.dac[3] > 0);
            // Perfect-plant stub: encoders snap to the commanded motors so
            // the following error stays small, as on the real robot.
            if let Some(mpos_d) = ctl.telemetry().unwrap().mpos_d {
                let cfg = ControllerConfig::raven_ii();
                for i in 0..NUM_AXES {
                    fb.encoders[i] = (mpos_d.angles[i] * cfg.encoder_counts_per_rad).round() as i32;
                }
            }
        }
        assert!(saw_nonzero_dac, "PID must command torque toward the moving target");
        assert!(ctl.state_machine().is_pedal_down());
        let t = ctl.telemetry().unwrap();
        assert!(t.pos_d.is_some() && t.mpos_d.is_some());
    }

    #[test]
    fn oversized_delta_is_clamped_not_faulted() {
        let (mut ctl, cfg) = mk();
        ctl.press_start();
        let fb = home_feedback(&ctl);
        for _ in 0..200 {
            ctl.cycle(None, &fb);
        }
        let input = OperatorInput {
            pedal: true,
            delta_pos: Vec3::new(1.0, 0.0, 0.0), // 1 m in 1 ms: absurd
            ..Default::default()
        };
        ctl.cycle(Some(&input), &fb);
        let pkt = ctl.cycle(Some(&input), &fb);
        assert_eq!(pkt.state, RobotState::PedalDown, "clamp, don't fault");
        let t = ctl.telemetry().unwrap();
        let moved = (t.pos_d.unwrap() - t.pos).norm();
        assert!(moved <= 2.0 * cfg.max_delta_pos + 1e-9);
    }

    #[test]
    fn desired_position_is_leashed_to_measured() {
        let (mut ctl, cfg) = mk();
        ctl.press_start();
        let fb = home_feedback(&ctl);
        for _ in 0..200 {
            ctl.cycle(None, &fb);
        }
        // Feedback frozen while the console keeps commanding motion: the
        // desired position must never lead the measured one by more than
        // the leash (this is what bounds scenario-A damage).
        let input = OperatorInput {
            pedal: true,
            delta_pos: Vec3::new(0.0, 0.0, 5e-4),
            ..Default::default()
        };
        for _ in 0..2000 {
            let pkt = ctl.cycle(Some(&input), &fb);
            assert_ne!(pkt.state, RobotState::EStop, "leashed target must not fault");
            let t = ctl.telemetry().unwrap();
            if let Some(pos_d) = t.pos_d {
                assert!(
                    (pos_d - t.pos).norm() <= cfg.max_tracking_error + 1e-9,
                    "leash exceeded: {}",
                    (pos_d - t.pos).norm()
                );
            }
        }
    }

    #[test]
    fn telemetry_reports_current_pose() {
        let (mut ctl, _) = mk();
        let joints = JointState::new(0.2, 1.5, 0.3);
        let fb = feedback_at(&ctl, joints);
        ctl.cycle(None, &fb);
        let t = ctl.telemetry().unwrap();
        assert!((t.jpos.shoulder - joints.shoulder).abs() < 1e-3);
        let expect = ctl.chain().arm().position(&joints);
        assert!((t.pos - expect).norm() < 1e-3);
    }
}
