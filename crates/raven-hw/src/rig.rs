//! The assembled hardware rig: write path → board → PLC/motors → plant →
//! encoders → read path.
//!
//! [`HardwareRig`] is everything below the control software in Fig. 1(b) of
//! the paper: the USB channel (with its interceptor chain), the interface
//! board, the PLC safety processor, the motor controllers, and the physical
//! plant. The control software interacts with it exactly twice per 1 ms
//! cycle: one command write and one feedback read.

use raven_dynamics::plant::EncoderReading;
use raven_dynamics::{PlantParams, RavenPlant};
use raven_kinematics::{MotorState, WRIST_AXES};
use simbus::obs::{names, spans, Event, EventKind, Severity};
use simbus::{Observer, SimTime, SpanHandle};

use crate::bitw::{BitwCodec, BitwPlacement};
use crate::board::UsbBoard;
use crate::channel::{UsbChannel, WriteAction, WriteInterceptor};
use crate::packet::{UsbCommandPacket, UsbFeedbackPacket, DAC_CHANNELS};
use crate::plc::{EStopCause, Plc};

/// Radians of wrist-servo target per DAC count on channels 3–6 (board spec).
pub const WRIST_RAD_PER_COUNT: f64 = 5.0e-5;

/// Motor-controller over-speed trip points per positioning axis (rad/s).
/// Normal teleoperation peaks below ~30 rad/s at the shafts; sustained
/// motion at the abrupt-jump scale (>1 mm per 2 ms at the end-effector)
/// corresponds to ~150+ rad/s. The trip fires as the jump develops — the
/// hardware-side detection the paper observes (§III.C.1), which reacts
/// *after* the physical impact rather than before it.
pub const OVERSPEED_LIMITS: [f64; 3] = [160.0, 160.0, 100.0];

/// The hardware side of the robot, assembled.
///
/// The rig holds no observer: every entry point that can report an event
/// takes the run's [`Observer`] as a `&mut` parameter.
///
/// # Example
///
/// ```
/// use raven_hw::{HardwareRig, UsbCommandPacket, RobotState};
/// use raven_dynamics::PlantParams;
/// use simbus::{Observer, SimTime};
///
/// let mut obs = Observer::default();
/// let mut rig = HardwareRig::new(PlantParams::raven_ii());
/// rig.press_start(SimTime::ZERO, &mut obs);
/// let pkt = UsbCommandPacket { state: RobotState::Init, watchdog: true, dac: [0; 8] };
/// rig.deliver_command(&pkt, SimTime::ZERO, None, &mut obs);
/// rig.step(SimTime::ZERO, &mut obs);
/// let fb = rig.read_feedback(SimTime::ZERO, &mut obs);
/// assert_eq!(fb.state, RobotState::Init);
/// ```
#[derive(Debug)]
pub struct HardwareRig {
    /// The USB write/read paths with their interceptor chains.
    pub channel: UsbChannel,
    /// The 8-channel interface board.
    pub board: UsbBoard,
    /// The PLC safety processor.
    pub plc: Plc,
    /// The physical plant.
    pub plant: RavenPlant,
    last_encoder: Option<[i32; 3]>,
    bitw: Option<Bitw>,
    spans: SpanHandle,
    reported_estop: Option<EStopCause>,
    /// Reusable frame for the write path: carries the encoded (or sealed)
    /// command packet through the write interceptors to the board.
    tx_frame: Vec<u8>,
    /// Reusable frame for the read path: carries the encoded (or sealed)
    /// feedback packet through the read interceptors, and reclaims the
    /// channel's returned storage afterwards.
    rx_frame: Vec<u8>,
    /// Reusable plaintext buffer for BITW `open_into` on both paths.
    open_scratch: Vec<u8>,
    /// Reusable ciphertext buffer for the `Wire`-placement round trip on
    /// the command path.
    wire_scratch: Vec<u8>,
}

#[derive(Debug)]
struct Bitw {
    placement: BitwPlacement,
    host_tx: BitwCodec,
    board_rx: BitwCodec,
    board_tx: BitwCodec,
    host_rx: BitwCodec,
}

impl HardwareRig {
    /// Builds a rig with a stock board around a fresh plant.
    pub fn new(params: PlantParams) -> Self {
        let plc = Plc::new();
        // The PLC powers up latched; that is the rig's normal initial
        // state, not an E-STOP edge worth reporting.
        let reported_estop = plc.estop();
        HardwareRig {
            channel: UsbChannel::new(),
            board: UsbBoard::new(),
            plc,
            plant: RavenPlant::new(params),
            last_encoder: None,
            bitw: None,
            spans: SpanHandle::default(),
            reported_estop,
            tx_frame: Vec::default(),
            rx_frame: Vec::default(),
            open_scratch: Vec::default(),
            wire_scratch: Vec::default(),
        }
    }

    /// Attaches a span handle: [`HardwareRig::step`] runs under a
    /// `span.hw.board_cycle` span (no-op when the handle is disabled).
    pub fn set_span_handle(&mut self, handle: SpanHandle) {
        self.spans = handle;
    }

    /// Reports E-STOP latch edges since the last check as `estop.latched` /
    /// `estop.cleared` events and per-cause counters. The PLC itself has
    /// several latch sites (watchdog deadline, state byte, button, over-
    /// speed trip), so the rig samples the latch at its two entry points
    /// (`deliver_command`, `step`) rather than instrumenting each site —
    /// the event time is the virtual time of the cycle that latched.
    fn note_estop_edges(&mut self, now: SimTime, obs: &mut Observer) {
        let current = self.plc.estop();
        if current == self.reported_estop {
            return;
        }
        match current {
            Some(cause) => {
                obs.metrics.inc(&names::estop_count(cause.slug()));
                obs.event(
                    Event::new(now, "hw", Severity::Error, EventKind::EstopLatched)
                        .with("cause", cause.slug()),
                );
            }
            None => {
                obs.event(Event::new(now, "hw", Severity::Info, EventKind::EstopCleared));
            }
        }
        self.reported_estop = current;
    }

    /// Retrofits link encryption with the given placement and session key
    /// (paper §III.D's "bump-in-the-wire" discussion; see `bitw`).
    pub fn enable_bitw(&mut self, placement: BitwPlacement, key: u64) {
        self.bitw = Some(Bitw {
            placement,
            host_tx: BitwCodec::new(key),
            board_rx: BitwCodec::new(key),
            board_tx: BitwCodec::new(key ^ 0x5a5a),
            host_rx: BitwCodec::new(key ^ 0x5a5a),
        });
    }

    /// Command packets rejected by the board-side BITW authenticator.
    pub fn bitw_rejects(&self) -> u64 {
        self.bitw.as_ref().map_or(0, |b| b.board_rx.rejects())
    }

    /// Presses the physical start button (clears the PLC E-STOP latch).
    pub fn press_start(&mut self, now: SimTime, obs: &mut Observer) {
        self.plc.press_start(now);
        self.note_estop_edges(now, obs);
    }

    /// Presses the physical E-STOP button.
    pub fn press_estop(&mut self) {
        self.plc.press_estop();
    }

    /// Delivers one command packet through the interceptor chain to the
    /// board; the PLC observes the state byte of whatever actually arrived.
    /// `guard` runs at the channel's reserved guard slot.
    ///
    /// With BITW enabled, the placement decides what the interceptors see:
    /// `Wire` (the real retrofit) encrypts downstream of the host, so the
    /// in-host malware still sees and mutates plaintext; `Host` encrypts
    /// upstream of `write`, so interceptors see only ciphertext and any
    /// mutation is rejected by the board-side authenticator.
    pub fn deliver_command(
        &mut self,
        pkt: &UsbCommandPacket,
        now: SimTime,
        guard: Option<&mut dyn WriteInterceptor>,
        obs: &mut Observer,
    ) {
        let encoded = pkt.encode();
        let frame = &mut self.tx_frame;
        let host_sealed = match &mut self.bitw {
            Some(b) if b.placement == BitwPlacement::Host => {
                b.host_tx.seal_into(&encoded, frame);
                true
            }
            _ => {
                frame.clear();
                frame.extend_from_slice(&encoded);
                false
            }
        };
        if self.channel.write(frame, now, guard, obs) == WriteAction::Forward {
            let bytes = &self.tx_frame;
            // The wire segment between chain and board.
            let mut open_buf = std::mem::take(&mut self.open_scratch);
            let at_board: Option<&[u8]> = match &mut self.bitw {
                Some(b) if host_sealed => {
                    if b.board_rx.open_into(bytes, &mut open_buf) {
                        Some(&open_buf)
                    } else {
                        None
                    }
                }
                Some(b) if b.placement == BitwPlacement::Wire => {
                    // Encryptor and decryptor bracket an uncompromised
                    // cable: a lossless round trip (the malware already ran
                    // upstream, on plaintext — the paper's TOCTOU point).
                    b.host_tx.seal_into(bytes, &mut self.wire_scratch);
                    if b.board_rx.open_into(&self.wire_scratch, &mut open_buf) {
                        Some(&open_buf)
                    } else {
                        None
                    }
                }
                _ => Some(bytes),
            };
            if let Some(clear) = at_board {
                if let Ok(decoded) = self.board.receive(clear) {
                    self.plc.observe(decoded.state, decoded.watchdog, now);
                }
            }
            self.open_scratch = open_buf;
        }
        self.note_estop_edges(now, obs);
    }

    /// Advances the physical world by one control period: PLC deadline
    /// check, brake actuation, motor torques from the latched DAC words,
    /// plant integration.
    pub fn step(&mut self, now: SimTime, obs: &mut Observer) {
        let _cycle = self.spans.begin(spans::HW_BOARD_CYCLE);
        self.plc.tick(now);
        if self.plc.brakes_released() {
            self.plant.release_brakes();
        } else {
            self.plant.engage_brakes();
        }
        let dac3 = self.board.positioning_dac();
        let torques = self.plant.params().dac_to_torque(&dac3);
        let latched = self.board.latched_dac();
        let mut wrist = [0.0; WRIST_AXES];
        for i in 0..WRIST_AXES {
            wrist[i] = f64::from(latched[3 + i]) * WRIST_RAD_PER_COUNT;
        }
        self.plant.set_wrist_targets(wrist);
        self.plant.step_control_period(&torques);
        self.check_overspeed();
        self.note_estop_edges(now, obs);
    }

    /// Motor-controller over-speed protection: compares consecutive encoder
    /// snapshots (one control period apart) against [`OVERSPEED_LIMITS`].
    fn check_overspeed(&mut self) {
        let reading = self.plant.read_encoders().counts;
        if let Some(last) = self.last_encoder {
            if !self.plant.brakes_engaged() {
                let cpr = self.plant.params().encoder_counts_per_rad;
                for i in 0..3 {
                    let speed = f64::from(reading[i] - last[i]).abs() / cpr / 1e-3;
                    if speed > OVERSPEED_LIMITS[i] {
                        self.plc.latch_hardware_fault();
                    }
                }
            }
        }
        self.last_encoder = Some(reading);
    }

    /// Builds the feedback packet, passes it through the read interceptors,
    /// and returns what the control software sees.
    pub fn read_feedback(&mut self, now: SimTime, obs: &mut Observer) -> UsbFeedbackPacket {
        let reading = self.plant.read_encoders();
        let mut encoders = [0i32; DAC_CHANNELS];
        encoders[..3].copy_from_slice(&reading.counts);
        encoders[3..3 + WRIST_AXES].copy_from_slice(&reading.wrist_counts);
        let mut fb = self.board.make_feedback(encoders);
        fb.plc_fault = self.plc.estop().is_some();
        let encoded = fb.encode();
        let mut frame = std::mem::take(&mut self.rx_frame);
        frame.clear();
        match &mut self.bitw {
            Some(b) if b.placement == BitwPlacement::Host => {
                b.board_tx.seal_into(&encoded, &mut frame);
            }
            _ => frame.extend_from_slice(&encoded),
        }
        // The read chain returns the same storage it was handed (possibly
        // mutated in place), so the frame is reclaimed below.
        let bytes = self.channel.read(frame, now, obs);
        // A mangled feedback packet falls back to the unmodified reading —
        // the control software has no way to detect it either way, but the
        // simulation must stay well-formed.
        let pkt = match &mut self.bitw {
            Some(b) if b.placement == BitwPlacement::Host => {
                // Tampered ciphertext fails authentication; the driver
                // re-reads the register (same cycle) and gets the clean
                // snapshot.
                if b.host_rx.open_into(&bytes, &mut self.open_scratch) {
                    UsbFeedbackPacket::decode_unchecked(&self.open_scratch).unwrap_or(fb)
                } else {
                    fb
                }
            }
            _ => UsbFeedbackPacket::decode_unchecked(&bytes).unwrap_or(fb),
        };
        self.rx_frame = bytes;
        pkt
    }

    /// Reconstructs motor positions from a feedback packet (the control
    /// software's decode step).
    pub fn decode_motor_positions(&self, fb: &UsbFeedbackPacket) -> MotorState {
        let reading = EncoderReading {
            counts: [fb.encoders[0], fb.encoders[1], fb.encoders[2]],
            wrist_counts: [fb.encoders[3], fb.encoders[4], fb.encoders[5], fb.encoders[6]],
        };
        self.plant.decode_encoders(&reading)
    }

    /// The PLC's E-STOP latch, if set.
    pub fn estop(&self) -> Option<EStopCause> {
        self.plc.estop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::RobotState;
    use simbus::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn pedal_down(dac0: i16, wd: bool) -> UsbCommandPacket {
        let mut dac = [0i16; DAC_CHANNELS];
        dac[0] = dac0;
        UsbCommandPacket { state: RobotState::PedalDown, watchdog: wd, dac }
    }

    /// Runs a healthy Pedal-Down session applying `dac0` for `ms` periods.
    fn run_session(rig: &mut HardwareRig, obs: &mut Observer, dac0: i16, ms: u64) {
        rig.press_start(at(0), obs);
        for t in 0..ms {
            rig.deliver_command(&pedal_down(dac0, t % 2 == 0), at(t), None, obs);
            rig.step(at(t), obs);
        }
    }

    #[test]
    fn motors_move_only_in_pedal_down() {
        let mut obs = Observer::default();
        let mut rig = HardwareRig::new(PlantParams::raven_ii());
        rig.press_start(at(0), &mut obs);
        let m0 = rig.plant.state().motor_pos();
        // Pedal Up with a big DAC: brakes stay on, nothing moves.
        for t in 0..20 {
            let mut pkt = pedal_down(8000, t % 2 == 0);
            pkt.state = RobotState::PedalUp;
            rig.deliver_command(&pkt, at(t), None, &mut obs);
            rig.step(at(t), &mut obs);
        }
        assert_eq!(rig.plant.state().motor_pos(), m0);
        // Pedal Down: the same DAC moves the shoulder.
        for t in 20..60 {
            rig.deliver_command(&pedal_down(8000, t % 2 == 0), at(t), None, &mut obs);
            rig.step(at(t), &mut obs);
        }
        assert!(rig.plant.state().motor_pos().angles[0] > m0.angles[0]);
    }

    #[test]
    fn feedback_reflects_motion() {
        let mut obs = Observer::default();
        let mut rig = HardwareRig::new(PlantParams::raven_ii());
        let before = rig.read_feedback(at(0), &mut obs).encoders[0];
        run_session(&mut rig, &mut obs, 6000, 50);
        let after = rig.read_feedback(at(50), &mut obs).encoders[0];
        assert!(after > before, "encoder counts should increase: {before} -> {after}");
    }

    #[test]
    fn frozen_watchdog_triggers_estop_and_brakes() {
        let mut obs = Observer::default();
        let mut rig = HardwareRig::new(PlantParams::raven_ii());
        run_session(&mut rig, &mut obs, 2000, 20);
        assert!(rig.estop().is_none());
        // Watchdog stops toggling.
        for t in 20..40 {
            rig.deliver_command(&pedal_down(2000, true), at(t), None, &mut obs);
            rig.step(at(t), &mut obs);
        }
        assert_eq!(rig.estop(), Some(EStopCause::WatchdogTimeout));
        assert!(rig.plant.brakes_engaged());
    }

    #[test]
    fn estop_button_stops_motion_immediately() {
        let mut obs = Observer::default();
        let mut rig = HardwareRig::new(PlantParams::raven_ii());
        run_session(&mut rig, &mut obs, 5000, 30);
        rig.press_estop();
        let m = rig.plant.state().motor_pos();
        for t in 30..50 {
            rig.deliver_command(&pedal_down(5000, t % 2 == 0), at(t), None, &mut obs);
            rig.step(at(t), &mut obs);
        }
        assert_eq!(rig.plant.state().motor_pos(), m);
    }

    #[test]
    fn wrist_channels_drive_wrist_servos() {
        let mut obs = Observer::default();
        let mut rig = HardwareRig::new(PlantParams::raven_ii());
        rig.press_start(at(0), &mut obs);
        let mut dac = [0i16; DAC_CHANNELS];
        dac[3] = 10_000; // wrist channel
        for t in 0..400 {
            let pkt = UsbCommandPacket { state: RobotState::PedalDown, watchdog: t % 2 == 0, dac };
            rig.deliver_command(&pkt, at(t), None, &mut obs);
            rig.step(at(t), &mut obs);
        }
        let target = 10_000.0 * WRIST_RAD_PER_COUNT;
        assert!((rig.plant.state().wrist[0] - target).abs() < 0.05 * target.abs() + 1e-4);
    }

    #[test]
    fn decode_motor_positions_matches_plant() {
        let mut obs = Observer::default();
        let mut rig = HardwareRig::new(PlantParams::raven_ii());
        run_session(&mut rig, &mut obs, 3000, 40);
        let fb = rig.read_feedback(at(40), &mut obs);
        let decoded = rig.decode_motor_positions(&fb);
        let truth = rig.plant.state().motor_pos();
        let res = rig.plant.params().encoder_counts_per_rad;
        for i in 0..3 {
            assert!((decoded.angles[i] - truth.angles[i]).abs() <= 0.5 / res + 1e-12);
        }
    }

    #[test]
    fn observer_sees_estop_latch_and_clear_edges() {
        let mut obs = Observer::default();
        let mut rig = HardwareRig::new(PlantParams::raven_ii());
        run_session(&mut rig, &mut obs, 2000, 20);
        // Watchdog freezes -> PLC latches; exactly one latch event despite
        // the latch staying set for many cycles.
        for t in 20..40 {
            rig.deliver_command(&pedal_down(2000, true), at(t), None, &mut obs);
            rig.step(at(t), &mut obs);
        }
        assert_eq!(obs.events.count_kind("estop.latched"), 1);
        assert_eq!(obs.metrics.counter("estop.count.watchdog_timeout"), 1);
        let latched = obs.events.iter().find(|e| e.kind == "estop.latched").unwrap();
        assert!(latched.time >= at(20), "latch reported at the cycle it happened");
        rig.press_start(at(40), &mut obs);
        // Two clears: the boot-time start press releasing the power-up
        // latch, and this one. The power-up latch itself is never reported
        // as an `estop.latched` edge (it is the rig's normal initial state).
        assert_eq!(obs.events.count_kind("estop.cleared"), 2);
        assert_eq!(obs.events.count_kind("estop.latched"), 1);
    }

    #[test]
    fn hardened_board_blocks_in_flight_corruption() {
        use crate::channel::{WriteAction, WriteContext, WriteInterceptor};
        #[derive(Debug)]
        struct Corruptor;
        impl WriteInterceptor for Corruptor {
            fn on_write(&mut self, buf: &mut Vec<u8>, _ctx: &mut WriteContext<'_>) -> WriteAction {
                buf[2] = buf[2].wrapping_add(50);
                WriteAction::Forward
            }
            fn name(&self) -> &str {
                "corruptor"
            }
        }
        let mut obs = Observer::default();
        let mut rig = HardwareRig::new(PlantParams::raven_ii());
        rig.board = UsbBoard::hardened();
        rig.channel.install(Box::new(Corruptor));
        rig.press_start(at(0), &mut obs);
        rig.deliver_command(&pedal_down(0, true), at(0), None, &mut obs);
        assert_eq!(rig.board.integrity_rejects(), 1);
        assert_eq!(rig.board.latched_dac()[0], 0);
    }
}
