//! The full-system simulation: console → network → control software →
//! interceptor chain → USB board → PLC/motors → plant → encoders → back.
//!
//! [`Simulation`] is the paper's Fig. 7(a) framework: master console
//! emulator, control software, dynamic model, attack injection hooks, and
//! the physical system, advanced together on a 1 ms virtual clock. Every
//! experiment in this reproduction is a configuration of this one loop.

use std::sync::Arc;

use raven_attack::{ActivationWindow, Corruption, InjectionWrapper, ItpMitm};
use raven_control::{ControllerConfig, FaultReason, OperatorInput, RavenController};
use raven_detect::{DetectorConfig, DynamicDetector, GuardInterceptor};
use raven_dynamics::plant::PlantPrefix;
use raven_dynamics::{PlantParams, RtModel};
use raven_hw::chaos::{ChaosEncoderBitFlip, ChaosFeedbackHold, ChaosFrameDrop, ChaosStuckEncoder};
use raven_hw::{EStopCause, FaultWindow, HardwareRig, Interceptor, RobotState};
use raven_kinematics::ArmConfig;
use raven_math::Vec3;
use raven_teleop::{
    Circle, ItpPacket, Lissajous, MasterConsole, MinimumJerk, PedalSchedule, Suturing, Trajectory,
    WithTremor, ITP_PACKET_LEN,
};
use serde::{Deserialize, Serialize};
use simbus::obs::{
    channels, names, spans, streams, Event, EventKind, EventLog, Metrics, Observer, Severity,
};
use simbus::rng::derive_seed;
use simbus::{
    ChaosConfig, ChaosFault, ChaosFaultKind, ChaosSchedule, LinkConfig, SimClock, SimDuration,
    SimLink, SimTime, SpanHandle,
};

use crate::scenario::AttackSetup;

/// Which synthetic surgical workload the console plays.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Circular scan (12 mm radius, 0.25 Hz).
    Circle,
    /// Suturing loops (6 mm stitches, 4 mm loops, 2 s period).
    Suturing,
    /// Lissajous sweep.
    Lissajous,
    /// A single minimum-jerk reach.
    Reach,
}

impl Workload {
    /// Builds the trajectory generator, with tremor when `tremor > 0`.
    pub fn build(self, tremor: f64, seed: u64) -> Box<dyn Trajectory> {
        let seed = derive_seed(seed, streams::WORKLOAD);
        match (self, tremor > 0.0) {
            (Workload::Circle, true) => {
                Box::new(WithTremor::new(Circle::new(0.012, 0.25), tremor, seed))
            }
            (Workload::Circle, false) => Box::new(Circle::new(0.012, 0.25)),
            (Workload::Suturing, true) => {
                Box::new(WithTremor::new(Suturing::new(0.006, 0.004, 2.0), tremor, seed))
            }
            (Workload::Suturing, false) => Box::new(Suturing::new(0.006, 0.004, 2.0)),
            (Workload::Lissajous, true) => Box::new(WithTremor::new(
                Lissajous::new(Vec3::new(0.010, 0.012, 0.006), Vec3::new(0.23, 0.31, 0.17)),
                tremor,
                seed,
            )),
            (Workload::Lissajous, false) => Box::new(Lissajous::new(
                Vec3::new(0.010, 0.012, 0.006),
                Vec3::new(0.23, 0.31, 0.17),
            )),
            (Workload::Reach, true) => Box::new(WithTremor::new(
                MinimumJerk::new(Vec3::new(0.02, -0.015, 0.01), 3.0),
                tremor,
                seed,
            )),
            (Workload::Reach, false) => {
                Box::new(MinimumJerk::new(Vec3::new(0.02, -0.015, 0.01), 3.0))
            }
        }
    }

    /// The two trajectories of the paper's threshold-learning protocol.
    pub fn training_pair() -> [Workload; 2] {
        [Workload::Circle, Workload::Suturing]
    }
}

/// Detector wiring for a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorSetup {
    /// Detector configuration (mitigation, percentile band, limits).
    pub config: DetectorConfig,
    /// Relative perturbation of the model's physical parameters vs the
    /// plant (the Fig. 8 model/robot mismatch). `0.0` = perfect model.
    pub model_perturbation: f64,
    /// Pre-learned thresholds; `None` leaves the detector in learning mode.
    pub thresholds: Option<raven_detect::DetectionThresholds>,
}

impl Default for DetectorSetup {
    fn default() -> Self {
        DetectorSetup {
            config: DetectorConfig::default(),
            model_perturbation: 0.02,
            thresholds: None,
        }
    }
}

/// When the operator presses the foot pedal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PedalPattern {
    /// Pedal down for the whole session (after boot).
    DownAfterBoot,
    /// Alternating pedal-down/pedal-up intervals — producing the Pedal Up ⇄
    /// Pedal Down staircase of the paper's Fig. 6.
    DutyCycle {
        /// Pedal-down span (ms).
        work_ms: u64,
        /// Pedal-up span (ms).
        rest_ms: u64,
        /// Repetitions.
        cycles: u32,
    },
}

/// One recorded cycle for offline analysis (Fig. 8 model validation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CycleRecord {
    /// DAC words latched on the board this cycle (what executed).
    pub dac: [i16; 3],
    /// Ground-truth motor positions after the cycle.
    pub mpos: [f64; 3],
    /// Ground-truth joint positions after the cycle.
    pub jpos: [f64; 3],
    /// Full ground-truth plant state after the cycle.
    pub state: raven_dynamics::PlantState,
    /// Whether the brakes were released (Pedal Down physics).
    pub engaged: bool,
}

/// Full configuration of one simulated session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Root seed; every stochastic component derives from it.
    pub seed: u64,
    /// Console workload.
    pub workload: Workload,
    /// Operator tremor RMS (meters); `3e-5` is the standard value.
    pub tremor: f64,
    /// Session length in milliseconds (one cycle each), counted from the
    /// end of boot (~1 594 ms after power-up), not from the pedal press at
    /// [`Simulation::PEDAL_PRESS_MS`]: the first ~906 ms of it are the
    /// brakes-on Pedal-Up wait, so a 2 500 ms session has ~1 594 ms of
    /// Pedal Down.
    pub session_ms: u64,
    /// Foot-pedal pattern.
    pub pedal: PedalPattern,
    /// Console→robot network conditions.
    pub link: LinkConfig,
    /// Detector wiring; `None` runs the stock (undefended) robot.
    pub detector: Option<DetectorSetup>,
    /// Plant parameters.
    pub plant: PlantParams,
    /// Control-software configuration.
    pub controller: ControllerConfig,
    /// Record per-cycle DAC/state for offline analysis.
    pub record_cycles: bool,
    /// Optional link-encryption retrofit (paper §III.D's BITW discussion).
    pub bitw: Option<raven_hw::BitwPlacement>,
    /// Event-ring capacity. Verification harnesses that reason over event
    /// *counts* (the chaos oracles) need the whole session to fit without
    /// eviction; campaign runs keep the default.
    pub event_capacity: usize,
}

impl SimConfig {
    /// A standard clean session: circle workload, tremor, ideal LAN,
    /// no detector.
    pub fn standard(seed: u64) -> Self {
        SimConfig {
            seed,
            workload: Workload::Circle,
            tremor: 3.0e-5,
            session_ms: 5_000,
            pedal: PedalPattern::DownAfterBoot,
            link: LinkConfig::lan(),
            detector: None,
            plant: PlantParams::raven_ii(),
            controller: ControllerConfig::raven_ii(),
            record_cycles: false,
            bitw: None,
            event_capacity: EventLog::DEFAULT_CAPACITY,
        }
    }
}

/// Everything a session run reports — the ground truth for Table IV and
/// Fig. 9 labeling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionOutcome {
    /// Largest physical end-effector displacement within any 1 ms window.
    pub max_ee_step_1ms: f64,
    /// Largest physical end-effector displacement within any 2 ms window.
    pub max_ee_step_2ms: f64,
    /// Adverse impact per the paper's criterion: >1 mm within 1–2 ms.
    pub adverse: bool,
    /// The PLC E-STOP latch at session end, if any.
    pub estop: Option<String>,
    /// The control-software fault latch, if any.
    pub controller_fault: Option<String>,
    /// Did the stock RAVEN mechanisms detect anything (software safety
    /// fault — excluding guard-initiated stops — or PLC watchdog E-STOP)?
    pub raven_detected: bool,
    /// Did the dynamic-model detector raise an alarm?
    pub model_detected: bool,
    /// Ticks executed after boot.
    pub ticks: u64,
    /// Final software state.
    pub final_state: String,
    /// Injections actually performed by the attack (0 for clean runs).
    pub injections: u64,
}

/// The flight recorder's black-box dump: captured when a run first faults,
/// E-stops, or raises a detector alarm. Serializable to JSON (the
/// `--incident-dir` artifact; schema in `docs/OBSERVABILITY.md`).
///
/// Everything inside is derived from virtual time, so the dump is
/// byte-identical across identical seeded runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentReport {
    /// Virtual time of the triggering cycle.
    pub time: SimTime,
    /// What tripped the recorder (`estop: …`, `fault: …`, `detector alarm`).
    pub cause: String,
    /// Root seed of the run.
    pub seed: u64,
    /// Length of the captured trace window (ms before `time`).
    pub window_ms: u64,
    /// The event ring at capture time, oldest first.
    pub events: Vec<Event>,
    /// Per-signal trace samples inside the window (requires
    /// `record_cycles`; empty otherwise).
    pub signals: std::collections::BTreeMap<String, Vec<simbus::trace::Sample>>,
}

/// Runtime state of an installed chaos schedule's link-level faults (the
/// hardware-level faults become windowed interceptors at install time).
#[derive(Debug)]
struct ChaosState {
    /// Pending link faults, time-ordered.
    link: std::collections::VecDeque<ChaosFault>,
    /// A console packet held back one tick by a reorder fault.
    reorder_held: Option<[u8; ITP_PACKET_LEN]>,
    /// End of an active 100%-loss burst, if one is running.
    burst_until: Option<SimTime>,
}

/// The assembled simulation.
pub struct Simulation {
    config: SimConfig,
    clock: SimClock,
    console: MasterConsole,
    itp_link: SimLink<[u8; ITP_PACKET_LEN]>,
    /// Reusable drain buffer for `itp_link` polling — stage 2 takes it,
    /// drains arrived datagrams through it, and puts it back, so the
    /// steady-state cycle never allocates for link delivery.
    itp_rx: Vec<[u8; ITP_PACKET_LEN]>,
    controller: RavenController,
    rig: HardwareRig,
    /// The one owner of the detector: the guard borrows it for each write.
    detector: Option<DynamicDetector>,
    mitm: Option<ItpMitm>,
    last_input: Option<OperatorInput>,
    last_packet_at: SimTime,
    ee_history: Vec<Vec3>,
    max_ee_step_1ms: f64,
    max_ee_step_2ms: f64,
    cycle_log: Vec<CycleRecord>,
    trace: simbus::TraceRecorder,
    /// The one owner of the event ring and metrics: the rig and the
    /// interceptors borrow it for each call.
    observer: Observer,
    spans: SpanHandle,
    incident: Option<IncidentReport>,
    chaos: Option<ChaosState>,
    attack_delay_packets: Option<u64>,
    prev_state: RobotState,
    prev_fault: Option<FaultReason>,
    prev_estop: Option<EStopCause>,
    prev_alarmed: bool,
    prev_mutations: u64,
    prev_corrupted: u64,
    prev_lost: u64,
}

impl Simulation {
    /// Console-silence timeout before the pedal is treated as released.
    const INPUT_TIMEOUT_MS: u64 = 100;

    /// Trace window captured into an [`IncidentReport`] (ms before the
    /// triggering cycle).
    const INCIDENT_WINDOW_MS: u64 = 250;

    /// Virtual time (ms after power-up) of the operator's first pedal
    /// press. Boot (idle, start button, homing) ends well before it, about
    /// 1 594 ms in; until this press nothing seed-dependent reaches the
    /// plant, so it is also the cap of a shared [`PlantPrefix`].
    pub const PEDAL_PRESS_MS: u64 = 2_500;

    /// Virtual start of the chaos-fault window: 300 ms after the pedal
    /// press ([`Simulation::PEDAL_PRESS_MS`]), so chaos exercises the
    /// teleoperation phase.
    const CHAOS_START_MS: u64 = Self::PEDAL_PRESS_MS + 300;

    /// Builds the clean system for a configuration (no attack installed).
    pub fn new(config: SimConfig) -> Self {
        let arm = ArmConfig::builder().coupling(config.plant.coupling()).build();
        let controller = RavenController::new(arm.clone(), config.controller);
        let observer = Observer::new(config.event_capacity);
        let mut rig = HardwareRig::new(config.plant);
        // The robot powers up in a stowed pose, not at the homing target —
        // initialization must physically move the arm (otherwise the
        // homing-failure attacks of Table I would be unobservable).
        let stowed = {
            let home = arm.home_joints();
            raven_kinematics::JointState::new(
                home.shoulder - 0.25,
                home.elbow + 0.30,
                (home.insertion - 0.10).max(arm.limits.insertion.0 + 0.01),
            )
        };
        rig.plant =
            raven_dynamics::RavenPlant::with_state(config.plant, config.plant.rest_state(stowed));
        if let Some(placement) = config.bitw {
            rig.enable_bitw(placement, derive_seed(config.seed, streams::BITW_KEY));
        }

        let detector = config.detector.as_ref().map(|setup| {
            let model_params = if setup.model_perturbation > 0.0 {
                config
                    .plant
                    .perturbed(derive_seed(config.seed, streams::MODEL), setup.model_perturbation)
            } else {
                config.plant
            };
            let model = RtModel::new(model_params);
            let mut det = DynamicDetector::new(arm.clone(), model, setup.config);
            if let Some(thresholds) = setup.thresholds {
                det.arm_with(thresholds);
            }
            det
        });
        // The guard's slot closes the chain as built here: closest to
        // the hardware, downstream of any malware installed later with
        // `install_first` (paper §IV.C).
        if detector.is_some() {
            rig.channel.reserve_guard_slot(GuardInterceptor::NAME);
        }

        // Boot (pre-start idle + homing from the stowed pose) takes < 2 s;
        // the pedal pattern starts shortly after.
        let pedal_start = SimTime::ZERO + SimDuration::from_millis(Self::PEDAL_PRESS_MS);
        let schedule = match config.pedal {
            PedalPattern::DownAfterBoot => PedalSchedule::down_after(pedal_start),
            PedalPattern::DutyCycle { work_ms, rest_ms, cycles } => PedalSchedule::duty_cycle(
                pedal_start,
                SimDuration::from_millis(work_ms),
                SimDuration::from_millis(rest_ms),
                cycles as usize,
            ),
        };
        let console =
            MasterConsole::new(config.workload.build(config.tremor, config.seed), schedule);
        let itp_link = SimLink::new(config.link, derive_seed(config.seed, streams::ITP_LINK));

        let prev_state = controller.state_machine().state();
        Simulation {
            config,
            clock: SimClock::new(),
            console,
            itp_link,
            itp_rx: Vec::new(),
            controller,
            rig,
            detector,
            mitm: None,
            last_input: None,
            last_packet_at: SimTime::ZERO,
            ee_history: Vec::new(),
            max_ee_step_1ms: 0.0,
            max_ee_step_2ms: 0.0,
            cycle_log: Vec::new(),
            trace: simbus::TraceRecorder::new(),
            observer,
            spans: SpanHandle::default(),
            incident: None,
            chaos: None,
            attack_delay_packets: None,
            prev_state,
            prev_fault: None,
            // The PLC powers up latched (normal initial state, not an
            // incident); the flight recorder arms on the next edge.
            prev_estop: Some(EStopCause::PhysicalButton),
            prev_alarmed: false,
            prev_mutations: 0,
            prev_corrupted: 0,
            prev_lost: 0,
        }
    }

    /// Recorded time-series trace (populated when `record_cycles` is set):
    /// ground-truth end-effector coordinates (`ee_{x,y,z}_mm`) and joint
    /// positions (`jpos{1,2,3}`).
    pub fn trace(&self) -> &simbus::TraceRecorder {
        &self.trace
    }

    /// Recorded cycles (empty unless `record_cycles` was set).
    pub fn cycle_log(&self) -> &[CycleRecord] {
        &self.cycle_log
    }

    /// The observer (event ring + metrics) every instrumented component
    /// of this simulation writes into.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Snapshot of the metric registry (deterministic given the seed).
    pub fn metrics(&self) -> Metrics {
        self.observer.metrics.clone()
    }

    /// Snapshot of the event ring, oldest first (deterministic given the
    /// seed).
    pub fn events(&self) -> Vec<Event> {
        self.observer.events.snapshot()
    }

    /// The flight recorder's dump, if a fault, E-STOP, or detector alarm
    /// tripped it.
    pub fn incident(&self) -> Option<&IncidentReport> {
        self.incident.as_ref()
    }

    /// The session's span handle (disabled unless
    /// [`Simulation::enable_span_recorder`] was called).
    pub fn spans(&self) -> &SpanHandle {
        &self.spans
    }

    /// Turns on hierarchical span tracing for this session and threads the
    /// recorder through the rig and the detector. Off by default:
    /// a disabled handle consumes no RNG and perturbs no serialized
    /// artifact, so golden/manifest guards stay byte-identical.
    pub fn enable_span_recorder(&mut self) {
        self.spans = SpanHandle::recording();
        self.rig.set_span_handle(self.spans.clone());
        if let Some(det) = &mut self.detector {
            det.set_span_handle(self.spans.clone());
        }
    }

    /// Shares the plant's pre-pedal trajectory with the sibling runs of a
    /// sweep: periods a sibling already integrated from the same state
    /// under the same inputs are copied, not re-integrated. Every artifact
    /// stays byte-identical; only the plant is shared — the console, link,
    /// detector and BITW keep their own seeded state.
    ///
    /// Takes effect only before the first step; returns whether the plant
    /// attached (see [`RavenPlant::share_prefix`]).
    ///
    /// [`RavenPlant::share_prefix`]: raven_dynamics::RavenPlant::share_prefix
    pub fn share_plant_prefix(&mut self, prefix: &Arc<PlantPrefix>) -> bool {
        self.clock.ticks() == 0 && self.rig.plant.share_prefix(Arc::clone(prefix))
    }

    /// Installs an attack before the session starts.
    pub fn install_attack(&mut self, attack: &AttackSetup) {
        if !matches!(attack, AttackSetup::None) {
            self.observer.event(
                Event::new(self.clock.now(), "attack", Severity::Info, EventKind::AttackInstalled)
                    .with("setup", format!("{attack:?}")),
            );
        }
        match attack {
            AttackSetup::None => {}
            AttackSetup::ScenarioA { magnitude, delay_packets, duration_packets } => {
                self.attack_delay_packets = Some(*delay_packets);
                self.mitm = Some(ItpMitm::new(
                    Vec3::new(*magnitude, 0.0, 0.0),
                    *delay_packets,
                    *duration_packets,
                ));
            }
            AttackSetup::ScenarioB { dac_delta, channel, delay_packets, duration_packets } => {
                self.attack_delay_packets = Some(*delay_packets);
                let wrapper = InjectionWrapper::pedal_down_trigger(
                    Corruption::AddDacWord { channel: *channel, delta: *dac_delta },
                    ActivationWindow::delayed(*delay_packets, *duration_packets),
                );
                // The malware runs in the compromised control process —
                // upstream of the hardware-side guard.
                self.rig.channel.install_first(wrapper);
            }
            AttackSetup::PlcStateRewrite { forced_nibble } => {
                self.rig
                    .channel
                    .install_first(raven_attack::StateNibbleRewrite::new(*forced_nibble));
            }
            AttackSetup::EncoderCorruption { channel, offset_counts, delay_reads } => {
                self.rig.channel.install(raven_attack::EncoderCorruption::delayed(
                    *channel,
                    *offset_counts,
                    *delay_reads,
                ));
            }
            AttackSetup::DropItp => {
                // Port change: the control software never receives console
                // packets (implemented as 100% loss on the ITP link). The
                // live link is degraded in place so loss accounting stays
                // cumulative and packets already in flight still arrive.
                self.itp_link.set_loss_probability(1.0);
            }
        }
    }

    /// Installs a deterministic chaos schedule (accidental faults, §V's
    /// wider threat surface). Returns the number of scheduled faults.
    ///
    /// The schedule is drawn entirely at install time from the dedicated
    /// `"chaos"` stream of the run seed over the window
    /// `[CHAOS_START_MS, CHAOS_START_MS + session_ms)` — after boot and
    /// pedal-down, so initialization stays clean. Hardware-level faults
    /// become windowed interceptors on the USB paths immediately;
    /// link-level faults are applied tick by tick in
    /// [`Simulation::step`]'s console stage. Every applied fault is
    /// attributed via a `chaos.injected` event and the `chaos.injections`
    /// counter. A simulation that never calls this consumes zero chaos
    /// RNG, and an all-off [`ChaosConfig`] schedules nothing.
    pub fn install_chaos(&mut self, chaos: &ChaosConfig) -> usize {
        let start = SimTime::ZERO + SimDuration::from_millis(Self::CHAOS_START_MS);
        let span = SimDuration::from_millis(self.config.session_ms);
        let schedule = ChaosSchedule::generate(
            derive_seed(self.config.seed, streams::CHAOS_ROOT),
            chaos,
            start,
            span,
        );
        let scheduled = schedule.scheduled();
        let mut link = std::collections::VecDeque::new();
        for fault in schedule.pending() {
            match fault.kind {
                ChaosFaultKind::ReorderNext
                | ChaosFaultKind::DuplicateNext
                | ChaosFaultKind::CorruptPacket { .. }
                | ChaosFaultKind::BurstLoss { .. } => link.push_back(*fault),
                ChaosFaultKind::StuckEncoder { channel, ms } => {
                    self.rig.channel.install(ChaosStuckEncoder::new(
                        channel as usize,
                        FaultWindow::starting_at(fault.at, ms),
                    ));
                }
                ChaosFaultKind::EncoderBitFlip { channel, bit, ms } => {
                    self.rig.channel.install(ChaosEncoderBitFlip::new(
                        channel as usize,
                        bit,
                        FaultWindow::starting_at(fault.at, ms),
                    ));
                }
                ChaosFaultKind::DropUsbFrames { ms } => {
                    self.rig.channel.install(ChaosFrameDrop::usb_frames(FaultWindow::starting_at(
                        fault.at, ms,
                    )));
                }
                ChaosFaultKind::BoardSilence { ms } => {
                    let window = FaultWindow::starting_at(fault.at, ms);
                    // The write half announces; the read half is silent so
                    // the pair counts as one injected fault.
                    self.rig.channel.install(ChaosFrameDrop::board_silence(window));
                    self.rig.channel.install(ChaosFeedbackHold::new(window));
                }
            }
        }
        self.chaos = Some(ChaosState { link, reorder_held: None, burst_until: None });
        scheduled
    }

    /// The detector, if the run has one (training protocols, metrics).
    pub fn detector(&self) -> Option<&DynamicDetector> {
        self.detector.as_ref()
    }

    /// Mutable access to the detector (ending a learning run, arming a
    /// mutant).
    pub fn detector_mut(&mut self) -> Option<&mut DynamicDetector> {
        self.detector.as_mut()
    }

    /// The hardware rig (reading back what an installed interceptor
    /// observed).
    pub fn rig(&self) -> &HardwareRig {
        &self.rig
    }

    /// Mutable access to the hardware rig (installing bespoke interceptors
    /// in advanced experiments).
    pub fn rig_mut(&mut self) -> &mut HardwareRig {
        &mut self.rig
    }

    /// The controller (telemetry inspection).
    pub fn controller(&self) -> &RavenController {
        &self.controller
    }

    /// The plant parameter set in use.
    pub fn rig_params(&self) -> &PlantParams {
        self.rig.plant.params()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Boots the robot: start button, homing, until Pedal Up (or panics
    /// after 5 s — a clean system must boot).
    ///
    /// # Panics
    ///
    /// Panics if homing does not complete within 5 simulated seconds (only
    /// possible when an attack or misconfiguration breaks initialization —
    /// use [`Simulation::boot_expecting_failure`] for those experiments).
    pub fn boot(&mut self) {
        assert!(
            self.boot_expecting_failure(),
            "clean boot failed: state {} fault {:?} estop {:?}",
            self.controller.state_machine().state(),
            self.controller.state_machine().fault(),
            self.rig.estop()
        );
    }

    /// Boots and reports whether Pedal Up was reached (homing-failure
    /// experiments expect `false`).
    pub fn boot_expecting_failure(&mut self) -> bool {
        let _boot = self.spans.begin(spans::SESSION_BOOT);
        // The control software runs (and writes idle USB packets) before the
        // operator presses the start button — the E-STOP phase visible at
        // the left edge of the paper's Figs. 5–6.
        for _ in 0..60 {
            self.step();
        }
        self.rig.press_start(self.clock.now(), &mut self.observer);
        self.controller.press_start();
        for _ in 0..5_000 {
            self.step();
            if self.controller.state_machine().state() == RobotState::PedalUp {
                return true;
            }
            if self.controller.state_machine().is_estop() {
                return false;
            }
        }
        false
    }

    /// Summarizes the session so far without advancing it (used by callers
    /// that drive [`Simulation::step`] themselves, e.g. dual-arm sessions).
    pub fn run_session_outcome_only(&self) -> SessionOutcome {
        self.outcome(self.clock.ticks())
    }

    /// Runs the teleoperation session and returns the outcome.
    pub fn run_session(&mut self) -> SessionOutcome {
        let _session = self.spans.begin(spans::SESSION_RUN);
        let ran = self.run_session_burst(self.config.session_ms);
        self.outcome(ran)
    }

    /// One bounded burst of the teleoperation session loop (the pipeline
    /// bench times sessions in bursts). Steps until `cycles` have run or
    /// the rig halts, returning the cycles actually stepped.
    /// [`run_session`] is a single maximal burst, so a session advanced
    /// in several bursts executes the *same* step sequence and is
    /// bit-identical to a single run (pinned by
    /// `burst_stepping_matches_single_run_session` in this module).
    ///
    /// [`run_session`]: Simulation::run_session
    pub fn run_session_burst(&mut self, cycles: u64) -> u64 {
        let mut ran = 0;
        for _ in 0..cycles {
            self.step();
            ran += 1;
            // Stop early once halted: nothing further can happen.
            if self.halted() {
                break;
            }
        }
        ran
    }

    /// Whether the session has halted for good: the software state
    /// machine is in E-STOP *and* the PLC latch is engaged.
    pub fn halted(&self) -> bool {
        self.controller.state_machine().is_estop() && self.rig.estop().is_some()
    }

    /// The configured teleoperation span (ms ≡ session cycles).
    pub fn session_ms(&self) -> u64 {
        self.config.session_ms
    }

    /// Summarizes a session that ran `session_ticks` cycles past boot —
    /// what [`run_session`] returns, for callers that drive the bursts
    /// themselves (`ticks` in the outcome counts session cycles only,
    /// unlike [`run_session_outcome_only`] which counts every tick).
    ///
    /// [`run_session`]: Simulation::run_session
    /// [`run_session_outcome_only`]: Simulation::run_session_outcome_only
    pub fn session_outcome(&self, session_ticks: u64) -> SessionOutcome {
        self.outcome(session_ticks)
    }

    /// One full 1 ms cycle of the whole system.
    ///
    /// Each numbered stage runs inside its `span.stage.*` span: with
    /// [`Simulation::enable_span_recorder`] on, `spans().stage_stats()` is
    /// this method's wall-clock profile; off (the default), no stage reads
    /// the clock. At the end of the cycle the observer diffs the safety-relevant state (robot state, faults, E-STOP latch,
    /// injections, alarms) and the flight recorder captures an
    /// [`IncidentReport`] on the first trip.
    pub fn step(&mut self) {
        let now = self.clock.now();
        self.spans.set_time(now);
        let _cycle = self.spans.begin(spans::CYCLE);

        // 1. Console emits; scenario-A malware mutates; chaos link faults
        //    apply; network carries.
        let span_stage = self.spans.begin(spans::STAGE_CONSOLE);
        let pkt = self.console.emit(now);
        let mut bytes = pkt.encode_traced(&self.spans);
        if let Some(mitm) = &mut self.mitm {
            mitm.process(&mut bytes);
        }
        self.send_console_bytes(now, bytes);
        drop(span_stage);

        // 2. Control software ingests delivered packets. Position increments
        //    are accumulated and applied exactly once (they are *deltas*);
        //    the pedal is a level and holds between packets, but falls back
        //    to "up" if the console goes silent too long — losing the
        //    operator must stop the robot, not freeze it mid-command.
        let span_stage = self.spans.begin(spans::STAGE_LINK);
        let mut accumulated = Vec3::ZERO;
        let mut got_packet = false;
        let mut rx = std::mem::take(&mut self.itp_rx);
        self.itp_link.poll_into(now, &mut rx);
        for raw in rx.drain(..) {
            if let Ok(decoded) = ItpPacket::decode_traced(&raw, &self.spans) {
                accumulated += decoded.delta_pos;
                got_packet = true;
                self.last_input = Some(OperatorInput {
                    pedal: decoded.pedal,
                    delta_pos: Vec3::ZERO,
                    wrist: decoded.wrist,
                });
                self.last_packet_at = now;
            }
        }
        self.itp_rx = rx;
        if let Some(input) = &mut self.last_input {
            input.delta_pos = accumulated;
            if !got_packet
                && now.saturating_since(self.last_packet_at)
                    > SimDuration::from_millis(Self::INPUT_TIMEOUT_MS)
            {
                input.pedal = false;
            }
        }
        drop(span_stage);

        // 3. Feedback read; detector measurement sync.
        let span_stage = self.spans.begin(spans::STAGE_FEEDBACK);
        let feedback = self.rig.read_feedback(now, &mut self.observer);
        if let Some(det) = &mut self.detector {
            let mpos = self.rig.decode_motor_positions(&feedback);
            det.sync_measurement(mpos);
        }
        drop(span_stage);

        // 4. Control cycle; command write through the interceptor chain
        //    (malware wrappers first, then the guard at its slot).
        let span_stage = self.spans.begin(spans::STAGE_CONTROLLER);
        let input = self.last_input;
        let cmd = self.controller.cycle(input.as_ref(), &feedback);
        drop(span_stage);
        let span_stage = self.spans.begin(spans::STAGE_INTERCEPTORS);
        let mut guard = self.detector.as_mut().map(GuardInterceptor::new);
        let guard = guard.as_mut().map(|g| g as &mut dyn Interceptor);
        self.rig.deliver_command(&cmd, now, guard, &mut self.observer);
        drop(span_stage);

        // 5. Guard-driven E-STOP (the trusted hardware module acts on both
        //    the software and the PLC).
        let span_stage = self.spans.begin(spans::STAGE_DETECTOR);
        if let Some(det) = &self.detector {
            if det.estop_requested()
                && self.controller.state_machine().fault() != Some(FaultReason::GuardStop)
                && !self.controller.state_machine().is_estop()
            {
                self.controller.guard_stop();
                self.rig.press_estop();
            }
        }
        drop(span_stage);

        // 6. Physics.
        let span_stage = self.spans.begin(spans::STAGE_PLANT);
        self.rig.step(now, &mut self.observer);
        let ee = self.record_ee();
        if self.config.record_cycles {
            let state = *self.rig.plant.state();
            self.cycle_log.push(CycleRecord {
                dac: self.rig.board.positioning_dac(),
                mpos: state.motor_pos().to_array(),
                jpos: state.joint_pos().to_array(),
                state,
                engaged: !self.rig.plant.brakes_engaged(),
            });
            let j = state.joint_pos().to_array();
            self.trace.record(channels::EE_X_MM, now, ee.x * 1e3);
            self.trace.record(channels::EE_Y_MM, now, ee.y * 1e3);
            self.trace.record(channels::EE_Z_MM, now, ee.z * 1e3);
            self.trace.record(channels::JPOS1, now, j[0]);
            self.trace.record(channels::JPOS2, now, j[1]);
            self.trace.record(channels::JPOS3, now, j[2]);
        }
        drop(span_stage);

        self.observe_cycle(now);
        self.clock.tick();
    }

    /// Carries one tick's console bytes onto the ITP link, applying any
    /// link-level chaos faults due this tick. Without an installed chaos
    /// schedule this is exactly `itp_link.send` — the clean path is
    /// untouched and consumes no extra RNG.
    fn send_console_bytes(&mut self, now: SimTime, mut bytes: [u8; ITP_PACKET_LEN]) {
        let Some(chaos) = &mut self.chaos else {
            self.itp_link.send(now, bytes);
            return;
        };

        // An expired loss burst restores the configured loss first.
        if chaos.burst_until.is_some_and(|until| now >= until) {
            chaos.burst_until = None;
            self.itp_link.set_loss_probability(self.config.link.loss_probability);
        }

        let mut hold_this_tick = false;
        let mut duplicate = false;
        while let Some(fault) = chaos.link.front().copied() {
            if fault.at > now {
                break;
            }
            chaos.link.pop_front();
            let mut detail: Vec<(&'static str, i64)> = Vec::new();
            let applied = match fault.kind {
                ChaosFaultKind::ReorderNext => {
                    // Ignore a reorder while already holding a packet: one
                    // packet in flight backwards at a time.
                    let apply = chaos.reorder_held.is_none() && !hold_this_tick;
                    hold_this_tick |= apply;
                    apply
                }
                ChaosFaultKind::DuplicateNext => {
                    duplicate = true;
                    true
                }
                ChaosFaultKind::CorruptPacket { byte, mask } => {
                    let i = byte as usize % ITP_PACKET_LEN;
                    bytes[i] ^= mask;
                    detail.push(("byte", i as i64));
                    detail.push(("mask", i64::from(mask)));
                    true
                }
                ChaosFaultKind::BurstLoss { ms } => {
                    let until = now + SimDuration::from_millis(ms);
                    chaos.burst_until =
                        Some(chaos.burst_until.map_or(until, |prev| prev.max(until)));
                    self.itp_link.set_loss_probability(1.0);
                    detail.push(("window_ms", ms as i64));
                    true
                }
                // Hardware-level faults were turned into interceptors at
                // install time and never reach the link queue.
                ChaosFaultKind::StuckEncoder { .. }
                | ChaosFaultKind::EncoderBitFlip { .. }
                | ChaosFaultKind::DropUsbFrames { .. }
                | ChaosFaultKind::BoardSilence { .. } => false,
            };
            if applied {
                let obs = &mut self.observer;
                obs.metrics.inc(names::CHAOS_INJECTIONS);
                let mut event = Event::new(now, "chaos", Severity::Warn, EventKind::ChaosInjected)
                    .with("fault", fault.kind.slug());
                for (key, value) in detail {
                    event = event.with(key, value);
                }
                obs.event(event);
            }
        }

        if hold_this_tick {
            // The reorder: this tick's packet waits; it departs after the
            // next tick's packet.
            chaos.reorder_held = Some(bytes);
            return;
        }
        if duplicate {
            self.itp_link.send(now, bytes);
        }
        self.itp_link.send(now, bytes);
        if let Some(held) = chaos.reorder_held.take() {
            self.itp_link.send(now, held);
        }
    }

    /// End-of-cycle observation: diffs the safety-relevant state against
    /// the previous cycle, emits events/metrics for every edge, and trips
    /// the flight recorder once.
    fn observe_cycle(&mut self, now: SimTime) {
        let det_sample = self.detector.as_ref().map(|d| (d.alarmed(), d.first_alarm_assessment()));

        let state = self.controller.state_machine().state();
        let fault = self.controller.state_machine().fault();
        let estop = self.rig.estop();
        let mutations = self.rig.channel.mutations();
        let corrupted = self.mitm.as_ref().map_or(0, ItpMitm::corrupted);
        let lost = self.itp_link.lost();
        let alarmed = det_sample.is_some_and(|(a, _)| a);

        let obs = &mut self.observer;
        if state != self.prev_state {
            obs.metrics.inc(names::CONTROL_TRANSITIONS);
            obs.event(
                Event::new(now, "control", Severity::Info, EventKind::StateTransition)
                    .with("from", format!("{:?}", self.prev_state))
                    .with("to", format!("{state:?}")),
            );
        }
        if fault != self.prev_fault {
            if let Some(reason) = fault {
                obs.metrics.inc(&names::fault_count(reason.slug()));
                obs.event(
                    Event::new(now, "control", Severity::Error, EventKind::ControlFault)
                        .with("reason", reason.slug()),
                );
            }
        }
        if mutations > self.prev_mutations {
            let delta = mutations - self.prev_mutations;
            obs.metrics.add(names::ATTACK_INJECTIONS, delta);
            obs.event(
                Event::new(now, "attack", Severity::Warn, EventKind::AttackInjection)
                    .with("vector", "usb")
                    .with("count", delta),
            );
        }
        if corrupted > self.prev_corrupted {
            let delta = corrupted - self.prev_corrupted;
            obs.metrics.add(names::ATTACK_INJECTIONS, delta);
            obs.event(
                Event::new(now, "attack", Severity::Warn, EventKind::AttackInjection)
                    .with("vector", "itp")
                    .with("count", delta),
            );
        }
        if lost > self.prev_lost {
            obs.metrics.add(names::NET_PACKETS_DROPPED, lost - self.prev_lost);
        }
        if alarmed && !self.prev_alarmed {
            if let Some((_, Some(first))) = det_sample {
                obs.metrics.set_gauge(names::DETECTOR_FIRST_ALARM_ASSESSMENT, first as f64);
                if let Some(delay) = self.attack_delay_packets {
                    // The paper's detection latency: armed assessments
                    // between injection onset and the first alarm.
                    obs.metrics.observe(
                        names::DETECTOR_DETECTION_LATENCY_CYCLES,
                        first.saturating_sub(delay) as f64,
                    );
                }
            }
        }

        // Flight recorder: trip once, on the first fault / E-STOP / alarm.
        if self.incident.is_none() {
            let fault_edge = fault.is_some() && self.prev_fault.is_none();
            let estop_edge = estop.is_some() && self.prev_estop.is_none();
            let alarm_edge = alarmed && !self.prev_alarmed;
            if fault_edge || estop_edge || alarm_edge {
                let cause = if let (true, Some(c)) = (estop_edge, estop) {
                    format!("estop: {}", c.slug())
                } else if let (true, Some(f)) = (fault_edge, fault) {
                    format!("fault: {}", f.slug())
                } else {
                    "detector alarm".to_string()
                };
                let _capture = self.spans.begin(spans::FLIGHT_RECORDER_CAPTURE);
                let window = SimDuration::from_millis(Self::INCIDENT_WINDOW_MS);
                let from = SimTime::from_nanos(now.as_nanos().saturating_sub(window.as_nanos()));
                self.incident = Some(IncidentReport {
                    time: now,
                    cause,
                    seed: self.config.seed,
                    window_ms: Self::INCIDENT_WINDOW_MS,
                    events: self.observer.events.snapshot(),
                    signals: self.trace.window_from(from),
                });
            }
        }

        self.prev_state = state;
        self.prev_fault = fault;
        self.prev_estop = estop;
        self.prev_alarmed = alarmed;
        self.prev_mutations = mutations;
        self.prev_corrupted = corrupted;
        self.prev_lost = lost;
    }

    /// Appends the plant's true end-effector position to the jump window
    /// and returns it.
    fn record_ee(&mut self) -> Vec3 {
        let arm = self.controller.chain().arm();
        let pos = arm.position(&self.rig.plant.true_joints());
        self.ee_history.push(pos);
        let n = self.ee_history.len();
        if n >= 2 {
            let step1 = pos.distance(self.ee_history[n - 2]);
            self.max_ee_step_1ms = self.max_ee_step_1ms.max(step1);
        }
        if n >= 3 {
            let step2 = pos.distance(self.ee_history[n - 3]);
            self.max_ee_step_2ms = self.max_ee_step_2ms.max(step2);
        }
        // Bound memory for long campaigns: only a short window is needed.
        if n > 8 {
            self.ee_history.drain(..n - 4);
        }
        pos
    }

    fn outcome(&self, ticks: u64) -> SessionOutcome {
        let adverse = self.max_ee_step_1ms > 1.0e-3 || self.max_ee_step_2ms > 1.0e-3;
        let fault = self.controller.state_machine().fault();
        let raven_detected = matches!(
            fault,
            Some(
                FaultReason::DacLimit
                    | FaultReason::JointLimit
                    | FaultReason::IkFailure
                    | FaultReason::HomingFailure
            )
        ) || matches!(
            self.rig.estop(),
            Some(EStopCause::WatchdogTimeout) | Some(EStopCause::HardwareFault)
        );
        let model_detected = self.detector.as_ref().is_some_and(DynamicDetector::alarmed);
        SessionOutcome {
            max_ee_step_1ms: self.max_ee_step_1ms,
            max_ee_step_2ms: self.max_ee_step_2ms,
            adverse,
            estop: self.rig.estop().map(|c| c.to_string()),
            controller_fault: fault.map(|f| f.to_string()),
            raven_detected,
            model_detected,
            ticks,
            final_state: self.controller.state_machine().state().to_string(),
            injections: self.rig.channel.mutations(),
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("seed", &self.config.seed)
            .field("workload", &self.config.workload)
            .field("now", &self.clock.now())
            .field("state", &self.controller.state_machine().state())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_is_send() {
        // The campaign executor hands whole sessions to scoped worker threads;
        // every trait object inside the rig must therefore be `Send`.
        fn assert_send<T: Send>() {}
        assert_send::<Simulation>();
    }

    #[test]
    fn guard_slot_sits_between_malware_and_later_chaos_stages() {
        let mut sim = Simulation::new(SimConfig {
            session_ms: 10_000,
            detector: Some(DetectorSetup::default()),
            ..SimConfig::standard(7)
        });
        sim.install_attack(&AttackSetup::ScenarioB {
            dac_delta: 14_000,
            channel: 0,
            delay_packets: 400,
            duration_packets: 256,
        });
        sim.install_chaos(&ChaosConfig::standard());
        assert_eq!(
            sim.rig.channel.chain_names(),
            [
                InjectionWrapper::NAME,
                GuardInterceptor::NAME,
                "chaos.stuck_encoder",
                "chaos.encoder_bitflip",
                "chaos.stuck_encoder",
                "chaos.stuck_encoder",
                "chaos.encoder_bitflip",
                "chaos.usb_frame_drop",
                "chaos.usb_frame_drop",
                "chaos.stuck_encoder",
                "chaos.encoder_bitflip",
                "chaos.board_silence.write",
                "chaos.feedback_hold",
                "chaos.stuck_encoder",
                "chaos.board_silence.write",
                "chaos.feedback_hold",
            ]
        );
    }

    #[test]
    fn burst_stepping_matches_single_run_session() {
        let cfg = SimConfig { session_ms: 3_000, ..SimConfig::standard(13) };
        let attack = AttackSetup::ScenarioB {
            dac_delta: 30_000,
            channel: 0,
            delay_packets: 400,
            duration_packets: 256,
        };
        let mut solo = Simulation::new(cfg.clone());
        solo.install_attack(&attack);
        solo.boot();
        let solo_out = solo.run_session();

        let mut burst = Simulation::new(cfg);
        burst.install_attack(&attack);
        burst.boot();
        let mut ran = 0;
        while ran < burst.session_ms() && !burst.halted() {
            ran += burst.run_session_burst(7);
        }
        let burst_out = burst.session_outcome(ran);
        assert_eq!(
            serde_json::to_string(&solo_out).unwrap(),
            serde_json::to_string(&burst_out).unwrap()
        );
        assert_eq!(solo.events().len(), burst.events().len());
    }

    #[test]
    fn a_run_on_a_siblings_prefix_is_byte_identical_to_a_standalone_run() {
        let build = |seed: u64, workload: Workload| {
            let mut sim = Simulation::new(SimConfig {
                workload,
                session_ms: 2_500,
                detector: Some(DetectorSetup::default()),
                ..SimConfig::standard(seed)
            });
            sim.install_attack(&AttackSetup::ScenarioB {
                dac_delta: 24_000,
                channel: (seed % 3) as usize,
                delay_packets: 300,
                duration_packets: 128,
            });
            sim
        };
        let run = |mut sim: Simulation| {
            sim.boot();
            let out = sim.run_session();
            [
                serde_json::to_string(&out).unwrap(),
                serde_json::to_string(&sim.metrics()).unwrap(),
                serde_json::to_string(&sim.events()).unwrap(),
            ]
        };
        let prefix = Arc::new(PlantPrefix::new(Simulation::PEDAL_PRESS_MS as usize));
        let mut sibling = build(31, Workload::Circle);
        assert!(sibling.share_plant_prefix(&prefix));
        let _ = run(sibling);
        assert_eq!(prefix.recorded_periods(), prefix.cap());

        let mut shared = build(37, Workload::Suturing);
        assert!(shared.share_plant_prefix(&prefix));
        let shared = run(shared);
        assert_eq!(prefix.full_replays(), 1, "the second run replays every pre-pedal period");
        assert_eq!(shared, run(build(37, Workload::Suturing)));

        // Attaching after the first step is a no-op.
        let mut late = build(41, Workload::Circle);
        late.step();
        assert!(!late.share_plant_prefix(&prefix));
    }

    #[test]
    fn clean_session_has_no_adverse_impact() {
        let mut sim = Simulation::new(SimConfig { session_ms: 2_000, ..SimConfig::standard(11) });
        sim.boot();
        let out = sim.run_session();
        assert!(!out.adverse, "clean run flagged adverse: {out:?}");
        assert!(!out.raven_detected);
        assert!(out.estop.is_none());
        assert_eq!(out.final_state, "Pedal Down");
        assert!(out.max_ee_step_1ms < 5e-4);
    }

    #[test]
    fn scenario_b_injection_causes_adverse_impact_on_undefended_robot() {
        let mut sim = Simulation::new(SimConfig { session_ms: 3_000, ..SimConfig::standard(13) });
        sim.install_attack(&AttackSetup::ScenarioB {
            dac_delta: 30_000,
            channel: 0,
            delay_packets: 400,
            duration_packets: 256,
        });
        sim.boot();
        let out = sim.run_session();
        assert!(out.injections > 0, "attack never fired: {out:?}");
        assert!(out.adverse, "a long, large torque injection must jump the arm: {out:?}");
    }

    #[test]
    fn scenario_a_mitm_hijacks_trajectory() {
        let mut sim = Simulation::new(SimConfig { session_ms: 3_000, ..SimConfig::standard(17) });
        sim.install_attack(&AttackSetup::ScenarioA {
            magnitude: 4.0e-4,
            delay_packets: 400,
            duration_packets: 512,
        });
        sim.boot();
        let out = sim.run_session();
        // The arm follows motion the operator never commanded; with a large
        // sustained injection the robot either jumps or faults.
        assert!(
            out.adverse || out.controller_fault.is_some() || out.max_ee_step_2ms > 2e-4,
            "MITM had no effect: {out:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sim =
                Simulation::new(SimConfig { session_ms: 1_000, ..SimConfig::standard(seed) });
            sim.boot();
            let out = sim.run_session();
            (out.max_ee_step_1ms, out.ticks)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn chaos_off_schedule_is_a_no_op() {
        // Installing an all-off chaos config must leave the run byte-for-
        // byte identical to never installing chaos: zero RNG consumed,
        // zero events emitted.
        let run = |install: bool| {
            let mut sim =
                Simulation::new(SimConfig { session_ms: 1_500, ..SimConfig::standard(23) });
            if install {
                assert_eq!(sim.install_chaos(&ChaosConfig::off()), 0);
            }
            sim.boot();
            let out = sim.run_session();
            (serde_json::to_string(&out).unwrap(), serde_json::to_string(&sim.metrics()).unwrap())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn chaos_standard_schedule_is_deterministic_and_attributed() {
        let run = || {
            let mut sim =
                Simulation::new(SimConfig { session_ms: 2_500, ..SimConfig::standard(29) });
            let scheduled = sim.install_chaos(&ChaosConfig::standard());
            sim.boot();
            let out = sim.run_session();
            (scheduled, serde_json::to_string(&out).unwrap(), sim.metrics(), sim.events())
        };
        let (scheduled, out_a, metrics, events) = run();
        let (_, out_b, metrics_b, _) = run();
        assert_eq!(out_a, out_b, "chaos run must be replay-deterministic");
        assert_eq!(
            serde_json::to_string(&metrics).unwrap(),
            serde_json::to_string(&metrics_b).unwrap()
        );
        assert!(scheduled > 0, "standard chaos over 2.5 s should schedule faults");
        // Every applied fault is attributed: counter == event count <= scheduled.
        let injected = metrics.counter(names::CHAOS_INJECTIONS);
        let chaos_events =
            events.iter().filter(|e| e.kind == EventKind::ChaosInjected.as_str()).count() as u64;
        assert!(injected > 0, "no chaos fault applied out of {scheduled} scheduled");
        assert_eq!(injected, chaos_events);
        assert!(injected <= scheduled as u64);
    }

    #[test]
    fn plc_state_rewrite_breaks_boot() {
        let mut sim = Simulation::new(SimConfig::standard(19));
        sim.install_attack(&AttackSetup::PlcStateRewrite {
            forced_nibble: RobotState::PedalUp.nibble(),
        });
        // The PLC believes the robot is in Pedal Up during homing, so the
        // brakes never release and homing cannot move the arm.
        assert!(!sim.boot_expecting_failure(), "boot should fail under PLC state rewrite");
    }
}
