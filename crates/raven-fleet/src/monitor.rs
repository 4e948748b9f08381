//! The monitor-plane multiplexer: thousands of telemetry streams over
//! one M-lane [`BatchDetector`].
//!
//! Where the rig plane ([`crate::run_fleet`]) simulates every session
//! in full, the monitor models the deployment where per-rig telemetry
//! arrives over the network and only the *detector* runs centrally.
//! Sessions alternate active (Pedal-Down, assessed every cycle) and
//! idle (Pedal-Up) phases:
//!
//! * An **active** session holds one detector lane; each cycle it
//!   syncs its measurement and is assessed through
//!   [`BatchDetector::assess_lanes_masked`].
//! * An **idle** session holds *no* lane and sits in the
//!   [`WakeQueue`] until its next active phase — it is never polled
//!   and consumes **zero** detector assessments. When every session is
//!   idle, virtual time jumps straight to the next wake.
//!
//! Lane recycling: activation takes the lowest free lane
//! ([`BatchDetector::admit_lane`] — a fresh detector epoch), phase end
//! releases it ([`BatchDetector::retire_lane`]). If no lane is free,
//! the activation re-arms one cycle later (a *deferral*) — bounded,
//! because active phases are finite, and deterministic, because
//! deferred sessions re-enter the queue in `(time, id)` order. Per
//! the kernel's lane-isolation contract, admissions and retirements
//! never perturb co-scheduled lanes — pinned by
//! `tests/scheduler_props.rs` and the `fleet-isolation` chaos oracle.

use std::collections::{BTreeMap, BTreeSet};

use raven_detect::{BatchDetector, DetectionThresholds, DetectorConfig};
use raven_dynamics::{PlantParams, RtModel};
use raven_kinematics::{ArmConfig, JointState, MotorState, NUM_AXES};
use serde::Serialize;
use simbus::{SimDuration, SimTime};

use crate::queue::WakeQueue;

/// One monitored session's duty schedule.
#[derive(Debug, Clone, Copy)]
pub struct MonitorSession {
    /// Seed: perturbs the session's estimator model and phases its
    /// synthetic trajectory.
    pub seed: u64,
    /// Virtual time (ms) of the first activation.
    pub start_ms: u64,
    /// Length of each active (Pedal-Down) phase in ms.
    pub active_ms: u64,
    /// Idle (Pedal-Up) gap between active phases in ms.
    pub idle_ms: u64,
    /// Number of active phases; `0` means the session stays idle for
    /// its whole lifetime and never acquires a lane.
    pub phases: u32,
}

impl MonitorSession {
    /// A fully idle session: admitted, never active.
    pub fn idle(seed: u64) -> Self {
        MonitorSession { seed, start_ms: 0, active_ms: 0, idle_ms: 0, phases: 0 }
    }
}

/// What one session consumed over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SessionTotals {
    /// Armed detector assessments across all active phases.
    pub assessments: u64,
    /// Alarms raised across all active phases.
    pub alarms: u64,
    /// Active phases completed.
    pub phases_run: u32,
    /// Activations deferred because no lane was free.
    pub deferrals: u64,
}

/// Monitor dimensions and detector arming.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Detector lanes — the maximum concurrently active sessions
    /// served without deferral.
    pub width: usize,
    /// Detector configuration shared by every lane.
    pub detector: DetectorConfig,
    /// Thresholds every admitted lane is armed with.
    pub thresholds: DetectionThresholds,
}

/// The monitor run's summary.
#[derive(Debug, Clone, Serialize)]
pub struct MonitorReport {
    /// Per-session totals, in session-id order.
    pub totals: Vec<SessionTotals>,
    /// Detector cycles executed (masked batch calls).
    pub cycles: u64,
    /// Peak concurrently active sessions.
    pub peak_active: usize,
    /// Total deferred activations.
    pub deferrals: u64,
}

/// A session currently holding a lane.
#[derive(Debug)]
struct ActivePhase {
    lane: usize,
    remaining_ms: u64,
    /// Cycle index within the phase (drives the trajectory).
    cycle: u64,
}

/// The monitor-plane multiplexer. See the module doc.
#[derive(Debug)]
pub struct FleetMonitor {
    config: MonitorConfig,
    sessions: Vec<MonitorSession>,
    detector: BatchDetector,
    shared_params: PlantParams,
    arm: ArmConfig,
}

impl FleetMonitor {
    /// Builds a monitor of `config.width` lanes over `sessions`.
    ///
    /// # Panics
    ///
    /// Panics on zero width or an empty session list.
    pub fn new(config: MonitorConfig, sessions: Vec<MonitorSession>) -> Self {
        assert!(config.width >= 1, "monitor needs at least one lane");
        assert!(!sessions.is_empty(), "monitor needs at least one session");
        let params = PlantParams::raven_ii();
        let arm = ArmConfig::builder().coupling(params.coupling()).build();
        let model = RtModel::new(params);
        let arms: Vec<ArmConfig> = vec![arm.clone(); config.width];
        let models: Vec<RtModel> = vec![model; config.width];
        let detector = BatchDetector::from_models(&arms, &models, config.detector);
        FleetMonitor { config, sessions, detector, shared_params: params, arm }
    }

    /// The estimator model a session's lane is admitted with.
    pub fn session_model(&self, session: &MonitorSession) -> RtModel {
        RtModel::new(self.shared_params.perturbed(session.seed, 0.02))
    }

    /// The arm config every lane shares.
    pub fn shared_arm(&self) -> ArmConfig {
        self.arm.clone()
    }

    /// The synthetic measurement stream: a smooth per-session sinusoid
    /// (phase-offset by seed) standing in for real rig telemetry.
    pub fn measurement(&self, session: &MonitorSession, cycle: u64) -> MotorState {
        synth_measurement(&self.shared_params, session.seed, cycle)
    }

    /// The candidate DAC command the guard assesses each cycle.
    pub fn command(session: &MonitorSession, cycle: u64) -> [i16; NUM_AXES] {
        synth_command(session.seed, cycle)
    }

    /// Runs every session through its duty schedule; returns the
    /// per-session totals (id order) and scheduling telemetry.
    pub fn run(&mut self) -> MonitorReport {
        let mut queue = WakeQueue::new();
        let mut totals = vec![SessionTotals::default(); self.sessions.len()];
        let mut phases_left: Vec<u32> = self.sessions.iter().map(|s| s.phases).collect();
        for (id, s) in self.sessions.iter().enumerate() {
            if s.phases > 0 && s.active_ms > 0 {
                queue.schedule(ms(s.start_ms), id as u64);
            }
        }

        let mut free: BTreeSet<usize> = (0..self.config.width).collect();
        let mut active: BTreeMap<u64, ActivePhase> = BTreeMap::new();
        let mut dacs: Vec<Option<[i16; NUM_AXES]>> = vec![None; self.config.width];
        let mut now = SimTime::ZERO;
        let mut cycles = 0u64;
        let mut peak_active = 0usize;
        let mut deferrals = 0u64;

        loop {
            if active.is_empty() {
                // Everything is idle: jump virtual time to the next
                // wake — the queue replaces per-tick polling.
                let Some((t, ids)) = queue.pop_frontier() else { break };
                now = t;
                self.admit_ready(
                    ids,
                    now,
                    &mut queue,
                    &mut free,
                    &mut active,
                    &mut totals,
                    &mut deferrals,
                );
                continue;
            }
            // Admit any sessions due at the current instant.
            while queue.next_wake() == Some(now) {
                let (_, ids) = queue.pop_frontier().expect("peeked wake");
                self.admit_ready(
                    ids,
                    now,
                    &mut queue,
                    &mut free,
                    &mut active,
                    &mut totals,
                    &mut deferrals,
                );
            }
            peak_active = peak_active.max(active.len());

            // One detector cycle over the masked batch.
            dacs.iter_mut().for_each(|d| *d = None);
            for (&id, phase) in active.iter() {
                let session = self.sessions[id as usize];
                self.detector.sync_lane(
                    phase.lane,
                    synth_measurement(&self.shared_params, session.seed, phase.cycle),
                );
                dacs[phase.lane] = Some(synth_command(session.seed, phase.cycle));
            }
            self.detector.assess_lanes_masked(&dacs);
            cycles += 1;
            now += SimDuration::from_millis(1);

            // Advance phases; release lanes that completed.
            let mut finished: Vec<u64> = Vec::new();
            for (&id, phase) in active.iter_mut() {
                phase.cycle += 1;
                phase.remaining_ms -= 1;
                if phase.remaining_ms == 0 {
                    finished.push(id);
                }
            }
            for id in finished {
                let phase = active.remove(&id).expect("finishing session is active");
                let t = &mut totals[id as usize];
                t.assessments += self.detector.lane_assessments(phase.lane);
                t.alarms += self.detector.lane_alarms(phase.lane);
                t.phases_run += 1;
                self.detector.retire_lane(phase.lane);
                free.insert(phase.lane);
                let session = self.sessions[id as usize];
                phases_left[id as usize] -= 1;
                if phases_left[id as usize] > 0 {
                    queue.schedule(now + SimDuration::from_millis(session.idle_ms), id);
                }
            }
        }

        MonitorReport { totals, cycles, peak_active, deferrals }
    }

    /// Activates woken sessions in `(time, id)` order, taking the
    /// lowest free lane each; defers by one cycle when none is free.
    #[allow(clippy::too_many_arguments)]
    fn admit_ready(
        &mut self,
        ids: Vec<u64>,
        now: SimTime,
        queue: &mut WakeQueue,
        free: &mut BTreeSet<usize>,
        active: &mut BTreeMap<u64, ActivePhase>,
        totals: &mut [SessionTotals],
        deferrals: &mut u64,
    ) {
        for id in ids {
            let session = self.sessions[id as usize];
            match free.iter().next().copied() {
                Some(lane) => {
                    free.remove(&lane);
                    self.detector.admit_lane(
                        lane,
                        self.shared_arm(),
                        &self.session_model(&session),
                        Some(self.config.thresholds),
                    );
                    active.insert(
                        id,
                        ActivePhase { lane, remaining_ms: session.active_ms, cycle: 0 },
                    );
                }
                None => {
                    totals[id as usize].deferrals += 1;
                    *deferrals += 1;
                    queue.schedule(now + SimDuration::from_millis(1), id);
                }
            }
        }
    }
}

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

/// Smooth seeded sinusoid measurement (the bench/session trajectory
/// family), phase-offset per session via plain seed arithmetic.
fn synth_measurement(params: &PlantParams, seed: u64, cycle: u64) -> MotorState {
    let t = cycle as f64 * 1e-3;
    let phase = (seed % 628) as f64 * 0.01;
    let j = JointState::new(
        0.1 * (2.0 * t + phase).sin(),
        1.4 + 0.08 * (1.5 * t + phase).cos(),
        0.25 + 0.01 * (t + phase).sin(),
    );
    params.coupling().joints_to_motors(&j)
}

/// Seeded candidate command matched to the measurement's gentle pace.
fn synth_command(seed: u64, cycle: u64) -> [i16; NUM_AXES] {
    let base = 150 + (seed % 200) as i16;
    let swing = ((cycle % 64) as i16) - 32;
    [base + swing, -100, 80]
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_detect::DynamicDetector;

    fn mid_thresholds() -> DetectionThresholds {
        DetectionThresholds {
            motor_accel: [200.0; NUM_AXES],
            motor_vel: [20.0; NUM_AXES],
            joint_vel: [2.0; NUM_AXES],
        }
    }

    fn config(width: usize) -> MonitorConfig {
        MonitorConfig { width, detector: DetectorConfig::default(), thresholds: mid_thresholds() }
    }

    #[test]
    fn duty_cycled_session_matches_scalar_detector_per_phase() {
        // One session, two active phases: totals must equal a scalar
        // DynamicDetector re-created at each phase (a lane admission is
        // a fresh detector epoch).
        let session =
            MonitorSession { seed: 42, start_ms: 5, active_ms: 40, idle_ms: 100, phases: 2 };
        let mut monitor = FleetMonitor::new(config(3), vec![session]);
        let model = monitor.session_model(&session);
        let arm = monitor.shared_arm();
        let report = monitor.run();

        let mut expected = SessionTotals::default();
        for _phase in 0..2 {
            let mut det =
                DynamicDetector::new(arm.clone(), model.clone(), DetectorConfig::default());
            det.arm_with(mid_thresholds());
            for cycle in 0..40 {
                det.sync_measurement(monitor.measurement(&session, cycle));
                det.assess(&FleetMonitor::command(&session, cycle));
            }
            expected.assessments += det.assessments();
            expected.alarms += det.alarms();
            expected.phases_run += 1;
        }
        assert_eq!(report.totals[0], expected);
        assert_eq!(report.cycles, 80, "only active spans consume detector cycles");
    }

    #[test]
    fn idle_sessions_consume_zero_assessments_and_zero_cycles() {
        let mut sessions: Vec<MonitorSession> = (0..50).map(MonitorSession::idle).collect();
        sessions.push(MonitorSession {
            seed: 99,
            start_ms: 0,
            active_ms: 25,
            idle_ms: 0,
            phases: 1,
        });
        let mut monitor = FleetMonitor::new(config(2), sessions);
        let report = monitor.run();
        for t in &report.totals[..50] {
            assert_eq!(t.assessments, 0);
            assert_eq!(t.phases_run, 0);
        }
        assert_eq!(report.totals[50].assessments, 25);
        assert_eq!(report.cycles, 25, "idle sessions must not add cycles");
        assert_eq!(report.peak_active, 1);
    }

    #[test]
    fn lane_contention_defers_but_never_starves() {
        // 4 sessions over 2 lanes, all due at t=0: the late ids defer
        // until a lane frees, and everyone completes every phase.
        let sessions: Vec<MonitorSession> = (0..4)
            .map(|i| MonitorSession { seed: i, start_ms: 0, active_ms: 10, idle_ms: 5, phases: 3 })
            .collect();
        let mut monitor = FleetMonitor::new(config(2), sessions);
        let report = monitor.run();
        assert!(report.deferrals > 0, "contention must actually occur");
        for t in &report.totals {
            assert_eq!(t.phases_run, 3);
            assert_eq!(t.assessments, 30);
        }
        assert_eq!(report.peak_active, 2);
    }
}
