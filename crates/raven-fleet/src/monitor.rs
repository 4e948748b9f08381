//! The monitor-plane multiplexer: thousands of telemetry streams over
//! M-lane [`BatchDetector`]s.
//!
//! Where the rig plane ([`crate::run_fleet`]) simulates every session
//! in full, the monitor models the deployment where per-rig telemetry
//! arrives over the network and only the *detector* runs centrally.
//! Sessions alternate active (Pedal-Down, assessed every cycle) and
//! idle (Pedal-Up) phases. A run has two passes:
//!
//! 1. **Schedule** — no detector. An active session holds one of
//!    `width` lanes; an idle one holds none and sits in the
//!    [`WakeQueue`] until its next active phase, so it is never polled
//!    and consumes **zero** assessments. Virtual time jumps from event
//!    to event (a wake or a phase end). A woken session takes a free
//!    lane, or re-arms one cycle later when none is free (a
//!    *deferral*) — bounded, because active phases are finite, and
//!    deterministic, because sessions wake in `(time, id)` order. The
//!    pass yields the admitted phases in admission order and every
//!    scheduling count of the [`MonitorReport`].
//! 2. **Assess** — one [`raven_core::run_sweep`] over chunks of those
//!    phases. Each chunk runs on a fresh `width`-lane detector: a phase
//!    takes the lowest free lane ([`BatchDetector::admit_lane`], a
//!    fresh detector epoch), is synced and assessed through
//!    [`BatchDetector::assess_lanes`] for its `active_ms` cycles (free
//!    lanes ride along parked, as `None` slots), and releases the lane
//!    ([`BatchDetector::retire_lane`]).
//!
//! The split rests on two facts. A phase's length never depends on its
//! verdicts, so the schedule is settled before any verdict exists. And
//! batch lanes are arithmetically independent, so a phase's verdicts do
//! not depend on its lane, its chunk or its neighbours — pinned by
//! `tests/scheduler_props.rs` and the `fleet-isolation` chaos oracle.
//! The report is therefore byte-identical for any worker count
//! (`tests/monitor_workers.rs`). Were a phase ever to end on a verdict
//! (an E-STOP cutting it short), the schedule would depend on the
//! assessments and this split would no longer hold.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use raven_core::{run_sweep, ExecutorConfig};
use raven_detect::{BatchDetector, DetectionThresholds, DetectorConfig};
use raven_dynamics::{PlantParams, RtModel};
use raven_kinematics::{ArmConfig, CouplingMatrix, JointState, MotorState, NUM_AXES};
use serde::Serialize;
use simbus::{SimDuration, SimTime};

use crate::queue::WakeQueue;

/// Lane fills per assessment chunk: a chunk holds this many times
/// `width` phases, so its drain tail (lanes emptying with no phase left
/// to admit) is a small share of its work, while a fleet still splits
/// into enough chunks to keep every worker busy.
const CHUNK_FILLS: usize = 8;

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
    /// Virtual-time cycles (ms) with at least one active session.
    pub cycles: u64,
    /// Peak concurrently active sessions.
    pub peak_active: usize,
    /// Total deferred activations.
    pub deferrals: u64,
}

/// The monitor-plane multiplexer. See the module doc.
#[derive(Debug)]
pub struct FleetMonitor {
    config: MonitorConfig,
    sessions: Vec<MonitorSession>,
    shared_params: PlantParams,
    coupling: CouplingMatrix,
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
        let coupling = params.coupling();
        let arm = ArmConfig::builder().coupling(coupling).build();
        FleetMonitor { config, sessions, shared_params: params, coupling, arm }
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
        synth_measurement(&self.coupling, session.seed, cycle)
    }

    /// The candidate DAC command the guard assesses each cycle.
    pub fn command(session: &MonitorSession, cycle: u64) -> [i16; NUM_AXES] {
        synth_command(session.seed, cycle)
    }

    /// [`run_with`](Self::run_with) on the default executor.
    pub fn run(&self) -> MonitorReport {
        self.run_with(&ExecutorConfig::default())
    }

    /// Runs every session through its duty schedule, assessing the
    /// phases on `exec`'s workers; returns the per-session totals (id
    /// order) and scheduling telemetry. The report is the same for any
    /// worker count.
    pub fn run_with(&self, exec: &ExecutorConfig) -> MonitorReport {
        let (mut report, phases) = self.schedule();
        let chunks: Vec<&[usize]> = phases.chunks(CHUNK_FILLS * self.config.width).collect();
        run_sweep(
            "fleet-monitor",
            chunks.len(),
            exec,
            |i| i as u64,
            |i, _, _| self.assess_chunk(chunks[i]),
            |i, verdicts| {
                for (&id, (assessments, alarms)) in chunks[i].iter().zip(verdicts) {
                    let t = &mut report.totals[id];
                    t.assessments += assessments;
                    t.alarms += alarms;
                }
            },
        )
        .expect_all("fleet monitor");
        report
    }

    /// The schedule pass: lane occupancy in virtual time, with no
    /// detector. Returns the report with every count but the verdicts,
    /// and the admitted phases (session ids) in admission order.
    fn schedule(&self) -> (MonitorReport, Vec<usize>) {
        let width = self.config.width;
        let mut queue = WakeQueue::new();
        for (id, s) in self.sessions.iter().enumerate() {
            if s.phases > 0 && s.active_ms > 0 {
                queue.schedule(ms(s.start_ms), id as u64);
            }
        }
        let mut totals = vec![SessionTotals::default(); self.sessions.len()];
        let mut phases = Vec::new();
        // Active phases by end time: one lane each, so `width - ends.len()`
        // lanes are free.
        let mut ends: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut now = SimTime::ZERO;
        let (mut cycles, mut peak_active, mut deferrals) = (0u64, 0usize, 0u64);

        loop {
            // Jump to the next event; the span up to it counts toward
            // `cycles` only when some session is active.
            let next_end = ends.peek().map(|&Reverse((t, _))| t);
            let Some(next) = queue.next_wake().into_iter().chain(next_end).min() else { break };
            if !ends.is_empty() {
                cycles += (next - now).as_nanos() / 1_000_000;
            }
            now = next;
            // Phases ending now free their lanes and re-arm the session.
            while let Some(&Reverse((end, id))) = ends.peek() {
                if end != now {
                    break;
                }
                ends.pop();
                let session = &self.sessions[id as usize];
                let t = &mut totals[id as usize];
                t.phases_run += 1;
                if t.phases_run < session.phases {
                    queue.schedule(now + SimDuration::from_millis(session.idle_ms), id);
                }
            }
            // Sessions due now take a free lane each, in id order, or
            // defer by one cycle.
            if queue.next_wake() == Some(now) {
                let (_, ids) = queue.pop_frontier().expect("peeked wake");
                for id in ids {
                    if ends.len() < width {
                        let active = SimDuration::from_millis(self.sessions[id as usize].active_ms);
                        ends.push(Reverse((now + active, id)));
                        phases.push(id as usize);
                    } else {
                        totals[id as usize].deferrals += 1;
                        deferrals += 1;
                        queue.schedule(now + SimDuration::from_millis(1), id);
                    }
                }
            }
            peak_active = peak_active.max(ends.len());
        }

        (MonitorReport { totals, cycles, peak_active, deferrals }, phases)
    }

    /// The assess pass for one chunk of phases on a fresh detector:
    /// each phase takes the lowest free lane in order and is assessed
    /// for its whole active span. Returns each phase's `(assessments,
    /// alarms)`, in chunk order.
    fn assess_chunk(&self, phases: &[usize]) -> Vec<(u64, u64)> {
        let width = self.config.width;
        let arms = vec![self.arm.clone(); width];
        let models = vec![RtModel::new(self.shared_params); width];
        let mut detector = BatchDetector::from_models(&arms, &models, self.config.detector);
        let mut verdicts = vec![(0, 0); phases.len()];
        // Per lane: the chunk index of its phase and the phase's cycle.
        let mut lanes: Vec<Option<(usize, u64)>> = vec![None; width];
        let mut dacs: Vec<Option<[i16; NUM_AXES]>> = vec![None; width];
        let mut next = 0;
        loop {
            for (lane, slot) in lanes.iter_mut().enumerate() {
                if slot.is_none() && next < phases.len() {
                    let session = &self.sessions[phases[next]];
                    detector.admit_lane(
                        lane,
                        self.shared_arm(),
                        &self.session_model(session),
                        Some(self.config.thresholds),
                    );
                    *slot = Some((next, 0));
                    next += 1;
                }
            }
            if lanes.iter().all(Option::is_none) {
                return verdicts;
            }
            for (lane, (slot, dac)) in lanes.iter().zip(dacs.iter_mut()).enumerate() {
                *dac = slot.map(|(k, cycle)| {
                    let session = &self.sessions[phases[k]];
                    detector.sync_lane(lane, self.measurement(session, cycle));
                    synth_command(session.seed, cycle)
                });
            }
            detector.assess_lanes(&dacs);
            for (lane, slot) in lanes.iter_mut().enumerate() {
                let Some((k, cycle)) = slot else { continue };
                *cycle += 1;
                if *cycle == self.sessions[phases[*k]].active_ms {
                    verdicts[*k] = (detector.lane_assessments(lane), detector.lane_alarms(lane));
                    detector.retire_lane(lane);
                    *slot = None;
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
fn synth_measurement(coupling: &CouplingMatrix, seed: u64, cycle: u64) -> MotorState {
    let t = cycle as f64 * 1e-3;
    let phase = (seed % 628) as f64 * 0.01;
    let j = JointState::new(
        0.1 * (2.0 * t + phase).sin(),
        1.4 + 0.08 * (1.5 * t + phase).cos(),
        0.25 + 0.01 * (t + phase).sin(),
    );
    coupling.joints_to_motors(&j)
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
        let monitor = FleetMonitor::new(config(3), vec![session]);
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
        let monitor = FleetMonitor::new(config(2), sessions);
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
        let monitor = FleetMonitor::new(config(2), sessions);
        let report = monitor.run();
        assert!(report.deferrals > 0, "contention must actually occur");
        for t in &report.totals {
            assert_eq!(t.phases_run, 3);
            assert_eq!(t.assessments, 30);
        }
        assert_eq!(report.peak_active, 2);
    }
}
