//! White-box conformance probes over the detector and its guard.
//!
//! Each probe drives a [`DynamicDetector`] (or a [`GuardInterceptor`]
//! wrapping one) directly, with *crafted* thresholds derived from the
//! features a reference command actually produces — so every probe is a
//! deterministic truth-table check, independent of threshold training and
//! plant tuning. Together the probes pin down every decision the detector
//! makes: the three-way fusion rule, the hard end-effector limit, the
//! block/drop path, the hold-substitution semantics, and the alarm
//! bookkeeping.
//!
//! The probes accept an optional [`DetectorMutation`] so the mutation
//! kill-suite can prove each seeded defect flips at least one probe; with
//! `None` they all pass against the production implementation.
//!
//! [`lane_probes`] runs the verdict probes on a fleet monitor lane
//! instead: lane 2 of a 4-lane [`BatchDetector`], every lane engaged on
//! every call, with the alarm and E-STOP bookkeeping read from the
//! lane's counters. The guard-only probes have no lane counterpart.

use raven_detect::{
    Assessment, BatchDetector, DetectionThresholds, DetectorConfig, DetectorMutation,
    DynamicDetector, GuardInterceptor, InstantFeatures, Mitigation,
};
use raven_dynamics::{PlantParams, RtModel};
use raven_hw::channel::{Interceptor, WriteAction, WriteContext};
use raven_hw::{RobotState, UsbChannel, UsbCommandPacket};
use raven_kinematics::{ArmConfig, JointState, MotorState, NUM_AXES};
use simbus::{Observer, SimTime};

/// A violent reference command: saturating torque on every positioning
/// axis, so all nine features are strictly positive.
const VIOLENT: [i16; NUM_AXES] = [30_000, 20_000, -10_000];

/// A gentle command whose features sit far below the violent ones.
const GENTLE: [i16; NUM_AXES] = [40, 30, -20];

/// Lanes in the monitor batch [`lane_probes`] runs on.
const MONITOR_LANES: usize = 4;

/// The lane the lane probes read.
const PROBE_LANE: usize = 2;

/// Which verdict path a probe drives.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// The scalar detector behind the guard.
    Scalar,
    /// [`PROBE_LANE`] of a [`MONITOR_LANES`]-lane batch.
    Lane,
}

/// One probe's outcome.
#[derive(Debug)]
pub struct ProbeResult {
    /// Probe name.
    pub probe: &'static str,
    /// `Ok` when the implementation conforms; `Err` carries the evidence.
    pub result: Result<(), String>,
}

fn rest_motors() -> MotorState {
    PlantParams::raven_ii().coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25))
}

fn session() -> (ArmConfig, RtModel) {
    let params = PlantParams::raven_ii();
    let arm = ArmConfig::builder().coupling(params.coupling()).build();
    // The unperturbed model: probes check decision logic, not robustness
    // to model mismatch, and both the reference features and the armed
    // assessments must come from the *same* model.
    (arm, RtModel::new(params))
}

fn detector(config: DetectorConfig) -> DynamicDetector {
    let (arm, model) = session();
    DynamicDetector::new(arm, model, config)
}

fn armed_scalar(
    config: DetectorConfig,
    thresholds: DetectionThresholds,
    mutation: Option<DetectorMutation>,
) -> DynamicDetector {
    let mut det = detector(config);
    det.arm_with(thresholds);
    det.set_mutation(mutation);
    det.sync_measurement(rest_motors());
    det
}

/// The verdict surface a probe drives on either path. Each probe builds
/// a few short-lived subjects, so the variant size difference is moot.
#[allow(clippy::large_enum_variant)]
enum Subject {
    Scalar(DynamicDetector),
    Lane(BatchDetector),
}

impl Subject {
    fn armed(
        path: Path,
        config: DetectorConfig,
        thresholds: DetectionThresholds,
        mutation: Option<DetectorMutation>,
    ) -> Subject {
        match path {
            Path::Scalar => Subject::Scalar(armed_scalar(config, thresholds, mutation)),
            Path::Lane => {
                let (arm, model) = session();
                let mut batch = BatchDetector::from_models(
                    &vec![arm; MONITOR_LANES],
                    &vec![model; MONITOR_LANES],
                    config,
                );
                batch.set_mutation(mutation);
                for lane in 0..MONITOR_LANES {
                    batch.arm_lane(lane, thresholds);
                    batch.sync_lane(lane, rest_motors());
                }
                Subject::Lane(batch)
            }
        }
    }

    fn assess(&mut self, dac: &[i16; NUM_AXES]) -> Option<Assessment> {
        match self {
            Subject::Scalar(det) => det.assess(dac),
            Subject::Lane(batch) => {
                // The siblings assess the gentle command, so a verdict
                // leaking across lanes shows up on the probed one.
                let mut dacs = [GENTLE; MONITOR_LANES];
                dacs[PROBE_LANE] = *dac;
                batch.assess_lanes(&dacs)[PROBE_LANE]
            }
        }
    }

    fn alarms(&self) -> u64 {
        match self {
            Subject::Scalar(det) => det.alarms(),
            Subject::Lane(batch) => batch.lane_alarms(PROBE_LANE),
        }
    }

    fn first_alarm_assessment(&self) -> Option<u64> {
        match self {
            Subject::Scalar(det) => det.first_alarm_assessment(),
            Subject::Lane(batch) => batch.lane_first_alarm_assessment(PROBE_LANE),
        }
    }

    fn estop_requested(&self) -> bool {
        match self {
            Subject::Scalar(det) => det.estop_requested(),
            Subject::Lane(batch) => batch.lane_estop_requested(PROBE_LANE),
        }
    }
}

/// The features the reference command produces from rest, measured with a
/// learning-mode detector (never alarms, identical feature path).
fn reference_features(
    config: DetectorConfig,
    dac: &[i16; NUM_AXES],
) -> Result<InstantFeatures, String> {
    let mut det = detector(config);
    det.sync_measurement(rest_motors());
    let assessment =
        det.assess(dac).ok_or_else(|| "reference assessment returned None".to_string())?;
    let f = assessment.features;
    if f.flattened().iter().any(|v| *v <= 0.0) {
        return Err(format!("reference features must all be positive: {f:?}"));
    }
    Ok(f)
}

/// Thresholds at per-variable multiples of a feature vector.
fn scaled_thresholds(f: &InstantFeatures, ka: f64, kv: f64, kj: f64) -> DetectionThresholds {
    let mul = |a: [f64; NUM_AXES], k: f64| [a[0] * k, a[1] * k, a[2] * k];
    DetectionThresholds {
        motor_accel: mul(f.motor_accel, ka),
        motor_vel: mul(f.motor_vel, kv),
        joint_vel: mul(f.joint_vel, kj),
    }
}

/// A detector config whose end-effector check can never fire, isolating
/// the threshold path.
fn threshold_only_config(mitigation: Mitigation) -> DetectorConfig {
    DetectorConfig { mitigation, ee_step_limit: 1.0e9, ..DetectorConfig::default() }
}

fn pedal_down_packet(dac: [i16; NUM_AXES]) -> Vec<u8> {
    UsbCommandPacket {
        state: RobotState::PedalDown,
        watchdog: true,
        dac: [dac[0], dac[1], dac[2], 0, 0, 0, 0, 0],
    }
    .encode()
    .to_vec()
}

fn ctx(obs: &mut Observer) -> WriteContext<'_> {
    WriteContext {
        time: SimTime::ZERO,
        seq: 0,
        process: UsbChannel::PROCESS,
        fd: UsbChannel::BOARD_FD,
        obs,
    }
}

/// Probe: the three-way fusion truth table.
///
/// With every threshold at half the violent command's features, `AllThree`
/// must alarm (kills `ThresholdsIgnored`; kills `SwappedVelAccel` because
/// the acceleration features are ~10³× the velocity features, so the swap
/// starves the acceleration term). With the joint-velocity thresholds
/// raised above reach, `AllThree` must stay silent (kills
/// `FusionDropsJointVel` and `FusionBecomesAnyOne`).
fn probe_fusion_rule(path: Path, mutation: Option<DetectorMutation>) -> Result<(), String> {
    let config = threshold_only_config(Mitigation::Observe);
    let f = reference_features(config, &VIOLENT)?;
    for i in 0..NUM_AXES {
        if f.motor_accel[i] / 2.0 <= f.motor_vel[i] {
            return Err(format!(
                "probe precondition broken: accel[{i}]/2 must dominate vel[{i}] ({f:?})"
            ));
        }
    }

    let all_low = scaled_thresholds(&f, 0.5, 0.5, 0.5);
    let mut det = Subject::armed(path, config, all_low, mutation);
    let gentle = det.assess(&GENTLE).ok_or("gentle assessment missing")?;
    if gentle.threshold_alarm {
        return Err("gentle command must not trip the fused thresholds".into());
    }
    let violent = det.assess(&VIOLENT).ok_or("violent assessment missing")?;
    if !violent.threshold_alarm {
        return Err("violent command exceeds all three thresholds but raised no alarm".into());
    }

    let joint_high = scaled_thresholds(&f, 0.5, 0.5, 10.0);
    let mut det = Subject::armed(path, config, joint_high, mutation);
    let violent = det.assess(&VIOLENT).ok_or("violent assessment missing")?;
    if violent.threshold_alarm {
        return Err(
            "joint velocity is below threshold, yet the three-way fusion alarmed anyway".into()
        );
    }
    Ok(())
}

/// Probe: the hard 1 mm end-effector limit.
///
/// With the limit set to half the violent command's predicted step (and
/// thresholds out of reach), the ee check must alarm — and must stay
/// silent once the limit is doubled instead. Kills `EeCheckDisabled` and
/// `EeLimitTenfold`.
fn probe_ee_limit(path: Path, mutation: Option<DetectorMutation>) -> Result<(), String> {
    let base = DetectorConfig { mitigation: Mitigation::Observe, ..DetectorConfig::default() };
    let f = reference_features(base, &VIOLENT)?;
    if f.ee_step <= 0.0 {
        return Err("probe precondition broken: violent ee step must be positive".into());
    }
    let unreachable = scaled_thresholds(&f, 100.0, 100.0, 100.0);

    let tight = DetectorConfig { ee_step_limit: f.ee_step / 2.0, ..base };
    let mut det = Subject::armed(path, tight, unreachable, mutation);
    let a = det.assess(&VIOLENT).ok_or("assessment missing")?;
    if a.threshold_alarm {
        return Err("thresholds were set unreachable yet alarmed".into());
    }
    if !a.ee_alarm {
        return Err(format!(
            "predicted ee step {:.3e} m exceeds the {:.3e} m limit but ee_alarm stayed low",
            f.ee_step,
            f.ee_step / 2.0
        ));
    }

    let loose = DetectorConfig { ee_step_limit: f.ee_step * 2.0, ..base };
    let mut det = Subject::armed(path, loose, unreachable, mutation);
    let a = det.assess(&VIOLENT).ok_or("assessment missing")?;
    if a.ee_alarm {
        return Err("ee step below the limit must not alarm".into());
    }
    Ok(())
}

/// Probe: the guard's E-STOP block path.
///
/// An alarming Pedal-Down packet must be dropped and must request the
/// E-STOP. Kills `BlockPathDisabled` and `EstopRequestDropped`.
fn probe_guard_block_path(mutation: Option<DetectorMutation>) -> Result<(), String> {
    let config = threshold_only_config(Mitigation::EStop);
    let f = reference_features(config, &VIOLENT)?;
    let mut det = armed_scalar(config, scaled_thresholds(&f, 0.5, 0.5, 0.5), mutation);
    let mut obs = Observer::default();
    let mut guard = GuardInterceptor::new(&mut det);

    let mut safe = pedal_down_packet(GENTLE);
    if guard.on_write(&mut safe, &mut ctx(&mut obs)) != WriteAction::Forward {
        return Err("gentle packet must be forwarded".into());
    }
    let mut hot = pedal_down_packet(VIOLENT);
    if guard.on_write(&mut hot, &mut ctx(&mut obs)) != WriteAction::Drop {
        return Err("alarming packet must be dropped in E-STOP mitigation".into());
    }
    if !det.estop_requested() {
        return Err("alarming packet must request the E-STOP".into());
    }
    Ok(())
}

/// Probe: the E-STOP request, read from the detector's bookkeeping with
/// no guard in the loop (the lane counterpart of the guard block path).
///
/// A gentle assessment must not request the stop; an alarming one must.
/// Kills `EstopRequestDropped`.
fn probe_estop_request(path: Path, mutation: Option<DetectorMutation>) -> Result<(), String> {
    let config = threshold_only_config(Mitigation::EStop);
    let f = reference_features(config, &VIOLENT)?;
    let mut det = Subject::armed(path, config, scaled_thresholds(&f, 0.5, 0.5, 0.5), mutation);
    det.assess(&GENTLE).ok_or("gentle assessment missing")?;
    if det.estop_requested() {
        return Err("a gentle command must not request the E-STOP".into());
    }
    let violent = det.assess(&VIOLENT).ok_or("violent assessment missing")?;
    if !violent.alarm() {
        return Err("violent command must alarm".into());
    }
    if !det.estop_requested() {
        return Err("an alarm under E-STOP mitigation must request the E-STOP".into());
    }
    Ok(())
}

/// Probe: block-and-hold substitution semantics.
///
/// The substituted command must be the *oldest* remembered safe command
/// (kills `HoldSubstitutesLatest`), and substitution must persist through
/// the cooldown window after the alarm passes (kills `CooldownIgnored`).
fn probe_hold_semantics(mutation: Option<DetectorMutation>) -> Result<(), String> {
    let config = threshold_only_config(Mitigation::BlockAndHold);
    let f = reference_features(config, &VIOLENT)?;
    let mut det = armed_scalar(config, scaled_thresholds(&f, 0.5, 0.5, 0.5), mutation);
    let mut obs = Observer::default();
    let mut guard = GuardInterceptor::new(&mut det);

    let oldest = [100, 30, -20];
    let newest = [200, 30, -20];
    for dac in [oldest, newest] {
        let mut buf = pedal_down_packet(dac);
        if guard.on_write(&mut buf, &mut ctx(&mut obs)) != WriteAction::Forward {
            return Err("gentle packets must be forwarded while no alarm is active".into());
        }
    }

    let mut hot = pedal_down_packet(VIOLENT);
    if guard.on_write(&mut hot, &mut ctx(&mut obs)) != WriteAction::Forward {
        return Err("block-and-hold must substitute, not drop, once history exists".into());
    }
    let substituted = UsbCommandPacket::decode_unchecked(&hot)
        .map_err(|e| format!("substituted packet must decode: {e:?}"))?;
    if substituted.dac[0] != oldest[0] {
        return Err(format!(
            "substitution must replay the oldest safe command ({}), got {}",
            oldest[0], substituted.dac[0]
        ));
    }

    // One cycle later the attack pauses: the cooldown must keep holding.
    let after = [300, 30, -20];
    let mut buf = pedal_down_packet(after);
    if guard.on_write(&mut buf, &mut ctx(&mut obs)) != WriteAction::Forward {
        return Err("cooldown substitution must forward a replacement".into());
    }
    let held = UsbCommandPacket::decode_unchecked(&buf)
        .map_err(|e| format!("cooldown packet must decode: {e:?}"))?;
    if held.dac[0] != oldest[0] {
        return Err(format!(
            "cooldown window must keep substituting the held-safe command ({}), got {}",
            oldest[0], held.dac[0]
        ));
    }
    Ok(())
}

/// Probe: alarm bookkeeping.
///
/// One gentle then one violent assessment must leave exactly one alarm
/// recorded at assessment index 2. Kills `AlarmCounterStuck` and
/// `FirstAlarmOffByOne`.
fn probe_alarm_bookkeeping(path: Path, mutation: Option<DetectorMutation>) -> Result<(), String> {
    let config = threshold_only_config(Mitigation::Observe);
    let f = reference_features(config, &VIOLENT)?;
    let mut det = Subject::armed(path, config, scaled_thresholds(&f, 0.5, 0.5, 0.5), mutation);

    let gentle = det.assess(&GENTLE).ok_or("gentle assessment missing")?;
    if gentle.alarm() {
        return Err("gentle command must not alarm".into());
    }
    let violent = det.assess(&VIOLENT).ok_or("violent assessment missing")?;
    if !violent.alarm() {
        return Err("violent command must alarm".into());
    }
    if det.alarms() != 1 {
        return Err(format!("exactly one alarm must be counted, got {}", det.alarms()));
    }
    if det.first_alarm_assessment() != Some(2) {
        return Err(format!(
            "first alarm fired on assessment 2, recorded as {:?}",
            det.first_alarm_assessment()
        ));
    }
    Ok(())
}

/// Runs every probe against the (optionally mutated) scalar detector
/// and its guard.
pub fn all_probes(mutation: Option<DetectorMutation>) -> Vec<ProbeResult> {
    let path = Path::Scalar;
    vec![
        ProbeResult { probe: "fusion-rule", result: probe_fusion_rule(path, mutation) },
        ProbeResult { probe: "ee-limit", result: probe_ee_limit(path, mutation) },
        ProbeResult { probe: "guard-block-path", result: probe_guard_block_path(mutation) },
        ProbeResult { probe: "hold-semantics", result: probe_hold_semantics(mutation) },
        ProbeResult { probe: "alarm-bookkeeping", result: probe_alarm_bookkeeping(path, mutation) },
    ]
}

/// Runs the verdict probes against one lane of an (optionally mutated)
/// fleet monitor batch.
pub fn lane_probes(mutation: Option<DetectorMutation>) -> Vec<ProbeResult> {
    let path = Path::Lane;
    vec![
        ProbeResult { probe: "fusion-rule", result: probe_fusion_rule(path, mutation) },
        ProbeResult { probe: "ee-limit", result: probe_ee_limit(path, mutation) },
        ProbeResult { probe: "estop-request", result: probe_estop_request(path, mutation) },
        ProbeResult { probe: "alarm-bookkeeping", result: probe_alarm_bookkeeping(path, mutation) },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_implementation_passes_every_probe() {
        for p in all_probes(None).into_iter().chain(lane_probes(None)) {
            assert!(p.result.is_ok(), "probe {} failed: {:?}", p.probe, p.result);
        }
    }
}
