//! Property-based equivalence: [`BatchDetector`] vs independent scalar
//! [`DynamicDetector`] sessions, and both vs an iterated scalar model.
//!
//! Contract under test: every batched lane produces assessments (features,
//! alarm bits, counters) *identical* to a standalone detector fed the same
//! measurements and commands — across lookahead horizons, fusion rules,
//! perturbed per-lane models, distinct per-lane commands, and
//! `reset_session` on one lane mid-batch.
//! The standalone detector is itself a 1-lane batch, so this pins lane
//! independence: an M-lane batch equals M one-lane batches. The rollout
//! oracle at the end checks both against an independent reference built
//! from the scalar model.

use proptest::prelude::*;
use raven_detect::{
    BatchDetector, DetectionThresholds, DetectorConfig, DynamicDetector, FusionRule,
    InstantFeatures,
};
use raven_dynamics::{PlantParams, PlantState, RtModel, RtModelConfig};
use raven_kinematics::{ArmConfig, JointState, MotorState, NUM_AXES};
use raven_math::ode::Method;
use raven_math::Vec3;

fn workspace_joints() -> impl Strategy<Value = JointState> {
    (-1.0..1.0f64, 0.5..2.2f64, 0.12..0.40f64).prop_map(|(s, e, i)| JointState::new(s, e, i))
}

fn dac() -> impl Strategy<Value = [i16; 3]> {
    prop::array::uniform3(-20_000i16..20_000)
}

/// Mid-band synthetic thresholds: tight enough that violent commands alarm,
/// loose enough that gentle ones pass — so both alarm outcomes are exercised
/// without a slow training campaign per proptest case.
fn thresholds() -> impl Strategy<Value = DetectionThresholds> {
    (50.0..500.0f64, 5.0..50.0f64, 0.5..5.0f64).prop_map(|(a, v, j)| DetectionThresholds {
        motor_accel: [a; NUM_AXES],
        motor_vel: [v; NUM_AXES],
        joint_vel: [j; NUM_AXES],
    })
}

fn session(seed: u64) -> (ArmConfig, RtModel) {
    let params = PlantParams::raven_ii();
    let arm = ArmConfig::builder().coupling(params.coupling()).build();
    (arm, RtModel::new(params.perturbed(seed, 0.02)))
}

fn config(lookahead_steps: u32, fusion: FusionRule) -> DetectorConfig {
    DetectorConfig { lookahead_steps, fusion, ..DetectorConfig::default() }
}

/// Drives one measurement+assessment round per pose over `m` lanes and
/// asserts every batched verdict equals its scalar twin's. Lane `l` reads
/// the drawn command sequence rotated by `l`, so with `m` no larger than
/// the sequence, sibling lanes assess different commands each cycle.
fn assert_equivalent(
    m: usize,
    cfg: DetectorConfig,
    t: DetectionThresholds,
    poses: &[JointState],
    dacs: &[[i16; 3]],
    reset_lane_at: Option<(usize, usize)>,
) -> Result<(), TestCaseError> {
    let sessions: Vec<_> = (0..m as u64).map(session).collect();
    let arms: Vec<_> = sessions.iter().map(|(a, _)| a.clone()).collect();
    let models: Vec<_> = sessions.iter().map(|(_, mo)| mo.clone()).collect();
    let mut batch = BatchDetector::from_models(&arms, &models, cfg);
    let mut scalars: Vec<_> =
        sessions.iter().map(|(a, mo)| DynamicDetector::new(a.clone(), mo.clone(), cfg)).collect();
    for (l, scalar) in scalars.iter_mut().enumerate() {
        batch.arm_lane(l, t);
        scalar.arm_with(t);
        prop_assert!(batch.lane_mode(l) == scalar.mode(), "mode lane {l}");
    }
    let coupling = PlantParams::raven_ii().coupling();
    for (k, pose) in poses.iter().enumerate() {
        if let Some((lane, at)) = reset_lane_at {
            if k == at {
                batch.reset_session(lane);
                scalars[lane].reset_session();
            }
        }
        for (l, scalar) in scalars.iter_mut().enumerate() {
            // Each lane wanders a slightly different trajectory.
            let j = JointState::new(pose.shoulder + 0.01 * l as f64, pose.elbow, pose.insertion);
            let mpos = coupling.joints_to_motors(&j);
            scalar.sync_measurement(mpos);
            batch.sync_lane(l, mpos);
        }
        let cmds: Vec<[i16; 3]> = (0..m).map(|l| dacs[(k + l) % dacs.len()]).collect();
        let slots: Vec<_> = cmds.iter().copied().map(Some).collect();
        let verdicts = batch.assess_lanes(&slots).to_vec();
        for (l, scalar) in scalars.iter_mut().enumerate() {
            let expected = scalar.assess(&cmds[l]);
            let got = verdicts[l];
            prop_assert!(
                got == expected,
                "lane {l} cycle {k}: batch {got:?} != scalar {expected:?}"
            );
        }
    }
    for (l, scalar) in scalars.iter().enumerate() {
        prop_assert!(batch.lane_assessments(l) == scalar.assessments(), "assessments lane {l}");
        prop_assert!(batch.lane_alarms(l) == scalar.alarms(), "alarms lane {l}");
        prop_assert!(
            batch.lane_first_alarm_assessment(l) == scalar.first_alarm_assessment(),
            "first alarm lane {l}"
        );
        prop_assert!(batch.lane_estop_requested(l) == scalar.estop_requested(), "estop lane {l}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched lanes == scalar detectors across lookahead horizons 1/2/4
    /// and both fusion rules. At least two lanes: a 1-lane batch *is* the
    /// scalar detector.
    #[test]
    fn batch_matches_scalar_detectors(
        m in 2..5usize,
        lookahead in prop_oneof![Just(1u32), Just(2u32), Just(4u32)],
        fusion in prop_oneof![Just(FusionRule::AllThree), Just(FusionRule::AnyOne)],
        t in thresholds(),
        poses in prop::collection::vec(workspace_joints(), 6..7),
        dacs in prop::collection::vec(dac(), 6..7),
    ) {
        assert_equivalent(m, config(lookahead, fusion), t, &poses, &dacs, None)?;
    }

    /// `reset_session` on one lane mid-batch: that lane restarts exactly
    /// like a freshly reset scalar detector, and no other lane notices.
    #[test]
    fn reset_session_mid_batch_isolates_the_lane(
        lane in 0..3usize,
        t in thresholds(),
        poses in prop::collection::vec(workspace_joints(), 8..9),
        dacs in prop::collection::vec(dac(), 8..9),
    ) {
        assert_equivalent(3, config(2, FusionRule::AllThree), t, &poses, &dacs, Some((lane, 4)))?;
    }
}

/// Test-local reference for one verdict's features, written from their
/// definitions rather than from the detector: the tracked state by
/// differencing two measurements, the scalar `RtModel::predict` iterated
/// over the whole horizon, and position-only FK of the current, predicted
/// and rolled-out joints.
fn reference_features(
    arm: &ArmConfig,
    model: &RtModel,
    cfg: &DetectorConfig,
    prev: Option<MotorState>,
    now: MotorState,
    dac: &[i16; 3],
) -> InstantFeatures {
    let dt = cfg.dt;
    let jpos = arm.motors_to_joints(&now);
    let mut current = PlantState::default();
    current.set_motor_pos(now);
    current.set_joint_pos(jpos);
    if let Some(prev) = prev {
        let jprev = arm.motors_to_joints(&prev).to_array();
        for (i, (j, jp)) in jpos.to_array().into_iter().zip(jprev).enumerate() {
            current.x[3 + i] = (now.angles[i] - prev.angles[i]) / dt;
            current.x[9 + i] = (j - jp) / dt;
        }
    }
    let predicted = model.predict(&current, dac);
    let mut rolled = predicted;
    for _ in 1..cfg.lookahead_steps {
        rolled = model.predict(&rolled, dac);
    }
    let mut f = InstantFeatures::default();
    for i in 0..NUM_AXES {
        f.motor_accel[i] = ((predicted.x[3 + i] - current.x[3 + i]) / dt).abs();
        f.motor_vel[i] = predicted.x[3 + i].abs();
        f.joint_vel[i] = predicted.x[9 + i].abs();
    }
    let ee_now = arm.position(&current.joint_pos());
    let one_step = ee_now.distance(arm.position(&predicted.joint_pos()));
    f.ee_step = one_step.max(ee_now.distance(arm.position(&rolled.joint_pos())));
    f
}

/// Every `InstantFeatures` field as raw bits, so the comparison is exact.
fn bits(f: &InstantFeatures) -> Vec<u64> {
    f.flattened().iter().chain([&f.ee_step]).map(|v| v.to_bits()).collect()
}

/// Lanes of the widened oracle: one fleet batch's width.
const ORACLE_LANES: usize = 64;

/// Lane `l`'s arm: its own port position, so a lane that borrowed a
/// sibling's arm moves its tips.
fn oracle_arm(l: usize) -> ArmConfig {
    let coupling = PlantParams::raven_ii().coupling();
    let port = Vec3::new(0.002 * l as f64, -0.001 * l as f64, 0.0005 * l as f64);
    ArmConfig::builder().coupling(coupling).remote_center(port).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Non-circular rollout oracle: for both integrators and horizons
    /// 1/2/3/8, every lane of a 64-lane `BatchDetector`, and a 1-lane
    /// `DynamicDetector` per lane, produce features bit-equal to
    /// [`reference_features`] on every cycle. Every lane is engaged, each
    /// with its own arm, model, pose and command: lane `l` reads the drawn
    /// poses and commands rotated by `l`, its shoulder offset by `l` mrad,
    /// so a lane-index slip in the batch's row loops reads a sibling's
    /// different values.
    #[test]
    fn verdict_features_match_the_iterated_scalar_model(
        seed in 0..64u64,
        poses in prop::collection::vec(workspace_joints(), 4..5),
        dacs in prop::collection::vec(dac(), 4..5),
    ) {
        let coupling = PlantParams::raven_ii().coupling();
        let arms: Vec<ArmConfig> = (0..ORACLE_LANES).map(oracle_arm).collect();
        for method in Method::all() {
            let model_config = RtModelConfig { method, ..RtModelConfig::default() };
            let models: Vec<RtModel> = (0..ORACLE_LANES as u64)
                .map(|l| RtModel::with_config(*session(seed + l).1.params(), model_config))
                .collect();
            for lookahead in [1u32, 2, 3, 8] {
                let cfg = config(lookahead, FusionRule::AllThree);
                let mut solos: Vec<DynamicDetector> = arms
                    .iter()
                    .zip(&models)
                    .map(|(a, mo)| DynamicDetector::new(a.clone(), mo.clone(), cfg))
                    .collect();
                let mut fleet = BatchDetector::from_models(&arms, &models, cfg);
                let mut prev = vec![None; ORACLE_LANES];
                for k in 0..poses.len() {
                    let mut slots = vec![None; ORACLE_LANES];
                    let mut now = Vec::with_capacity(ORACLE_LANES);
                    for (l, slot) in slots.iter_mut().enumerate() {
                        let pose = poses[(k + l) % poses.len()];
                        let j = JointState::new(
                            pose.shoulder + 1e-3 * l as f64,
                            pose.elbow,
                            pose.insertion,
                        );
                        let mpos = coupling.joints_to_motors(&j);
                        fleet.sync_lane(l, mpos);
                        *slot = Some(dacs[(k + l) % dacs.len()]);
                        now.push(mpos);
                    }
                    let verdicts = fleet.assess_lanes(&slots).to_vec();
                    for (l, solo) in solos.iter_mut().enumerate() {
                        let cmd = dacs[(k + l) % dacs.len()];
                        let want =
                            reference_features(&arms[l], &models[l], &cfg, prev[l], now[l], &cmd);
                        solo.sync_measurement(now[l]);
                        let got = solo.assess(&cmd).expect("synced").features;
                        prop_assert!(
                            bits(&got) == bits(&want),
                            "{method} h={lookahead} cycle {k}: detector {l} {got:?} != reference {want:?}"
                        );
                        let got = verdicts[l].expect("synced").features;
                        prop_assert!(
                            bits(&got) == bits(&want),
                            "{method} h={lookahead} cycle {k}: lane {l} {got:?} != reference {want:?}"
                        );
                        prev[l] = Some(now[l]);
                    }
                }
            }
        }
    }
}
