//! Property-based equivalence: [`BatchDetector`] vs independent scalar
//! [`DynamicDetector`] sessions, and the ee_step hoist regression.
//!
//! Contract under test: every batched lane produces assessments (features,
//! alarm bits, counters) *identical* to a standalone detector fed the same
//! measurements and commands — across lookahead horizons, fusion rules,
//! perturbed per-lane models, and `reset_session` on one lane mid-batch.
//! The standalone detector is itself a 1-lane batch, so this pins lane
//! independence: an M-lane batch equals M one-lane batches.

use proptest::prelude::*;
use raven_detect::{
    BatchDetector, DetectionThresholds, DetectorConfig, DynamicDetector, FusionRule,
};
use raven_dynamics::{PlantParams, RtModel};
use raven_kinematics::{ArmConfig, JointState, NUM_AXES};

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

/// Drives `cycles` measurement+assessment rounds over `m` lanes and asserts
/// every batched verdict equals its scalar twin's.
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
    }
    let coupling = PlantParams::raven_ii().coupling();
    for (k, (pose, cmd)) in poses.iter().zip(dacs).enumerate() {
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
        let cmds: Vec<[i16; 3]> = (0..m).map(|_| *cmd).collect();
        let verdicts = batch.assess_lanes(&cmds).to_vec();
        for (l, scalar) in scalars.iter_mut().enumerate() {
            let expected = scalar.assess(cmd);
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
    /// and both fusion rules.
    #[test]
    fn batch_matches_scalar_detectors(
        m in 1..5usize,
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

/// Regression for the hoisted forward-kinematics call: `assess` used to
/// evaluate `arm.forward(&current.joint_pos())` once for the one-step
/// feature and *again* inside the lookahead branch. FK is pure, so sharing
/// the first evaluation must leave `ee_step` bit-identical to the
/// recomputed variant — asserted here against an explicit re-derivation
/// from the detector's own model.
#[test]
fn lookahead_ee_step_is_identical_to_recomputed_rollout() {
    let (arm, model) = session(1);
    for lookahead in [1u32, 2, 4, 8] {
        let cfg = config(lookahead, FusionRule::AllThree);
        let mut det = DynamicDetector::new(arm.clone(), model.clone(), cfg);
        let coupling = PlantParams::raven_ii().coupling();
        let poses = [JointState::new(0.0, 1.4, 0.25), JointState::new(0.02, 1.38, 0.26)];
        for pose in &poses {
            det.sync_measurement(coupling.joints_to_motors(pose));
        }
        let dac = [9_000, -4_000, 2_000];
        let got = det.assess(&dac).expect("measurement synced").features.ee_step;

        // Old-style computation, redundant FK and all: reconstruct the
        // tracked state from the same two measurements, then chain scalar
        // one-step predictions over the horizon.
        let dt = cfg.dt;
        let m0 = coupling.joints_to_motors(&poses[0]);
        let m1 = coupling.joints_to_motors(&poses[1]);
        let j0 = arm.motors_to_joints(&m0).to_array();
        let j1v = arm.motors_to_joints(&m1);
        let j1 = j1v.to_array();
        let dm = m1.delta(m0);
        let mut current = raven_dynamics::PlantState::default();
        current.set_motor_pos(m1);
        current.set_joint_pos(j1v);
        for i in 0..3 {
            current.x[3 + i] = dm.angles[i] / dt;
            current.x[9 + i] = (j1[i] - j0[i]) / dt;
        }
        let predicted = det.model().predict(&current, &dac);
        let ee_now = arm.forward(&current.joint_pos()).position;
        let ee_next = arm.forward(&predicted.joint_pos()).position;
        let mut expected = ee_now.distance(ee_next);
        if lookahead > 1 {
            let mut rolled = predicted;
            for _ in 1..lookahead {
                rolled = det.model().predict(&rolled, &dac);
            }
            // The recomputation the old code performed redundantly:
            let ee_now_again = arm.forward(&current.joint_pos()).position;
            let end = arm.forward(&rolled.joint_pos()).position;
            expected = expected.max(ee_now_again.distance(end));
        }
        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "ee_step drifted at lookahead {lookahead}: {got} vs {expected}"
        );
    }
}
