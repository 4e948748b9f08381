//! Property-based tests for the detection stack.

use proptest::prelude::*;
use raven_detect::{DetectionThresholds, InstantFeatures, ThresholdLearner, ThresholdTails};

fn features() -> impl Strategy<Value = InstantFeatures> {
    (
        prop::array::uniform3(0.0f64..1e5),
        prop::array::uniform3(0.0f64..1e3),
        prop::array::uniform3(0.0f64..1e2),
        0.0f64..0.01,
    )
        .prop_map(|(motor_accel, motor_vel, joint_vel, ee_step)| InstantFeatures {
            motor_accel,
            motor_vel,
            joint_vel,
            ee_step,
        })
}

proptest! {
    #[test]
    fn fused_alarm_implies_any_alarm(f in features(), samples in prop::collection::vec(features(), 8..64)) {
        let mut learner = ThresholdLearner::new();
        for s in &samples {
            learner.observe(s);
        }
        let t = learner.learn(90.0, 95.0).expect("samples present");
        // Logical containment: the fused (AND) rule can never fire when the
        // any (OR) rule would not.
        if t.fused_alarm(&f) {
            prop_assert!(t.any_alarm(&f));
        }
    }

    #[test]
    fn thresholds_bounded_by_training_extremes(samples in prop::collection::vec(features(), 4..64)) {
        let mut learner = ThresholdLearner::new();
        for s in &samples {
            learner.observe(s);
        }
        let t = learner.learn_default().unwrap();
        for axis in 0..3 {
            let max_acc = samples.iter().map(|s| s.motor_accel[axis]).fold(0.0, f64::max);
            let min_acc = samples.iter().map(|s| s.motor_accel[axis]).fold(f64::INFINITY, f64::min);
            prop_assert!(t.motor_accel[axis] <= max_acc + 1e-9);
            prop_assert!(t.motor_accel[axis] >= min_acc - 1e-9);
        }
    }

    #[test]
    fn training_features_rarely_alarm_against_own_thresholds(
        samples in prop::collection::vec(features(), 32..128),
    ) {
        let mut learner = ThresholdLearner::new();
        for s in &samples {
            learner.observe(s);
        }
        let t = learner.learn_default().unwrap();
        // At the 99.8th percentile, essentially no training sample can
        // exceed all three variables on one axis simultaneously.
        let alarms = samples.iter().filter(|s| t.fused_alarm(s)).count();
        prop_assert!(
            alarms <= 1 + samples.len() / 64,
            "{alarms} alarms on {} training samples",
            samples.len()
        );
    }

    #[test]
    fn scaling_thresholds_is_monotone_in_alarms(
        f in features(),
        samples in prop::collection::vec(features(), 8..64),
        factor in 1.01f64..10.0,
    ) {
        let mut learner = ThresholdLearner::new();
        for s in &samples {
            learner.observe(s);
        }
        let t = learner.learn(50.0, 60.0).unwrap();
        let loose = t.scaled(factor);
        // Loosening thresholds can only remove alarms, never add them.
        if loose.fused_alarm(&f) {
            prop_assert!(t.fused_alarm(&f));
        }
        if loose.any_alarm(&f) {
            prop_assert!(t.any_alarm(&f));
        }
    }

    #[test]
    fn json_roundtrip_preserves_decisions(f in features(), samples in prop::collection::vec(features(), 8..32)) {
        let mut learner = ThresholdLearner::new();
        for s in &samples {
            learner.observe(s);
        }
        let t = learner.learn(80.0, 90.0).unwrap();
        let back = DetectionThresholds::from_json(&t.to_json().unwrap()).unwrap();
        // Decisions survive serialization even if the last ULP does not.
        prop_assert_eq!(t.fused_alarm(&f), back.fused_alarm(&f));
    }

    #[test]
    fn folded_tails_equal_one_sequential_learner(
        a in prop::collection::vec(features(), 4..32),
        b in prop::collection::vec(features(), 4..32),
    ) {
        let mut combined = ThresholdLearner::new();
        for s in a.iter().chain(&b) {
            combined.observe(s);
        }
        let mut tails = ThresholdTails::new((99.8, 99.9), a.len() + b.len());
        for run in [&b, &a] {
            let mut learner = ThresholdLearner::new();
            for s in run {
                learner.observe(s);
            }
            tails.fold(&learner);
        }
        prop_assert_eq!(tails.samples(), combined.samples());
        prop_assert_eq!(tails.learn(), combined.learn_default());
    }
}

// ---------------------------------------------------------------------------
// Minimizer fixture: the feature vector shrinks to all-zero kinematics
// with the end-effector step pinned just past the failure threshold.

#[test]
fn minimizer_pins_the_smallest_alarming_ee_step() {
    use proptest::test_runner::run_reporting;
    let cfg = ProptestConfig::with_cases(64);
    let strat = (features(),);
    let failure = run_reporting("det_minimizer_fixture", &cfg, &strat, |(f,)| {
        if f.ee_step > 0.005 {
            Err(TestCaseError::fail("end-effector step beyond the fixture bound"))
        } else {
            Ok(())
        }
    })
    .expect_err("property was constructed to fail");
    let f = failure.minimized.0;
    assert!(f.ee_step > 0.005 && f.ee_step < 0.005 + 1e-6, "threshold pinned: {f:?}");
    assert!(
        f.motor_accel.iter().chain(&f.motor_vel).chain(&f.joint_vel).all(|&v| v == 0.0),
        "irrelevant features reach their range start: {f:?}"
    );
}
