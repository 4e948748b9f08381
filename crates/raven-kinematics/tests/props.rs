//! Property-based tests: FK∘IK identity, coupling invertibility, limits.

use proptest::prelude::*;
use raven_kinematics::{
    jacobian, ArmConfig, CouplingMatrix, IkError, JointLimits, JointState, MotorState,
};
use raven_math::{Mat3, Vec3};

fn in_limit_joints() -> impl Strategy<Value = JointState> {
    let l = JointLimits::raven_ii();
    (l.shoulder.0..l.shoulder.1, l.elbow.0..l.elbow.1, l.insertion.0..l.insertion.1)
        .prop_map(|(s, e, i)| JointState::new(s, e, i))
}

/// The left arm, the right arm, or a custom-geometry arm.
fn arms() -> impl Strategy<Value = ArmConfig> {
    (0..3u8, 0.2..2.9f64, 0.2..2.9f64).prop_map(|(which, a1, a2)| match which {
        0 => ArmConfig::raven_ii_left(),
        1 => ArmConfig::raven_ii_right(),
        _ => ArmConfig::builder()
            .alpha1(a1)
            .alpha2(a2)
            .remote_center(Vec3::new(-0.1, 0.05, 0.2))
            .build(),
    })
}

fn joint_bits(j: &JointState) -> [u64; 3] {
    [j.shoulder.to_bits(), j.elbow.to_bits(), j.insertion.to_bits()]
}

fn vec_bits(v: Vec3) -> [u64; 3] {
    v.to_array().map(f64::to_bits)
}

fn mat_bits(m: &Mat3) -> [[u64; 3]; 3] {
    [0, 1, 2].map(|c| vec_bits(m.column(c)))
}

/// The FK, IK and Jacobian formulas as they were before the arm cached its
/// link-arc trig and FK split its `sin_cos` calls from a call-free core:
/// `sin_cos` of every angle inside one function on every call. The
/// current forms must reproduce them bit for bit.
mod uncached {
    use raven_kinematics::{ArmConfig, IkError, JointState};
    use raven_math::{Mat3, Vec3};

    pub fn position(arm: &ArmConfig, j: &JointState) -> Vec3 {
        arm.remote_center + tool_direction(arm, j.shoulder, j.elbow) * j.insertion
    }

    fn tool_direction(arm: &ArmConfig, shoulder: f64, elbow: f64) -> Vec3 {
        let (s1, c1) = shoulder.sin_cos();
        let (s2, c2) = elbow.sin_cos();
        let (sa1, ca1) = arm.alpha1().sin_cos();
        let (sa2, ca2) = arm.alpha2().sin_cos();
        let vx = sa2 * s2;
        let vy = -ca1 * sa2 * c2 - sa1 * ca2;
        let vz = -sa1 * sa2 * c2 + ca1 * ca2;
        Vec3::new(c1 * vx - s1 * vy, s1 * vx + c1 * vy, vz)
    }

    pub fn inverse(arm: &ArmConfig, position: Vec3) -> Result<JointState, IkError> {
        if !position.is_finite() {
            return Err(IkError::NonFiniteTarget);
        }
        let rel = position - arm.remote_center;
        let d3 = rel.norm();
        if !(1e-9..=10.0).contains(&d3) {
            return Err(IkError::InsertionOutOfRange { requested: d3 });
        }
        let u = rel / d3;
        let (sa1, ca1) = arm.alpha1().sin_cos();
        let (sa2, ca2) = arm.alpha2().sin_cos();
        let cos_elbow = (ca1 * ca2 - u.z) / (sa1 * sa2);
        let elbow = if (-1.0..=1.0).contains(&cos_elbow) {
            cos_elbow.acos()
        } else if cos_elbow.abs() <= 1.0 + 1e-9 {
            if cos_elbow > 0.0 {
                0.0
            } else {
                std::f64::consts::PI
            }
        } else {
            return Err(IkError::DirectionUnreachable { cos_elbow });
        };
        let v = tool_direction(arm, 0.0, elbow);
        let shoulder = raven_math::angles::wrap_to_pi(u.y.atan2(u.x) - v.y.atan2(v.x));
        Ok(JointState::new(shoulder, elbow, d3))
    }

    pub fn jacobian(arm: &ArmConfig, joints: &JointState) -> Mat3 {
        let (s1, c1) = joints.shoulder.sin_cos();
        let (s2, c2) = joints.elbow.sin_cos();
        let (sa1, ca1) = arm.alpha1().sin_cos();
        let (sa2, ca2) = arm.alpha2().sin_cos();
        let vx = sa2 * s2;
        let vy = -ca1 * sa2 * c2 - sa1 * ca2;
        let vz = -sa1 * sa2 * c2 + ca1 * ca2;
        let dvx = sa2 * c2;
        let dvy = ca1 * sa2 * s2;
        let dvz = sa1 * sa2 * s2;
        let u = Vec3::new(c1 * vx - s1 * vy, s1 * vx + c1 * vy, vz);
        let du1 = Vec3::new(-s1 * vx - c1 * vy, c1 * vx - s1 * vy, 0.0);
        let du2 = Vec3::new(c1 * dvx - s1 * dvy, s1 * dvx + c1 * dvy, dvz);
        Mat3::from_columns(du1 * joints.insertion, du2 * joints.insertion, u)
    }
}

proptest! {
    #[test]
    fn fk_ik_roundtrip_on_reachable_workspace(j in in_limit_joints()) {
        let arm = ArmConfig::raven_ii_left();
        let fk = arm.forward(&j);
        let back = arm.inverse(fk.position).unwrap();
        prop_assert!((back.shoulder - j.shoulder).abs() < 1e-8);
        prop_assert!((back.elbow - j.elbow).abs() < 1e-8);
        prop_assert!((back.insertion - j.insertion).abs() < 1e-8);
    }

    #[test]
    fn fk_position_distance_equals_insertion(j in in_limit_joints()) {
        let arm = ArmConfig::raven_ii_left();
        let fk = arm.forward(&j);
        prop_assert!((fk.position.distance(arm.remote_center) - j.insertion).abs() < 1e-9);
    }

    #[test]
    fn fk_is_smooth_under_small_joint_motion(j in in_limit_joints()) {
        // A 1 mrad / 0.1 mm joint step moves the tip less than ~1 mm:
        // the basis of the paper's "1 mm jump in 1-2 ms is anomalous" rule.
        let arm = ArmConfig::raven_ii_left();
        let eps = JointState::new(j.shoulder + 1e-3, j.elbow + 1e-3, j.insertion + 1e-4);
        let d = arm.forward(&j).position.distance(arm.forward(&eps).position);
        prop_assert!(d < 1.5e-3, "tip moved {d} m for a tiny joint step");
    }

    #[test]
    fn position_has_the_bits_of_the_fk_position(arm in arms(), j in in_limit_joints()) {
        prop_assert_eq!(vec_bits(arm.position(&j)), vec_bits(arm.forward(&j).position));
    }

    /// `position` and its call-free core, fed `sin_cos` of the joints,
    /// both give the bits of the one-function formula.
    #[test]
    fn position_core_has_the_bits_of_the_unsplit_fk(arm in arms(), j in in_limit_joints()) {
        let want = vec_bits(uncached::position(&arm, &j));
        prop_assert_eq!(vec_bits(arm.position(&j)), want);
        let core = arm.position_from_sin_cos(j.shoulder.sin_cos(), j.elbow.sin_cos(), j.insertion);
        prop_assert_eq!(vec_bits(core), want);
    }

    #[test]
    fn cached_link_trig_has_the_bits_of_sin_cos(arm in arms()) {
        let t = arm.link_trig();
        let (sa1, ca1) = arm.alpha1().sin_cos();
        let (sa2, ca2) = arm.alpha2().sin_cos();
        prop_assert_eq!(
            [t.sa1, t.ca1, t.sa2, t.ca2].map(f64::to_bits),
            [sa1, ca1, sa2, ca2].map(f64::to_bits)
        );
    }

    #[test]
    fn cached_inverse_has_the_bits_of_the_uncached_formula(
        arm in arms(),
        j in in_limit_joints(),
        p in prop::array::uniform3(-0.6..0.6f64),
    ) {
        // A reachable target (FK of in-limit joints) and an arbitrary one,
        // which also exercises the error branches.
        for target in [arm.position(&j), Vec3::from(p)] {
            let cached: Result<JointState, IkError> = arm.inverse(target);
            match (cached, uncached::inverse(&arm, target)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(joint_bits(&a), joint_bits(&b)),
                (a, b) => prop_assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn cached_jacobian_has_the_bits_of_the_uncached_formula(
        arm in arms(),
        j in in_limit_joints(),
    ) {
        prop_assert_eq!(mat_bits(&jacobian(&arm, &j)), mat_bits(&uncached::jacobian(&arm, &j)));
    }

    #[test]
    fn coupling_roundtrip(j in in_limit_joints()) {
        let c = CouplingMatrix::raven_ii();
        let back = c.motors_to_joints(&c.joints_to_motors(&j));
        prop_assert!((back.shoulder - j.shoulder).abs() < 1e-10);
        prop_assert!((back.elbow - j.elbow).abs() < 1e-10);
        prop_assert!((back.insertion - j.insertion).abs() < 1e-10);
    }

    #[test]
    fn motor_roundtrip(a0 in -500.0..500.0f64, a1 in -500.0..500.0f64, a2 in -500.0..500.0f64) {
        let c = CouplingMatrix::raven_ii();
        let m = MotorState::new([a0, a1, a2]);
        let back = c.joints_to_motors(&c.motors_to_joints(&m));
        for i in 0..3 {
            prop_assert!((back.angles[i] - m.angles[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn clamp_is_idempotent_and_contained(
        s in -10.0..10.0f64, e in -10.0..10.0f64, i in -2.0..2.0f64,
    ) {
        let l = JointLimits::raven_ii();
        let j = JointState::new(s, e, i);
        let c = l.clamp(&j);
        prop_assert!(l.contains(&c));
        prop_assert_eq!(l.clamp(&c), c);
    }

    #[test]
    fn ik_never_returns_out_of_mechanism_branch(p in prop::array::uniform3(-0.6..0.6f64)) {
        let arm = ArmConfig::raven_ii_left();
        if let Ok(j) = arm.inverse(Vec3::from(p)) {
            // Elbow-down branch only.
            prop_assert!(j.elbow >= 0.0 && j.elbow <= std::f64::consts::PI + 1e-9);
            // And FK of the solution must land on the target.
            let fk = arm.forward(&j);
            prop_assert!((fk.position - Vec3::from(p)).norm() < 1e-8);
        }
    }
}

// ---------------------------------------------------------------------------
// Minimizer fixture: the shrunk counterexample parks every joint at its
// range start except the one that carries the failure, which lands on
// the threshold.

#[test]
fn minimizer_pins_the_shallowest_overdeep_insertion() {
    use proptest::test_runner::run_reporting;
    let l = JointLimits::raven_ii();
    let deep = (l.insertion.0 + l.insertion.1) / 2.0;
    let cfg = ProptestConfig::with_cases(64);
    let strat = (in_limit_joints(),);
    let failure = run_reporting("kin_minimizer_fixture", &cfg, &strat, |(j,)| {
        if j.insertion > deep {
            Err(TestCaseError::fail("insertion beyond the fixture bound"))
        } else {
            Ok(())
        }
    })
    .expect_err("property was constructed to fail");
    let j = failure.minimized.0;
    assert_eq!(j.shoulder, l.shoulder.0, "irrelevant joints reach their range start: {j:?}");
    assert_eq!(j.elbow, l.elbow.0, "irrelevant joints reach their range start: {j:?}");
    assert!(j.insertion > deep && j.insertion < deep + 1e-6, "threshold pinned: {j:?}");
}
