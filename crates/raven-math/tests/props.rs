//! Property-based tests for the math foundations.

use proptest::prelude::*;
use raven_math::angles::{shortest_delta, wrap_to_pi};
use raven_math::ode::Method;
use raven_math::stats::{percentile, ConfusionMatrix, RunningStats};
use raven_math::{Mat3, Pose, Quat, Vec3};

const PI: f64 = std::f64::consts::PI;

fn finite(range: f64) -> impl Strategy<Value = f64> {
    -range..range
}

fn vec3(range: f64) -> impl Strategy<Value = Vec3> {
    (finite(range), finite(range), finite(range)).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn unit_quat() -> impl Strategy<Value = Quat> {
    (vec3(1.0), finite(PI))
        .prop_filter("axis must have direction", |(axis, _)| axis.norm() > 1e-3)
        .prop_map(|(axis, angle)| Quat::from_axis_angle(axis, angle).unwrap())
}

proptest! {
    #[test]
    fn cross_product_orthogonality(a in vec3(100.0), b in vec3(100.0)) {
        let c = a.cross(b);
        let scale = a.norm() * b.norm() + 1.0;
        prop_assert!((c.dot(a) / scale).abs() < 1e-9);
        prop_assert!((c.dot(b) / scale).abs() < 1e-9);
    }

    #[test]
    fn triangle_inequality(a in vec3(100.0), b in vec3(100.0)) {
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
    }

    #[test]
    fn mat3_inverse_roundtrip(
        r0 in prop::array::uniform3(finite(10.0)),
        r1 in prop::array::uniform3(finite(10.0)),
        r2 in prop::array::uniform3(finite(10.0)),
        v in vec3(10.0),
    ) {
        let m = Mat3::from_rows(r0, r1, r2);
        // Only well-conditioned matrices: |det| large relative to the entries.
        prop_assume!(m.determinant().abs() > 1.0);
        let x = m.solve(v).unwrap();
        prop_assert!((m * x - v).norm() < 1e-6);
    }

    #[test]
    fn quat_rotation_preserves_norm(q in unit_quat(), v in vec3(50.0)) {
        prop_assert!((q.rotate(v).norm() - v.norm()).abs() < 1e-8 * (1.0 + v.norm()));
    }

    #[test]
    fn quat_matrix_agree(q in unit_quat(), v in vec3(10.0)) {
        prop_assert!((q.to_mat3() * v - q.rotate(v)).norm() < 1e-9 * (1.0 + v.norm()));
    }

    #[test]
    fn quat_mat_roundtrip(q in unit_quat()) {
        let q2 = Quat::from_mat3(&q.to_mat3());
        prop_assert!(q.angle_to(q2) < 1e-7);
    }

    #[test]
    fn pose_inverse_roundtrip(q in unit_quat(), t in vec3(10.0), p in vec3(10.0)) {
        let pose = Pose::new(q, t);
        let round = pose.inverse().transform_point(pose.transform_point(p));
        prop_assert!((round - p).norm() < 1e-9 * (1.0 + p.norm()));
    }

    #[test]
    fn pose_composition_associative(
        q1 in unit_quat(), t1 in vec3(5.0),
        q2 in unit_quat(), t2 in vec3(5.0),
        q3 in unit_quat(), t3 in vec3(5.0),
        p in vec3(5.0),
    ) {
        let a = Pose::new(q1, t1);
        let b = Pose::new(q2, t2);
        let c = Pose::new(q3, t3);
        let left = a.compose(&b).compose(&c).transform_point(p);
        let right = a.compose(&b.compose(&c)).transform_point(p);
        prop_assert!((left - right).norm() < 1e-8);
    }

    #[test]
    fn wrap_to_pi_in_range_and_congruent(a in finite(1e4)) {
        let w = wrap_to_pi(a);
        prop_assert!(w > -PI - 1e-9 && w <= PI + 1e-9);
        let k = (a - w) / (2.0 * PI);
        prop_assert!((k - k.round()).abs() < 1e-6);
    }

    #[test]
    fn shortest_delta_bounded(a in finite(100.0), b in finite(100.0)) {
        let d = shortest_delta(a, b);
        prop_assert!(d.abs() <= PI + 1e-9);
        // Moving by d from a lands on b modulo 2π.
        prop_assert!(wrap_to_pi(a + d - b).abs() < 1e-6);
    }

    #[test]
    fn running_stats_mean_bounded_by_min_max(xs in prop::collection::vec(finite(1e6), 1..200)) {
        let s: RunningStats = xs.iter().copied().collect();
        prop_assert!(s.mean() >= s.min() - 1e-6);
        prop_assert!(s.mean() <= s.max() + 1e-6);
        prop_assert!(s.population_std() <= s.sample_std() + 1e-12);
    }

    #[test]
    fn percentile_within_sample_range(xs in prop::collection::vec(finite(1e3), 1..100), p in 0.0..100.0) {
        let v = percentile(&xs, p).unwrap();
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn confusion_identities(tp in 0u64..1000, fn_ in 0u64..1000, fp in 0u64..1000, tn in 0u64..1000) {
        let cm = ConfusionMatrix { tp, fn_, fp, tn };
        prop_assert!(cm.accuracy() >= 0.0 && cm.accuracy() <= 1.0);
        prop_assert!(cm.tpr() >= 0.0 && cm.tpr() <= 1.0);
        prop_assert!(cm.fpr() >= 0.0 && cm.fpr() <= 1.0);
        prop_assert!(cm.f1() >= 0.0 && cm.f1() <= 1.0);
        prop_assert_eq!(cm.total(), tp + fn_ + fp + tn);
    }

    #[test]
    fn rk4_not_worse_than_euler_on_decay(dt in 1e-4f64..1e-2, x0 in 0.1f64..10.0) {
        let f = |s: &[f64; 1], _t: f64| [-s[0]];
        let steps = 100usize;
        let mut se = [x0];
        let mut sr = [x0];
        for _ in 0..steps {
            se = Method::Euler.step(&se, 0.0, dt, &f);
            sr = Method::Rk4.step(&sr, 0.0, dt, &f);
        }
        let exact = x0 * (-(steps as f64) * dt).exp();
        prop_assert!((sr[0] - exact).abs() <= (se[0] - exact).abs() + 1e-12);
    }
}

// ---------------------------------------------------------------------------
// Minimizer fixture: a deliberately failing property, driven through the
// reporting runner, pins the shape of the shrunk counterexample.

#[test]
fn minimizer_pins_the_smallest_out_of_band_angle() {
    use proptest::test_runner::run_reporting;
    let cfg = ProptestConfig::with_cases(64);
    let strat = (0.0f64..10.0,);
    let failure = run_reporting("math_minimizer_fixture", &cfg, &strat, |(x,)| {
        if wrap_to_pi(x).abs() >= 1.0 {
            Err(TestCaseError::fail("wrapped angle left the claimed band"))
        } else {
            Ok(())
        }
    })
    .expect_err("property was constructed to fail");
    // The failing set starts at exactly 1.0; the bisection walks down to
    // the boundary from whichever sample tripped first.
    let min = failure.minimized.0;
    assert!((1.0..1.0 + 1e-6).contains(&min), "minimized to the band edge, got {min}");
    assert!(failure.original.0 >= min, "{failure:?}");
}
