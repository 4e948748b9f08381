//! Property-based tests for the math foundations.

use proptest::prelude::*;
use raven_math::angles::{shortest_delta, wrap_to_pi};
use raven_math::ode::Method;
use raven_math::stats::{percentile, ConfusionMatrix, PercentileEstimator, RunningStats, TopTail};
use raven_math::{Mat3, Vec3};

const PI: f64 = std::f64::consts::PI;

fn finite(range: f64) -> impl Strategy<Value = f64> {
    -range..range
}

fn vec3(range: f64) -> impl Strategy<Value = Vec3> {
    (finite(range), finite(range), finite(range)).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// Quarter steps in [-25, 25): many duplicates, no `-0.0`.
fn tied_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((-100i32..100).prop_map(|k| f64::from(k) / 4.0), 1..160)
}

proptest! {
    #[test]
    fn top_tail_band_matches_the_estimator(
        xs in tied_samples(),
        p_a in 0.0f64..100.0,
        p_b in 0.0f64..100.0,
        spare in 0usize..50,
    ) {
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        let (lo, hi) = (p_a.min(p_b), p_a.max(p_b));
        for samples in [&xs[..1], &xs[..xs.len().min(2)], &xs[..]] {
            let estimator: PercentileEstimator = samples.iter().copied().collect();
            // A tail sized for more samples than arrive still covers them.
            let mut tail = TopTail::new(lo, samples.len() + spare);
            tail.extend(samples.iter().copied());
            for (x, y) in [(lo, hi), (hi, lo), (lo, lo), (hi, 100.0), (100.0, 100.0)] {
                prop_assert_eq!(bits(tail.percentile_band(x, y)), bits(estimator.percentile_band(x, y)));
            }
            let mut whole = TopTail::new(0.0, samples.len());
            whole.extend(samples.iter().copied());
            prop_assert_eq!(bits(whole.percentile_band(0.0, 100.0)), bits(estimator.percentile_band(0.0, 100.0)));
        }
    }

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
        let x = m.inverse().unwrap() * v;
        prop_assert!((m * x - v).norm() < 1e-6);
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
