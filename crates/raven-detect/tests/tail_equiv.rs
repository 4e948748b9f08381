//! Training on top tails learns the thresholds of training on every sample.
//!
//! A campaign folds each run's [`ThresholdLearner`] into
//! [`ThresholdTails`], which keeps only the top values of each feature.
//! The oracle is the learner it replaced, kept here verbatim: every run's
//! samples merged into one master set per feature in run order, and each
//! band read from two full sorts. Runs have random lengths (some empty),
//! quantized values with many duplicates and the odd non-finite sample;
//! the tails take them in shuffled order and must match the oracle's
//! thresholds bit for bit.

use raven_detect::{DetectionThresholds, InstantFeatures, ThresholdLearner, ThresholdTails};

/// The master learner as it was before tails: per feature, every finite
/// sample of every run, merged in run order.
struct MergeAndSort {
    estimators: [Vec<f64>; 9],
}

impl MergeAndSort {
    fn observe(&mut self, features: &InstantFeatures) {
        for (est, x) in self.estimators.iter_mut().zip(features.flattened()) {
            if x.is_finite() {
                est.push(x);
            }
        }
    }

    fn learn(&self, p_lo: f64, p_hi: f64) -> Option<DetectionThresholds> {
        let mut values = [0.0; 9];
        for (i, est) in self.estimators.iter().enumerate() {
            values[i] = percentile_band(est, p_lo, p_hi)?;
        }
        Some(DetectionThresholds {
            motor_accel: [values[0], values[1], values[2]],
            motor_vel: [values[3], values[4], values[5]],
            joint_vel: [values[6], values[7], values[8]],
        })
    }
}

fn percentile_band(samples: &[f64], p_lo: f64, p_hi: f64) -> Option<f64> {
    Some(0.5 * (percentile(samples, p_lo)? + percentile(samples, p_hi)?))
}

fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    Some(percentile_sorted(&sorted, p))
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample set");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi.min(n - 1)] - sorted[lo]) * frac
}

/// A small deterministic generator (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        simbus::rng::splitmix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One cycle's features: magnitudes on a grid of 1 024 steps, so a few
/// thousand samples repeat values throughout the band, with a rare
/// non-finite glitch.
fn features(rng: &mut Rng) -> InstantFeatures {
    let mut value = |scale: f64| match rng.below(1_026) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        k => (k - 2) as f64 * scale,
    };
    InstantFeatures {
        motor_accel: [value(8.0), value(16.0), value(0.5)],
        motor_vel: [value(0.25), value(0.125), value(1.0)],
        joint_vel: [value(1e-3), value(2e-3), value(4e-3)],
        ee_step: 0.0,
    }
}

const BANDS: [(f64, f64); 3] = [(95.0, 96.0), (99.8, 99.9), (99.99, 100.0)];

fn bits(t: Option<DetectionThresholds>) -> Option<Vec<u64>> {
    t.map(|t| {
        t.motor_accel.iter().chain(&t.motor_vel).chain(&t.joint_vel).map(|v| v.to_bits()).collect()
    })
}

/// Runs `runs` random sessions of up to `max_len` cycles each and checks
/// the tails, folded in shuffled order, against the merged master.
fn check(seed: u64, runs: usize, max_len: u64, full: bool) {
    let mut rng = Rng(seed);
    let sessions: Vec<Vec<InstantFeatures>> = (0..runs)
        .map(|_| {
            let len = if full { max_len } else { rng.below(max_len + 1) };
            (0..len).map(|_| features(&mut rng)).collect()
        })
        .collect();
    let learners: Vec<ThresholdLearner> = sessions
        .iter()
        .map(|cycles| {
            let mut learner = ThresholdLearner::new();
            for f in cycles {
                learner.observe(f);
            }
            learner.end_run();
            learner
        })
        .collect();
    let mut master = MergeAndSort { estimators: Default::default() };
    for f in sessions.iter().flatten() {
        master.observe(f);
    }
    let mut order: Vec<usize> = (0..runs).collect();
    for i in (1..runs).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let max_samples = runs * max_len as usize;
    for band in BANDS {
        let mut tails = ThresholdTails::new(band, max_samples);
        for &run in &order {
            tails.fold(&learners[run]);
        }
        assert_eq!(tails.samples(), learners.iter().map(ThresholdLearner::samples).sum::<u64>());
        assert_eq!(
            bits(tails.learn()),
            bits(master.learn(band.0, band.1)),
            "seed {seed}, {runs} runs of up to {max_len}, band {band:?}"
        );
    }
}

#[test]
fn tails_learn_the_merged_masters_thresholds_bit_for_bit() {
    for seed in 0..12 {
        check(seed, 1 + seed as usize * 3, 700, false);
    }
}

#[test]
fn tails_cover_the_band_when_every_run_is_full_length() {
    // n reaches max_samples exactly: the tails hold T(n_max) values and
    // the band's lowest rank is the lowest one kept.
    for seed in 100..104 {
        check(seed, 24, 500, true);
    }
}

#[test]
fn empty_tails_learn_nothing() {
    let tails = ThresholdTails::new((99.8, 99.9), 1_000);
    assert!(tails.learn().is_none());
    assert!(MergeAndSort { estimators: Default::default() }.learn(99.8, 99.9).is_none());
}

#[test]
fn a_single_sample_is_its_own_threshold() {
    let mut learner = ThresholdLearner::new();
    let f = InstantFeatures {
        motor_accel: [1.0, 2.0, 3.0],
        motor_vel: [4.0, 5.0, 6.0],
        joint_vel: [7.0, 8.0, 9.0],
        ee_step: 0.0,
    };
    learner.observe(&f);
    let mut tails = ThresholdTails::new((99.8, 99.9), 10);
    tails.fold(&learner);
    assert_eq!(tails.learn(), learner.learn(99.8, 99.9));
    assert_eq!(tails.learn().map(|t| t.joint_vel), Some([7.0, 8.0, 9.0]));
}
