//! Threshold learning over fault-free runs.
//!
//! "The thresholds used for detecting anomalies are learned through
//! measuring the maximum instant velocities of each of the variables over
//! 600 fault-free runs of the model with two different trajectories … we
//! chose values between the 99.8–99.9th percentiles of instant velocity as
//! the threshold for each variable" (paper §IV.C). [`ThresholdLearner`]
//! accumulates the nine per-axis feature magnitudes over fault-free cycles
//! and emits [`DetectionThresholds`]; a training campaign folds each run's
//! learner into [`ThresholdTails`], which keeps only the top values the
//! thresholds read.

use raven_kinematics::NUM_AXES;
use raven_math::stats::{PercentileEstimator, TopTail};
use serde::{Deserialize, Serialize};

use crate::features::InstantFeatures;

/// Learned per-variable alarm thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionThresholds {
    /// Motor acceleration thresholds per axis (rad/s²).
    pub motor_accel: [f64; NUM_AXES],
    /// Motor velocity thresholds per axis (rad/s).
    pub motor_vel: [f64; NUM_AXES],
    /// Joint velocity thresholds per axis.
    pub joint_vel: [f64; NUM_AXES],
}

impl DetectionThresholds {
    /// Serializes the thresholds to pretty JSON — training campaigns are
    /// expensive (the paper's protocol is 600 runs), so deployments persist
    /// the result.
    ///
    /// # Errors
    ///
    /// Propagates the serializer's error instead of panicking: this type
    /// lives in a hot-path crate where clippy's `expect_used` is denied.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Loads thresholds from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// `true` when the features exceed *all three* variables on some axis —
    /// the paper's alarm-fusion rule ("raises an alert only when all three
    /// variables indicate an abnormality", §IV.C).
    pub fn fused_alarm(&self, f: &InstantFeatures) -> bool {
        (0..NUM_AXES).any(|i| {
            f.motor_accel[i] > self.motor_accel[i]
                && f.motor_vel[i] > self.motor_vel[i]
                && f.joint_vel[i] > self.joint_vel[i]
        })
    }

    /// `true` when *any* single variable exceeds its threshold on any axis —
    /// the no-fusion ablation (more sensitive, more false alarms).
    pub fn any_alarm(&self, f: &InstantFeatures) -> bool {
        (0..NUM_AXES).any(|i| {
            f.motor_accel[i] > self.motor_accel[i]
                || f.motor_vel[i] > self.motor_vel[i]
                || f.joint_vel[i] > self.joint_vel[i]
        })
    }

    /// Scales every threshold by `factor` (sensitivity ablation).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scaled(&self, factor: f64) -> DetectionThresholds {
        assert!(factor.is_finite() && factor > 0.0, "invalid scale factor {factor}");
        let mut out = *self;
        for i in 0..NUM_AXES {
            out.motor_accel[i] *= factor;
            out.motor_vel[i] *= factor;
            out.joint_vel[i] *= factor;
        }
        out
    }
}

/// Accumulates fault-free feature samples and learns thresholds.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ThresholdLearner {
    estimators: [PercentileEstimator; 3 * NUM_AXES],
    samples: u64,
    runs: u64,
}

impl ThresholdLearner {
    /// Creates an empty learner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one fault-free cycle's features.
    pub fn observe(&mut self, features: &InstantFeatures) {
        for (est, v) in self.estimators.iter_mut().zip(features.flattened()) {
            est.push(v);
        }
        self.samples += 1;
    }

    /// Marks the end of one fault-free run (bookkeeping toward the paper's
    /// 600-run protocol).
    pub fn end_run(&mut self) {
        self.runs += 1;
    }

    /// Cycles observed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Runs observed.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Learns thresholds at the paper's percentile band (midpoint of
    /// `[p_lo, p_hi]`, e.g. 99.8–99.9).
    ///
    /// Returns `None` when no samples were observed.
    pub fn learn(&self, p_lo: f64, p_hi: f64) -> Option<DetectionThresholds> {
        thresholds_from(|i| self.estimators[i].percentile_band(p_lo, p_hi))
    }

    /// Learns at the paper's default band (99.8–99.9th percentile).
    pub fn learn_default(&self) -> Option<DetectionThresholds> {
        self.learn(99.8, 99.9)
    }
}

/// The nine thresholds, feature `i` (in [`InstantFeatures::flattened`]
/// order) learned as `learn(i)`; `None` when any is.
fn thresholds_from(learn: impl Fn(usize) -> Option<f64>) -> Option<DetectionThresholds> {
    let mut values = [0.0; 3 * NUM_AXES];
    for (i, value) in values.iter_mut().enumerate() {
        *value = learn(i)?;
    }
    Some(DetectionThresholds {
        motor_accel: [values[0], values[1], values[2]],
        motor_vel: [values[3], values[4], values[5]],
        joint_vel: [values[6], values[7], values[8]],
    })
}

/// A training campaign's fold of its per-run [`ThresholdLearner`]s: one
/// [`TopTail`] per feature, sized so the band's lower percentile over at
/// most `max_samples` cycles reads only kept values.
///
/// The thresholds equal, bit for bit, those of one learner that observed
/// every run's cycles, in any fold order: a tail holds exactly the top of
/// its feature's samples, and a percentile reads only ranks inside it.
/// (A tail ranks `-0.0` below `+0.0`; the features are magnitudes, so no
/// sample is `-0.0`.)
/// The paper's 600 runs of up to 2 000 cycles keep about 2 400 values per
/// feature instead of 1.2 million.
#[derive(Debug, Clone)]
pub struct ThresholdTails {
    tails: [TopTail; 3 * NUM_AXES],
    band: (f64, f64),
    samples: u64,
}

impl ThresholdTails {
    /// Empty tails that will learn at `band`, as
    /// [`ThresholdLearner::learn`] does, from at most `max_samples` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `max_samples` is zero or the band leaves `[0, 100]`.
    pub fn new(band: (f64, f64), max_samples: usize) -> Self {
        let p_min = band.0.min(band.1);
        ThresholdTails {
            tails: std::array::from_fn(|_| TopTail::new(p_min, max_samples)),
            band,
            samples: 0,
        }
    }

    /// Folds one run's learner in.
    pub fn fold(&mut self, run: &ThresholdLearner) {
        for (tail, est) in self.tails.iter_mut().zip(&run.estimators) {
            tail.extend(est.samples().iter().copied());
        }
        self.samples += run.samples;
    }

    /// Cycles folded in.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Learns thresholds at the band; `None` when no samples were folded.
    ///
    /// # Panics
    ///
    /// Panics if more than `max_samples` cycles were folded in: the tails
    /// may then lack ranks the band reads.
    pub fn learn(&self) -> Option<DetectionThresholds> {
        let (p_lo, p_hi) = self.band;
        thresholds_from(|i| self.tails[i].percentile_band(p_lo, p_hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(scale: f64) -> InstantFeatures {
        InstantFeatures {
            motor_accel: [scale, 2.0 * scale, 3.0 * scale],
            motor_vel: [4.0 * scale, 5.0 * scale, 6.0 * scale],
            joint_vel: [7.0 * scale, 8.0 * scale, 9.0 * scale],
            ee_step: 0.0,
        }
    }

    fn trained_learner() -> ThresholdLearner {
        let mut l = ThresholdLearner::new();
        // 1000 fault-free samples with magnitudes in [0, 1).
        for k in 0..1000 {
            l.observe(&features(k as f64 / 1000.0));
        }
        l.end_run();
        l
    }

    #[test]
    fn learn_requires_samples() {
        assert!(ThresholdLearner::new().learn_default().is_none());
        assert!(trained_learner().learn_default().is_some());
    }

    #[test]
    fn thresholds_sit_near_the_top_of_the_faultfree_range() {
        let t = trained_learner().learn_default().unwrap();
        // Variable 0 (motor_accel[0]) ranged over [0, 1): its 99.8–99.9th
        // percentile is just below 1.
        assert!(t.motor_accel[0] > 0.99 && t.motor_accel[0] < 1.0);
        assert!(t.joint_vel[2] > 0.99 * 9.0 && t.joint_vel[2] < 9.0);
    }

    #[test]
    fn fused_alarm_needs_all_three_variables() {
        let t = trained_learner().learn_default().unwrap();
        // All three on axis 0 exceed: alarm.
        let mut f = features(0.0);
        f.motor_accel[0] = 10.0;
        f.motor_vel[0] = 10.0;
        f.joint_vel[0] = 10.0;
        assert!(t.fused_alarm(&f));
        // Only acceleration exceeds: fusion suppresses it, any_alarm fires.
        let mut f = features(0.0);
        f.motor_accel[0] = 10.0;
        assert!(!t.fused_alarm(&f));
        assert!(t.any_alarm(&f));
    }

    #[test]
    fn fusion_is_per_axis_not_cross_axis() {
        let t = trained_learner().learn_default().unwrap();
        // Three exceedances scattered across different axes: no fused alarm.
        let mut f = features(0.0);
        f.motor_accel[0] = 100.0;
        f.motor_vel[1] = 100.0;
        f.joint_vel[2] = 100.0;
        assert!(!t.fused_alarm(&f));
    }

    #[test]
    fn faultfree_samples_rarely_alarm_at_998() {
        let l = trained_learner();
        let t = l.learn_default().unwrap();
        let alarms = (0..1000).filter(|&k| t.fused_alarm(&features(k as f64 / 1000.0))).count();
        // Only the top ~0.2% of the training data can exceed.
        assert!(alarms <= 3, "{alarms} alarms on training data");
    }

    #[test]
    fn scaled_moves_sensitivity() {
        let t = trained_learner().learn_default().unwrap();
        let loose = t.scaled(2.0);
        let f = features(1.01); // just above the learned band
        assert!(t.fused_alarm(&f));
        assert!(!loose.fused_alarm(&f));
    }

    #[test]
    fn run_bookkeeping() {
        let mut l = ThresholdLearner::new();
        l.observe(&features(0.5));
        l.end_run();
        l.end_run();
        assert_eq!(l.samples(), 1);
        assert_eq!(l.runs(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid scale factor")]
    fn bad_scale_panics() {
        let t = trained_learner().learn_default().unwrap();
        let _ = t.scaled(0.0);
    }
}
