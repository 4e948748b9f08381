//! Recorded trajectories: capture and replay of operator motion.
//!
//! The paper's master console emulator generates "user input packets based
//! on previously collected trajectories of surgical movements made by a
//! human operator" (§IV.A) — i.e. it *replays recordings*. [`Recording`]
//! captures any [`Trajectory`] (or externally supplied samples, e.g. a CSV
//! of real console data) at a fixed rate and replays it with linear
//! interpolation, optional time scaling, and looping.

use raven_math::Vec3;
use serde::{Deserialize, Serialize};

use crate::traj::Trajectory;

/// A sampled motion recording.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recording {
    /// Sample period (seconds).
    sample_period: f64,
    /// Offset samples, uniformly spaced from t = 0.
    samples: Vec<Vec3>,
}

impl Recording {
    /// Captures `source` at `rate_hz` for `duration` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` or `duration` is not positive.
    pub fn capture(source: &mut dyn Trajectory, rate_hz: f64, duration: f64) -> Self {
        assert!(rate_hz > 0.0 && duration > 0.0, "rate and duration must be positive");
        let sample_period = 1.0 / rate_hz;
        let n = (duration * rate_hz).ceil() as usize + 1;
        let samples = (0..n).map(|k| source.offset(k as f64 * sample_period)).collect();
        Recording { sample_period, samples }
    }

    /// Builds a recording from externally supplied samples (e.g. parsed
    /// from real console logs).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `sample_period` is not positive.
    pub fn from_samples(samples: Vec<Vec3>, sample_period: f64) -> Self {
        assert!(!samples.is_empty(), "a recording needs at least one sample");
        assert!(sample_period > 0.0, "sample period must be positive");
        Recording { sample_period, samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the recording holds a single pose.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration of one pass (seconds).
    pub fn duration(&self) -> f64 {
        (self.samples.len().saturating_sub(1)) as f64 * self.sample_period
    }

    /// Linearly interpolated offset at time `t` within one pass (clamped to
    /// the ends).
    pub fn sample(&self, t: f64) -> Vec3 {
        if self.samples.len() == 1 {
            return self.samples[0];
        }
        let pos = (t / self.sample_period).clamp(0.0, (self.samples.len() - 1) as f64);
        let idx = pos.floor() as usize;
        let frac = pos - idx as f64;
        if idx + 1 >= self.samples.len() {
            return self.samples[self.samples.len() - 1];
        }
        self.samples[idx].lerp(self.samples[idx + 1], frac)
    }

    /// Turns the recording into a replayable trajectory.
    ///
    /// `speed` scales playback time (2.0 = twice as fast); `looped` restarts
    /// from the beginning when the pass ends (with the accumulated offset
    /// removed so the loop is seamless only if the recording returns to its
    /// start — otherwise each pass continues from the previous end, like a
    /// surgeon repeating a stitch pattern).
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not positive and finite.
    pub fn replay(self, speed: f64, looped: bool) -> Replay {
        assert!(speed.is_finite() && speed > 0.0, "invalid playback speed {speed}");
        Replay { recording: self, speed, looped }
    }
}

/// A replayed recording, usable anywhere a [`Trajectory`] is.
#[derive(Debug, Clone)]
pub struct Replay {
    recording: Recording,
    speed: f64,
    looped: bool,
}

impl Trajectory for Replay {
    fn offset(&mut self, t: f64) -> Vec3 {
        let t = t * self.speed;
        let dur = self.recording.duration();
        if !self.looped || dur <= 0.0 || t <= dur {
            return self.recording.sample(t);
        }
        let passes = (t / dur).floor();
        let within = t - passes * dur;
        let pass_advance = self.recording.sample(dur) - self.recording.sample(0.0);
        self.recording.sample(within) + pass_advance * passes
    }

    fn label(&self) -> &str {
        "recorded replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traj::{Circle, MinimumJerk, Suturing};

    #[test]
    fn capture_and_replay_reproduces_the_source() {
        let mut source = Circle::new(0.01, 0.5);
        let recording = Recording::capture(&mut Circle::new(0.01, 0.5), 1_000.0, 2.0);
        let mut replay = recording.replay(1.0, false);
        for k in 0..2_000 {
            let t = k as f64 * 1e-3;
            let err = (replay.offset(t) - source.offset(t)).norm();
            assert!(err < 1e-6, "replay diverged by {err} at t={t}");
        }
    }

    #[test]
    fn interpolation_between_samples() {
        // 10 Hz recording of a linear ramp: interpolation must fill between.
        let samples: Vec<Vec3> = (0..11).map(|k| Vec3::new(k as f64, 0.0, 0.0)).collect();
        let rec = Recording::from_samples(samples, 0.1);
        assert!((rec.sample(0.05).x - 0.5).abs() < 1e-12);
        assert!((rec.sample(0.55).x - 5.5).abs() < 1e-12);
        // Clamped at the ends.
        assert_eq!(rec.sample(-1.0).x, 0.0);
        assert_eq!(rec.sample(99.0).x, 10.0);
    }

    #[test]
    fn speed_scaling() {
        let rec = Recording::capture(&mut MinimumJerk::new(Vec3::X, 1.0), 1_000.0, 1.0);
        let mut fast = rec.clone().replay(2.0, false);
        let mut normal = rec.replay(1.0, false);
        // At 2× speed the reach completes in half the time.
        assert!((fast.offset(0.5) - normal.offset(1.0)).norm() < 1e-9);
    }

    #[test]
    fn looped_replay_advances_per_pass() {
        // A suturing pattern advances each stitch; looping continues the seam.
        let rec = Recording::capture(&mut Suturing::new(0.005, 0.003, 1.0), 1_000.0, 2.0);
        let dur = rec.duration();
        let advance = rec.sample(dur) - rec.sample(0.0);
        let mut replay = rec.replay(1.0, true);
        let one_pass = replay.offset(dur * 0.5);
        let two_pass = replay.offset(dur * 1.5);
        assert!((two_pass - one_pass - advance).norm() < 1e-9);
    }

    #[test]
    fn looped_replay_is_continuous_at_the_seam() {
        let rec = Recording::capture(&mut Circle::new(0.01, 0.5), 1_000.0, 2.0);
        let dur = rec.duration();
        let mut replay = rec.replay(1.0, true);
        let before = replay.offset(dur - 1e-4);
        let after = replay.offset(dur + 1e-4);
        assert!((after - before).norm() < 1e-5, "seam discontinuity");
    }

    #[test]
    fn single_sample_recording() {
        let rec = Recording::from_samples(vec![Vec3::X], 0.01);
        assert_eq!(rec.duration(), 0.0);
        assert_eq!(rec.sample(5.0), Vec3::X);
        let mut replay = rec.replay(1.0, true);
        assert_eq!(replay.offset(3.0), Vec3::X);
    }

    #[test]
    fn serde_roundtrip() {
        let rec = Recording::capture(&mut Circle::new(0.01, 0.5), 100.0, 1.0);
        let json = serde_json::to_string(&rec).unwrap();
        let back: Recording = serde_json::from_str(&json).unwrap();
        // JSON float formatting may lose the last ULP; compare pointwise.
        assert_eq!(back.len(), rec.len());
        for t in [0.0, 0.25, 0.5, 0.99] {
            assert!((back.sample(t) - rec.sample(t)).norm() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_panic() {
        let _ = Recording::from_samples(vec![], 0.01);
    }

    #[test]
    #[should_panic(expected = "invalid playback speed")]
    fn zero_speed_panics() {
        let _ = Recording::from_samples(vec![Vec3::ZERO], 0.01).replay(0.0, false);
    }
}
