//! Surgical trajectory generators.
//!
//! The paper's master console emulator "generat\[es\] user input packets based
//! on previously collected trajectories of surgical movements made by a
//! human operator" (§IV.A), and the detector's thresholds are learned over
//! "two different trajectories containing sufficient variability in the
//! movement" (§IV.C). We have no recorded surgeon data, so these generators
//! synthesize surgical-scale motion: smooth minimum-jerk reaches, circular
//! scans and suturing-like loop patterns, under band-limited operator
//! tremor.

use rand::rngs::SmallRng;
use rand::Rng;
use raven_math::Vec3;
use simbus::obs::streams;
use simbus::rng::stream_rng;

/// A motion profile sampled by the console at 1 kHz.
///
/// Implementations return the *offset from the starting pose* at time `t`
/// seconds; the console differentiates to produce the incremental ITP
/// commands. Generators may be stateful (e.g. tremor noise), hence `&mut`.
pub trait Trajectory: std::fmt::Debug + Send {
    /// Offset from the start pose at time `t` (seconds ≥ 0).
    fn offset(&mut self, t: f64) -> Vec3;

    /// A short human-readable label for experiment records.
    fn label(&self) -> &str;
}

/// Quintic minimum-jerk interpolation from 0 to `target` over `duration`,
/// then hold — the standard model of trained human reaching motion.
#[derive(Debug, Clone)]
pub struct MinimumJerk {
    target: Vec3,
    duration: f64,
}

impl MinimumJerk {
    /// Creates a reach of `target` meters over `duration` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive.
    pub fn new(target: Vec3, duration: f64) -> Self {
        assert!(duration > 0.0, "duration must be positive");
        MinimumJerk { target, duration }
    }
}

impl Trajectory for MinimumJerk {
    fn offset(&mut self, t: f64) -> Vec3 {
        let s = (t / self.duration).clamp(0.0, 1.0);
        // 10s³ − 15s⁴ + 6s⁵: zero velocity & acceleration at both ends.
        let blend = s * s * s * (10.0 - 15.0 * s + 6.0 * s * s);
        self.target * blend
    }

    fn label(&self) -> &str {
        "minimum-jerk reach"
    }
}

/// A circular scan in the XY plane: radius `r`, frequency `f` Hz.
#[derive(Debug, Clone)]
pub struct Circle {
    radius: f64,
    freq: f64,
}

impl Circle {
    /// Creates a circular scan.
    ///
    /// # Panics
    ///
    /// Panics if radius or frequency is not positive.
    pub fn new(radius: f64, freq: f64) -> Self {
        assert!(radius > 0.0 && freq > 0.0, "radius and frequency must be positive");
        Circle { radius, freq }
    }
}

impl Trajectory for Circle {
    fn offset(&mut self, t: f64) -> Vec3 {
        let w = 2.0 * std::f64::consts::PI * self.freq * t;
        Vec3::new(self.radius * (w.cos() - 1.0), self.radius * w.sin(), 0.0)
    }

    fn label(&self) -> &str {
        "circle scan"
    }
}

/// Suturing-like motion: repeated small loops (needle arcs) advancing along
/// a seam line, with a brief dwell between stitches.
#[derive(Debug, Clone)]
pub struct Suturing {
    stitch_len: f64,
    loop_radius: f64,
    period: f64,
}

impl Suturing {
    /// Creates a suturing pattern: one stitch every `period` seconds,
    /// advancing `stitch_len` meters, looping with radius `loop_radius`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is not positive.
    pub fn new(stitch_len: f64, loop_radius: f64, period: f64) -> Self {
        assert!(
            stitch_len > 0.0 && loop_radius > 0.0 && period > 0.0,
            "suturing parameters must be positive"
        );
        Suturing { stitch_len, loop_radius, period }
    }
}

impl Trajectory for Suturing {
    fn offset(&mut self, t: f64) -> Vec3 {
        let stitch = (t / self.period).floor();
        let phase = (t / self.period).fract();
        // 70% of the period is the needle loop; 30% dwell/reposition.
        let loop_phase = (phase / 0.7).min(1.0);
        let w = 2.0 * std::f64::consts::PI * loop_phase;
        let advance = self.stitch_len * (stitch + smooth(loop_phase));
        Vec3::new(advance, self.loop_radius * w.sin(), self.loop_radius * (1.0 - w.cos()) * 0.5)
    }

    fn label(&self) -> &str {
        "suturing loops"
    }
}

fn smooth(s: f64) -> f64 {
    s * s * (3.0 - 2.0 * s)
}

/// Wraps a trajectory with band-limited operator tremor (an
/// Ornstein–Uhlenbeck process per axis, ~8 Hz bandwidth), making fault-free
/// runs variable enough that threshold learning is non-trivial.
#[derive(Debug)]
pub struct WithTremor<T> {
    inner: T,
    rng: SmallRng,
    state: Vec3,
    amplitude: f64,
    last_t: f64,
}

impl<T: Trajectory> WithTremor<T> {
    /// Adds tremor of RMS `amplitude` meters, seeded deterministically.
    pub fn new(inner: T, amplitude: f64, seed: u64) -> Self {
        WithTremor {
            inner,
            rng: stream_rng(seed, streams::TREMOR),
            state: Vec3::ZERO,
            amplitude,
            last_t: 0.0,
        }
    }
}

impl<T: Trajectory> Trajectory for WithTremor<T> {
    fn offset(&mut self, t: f64) -> Vec3 {
        let dt = (t - self.last_t).clamp(0.0, 0.1);
        self.last_t = t;
        // OU process: dx = -x/τ dt + σ √dt ξ, τ ≈ 20 ms.
        let tau: f64 = 0.02;
        let sigma = self.amplitude * (2.0 / tau).sqrt();
        for i in 0..3 {
            let xi: f64 = self.rng.gen_range(-1.0..1.0) * 1.732; // ~unit variance
            self.state[i] += -self.state[i] / tau * dt + sigma * dt.sqrt() * xi;
        }
        self.inner.offset(t) + self.state
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_jerk_endpoints_and_smoothness() {
        let mut mj = MinimumJerk::new(Vec3::new(0.02, 0.0, 0.0), 2.0);
        assert_eq!(mj.offset(0.0), Vec3::ZERO);
        assert!((mj.offset(2.0) - Vec3::new(0.02, 0.0, 0.0)).norm() < 1e-12);
        assert!((mj.offset(5.0) - Vec3::new(0.02, 0.0, 0.0)).norm() < 1e-12); // holds
                                                                              // Max per-ms step stays well under surgical speed limits.
        let mut max_step = 0.0_f64;
        let mut last = mj.offset(0.0);
        for k in 1..2000 {
            let p = mj.offset(k as f64 * 1e-3);
            max_step = max_step.max((p - last).norm());
            last = p;
        }
        assert!(max_step < 2e-5, "minimum jerk stepped {max_step} m/ms");
    }

    #[test]
    fn circle_starts_at_origin_and_returns() {
        let mut c = Circle::new(0.01, 0.5);
        assert!((c.offset(0.0)).norm() < 1e-12);
        assert!((c.offset(2.0)).norm() < 1e-9); // one full period
                                                // Radius respected: max distance from circle center (-r, 0).
        for k in 0..100 {
            let p = c.offset(k as f64 * 0.02);
            let center = Vec3::new(-0.01, 0.0, 0.0);
            assert!(((p - center).norm() - 0.01).abs() < 1e-9);
        }
    }

    #[test]
    fn suturing_advances_monotonically_per_stitch() {
        let mut s = Suturing::new(0.005, 0.003, 2.0);
        let after_1 = s.offset(2.0).x;
        let after_3 = s.offset(6.0).x;
        assert!((after_1 - 0.005).abs() < 1e-9);
        assert!((after_3 - 0.015).abs() < 1e-9);
    }

    #[test]
    fn suturing_is_continuous_across_stitch_boundary() {
        let mut s = Suturing::new(0.005, 0.003, 2.0);
        let before = s.offset(2.0 - 1e-4);
        let after = s.offset(2.0 + 1e-4);
        assert!((after - before).norm() < 1e-4, "discontinuity at stitch boundary");
    }

    #[test]
    fn tremor_is_bounded_and_deterministic() {
        let mk = || WithTremor::new(Circle::new(0.01, 0.25), 3e-5, 7);
        let mut a = mk();
        let mut b = mk();
        let mut max_dev = 0.0_f64;
        let mut base = Circle::new(0.01, 0.25);
        for k in 0..5000 {
            let t = k as f64 * 1e-3;
            let pa = a.offset(t);
            assert_eq!(pa, b.offset(t), "same seed must reproduce");
            max_dev = max_dev.max((pa - base.offset(t)).norm());
        }
        assert!(max_dev > 1e-6, "tremor must actually perturb");
        assert!(max_dev < 2e-3, "tremor too large: {max_dev}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_panics() {
        let _ = MinimumJerk::new(Vec3::X, 0.0);
    }
}
