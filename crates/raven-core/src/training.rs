//! The fault-free threshold-learning protocol of the paper's §IV.C:
//! "thresholds … are learned through measuring the maximum instant
//! velocities of each of the variables over 600 fault-free runs of the model
//! with two different trajectories containing sufficient variability".

use raven_detect::{DetectionThresholds, Mitigation, ThresholdTails};
use serde::{Deserialize, Serialize};
use simbus::obs::streams;
use simbus::rng::derive_seed;

use crate::campaign::executor::{run_sweep, ExecutorConfig};
use crate::session::{run_spec, SessionSpec};
use crate::sim::{DetectorSetup, SimConfig, Workload};

/// Configuration of a training campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Number of fault-free runs (the paper uses 600).
    pub runs: u32,
    /// Teleoperation length per run (milliseconds).
    pub session_ms: u64,
    /// Percentile band for the final thresholds.
    pub percentile_band: (f64, f64),
    /// Model perturbation used during training (must match deployment).
    pub model_perturbation: f64,
    /// Root seed.
    pub seed: u64,
}

impl TrainingConfig {
    /// The paper-scale protocol: 600 runs over two trajectories.
    pub fn paper_scale(seed: u64) -> Self {
        TrainingConfig {
            runs: 600,
            session_ms: 2_000,
            percentile_band: (99.8, 99.9),
            model_perturbation: 0.02,
            seed,
        }
    }

    /// A reduced protocol for unit tests and quick experiments.
    pub fn quick(seed: u64) -> Self {
        TrainingConfig { runs: 12, session_ms: 1_500, ..Self::paper_scale(seed) }
    }
}

/// Outcome of a training campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingReport {
    /// The learned thresholds.
    pub thresholds: DetectionThresholds,
    /// Fault-free cycles observed in total.
    pub samples: u64,
    /// Runs executed.
    pub runs: u32,
}

/// Runs the fault-free protocol and learns detection thresholds.
///
/// Runs alternate between the two training workloads (circle scan and
/// suturing loops), each with a distinct derived seed, with the detector in
/// learning mode observing every Pedal-Down command.
///
/// # Panics
///
/// Panics if `config.runs` is zero or a clean training run fails to boot.
pub fn train_thresholds(config: &TrainingConfig) -> TrainingReport {
    train_thresholds_with(config, &ExecutorConfig::default())
}

/// [`train_thresholds`] with explicit executor control.
///
/// Each run owns its simulation and returns its run-local
/// [`ThresholdLearner`](raven_detect::ThresholdLearner); the calling
/// thread folds each one into [`ThresholdTails`] as it finishes and drops
/// it. The tails keep only the top values the percentile band reads, so
/// the learned thresholds are bit-identical to learning over every sample
/// of every run, for any worker count.
///
/// # Panics
///
/// Panics if `config.runs` is zero or a clean training run faults (each
/// faulting run is reported with its index and seed).
pub fn train_thresholds_with(config: &TrainingConfig, exec: &ExecutorConfig) -> TrainingReport {
    assert!(config.runs > 0, "training needs at least one run");
    // A run steps `session_ms` cycles and assesses at most one command in
    // each.
    let max_samples = config.runs as usize * config.session_ms as usize;
    let mut tails = ThresholdTails::new(config.percentile_band, max_samples);
    run_sweep(
        "training",
        config.runs as usize,
        exec,
        |run| seed(config, run),
        |run, _seed, _metrics| {
            let mut session = run_spec(&spec(config, run), |_| {}).expect_booted();
            assert!(
                session.outcome.controller_fault.is_none(),
                "fault-free training run {run} faulted: {:?}",
                session.outcome
            );
            let det = session.sim.detector_mut().expect("training sim must have a detector");
            det.end_learning_run();
            det.take_learner()
        },
        |_, learner| tails.fold(&learner),
    )
    .expect_all("threshold training");
    assert!(
        tails.samples() <= max_samples as u64,
        "{} training samples exceed the {max_samples} the tails were sized for",
        tails.samples()
    );
    let thresholds = tails.learn().expect("training produced no samples");
    TrainingReport { thresholds, samples: tails.samples(), runs: config.runs }
}

/// Training run `run`'s seed.
fn seed(config: &TrainingConfig, run: usize) -> u64 {
    derive_seed(config.seed, streams::TRAIN.at(&run.to_string()))
}

/// Training run `run`: a fault-free session on one of the two training
/// workloads, with the detector in learning mode.
pub fn spec(config: &TrainingConfig, run: usize) -> SessionSpec {
    let mut detector = DetectorSetup::new(Mitigation::Observe, None);
    detector.config.percentile_band = config.percentile_band;
    detector.model_perturbation = config.model_perturbation;
    SessionSpec::new(SimConfig {
        workload: Workload::training_pair()[run % 2],
        session_ms: config.session_ms,
        detector: Some(detector),
        ..SimConfig::standard(seed(config, run))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_training_produces_sane_thresholds() {
        let report = train_thresholds(&TrainingConfig { runs: 4, ..TrainingConfig::quick(2) });
        assert_eq!(report.runs, 4);
        assert!(report.samples > 1_000, "too few samples: {}", report.samples);
        let t = report.thresholds;
        // Thresholds must be positive and in physically sane ranges.
        for i in 0..3 {
            assert!(t.motor_accel[i] > 0.0 && t.motor_accel[i].is_finite());
            assert!(t.motor_vel[i] > 0.0 && t.motor_vel[i] < 1_000.0);
            assert!(t.joint_vel[i] > 0.0 && t.joint_vel[i] < 20.0);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let cfg = TrainingConfig { runs: 2, session_ms: 1_500, ..TrainingConfig::quick(7) };
        let a = train_thresholds(&cfg);
        let b = train_thresholds(&cfg);
        assert_eq!(a.thresholds, b.thresholds);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_panics() {
        let _ = train_thresholds(&TrainingConfig { runs: 0, ..TrainingConfig::quick(1) });
    }
}
