//! Scored Table IV attack runs record the process's shared boot in a
//! sweep on two workers, and training replays it afterwards. One test, so
//! nothing else in this process records the boot first.

mod common;

use common::{detach, replayed_and_identical, BOOT};
use raven_core::experiments::{table4, Table4Config};
use raven_core::training::{self, train_thresholds_with, TrainingConfig};
use raven_core::{run_spec, run_sweep, ExecutorConfig, Simulation};
use raven_detect::{DetectionThresholds, ThresholdTails};

fn bits(t: &DetectionThresholds) -> Vec<u64> {
    [t.motor_accel, t.motor_vel, t.joint_vel].concat().iter().map(|v| v.to_bits()).collect()
}

/// The training protocol folded from runs set up by `prepare`, and the
/// periods each run replayed.
fn train(
    training: &TrainingConfig,
    prepare: fn(&mut Simulation),
) -> (DetectionThresholds, Vec<usize>) {
    let max_samples = training.runs as usize * training.session_ms as usize;
    let mut tails = ThresholdTails::new(training.percentile_band, max_samples);
    let mut replayed = Vec::new();
    for run in 0..training.runs as usize {
        let mut session = run_spec(&training::spec(training, run), prepare).expect_booted();
        replayed.push(session.sim.rig().plant.replayed_periods());
        let det = session.sim.detector_mut().expect("a training run has a detector");
        det.end_learning_run();
        tails.fold(&det.take_learner());
    }
    (tails.learn().expect("training produced samples"), replayed)
}

#[test]
fn scored_runs_record_the_boot_that_their_sweep_and_training_replay() {
    let cfg = Table4Config { scenario_a_runs: 3, scenario_b_runs: 3, ..Table4Config::quick(9) };
    let training = TrainingConfig { runs: 2, ..cfg.training };
    // Detached runs leave the shared boot empty.
    let (detached, replayed) = train(&training, detach);
    assert_eq!(replayed, [0, 0]);

    let specs: Vec<_> = ['A', 'B']
        .into_iter()
        .flat_map(|scenario| (0..3).map(move |run| table4::spec(&cfg, detached, scenario, run)))
        .collect();
    for workers in [2, 1] {
        let mut replayed = Vec::new();
        run_sweep(
            "shared-boot",
            specs.len(),
            &ExecutorConfig::with_workers(workers),
            |i| specs[i].config.seed,
            |i, _seed, _metrics| replayed_and_identical(&specs[i]),
            |_, periods| replayed.push(periods),
        )
        .expect_all("shared-boot sweep");
        let full = replayed.iter().filter(|&&n| n == BOOT).count();
        if workers == 2 {
            // The boot is empty: only the runs that started alongside the
            // first one (one per worker) may have integrated any of it.
            assert!(
                full >= specs.len() - workers && full < specs.len(),
                "{workers} workers: {replayed:?}"
            );
        } else {
            assert_eq!(full, specs.len(), "{workers} worker: {replayed:?}");
        }
    }

    // Training after the scored runs replays their boot and learns the
    // detached thresholds, bit for bit.
    let (shared, replayed) = train(&training, |_| {});
    assert_eq!(replayed, [BOOT, BOOT]);
    assert_eq!(bits(&shared), bits(&detached));
    let swept = train_thresholds_with(&training, &ExecutorConfig::with_workers(2)).thresholds;
    assert_eq!(bits(&swept), bits(&detached));
}
