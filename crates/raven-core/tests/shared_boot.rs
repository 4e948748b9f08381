//! Every `Simulation` of a process shares one boot: the plant periods
//! before the pedal press are integrated once and copied by every later
//! session. Every run here boots cleanly, so the checks hold whichever
//! test records the boot first; `shared_boot_first_sweep.rs` and
//! `shared_boot_poisoned.rs` control who records first, each in a process
//! of its own.

mod common;

use common::{replayed_and_identical, BOOT};
use raven_core::experiments::{
    fig9, run_fig9_with, run_table4_with, table4, Fig9Config, Table4Config,
};
use raven_core::training::{self, train_thresholds_with};
use raven_core::Workload;
use raven_core::{run_spec, AttackSetup, DetectorSetup, ExecutorConfig, SessionSpec, SimConfig};

#[test]
fn a_session_replaying_the_boot_is_byte_identical_to_a_detached_session() {
    let spec = |seed: u64, workload| {
        SessionSpec::new(SimConfig {
            workload,
            session_ms: 2_500,
            detector: Some(DetectorSetup::default()),
            ..SimConfig::standard(seed)
        })
        .with_attack(AttackSetup::ScenarioB {
            dac_delta: 24_000,
            channel: (seed % 3) as usize,
            delay_packets: 300,
            duration_packets: 128,
        })
    };
    let _ = run_spec(&spec(31, Workload::Circle), |_| {}).expect_booted();
    assert_eq!(replayed_and_identical(&spec(37, Workload::Suturing)), BOOT);
}

#[test]
fn table4_training_and_scored_runs_replay_one_boot() {
    // Boot and the Pedal-Up wait must stay seed-independent, and training
    // must boot the plant the scored runs boot: if either stops being so,
    // the shared boot silently stops saving anything.
    let mut cfg = Table4Config::quick(9);
    cfg.training.runs = 2;
    cfg.scenario_a_runs = 4;
    cfg.scenario_b_runs = 4;
    let thresholds = run_table4_with(&cfg, &ExecutorConfig::with_workers(2)).thresholds;
    for run in 0..cfg.training.runs as usize {
        assert_eq!(replayed_and_identical(&training::spec(&cfg.training, run)), BOOT);
    }
    for (scenario, runs) in [('A', cfg.scenario_a_runs), ('B', cfg.scenario_b_runs)] {
        for run in 0..runs {
            let spec = table4::spec(&cfg, thresholds, scenario, run);
            assert_eq!(replayed_and_identical(&spec), BOOT, "{scenario} run {run}");
        }
    }
}

#[test]
fn fig9_training_and_grid_runs_replay_one_boot() {
    let mut cfg = Fig9Config::quick(21);
    cfg.repetitions = 2;
    cfg.training.runs = 2;
    let _ = run_fig9_with(&cfg, &ExecutorConfig::with_workers(2));
    let thresholds = train_thresholds_with(&cfg.training, &ExecutorConfig::serial()).thresholds;
    let runs = cfg.values.len() * cfg.durations_ms.len() * cfg.repetitions as usize;
    for i in 0..runs {
        assert_eq!(replayed_and_identical(&fig9::spec(&cfg, thresholds, i)), BOOT, "grid run {i}");
    }
}
