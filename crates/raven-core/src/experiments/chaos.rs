//! Accidental-fault robustness study: the chaos schedule without an
//! attacker.
//!
//! The paper's detector is built against *malicious* packet mutation, but
//! the same guarded loop also rides through mundane failures — packet
//! reorder and loss bursts, stuck or bit-flipped encoders, dropped USB
//! frames. This study runs clean guarded sessions under seeded
//! [`ChaosConfig`] presets and reports what accidental faults actually
//! cost: how many runs alarm, E-STOP, or suffer adverse motion, and how
//! many faults were scheduled versus actually injected inside the
//! teleoperation window.
//!
//! Every run derives its seed from the root seed, the preset label, and
//! the run index, so the study is byte-identical for any worker count.

use serde::{Deserialize, Serialize};
use simbus::obs::{names, streams, Metrics};
use simbus::rng::derive_seed;
use simbus::ChaosConfig;

use crate::campaign::executor::{run_sweep, ExecutorConfig};
use crate::session::{run_spec, SessionSpec};
use crate::sim::{DetectorSetup, SimConfig, Workload};
use crate::training::{train_thresholds_with, TrainingConfig};
use raven_detect::Mitigation;

/// Sizing of the chaos study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosStudyConfig {
    /// Clean guarded runs per chaos preset.
    pub runs_per_preset: u32,
    /// Session length per run (ms). Must extend past the chaos window
    /// start (2.8 s virtual) for faults to land.
    pub session_ms: u64,
    /// Training protocol for the guard's thresholds.
    pub training: TrainingConfig,
    /// Root seed.
    pub seed: u64,
}

impl ChaosStudyConfig {
    /// Reduced protocol for tests and quick CLI runs.
    pub fn quick(seed: u64) -> Self {
        ChaosStudyConfig {
            runs_per_preset: 4,
            session_ms: 2_500,
            training: TrainingConfig { runs: 6, ..TrainingConfig::quick(seed) },
            seed,
        }
    }

    /// Larger protocol for the full study.
    pub fn paper_scale(seed: u64) -> Self {
        ChaosStudyConfig {
            runs_per_preset: 60,
            session_ms: 4_000,
            training: TrainingConfig { runs: 60, ..TrainingConfig::quick(seed) },
            seed,
        }
    }
}

/// Aggregate outcome of one chaos preset's runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosStudyRow {
    /// Preset label (`off`, `link-only`, `standard`).
    pub preset: String,
    /// Runs executed.
    pub runs: u32,
    /// Faults the schedules planned, summed over runs.
    pub faults_scheduled: u64,
    /// Faults actually injected inside the sessions, summed over runs.
    pub faults_injected: u64,
    /// Runs where the armed detector raised at least one alarm.
    pub alarmed_runs: u32,
    /// Runs that ended E-STOPped.
    pub estop_runs: u32,
    /// Runs with adverse motion (>1 mm within 1–2 ms).
    pub adverse_runs: u32,
    /// Runs that finished the session in Pedal Down.
    pub completed_runs: u32,
}

/// The accidental-fault study result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosStudy {
    /// One row per preset.
    pub rows: Vec<ChaosStudyRow>,
    /// Run metrics merged in run order (chaos and detector counters).
    /// Deterministic for any worker count.
    pub metrics: Metrics,
}

impl ChaosStudy {
    /// Renders as text.
    pub fn render(&self) -> String {
        let mut out = String::from("STUDY: accidental faults under the guarded loop (chaos)\n");
        out.push_str(&format!(
            "{:<12} {:>5} {:>10} {:>9} {:>8} {:>7} {:>8} {:>10}\n",
            "preset", "runs", "scheduled", "injected", "alarmed", "estop", "adverse", "completed"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<12} {:>5} {:>10} {:>9} {:>8} {:>7} {:>8} {:>10}\n",
                r.preset,
                r.runs,
                r.faults_scheduled,
                r.faults_injected,
                r.alarmed_runs,
                r.estop_runs,
                r.adverse_runs,
                r.completed_runs
            ));
        }
        out
    }

    /// Finds a row by preset label.
    pub fn row(&self, preset: &str) -> Option<&ChaosStudyRow> {
        self.rows.iter().find(|r| r.preset == preset)
    }
}

/// One run's contribution, folded into its preset's row in run order.
#[derive(Debug, Clone)]
struct RunTally {
    scheduled: u64,
    injected: u64,
    alarmed: bool,
    estop: bool,
    adverse: bool,
    completed: bool,
}

fn chaos_presets() -> [(&'static str, ChaosConfig); 3] {
    [
        ("off", ChaosConfig::off()),
        ("link-only", ChaosConfig::link_only()),
        ("standard", ChaosConfig::standard()),
    ]
}

/// Runs the study on the campaign executor.
pub fn run_chaos_study_with(config: &ChaosStudyConfig, exec: &ExecutorConfig) -> ChaosStudy {
    // Reduced training leaves the extreme percentiles noisy; a 25 % margin
    // keeps the chaos-off baseline quiet so the rows isolate what the
    // *faults* cost rather than threshold-training variance.
    let thresholds = train_thresholds_with(&config.training, exec).thresholds.scaled(1.25);
    let presets = chaos_presets();
    let runs = config.runs_per_preset as usize;
    let total = presets.len() * runs;

    let mut rows: Vec<ChaosStudyRow> = presets
        .iter()
        .map(|(label, _)| ChaosStudyRow {
            preset: (*label).to_string(),
            runs: config.runs_per_preset,
            faults_scheduled: 0,
            faults_injected: 0,
            alarmed_runs: 0,
            estop_runs: 0,
            adverse_runs: 0,
            completed_runs: 0,
        })
        .collect();
    let metrics = run_sweep(
        "chaos-study",
        total,
        exec,
        |i| {
            let (label, _) = &presets[i / runs];
            derive_seed(config.seed, streams::CHAOS_STUDY.at(&format!("{label}.{}", i % runs)))
        },
        |i, seed, metrics| {
            let (_, chaos) = &presets[i / runs];
            let spec = SessionSpec::new(SimConfig {
                workload: Workload::Circle,
                session_ms: config.session_ms,
                detector: Some(DetectorSetup::new(Mitigation::EStop, Some(thresholds))),
                ..SimConfig::standard(seed)
            })
            .with_chaos(chaos.clone());
            let run = run_spec(&spec, |_| {}).expect_booted();
            let out = run.outcome;
            let run_metrics = &run.sim.observer().metrics;
            metrics.merge(run_metrics);
            RunTally {
                scheduled: run.chaos_scheduled as u64,
                injected: run_metrics.counter(names::CHAOS_INJECTIONS),
                alarmed: out.model_detected,
                estop: out.estop.is_some(),
                adverse: out.adverse,
                completed: out.final_state == "Pedal Down",
            }
        },
        |i, tally| {
            let row = &mut rows[i / runs];
            row.faults_scheduled += tally.scheduled;
            row.faults_injected += tally.injected;
            row.alarmed_runs += u32::from(tally.alarmed);
            row.estop_runs += u32::from(tally.estop);
            row.adverse_runs += u32::from(tally.adverse);
            row.completed_runs += u32::from(tally.completed);
        },
    )
    .expect_all("chaos study")
    .metrics;
    ChaosStudy { rows, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosStudyConfig {
        ChaosStudyConfig {
            runs_per_preset: 2,
            session_ms: 2_200,
            training: TrainingConfig { runs: 4, ..TrainingConfig::quick(3) },
            seed: 3,
        }
    }

    #[test]
    fn off_preset_schedules_and_injects_nothing() {
        let study = run_chaos_study_with(&tiny(), &ExecutorConfig::serial());
        let off = study.row("off").expect("off row");
        assert_eq!(off.faults_scheduled, 0, "{}", study.render());
        assert_eq!(off.faults_injected, 0, "{}", study.render());
        let standard = study.row("standard").expect("standard row");
        assert!(standard.faults_scheduled > 0, "{}", study.render());
    }

    #[test]
    fn study_is_byte_identical_for_any_worker_count() {
        let config = tiny();
        let serial =
            serde_json::to_string(&run_chaos_study_with(&config, &ExecutorConfig::serial()))
                .expect("serialize");
        let parallel =
            serde_json::to_string(&run_chaos_study_with(&config, &ExecutorConfig::with_workers(3)))
                .expect("serialize");
        assert_eq!(serial, parallel);
    }
}
