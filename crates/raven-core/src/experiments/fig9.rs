//! Figure 9 — attack detection probability vs injected error value and
//! activation period (scenario B).
//!
//! For each (DAC error value, activation period) cell the paper runs ≥20
//! repetitions and estimates three probabilities: adverse impact on the
//! physical system, detection by the dynamic-model detector, and detection
//! by the stock RAVEN safety mechanisms. The reproduced claims: all three
//! probabilities grow with value and duration; short/small injections are
//! absorbed by the PID loop (§IV.B observation 1: no impact below ~64 ms
//! unless values are large); the model detector's curve sits above RAVEN's;
//! and RAVEN's detection probability sits below the adverse-impact
//! probability (it cannot catch everything that hurts).

use raven_detect::{DetectionThresholds, Mitigation};
use serde::{Deserialize, Serialize};
use simbus::rng::derive_seed;

use simbus::obs::{streams, Metrics};

use crate::campaign::executor::{run_sweep, ExecutorConfig};
use crate::scenario::AttackSetup;
use crate::session::{run_spec, SessionSpec};
use crate::sim::{DetectorSetup, SessionOutcome, SimConfig, Workload};
use crate::training::{train_thresholds_with, TrainingConfig};

/// One grid cell's estimated probabilities.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig9Cell {
    /// Injected DAC error value (counts).
    pub value: i16,
    /// Activation period (ms).
    pub duration_ms: u64,
    /// P(adverse impact on the physical system).
    pub p_adverse: f64,
    /// P(detected by the dynamic-model detector).
    pub p_model: f64,
    /// P(detected by RAVEN's stock mechanisms).
    pub p_raven: f64,
    /// Repetitions behind the estimates.
    pub repetitions: u32,
}

/// Fig. 9 sweep configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9Config {
    /// Injected DAC error values (counts).
    pub values: Vec<i16>,
    /// Activation periods (ms); the paper sweeps 2–512 ms in powers of two.
    pub durations_ms: Vec<u64>,
    /// Repetitions per cell (paper: ≥20).
    pub repetitions: u32,
    /// Session length per run (ms).
    pub session_ms: u64,
    /// Training protocol for the thresholds.
    pub training: TrainingConfig,
    /// Root seed.
    pub seed: u64,
}

impl Fig9Config {
    /// Paper-scale sweep.
    pub fn paper_scale(seed: u64) -> Self {
        Fig9Config {
            values: vec![2_000, 8_000, 16_000, 24_000, 28_000, 32_000],
            durations_ms: vec![2, 4, 8, 16, 32, 64, 128, 256, 512],
            repetitions: 20,
            session_ms: 2_800,
            training: TrainingConfig { runs: 600, ..TrainingConfig::paper_scale(seed) },
            seed,
        }
    }

    /// Reduced sweep for tests.
    pub fn quick(seed: u64) -> Self {
        Fig9Config {
            values: vec![2_000, 30_000],
            durations_ms: vec![4, 256],
            repetitions: 4,
            session_ms: 2_200,
            training: TrainingConfig { runs: 6, ..TrainingConfig::quick(seed) },
            seed,
        }
    }
}

/// The Fig. 9 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9Result {
    /// All grid cells.
    pub cells: Vec<Fig9Cell>,
    /// Sweep metrics merged in run order (detector counters,
    /// `detector.detection_latency_cycles` histogram). Deterministic for
    /// any worker count.
    pub metrics: Metrics,
}

impl Fig9Result {
    /// Finds a cell.
    pub fn cell(&self, value: i16, duration_ms: u64) -> Option<&Fig9Cell> {
        self.cells.iter().find(|c| c.value == value && c.duration_ms == duration_ms)
    }

    /// Renders the two panels of Fig. 9 as probability tables.
    pub fn render(&self) -> String {
        let mut values: Vec<i16> = self.cells.iter().map(|c| c.value).collect();
        values.sort_unstable();
        values.dedup();
        let mut durations: Vec<u64> = self.cells.iter().map(|c| c.duration_ms).collect();
        durations.sort_unstable();
        durations.dedup();

        let mut out = String::from(
            "FIGURE 9 (reproduced): probabilities vs injected value × activation period\n",
        );
        for (label, pick) in [
            ("P(adverse impact)", 0usize),
            ("P(detect | dynamic model)", 1),
            ("P(detect | RAVEN)", 2),
        ] {
            out.push_str(&format!("\n{label}\n{:>10}", "value\\ms"));
            for d in &durations {
                out.push_str(&format!(" {d:>6}"));
            }
            out.push('\n');
            for v in &values {
                out.push_str(&format!("{v:>10}"));
                for d in &durations {
                    let c = self.cell(*v, *d).expect("complete grid");
                    let p = [c.p_adverse, c.p_model, c.p_raven][pick];
                    out.push_str(&format!(" {p:>6.2}"));
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Runs the Fig. 9 sweep with the default executor (all cores).
pub fn run_fig9(config: &Fig9Config) -> Fig9Result {
    run_fig9_with(config, &ExecutorConfig::default())
}

/// [`run_fig9`] with explicit executor control.
///
/// The whole values × durations × repetitions grid is flattened into one
/// sweep (cell-major, repetition-minor) so workers stay busy across cell
/// boundaries; per-cell counts fold in repetition order, making the grid
/// bit-identical for any worker count.
pub fn run_fig9_with(config: &Fig9Config, exec: &ExecutorConfig) -> Fig9Result {
    let thresholds = train_thresholds_with(&config.training, exec).thresholds;
    let (outcomes, metrics) = grid_rows(config, thresholds, exec);
    // Per-cell counts fold in repetition order.
    let reps = config.repetitions.max(1) as usize;
    let cells = outcomes
        .chunks(reps)
        .enumerate()
        .map(|(cell, runs)| {
            let (value, duration_ms, _) = grid_run(config, cell * reps);
            let count = |pick: fn(&(bool, bool, bool)) -> bool| {
                runs.iter().filter(|r| pick(r)).count() as f64
            };
            let n = f64::from(config.repetitions.max(1));
            Fig9Cell {
                value,
                duration_ms,
                p_adverse: count(|r| r.0) / n,
                p_model: count(|r| r.1) / n,
                p_raven: count(|r| r.2) / n,
                repetitions: config.repetitions,
            }
        })
        .collect();
    Fig9Result { cells, metrics }
}

/// Run `i` of the flattened grid (cell-major, repetition-minor): its
/// (value, duration, repetition).
fn grid_run(config: &Fig9Config, i: usize) -> (i16, u64, u32) {
    let reps = config.repetitions.max(1) as usize;
    let (cell, rep) = (i / reps, i % reps);
    let durations = config.durations_ms.len();
    (config.values[cell / durations], config.durations_ms[cell % durations], rep as u32)
}

/// Run `i`'s seed.
fn seed(config: &Fig9Config, i: usize) -> u64 {
    let (value, duration_ms, rep) = grid_run(config, i);
    derive_seed(config.seed, streams::FIG9.at(&format!("{value}-{duration_ms}-{rep}")))
}

/// Run `i` of the flattened grid: its cell's scenario-B injection, with
/// the detector in shadow mode on `thresholds`.
pub fn spec(config: &Fig9Config, thresholds: DetectionThresholds, i: usize) -> SessionSpec {
    let (value, duration_ms, rep) = grid_run(config, i);
    SessionSpec::new(SimConfig {
        workload: Workload::training_pair()[(rep % 2) as usize],
        session_ms: config.session_ms,
        detector: Some(DetectorSetup::new(Mitigation::Observe, Some(thresholds))),
        ..SimConfig::standard(seed(config, i))
    })
    .with_attack(AttackSetup::ScenarioB {
        dac_delta: value,
        channel: (rep % 3) as usize,
        delay_packets: 250 + u64::from(rep) * 37,
        duration_packets: duration_ms,
    })
}

/// A run's row: (adverse, model detected, RAVEN detected).
fn row(outcome: &SessionOutcome) -> (bool, bool, bool) {
    (outcome.adverse, outcome.model_detected, outcome.raven_detected)
}

/// Every grid run's row in run order, and their metrics merged in run
/// order.
fn grid_rows(
    config: &Fig9Config,
    thresholds: DetectionThresholds,
    exec: &ExecutorConfig,
) -> (Vec<(bool, bool, bool)>, Metrics) {
    let cells = config.values.len() * config.durations_ms.len();
    let mut rows = Vec::new();
    let metrics = run_sweep(
        "fig9",
        cells * config.repetitions as usize,
        exec,
        |i| seed(config, i),
        |i, _seed, metrics| {
            let run = run_spec(&spec(config, thresholds, i), |_| {}).expect_booted();
            metrics.merge(&run.sim.observer().metrics);
            row(&run.outcome)
        },
        |_, row| rows.push(row),
    )
    .expect_all("fig9 sweep")
    .metrics;
    (rows, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbus::obs::names;

    #[test]
    fn corner_cells_show_the_paper_shape() {
        let r = run_fig9(&Fig9Config::quick(21));
        assert_eq!(r.cells.len(), 4);
        let small_short = r.cell(2_000, 4).unwrap();
        let big_long = r.cell(30_000, 256).unwrap();
        // Small, short injections are absorbed by the PID loop (§IV.B
        // observation 1): no adverse impact.
        assert_eq!(
            small_short.p_adverse, 0.0,
            "2000 counts for 4 ms must be harmless: {small_short:?}"
        );
        // Large, long injections hurt and are detected by the model.
        assert!(big_long.p_adverse > 0.5, "{big_long:?}");
        assert!(big_long.p_model >= big_long.p_raven, "{big_long:?}");
        assert!(big_long.p_model > 0.5, "{big_long:?}");
        let render = r.render();
        assert!(render.contains("P(adverse impact)"));
        // The merged sweep metrics carry one detection-latency
        // observation per model-detected run.
        let detected: f64 = r.cells.iter().map(|c| c.p_model * f64::from(c.repetitions)).sum();
        let latency = r
            .metrics
            .histogram(names::DETECTOR_DETECTION_LATENCY_CYCLES)
            .expect("fig9 metrics must aggregate detection latency");
        assert_eq!(latency.count, detected.round() as u64);
    }

    #[test]
    fn golden_rows_replay_alone_from_config_and_index() {
        // The reduced sweep of tests/golden_artifacts.rs.
        let cfg = Fig9Config {
            values: vec![30_000],
            durations_ms: vec![4, 128],
            repetitions: 2,
            session_ms: 1_500,
            training: TrainingConfig { runs: 4, ..TrainingConfig::quick(5) },
            seed: 5,
        };
        let exec = ExecutorConfig::with_workers(2);
        let thresholds = train_thresholds_with(&cfg.training, &exec).thresholds;
        let (rows, _) = grid_rows(&cfg, thresholds, &exec);
        // A replay knows only the config: it retrains, serially.
        let replayed = train_thresholds_with(&cfg.training, &ExecutorConfig::serial()).thresholds;
        let reps = cfg.repetitions as usize;
        // One run from each cell, a different repetition in each.
        for cell in 0..rows.len() / reps {
            let i = cell * reps + cell % reps;
            let alone = run_spec(&spec(&cfg, replayed, i), |_| {}).expect_booted();
            assert_eq!(row(&alone.outcome), rows[i], "grid run {i}");
        }
    }
}
