//! The experiment index: one row per sealed artifact of the paper's
//! evaluation (DESIGN.md §4), grouped under the `raven-sim` command that
//! runs it. A row holds its sealed seed, its quick and paper sizes (one
//! [`Scale::pick`] in its run), the files it produces and the shape checks
//! the sealed record is read against. Three callers share it:
//! `raven-sim artifacts` regenerates `results/` from every sealed row at
//! paper scale, `raven-sim <command>` runs one group, and
//! `raven-sim profile <command>` runs a group under the sweep tracer.
//!
//! A sealed record is a pure function of the code and its seed. Every
//! wall-clock number a row reads (Table II's write times, Fig. 8's step
//! times, the BITW crypto cost, and the Table IV and Fig. 9 stage
//! profiles) goes to the row's sidecar, `results/profile_<name>.json`,
//! which `.gitignore` and the manifest leave unsealed.

use serde::Serialize;
use simbus::obs::Metrics;

use crate::campaign::executor::ExecutorConfig;
use crate::session::{run_spec, SessionSpec};
use crate::sim::{DetectorSetup, SimConfig, Simulation};
use crate::training::TrainingConfig;
use crate::viz;

use super::fig8::ms_per_step;
use super::{
    run_bitw_study_with, run_chaos_study_with, run_fig5, run_fig6, run_fig8, run_fig9_with,
    run_fusion_ablation_with, run_hardened_board_with, run_lookahead_ablation_with,
    run_mitigation_ablation_with, run_network_study, run_table1, run_table2, run_table4_with,
    ChaosStudyConfig, Fig9Config, Table4Config,
};

/// Which of a row's two sizes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per row: smoke checks and the CLI default.
    Quick,
    /// The sizes of the sealed `results/` set.
    Paper,
}

impl Scale {
    /// `quick` or `paper`, by scale.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

/// What one row's run produced.
#[derive(Debug, Clone)]
pub struct Produced {
    /// The result's render. At paper scale it is followed by the paper's
    /// reference numbers and the computed cross-checks the sealed record
    /// is read against.
    pub text: String,
    /// The deterministic record as pretty JSON, sealed as
    /// `results/<name>.json` (`None` for a row that measures only wall
    /// time).
    pub record: Option<String>,
    /// The run's wall-clock readings as pretty JSON, written beside the
    /// record as the unsealed `results/profile_<name>.json`.
    pub sidecar: Option<String>,
    /// Figures sealed beside the record, as (file name, SVG).
    pub figures: Vec<(String, String)>,
    /// The shape checks that failed, by name (empty when all hold).
    pub failures: Vec<String>,
    /// Sweep metrics merged in run order (empty for the rows that run no
    /// sweep).
    pub metrics: Metrics,
}

/// Pretty JSON of a record or of wall-clock readings.
fn pretty(value: &impl Serialize) -> String {
    serde_json::to_string_pretty(value).expect("serialize experiment output")
}

impl Produced {
    /// A run's text and sealed record.
    fn new(text: String, record: &impl Serialize) -> Self {
        Produced { record: Some(pretty(record)), ..Produced::unrecorded(text) }
    }

    /// A run's text with no sealed record.
    fn unrecorded(text: String) -> Self {
        Produced {
            text,
            record: None,
            sidecar: None,
            figures: Vec::new(),
            failures: Vec::new(),
            metrics: Metrics::new(),
        }
    }

    /// Sets the run's merged sweep metrics.
    fn metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Sets the run's wall-clock readings, its sidecar.
    fn sidecar(mut self, readings: &impl Serialize) -> Self {
        self.sidecar = Some(pretty(readings));
        self
    }

    /// At paper scale, makes the wall-clock stage profile of one
    /// [`representative_session`] the sidecar, failing a check when the
    /// span cap cut it short.
    fn stage_profile(self, scale: Scale, seed: u64) -> Self {
        if scale == Scale::Quick {
            return self;
        }
        let sim = representative_session(seed);
        self.sidecar(&sim.spans().stage_stats())
            .check(sim.spans().dropped() == 0, "span cap hit: the stage profile would be partial")
    }

    /// Records `name` as failed unless `holds`.
    fn check(mut self, holds: bool, name: impl Into<String>) -> Self {
        if !holds {
            self.failures.push(name.into());
        }
        self
    }

    /// Appends `notes` to the text at paper scale.
    fn paper_notes(mut self, scale: Scale, notes: impl FnOnce() -> String) -> Self {
        if scale == Scale::Paper {
            self.text.push_str(&notes());
        }
        self
    }
}

/// One row of the index.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The `raven-sim` command whose group holds this row.
    pub command: &'static str,
    /// The record's stem: the row's sealed files are `results/<name>.json`
    /// plus its figures, and its sidecar is `results/profile_<name>.json`.
    pub name: &'static str,
    /// Whether `raven-sim artifacts` regenerates this row: `results/` seals
    /// its record and figures, and its shape checks gate the set.
    pub sealed: bool,
    /// The sealed root seed; `None` for a row that takes no seed.
    pub seed: Option<u64>,
    /// Whether the row runs its sessions on the campaign executor.
    pub sweep: bool,
    /// Runs the row at a seed (0 for a row that takes none) and a scale.
    pub run: Run,
}

/// A row's run: seed, scale and executor in, [`Produced`] out.
pub type Run = fn(u64, Scale, &ExecutorConfig) -> Produced;

/// A sealed row that runs outside the executor.
const fn row(command: &'static str, name: &'static str, seed: Option<u64>, run: Run) -> Experiment {
    Experiment { command, name, sealed: true, seed, sweep: false, run }
}

impl Experiment {
    const fn sweep(self) -> Self {
        Experiment { sweep: true, ..self }
    }

    const fn unsealed(self) -> Self {
        Experiment { sealed: false, ..self }
    }

    /// The row's files for `results/`: its record and figures, then its
    /// sidecar, the one file named `profile_*`.
    pub fn files<'a>(&self, produced: &'a Produced) -> Vec<(String, &'a str)> {
        let record = produced.record.iter().map(|r| (format!("{}.json", self.name), r.as_str()));
        let figures = produced.figures.iter().map(|(name, svg)| (name.clone(), svg.as_str()));
        let sidecar =
            produced.sidecar.iter().map(|s| (format!("profile_{}.json", self.name), s.as_str()));
        record.chain(figures).chain(sidecar).collect()
    }
}

/// Every row, in the order `raven-sim artifacts` regenerates them.
pub const EXPERIMENTS: &[Experiment] = &[
    row("table1", "table1_variants", Some(31), table1),
    row("table2", "table2_overhead", None, table2),
    row("table4", "table4_detection", Some(9), table4).sweep(),
    row("fig5", "fig5_packet_bytes", Some(3), fig5),
    row("fig6", "fig6_state_inference", Some(5), fig6),
    row("fig8", "fig8_model_validation", Some(42), fig8),
    row("fig9", "fig9_sweep", Some(21), fig9).sweep(),
    row("ablations", "ablation_fusion", Some(41), fusion).sweep(),
    row("ablations", "ablation_mitigation", Some(43), mitigation).sweep(),
    row("ablations", "ablation_hardened_board", Some(45), hardened_board).sweep(),
    row("ablations", "ablation_bitw", Some(47), bitw).sweep(),
    row("ablations", "ablation_lookahead", Some(49), lookahead).sweep(),
    row("ablations", "study_network", Some(53), network),
    row("chaos", "chaos_study", Some(42), chaos).sweep().unsealed(),
];

/// The rows of one `raven-sim` command, in index order (empty for a name
/// that is no command of the index).
pub fn group(command: &str) -> Vec<&'static Experiment> {
    EXPERIMENTS.iter().filter(|e| e.command == command).collect()
}

/// The session whose spans stand for a sweep's per-stage cost: one full
/// guarded session (learning-mode detector), recorded by the span
/// recorder, which is finished on return. `raven-sim profile` prints its
/// stage percentiles, and at paper scale the Table IV and Fig. 9 rows make
/// them their sidecars; the sweeps' own runs stay untraced, since per-run
/// span recording would serialize the pool on one recorder.
pub fn representative_session(seed: u64) -> Simulation {
    let spec = SessionSpec::new(SimConfig {
        detector: Some(DetectorSetup::default()),
        ..SimConfig::standard(seed)
    });
    let sim = run_spec(&spec, Simulation::enable_span_recorder).expect_booted().sim;
    sim.spans().finish();
    sim
}

fn table1(seed: u64, scale: Scale, _exec: &ExecutorConfig) -> Produced {
    let result = run_table1(seed);
    let matching = result.matching_rows();
    Produced::new(result.render(), &result)
        .paper_notes(scale, || {
            format!(
                "{matching}/{} variants reproduce the paper's impact class\n",
                result.rows.len()
            )
        })
        .check(matching == result.rows.len(), "all Table I variants must reproduce")
}

fn table2(_seed: u64, scale: Scale, _exec: &ExecutorConfig) -> Produced {
    let result = run_table2(50_000);
    let [base, logging, injection] = [0, 1, 2].map(|i| result.rows[i].mean_us);
    Produced::unrecorded(result.render())
        .sidecar(&result)
        .paper_notes(scale, || {
            "paper (µs, on real hardware): baseline 1.3 | logging 20.0 | injection 3.6 — \
             absolute values differ (no kernel crossing here)\n"
                .to_string()
        })
        .check(logging > injection && injection >= base, "overhead ordering must hold")
        .check(logging < 1_000.0, "well under the 1 ms real-time budget")
}

fn table4(seed: u64, scale: Scale, exec: &ExecutorConfig) -> Produced {
    // Paper scale: 1,925 scenario-A runs, 1,361 scenario-B runs,
    // thresholds from 600 fault-free runs.
    let config = scale.pick(Table4Config::quick(seed), Table4Config::paper_scale(seed));
    let result = run_table4_with(&config, exec);
    let mut produced = Produced::new(result.render(), &result).paper_notes(scale, || {
        "paper: A — model 88.0/89.8/12.4/74.8, RAVEN 84.6/53.3/7.7/57.8; \
         B — model 92.0/99.8/11.8/89.1, RAVEN 90.7/81.0/4.6/85.1 (ACC/TPR/FPR/F1 %)\n"
            .to_string()
            + &threshold_bands(seed, exec)
    });
    produced = produced.stage_profile(scale, seed);
    for s in &result.scenarios {
        produced = produced.check(
            s.dynamic_model.tpr >= s.raven.tpr,
            format!("{}: the dynamic model must not trail RAVEN on TPR", s.scenario),
        );
    }
    produced.metrics(result.metrics)
}

/// Threshold percentile sensitivity (DESIGN.md §5.3): scenario B on a
/// reduced grid, once per training band. No sealed file holds it.
fn threshold_bands(seed: u64, exec: &ExecutorConfig) -> String {
    let mut out =
        String::from("\nABLATION: threshold percentile band (scenario B, reduced grid)\n");
    for band in [(95.0, 96.0), (99.0, 99.1), (99.8, 99.9), (99.99, 100.0)] {
        let config = Table4Config {
            scenario_a_runs: 0,
            scenario_b_runs: 60,
            training: TrainingConfig {
                runs: 24,
                percentile_band: band,
                ..TrainingConfig::quick(seed)
            },
            ..Table4Config::quick(seed)
        };
        let b = &run_table4_with(&config, exec).scenarios[1].dynamic_model;
        out.push_str(&format!(
            "  band {:>6.2}–{:<6.2}: model ACC {:>5.1} TPR {:>5.1} FPR {:>5.1}\n",
            band.0, band.1, b.acc, b.tpr, b.fpr
        ));
    }
    out
}

fn fig5(seed: u64, scale: Scale, _exec: &ExecutorConfig) -> Produced {
    let result = run_fig5(seed, scale.pick(4_000, 8_000));
    Produced::new(result.render(), &result)
        .check(result.byte0_values.len() == 8, "Byte 0 must take 8 values (Fig. 5(c))")
        .check(result.watchdog_mask == Some(0x10), "bit 4 is the watchdog")
        .check(result.byte0_values_masked.len() == 4, "4 states after masking")
}

fn fig6(seed: u64, _scale: Scale, _exec: &ExecutorConfig) -> Produced {
    let result = run_fig6(seed);
    Produced::new(result.render(), &result)
        .check(result.correct_runs() == 9, "all nine state machines must be recoverable")
}

fn fig8(seed: u64, scale: Scale, _exec: &ExecutorConfig) -> Produced {
    let (runs, session_ms) = scale.pick((3, 2_500), (10, 5_000));
    let (result, times) = run_fig8(seed, runs, session_ms, 0.02);
    // The plotted half of Fig. 8: model vs robot joint trajectories.
    let series = |label, color, pick: fn(&super::fig8::OverlayPoint) -> (f64, f64)| viz::Series {
        label,
        color,
        points: result.overlay.iter().map(pick).collect(),
    };
    let overlay = viz::line_chart(
        "Fig. 8 overlay: joint 2 (elbow) — robot vs Euler model",
        "time (ms)",
        "jpos2 (rad)",
        &[
            series("robot", "#c0392b", |p| (p.t_ms, p.truth_jpos[1])),
            series("model (Euler)", "#2980b9", |p| (p.t_ms, p.model_jpos[1])),
        ],
    );
    let (euler, rk4) = (ms_per_step(&times, "Euler"), ms_per_step(&times, "Runge"));
    let mut produced = Produced::new(result.render(&times), &result)
        .sidecar(&times)
        .paper_notes(scale, || {
            "paper: RK4 0.032 ms/step, Euler 0.011 ms/step; jpos errors ~1–2% of motion\n"
                .to_string()
        })
        .check(euler.zip(rk4).is_some_and(|(e, r)| e < r), "Euler is cheaper per step than RK4")
        .check(rk4.is_some_and(|t| t < 1.0), "inside the control budget");
    produced.figures.push(("fig8_overlay.svg".to_string(), overlay));
    produced
}

fn fig9(seed: u64, scale: Scale, exec: &ExecutorConfig) -> Produced {
    let config = scale.pick(Fig9Config::quick(seed), Fig9Config::paper_scale(seed));
    let result = run_fig9_with(&config, exec);
    let (mut values, mut durations) = (config.values, config.durations_ms);
    values.sort_unstable();
    durations.sort_unstable();

    // The paper's "RAVEN detects at or below the adverse-impact
    // probability", checked cell by cell rather than claimed.
    let mut produced = Produced::new(result.render(), &result).paper_notes(scale, || {
        let above: Vec<_> = result.cells.iter().filter(|c| c.p_raven > c.p_adverse).collect();
        let mut notes = format!(
            "P(detect | RAVEN) > P(adverse) in {} of {} cells\n",
            above.len(),
            result.cells.len()
        );
        for c in above {
            notes += &format!(
                "  {} × {} ms: {:.2} > {:.2}\n",
                c.value, c.duration_ms, c.p_raven, c.p_adverse
            );
        }
        notes
    });
    produced = produced.stage_profile(scale, seed);

    // One heatmap per panel: a row per value, a column per duration.
    let cols: Vec<String> = durations.iter().map(|d| format!("{d}ms")).collect();
    for (name, title, pick) in [
        ("fig9_adverse", "P(adverse impact)", 0usize),
        ("fig9_model", "P(detect | dynamic model)", 1),
        ("fig9_raven", "P(detect | RAVEN)", 2),
    ] {
        let rows: Vec<(String, Vec<f64>)> = values
            .iter()
            .map(|&v| {
                let cells = durations.iter().map(|&d| result.cell(v, d).expect("complete grid"));
                (v.to_string(), cells.map(|c| [c.p_adverse, c.p_model, c.p_raven][pick]).collect())
            })
            .collect();
        produced.figures.push((format!("{name}.svg"), viz::heatmap(title, &cols, &rows)));
    }

    // Shape checks on the corners.
    let corner = |v: Option<&i16>, d: Option<&u64>| result.cell(*v?, *d?);
    let small_short = corner(values.first(), durations.first());
    let big_long = corner(values.last(), durations.last());
    produced
        .check(small_short.is_some_and(|c| c.p_adverse <= 0.1), "small/short must be harmless")
        .check(big_long.is_some_and(|c| c.p_adverse >= 0.5), "big/long must hurt")
        .check(big_long.is_some_and(|c| c.p_model >= c.p_raven), "model dominates RAVEN")
        .metrics(result.metrics)
}

fn fusion(seed: u64, scale: Scale, exec: &ExecutorConfig) -> Produced {
    let (result, metrics) = run_fusion_ablation_with(seed, scale.pick(12, 80), exec);
    Produced::new(result.render(), &result)
        .check(result.rows[0].fpr <= result.rows[1].fpr, "fusion reduces false alarms")
        .metrics(metrics)
}

fn mitigation(seed: u64, scale: Scale, exec: &ExecutorConfig) -> Produced {
    let (result, metrics) = run_mitigation_ablation_with(seed, scale.pick(6, 20), exec);
    Produced::new(result.render(), &result)
        .check(
            result.rows[1].survived_rate >= result.rows[2].survived_rate,
            "hold preserves availability at least as well as E-STOP",
        )
        .metrics(metrics)
}

fn hardened_board(seed: u64, _scale: Scale, exec: &ExecutorConfig) -> Produced {
    let (result, metrics) = run_hardened_board_with(seed, exec);
    Produced::new(result.render(), &result)
        .check(
            !result.b_adverse && result.a_still_effective,
            "the checksum board stops B but not A",
        )
        .metrics(metrics)
}

fn bitw(seed: u64, _scale: Scale, exec: &ExecutorConfig) -> Produced {
    let (result, cost, metrics) = run_bitw_study_with(seed, exec);
    Produced::new(result.render(cost), &result)
        .sidecar(&cost)
        .check(
            result.rows[1].adverse && !result.rows[2].adverse,
            "wire placement useless, host placement degrades the attack to DoS",
        )
        .metrics(metrics)
}

fn lookahead(seed: u64, scale: Scale, exec: &ExecutorConfig) -> Produced {
    let (result, metrics) = run_lookahead_ablation_with(seed, scale.pick(12, 30), exec);
    Produced::new(result.render(), &result).metrics(metrics)
}

fn network(seed: u64, _scale: Scale, _exec: &ExecutorConfig) -> Produced {
    let result = run_network_study(seed);
    Produced::new(result.render(), &result)
}

fn chaos(seed: u64, scale: Scale, exec: &ExecutorConfig) -> Produced {
    let config = scale.pick(ChaosStudyConfig::quick(seed), ChaosStudyConfig::paper_scale(seed));
    let result = run_chaos_study_with(&config, exec);
    Produced::new(result.render(), &result).metrics(result.metrics)
}
