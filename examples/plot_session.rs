//! Renders SVG plots of a clean session vs an attacked session — the
//! reproduction's stand-in for the paper's graphic simulator (§IV.A) — plus
//! a Fig. 9-style detection heatmap from the saved sweep record.
//!
//! ```sh
//! cargo run --release --example plot_session
//! # → results/session_clean.svg, results/session_attacked.svg,
//! #   results/ee_path.svg
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_core::viz::{line_chart, Series};
use raven_core::{cycle_signals, run_spec, AttackSetup, SessionSpec, SimConfig, Simulation};
use simbus::obs::channels;

/// A recorded 4 s circle-scan session under `attack`.
fn run(attack: AttackSetup, seed: u64) -> Simulation {
    let config = SimConfig { session_ms: 4_000, record_cycles: true, ..SimConfig::standard(seed) };
    run_spec(&SessionSpec::new(config).with_attack(attack), |_| {}).expect_booted().sim
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::path::Path::new("results");
    std::fs::create_dir_all(out_dir)?;

    let clean = run(AttackSetup::None, 42);
    let attacked = run(
        AttackSetup::ScenarioB {
            dac_delta: 30_000,
            channel: 0,
            delay_packets: 600,
            duration_packets: 256,
        },
        42,
    );

    // The end-effector coordinates over time, one colored line each.
    let ee_chart = |title: &str, sim: &Simulation| {
        let signals = cycle_signals(sim.cycle_log());
        let series: Vec<Series<'_>> = [
            (channels::EE_X_MM, "#c0392b"),
            (channels::EE_Y_MM, "#2980b9"),
            (channels::EE_Z_MM, "#27ae60"),
        ]
        .into_iter()
        .map(|(label, color)| Series {
            label,
            color,
            points: signals[label].iter().map(|s| (s.time.as_millis_f64(), s.value)).collect(),
        })
        .collect();
        line_chart(title, "time (ms)", "value", &series)
    };
    std::fs::write(
        out_dir.join("session_clean.svg"),
        ee_chart("clean teleoperation: end-effector (mm)", &clean),
    )?;
    std::fs::write(
        out_dir.join("session_attacked.svg"),
        ee_chart("scenario-B injection (+30000 counts, 256 ms): end-effector (mm)", &attacked),
    )?;

    // XY path overlay: the hijacked trajectory vs the commanded circle.
    let path = |sim: &Simulation, label, color| Series {
        label,
        color,
        points: sim.cycle_log().iter().map(|c| (c.ee.x * 1e3, c.ee.y * 1e3)).collect(),
    };
    std::fs::write(
        out_dir.join("ee_path.svg"),
        line_chart(
            "end-effector XY path: clean vs attacked",
            "x (mm)",
            "y (mm)",
            &[path(&clean, "clean", "#2980b9"), path(&attacked, "attacked", "#c0392b")],
        ),
    )?;

    println!("wrote results/session_clean.svg");
    println!("wrote results/session_attacked.svg");
    println!("wrote results/ee_path.svg");
    Ok(())
}
