//! Regenerates Figure 8: dynamic-model validation — RK4 vs Euler time/step
//! and motor/joint trajectory errors over 10 paired runs.
//!
//! ```sh
//! cargo bench -p bench --bench fig8_model_validation
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_core::experiments::run_fig8;

fn main() {
    let (runs, session_ms) = if bench::quick_mode() { (2, 2_000) } else { (10, 5_000) };
    let result = run_fig8(42, runs, session_ms, 0.02);
    print!("{}", result.render());
    println!(
        "paper: RK4 0.032 ms/step, Euler 0.011 ms/step; jpos errors ~1–2% of motion. \
         Reproduced claim: Euler is markedly cheaper with comparable error, both \
         within the 1 ms budget."
    );
    bench::save_json("fig8_model_validation", &result);

    // The plotted half of Fig. 8: model vs robot joint trajectories.
    let mk = |f: fn(&raven_core::experiments::fig8::OverlayPoint) -> (f64, f64),
              label: &'static str,
              color: &'static str| raven_core::viz::Series {
        label,
        color,
        points: result.overlay.iter().map(f).collect(),
    };
    let svg = raven_core::viz::line_chart(
        "Fig. 8 overlay: joint 2 (elbow) — robot vs Euler model",
        "time (ms)",
        "jpos2 (rad)",
        &[
            mk(|p| (p.t_ms, p.truth_jpos[1]), "robot", "#c0392b"),
            mk(|p| (p.t_ms, p.model_jpos[1]), "model (Euler)", "#2980b9"),
        ],
    );
    let path = bench::results_dir().join("fig8_overlay.svg");
    std::fs::create_dir_all(bench::results_dir()).expect("results dir");
    std::fs::write(&path, svg).expect("write overlay svg");
    println!("[saved {}]", path.display());

    let euler = result.row("Euler").expect("euler row");
    let rk4 = result.row("Runge").expect("rk4 row");
    assert!(euler.avg_time_ms_per_step < rk4.avg_time_ms_per_step);
    assert!(rk4.avg_time_ms_per_step < 1.0, "inside the control budget");
}
