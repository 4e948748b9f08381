//! Regenerates Figure 9: P(adverse impact), P(detect | dynamic model), and
//! P(detect | RAVEN) over the injected-error-value × activation-period grid
//! (scenario B, ≥20 repetitions per cell).
//!
//! ```sh
//! cargo bench -p bench --bench fig9_sweep
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![expect(
    clippy::disallowed_methods,
    reason = "benches measure wall time by definition; bench JSON is a sidecar artifact, never merged into results byte-identity checks"
)]

use raven_core::experiments::{run_fig9, Fig9Config};
use raven_core::{run_spec, SessionSpec, SimConfig, Simulation};

fn main() {
    let started = std::time::Instant::now();
    let config =
        if bench::quick_mode() { Fig9Config::quick(21) } else { Fig9Config::paper_scale(21) };
    let result = run_fig9(&config);
    print!("{}", result.render());
    println!(
        "\nreproduced claims: probabilities grow with value and duration; small/short \
         injections are absorbed by the PID loop (paper §IV.B); the model's detection \
         curve dominates RAVEN's. elapsed: {:.1} s",
        started.elapsed().as_secs_f64()
    );
    // The paper's "RAVEN detects at or below the adverse-impact
    // probability", checked cell by cell rather than claimed.
    let above: Vec<_> = result.cells.iter().filter(|c| c.p_raven > c.p_adverse).collect();
    println!("P(detect | RAVEN) > P(adverse) in {} of {} cells", above.len(), result.cells.len());
    for c in above {
        println!("  {} × {} ms: {:.2} > {:.2}", c.value, c.duration_ms, c.p_raven, c.p_adverse);
    }
    bench::save_json("fig9_sweep", &result);

    // Heatmap SVGs, one per panel.
    let mut values: Vec<i16> = result.cells.iter().map(|c| c.value).collect();
    values.sort_unstable();
    values.dedup();
    let mut durations: Vec<u64> = result.cells.iter().map(|c| c.duration_ms).collect();
    durations.sort_unstable();
    durations.dedup();
    let cols: Vec<String> = durations.iter().map(|d| format!("{d}ms")).collect();
    std::fs::create_dir_all(bench::results_dir()).expect("results dir");
    for (name, title, pick) in [
        ("fig9_adverse", "P(adverse impact)", 0usize),
        ("fig9_model", "P(detect | dynamic model)", 1),
        ("fig9_raven", "P(detect | RAVEN)", 2),
    ] {
        let rows: Vec<(String, Vec<f64>)> = values
            .iter()
            .map(|v| {
                let row = durations
                    .iter()
                    .map(|d| {
                        let c = result.cell(*v, *d).expect("complete grid");
                        [c.p_adverse, c.p_model, c.p_raven][pick]
                    })
                    .collect();
                (format!("{v}"), row)
            })
            .collect();
        let svg = raven_core::viz::heatmap(title, &cols, &rows);
        let path = bench::results_dir().join(format!("{name}.svg"));
        std::fs::write(&path, svg).expect("write heatmap");
        println!("[saved {}]", path.display());
    }

    // Shape checks on the corners.
    let mut values: Vec<i16> = result.cells.iter().map(|c| c.value).collect();
    values.sort_unstable();
    let mut durations: Vec<u64> = result.cells.iter().map(|c| c.duration_ms).collect();
    durations.sort_unstable();
    let (vmin, vmax) = (values[0], *values.last().unwrap());
    let (dmin, dmax) = (durations[0], *durations.last().unwrap());
    let small_short = result.cell(vmin, dmin).unwrap();
    let big_long = result.cell(vmax, dmax).unwrap();
    assert!(small_short.p_adverse <= 0.1, "small/short must be harmless");
    assert!(big_long.p_adverse >= 0.5, "big/long must hurt");
    assert!(big_long.p_model >= big_long.p_raven, "model dominates RAVEN");

    // Stage-timing sidecar: one representative full session, traced.
    // Wall-clock output, so it goes through save_profile_stats (gitignored),
    // never into the deterministic fig9_sweep.json record above.
    let spec = SessionSpec::new(SimConfig::standard(21));
    let sim = run_spec(&spec, Simulation::enable_span_recorder).expect_booted().sim;
    sim.spans().finish();
    assert_eq!(sim.spans().dropped(), 0, "span cap hit: the profile would be partial");
    bench::save_profile_stats("fig9_sweep", &sim.spans().stage_stats());
}
