//! Regenerates Table IV: detection performance (ACC/TPR/FPR/F1) of the
//! dynamic-model detector vs the stock RAVEN mechanisms, scenarios A and B,
//! plus the alarm-fusion and threshold-percentile ablations called out in
//! DESIGN.md §5.
//!
//! ```sh
//! cargo bench -p bench --bench table4_detection
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![expect(
    clippy::disallowed_methods,
    reason = "benches measure wall time by definition; bench JSON is a sidecar artifact, never merged into results byte-identity checks"
)]

use raven_core::experiments::{run_table4, Table4Config};
use raven_core::training::TrainingConfig;
use raven_core::{run_spec, SessionSpec, SimConfig, Simulation};

fn main() {
    let started = std::time::Instant::now();
    let config = if bench::quick_mode() {
        Table4Config::quick(9)
    } else {
        // Paper scale: 1,925 scenario-A runs, 1,361 scenario-B runs,
        // thresholds from 600 fault-free runs.
        Table4Config::paper_scale(9)
    };
    let result = run_table4(&config);
    print!("{}", result.render());
    println!(
        "paper: A — model 88.0/89.8/12.4/74.8, RAVEN 84.6/53.3/7.7/57.8; \
         B — model 92.0/99.8/11.8/89.1, RAVEN 90.7/81.0/4.6/85.1 (ACC/TPR/FPR/F1 %)"
    );
    println!("elapsed: {:.1} s", started.elapsed().as_secs_f64());
    bench::save_json("table4_detection", &result);

    // Ablation: threshold percentile sensitivity (DESIGN.md §5.3) on a
    // reduced grid.
    println!("\nABLATION: threshold percentile band (scenario B, reduced grid)");
    for band in [(95.0, 96.0), (99.0, 99.1), (99.8, 99.9), (99.99, 100.0)] {
        let cfg = Table4Config {
            scenario_a_runs: 0,
            scenario_b_runs: 60,
            training: TrainingConfig {
                runs: 24,
                percentile_band: band,
                ..TrainingConfig::quick(9)
            },
            ..Table4Config::quick(9)
        };
        let r = run_table4(&cfg);
        let b = &r.scenarios[1];
        println!(
            "  band {:>6.2}–{:<6.2}: model ACC {:>5.1} TPR {:>5.1} FPR {:>5.1}",
            band.0, band.1, b.dynamic_model.acc, b.dynamic_model.tpr, b.dynamic_model.fpr
        );
    }

    for s in &result.scenarios {
        assert!(
            s.dynamic_model.tpr >= s.raven.tpr,
            "{}: the dynamic model must not trail RAVEN on TPR",
            s.scenario
        );
    }

    // Stage-timing sidecar: one representative full session, traced.
    // Wall-clock output, so it goes through save_profile_stats (gitignored),
    // never into the deterministic table4_detection.json record above.
    let spec = SessionSpec::new(SimConfig::standard(9));
    let sim = run_spec(&spec, Simulation::enable_span_recorder).expect_booted().sim;
    sim.spans().finish();
    assert_eq!(sim.spans().dropped(), 0, "span cap hit: the profile would be partial");
    bench::save_profile_stats("table4_detection", &sim.spans().stage_stats());
}
