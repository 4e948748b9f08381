//! Golden-artifact guard: reduced-scale runs of every experiment that
//! drives full sessions (Tables I and IV, Fig. 9, the ablations, the BITW
//! and network studies, Figs. 5, 6 and 8) must serialize byte-identically to
//! the checked-in fixtures under `tests/fixtures/`. The three runs whose
//! sealed size is already this cheap (Fig. 6, the hardened board, the BITW
//! study) are pinned against their sealed `results/` record instead, at
//! their index row's seed. Any change to the simulation, the detector, the
//! training protocol, or the campaign merge order shows up here as a
//! fixture diff — reviewed deliberately, never silently.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! RAVEN_UPDATE_GOLDEN=1 cargo test --test golden_artifacts
//! ```

use raven_core::experiments::index::EXPERIMENTS;
use raven_core::experiments::{
    run_bitw_study_with, run_fig5, run_fig6, run_fig8, run_fig9_with, run_fusion_ablation_with,
    run_hardened_board_with, run_lookahead_ablation_with, run_mitigation_ablation_with,
    run_network_study, run_table1, run_table4_with, table4, Fig9Config, Table4Config,
};
use raven_core::training::{train_thresholds_with, TrainingConfig};
use raven_core::{run_standalone, ExecutorConfig};
use raven_verify::{for_oracles, run_oracles, Expectations};
use serde::Serialize;
use std::path::PathBuf;

/// Reduced Table IV protocol: small enough for tier-1, real enough to
/// exercise training, both scenarios, and the metric merge.
fn golden_table4() -> Table4Config {
    Table4Config {
        scenario_a_runs: 6,
        scenario_b_runs: 6,
        session_ms: 1_500,
        training: TrainingConfig { runs: 4, ..TrainingConfig::quick(5) },
        ..Table4Config::quick(5)
    }
}

/// Reduced Fig. 9 sweep: one hot value, two durations.
fn golden_fig9() -> Fig9Config {
    Fig9Config {
        values: vec![30_000],
        durations_ms: vec![4, 128],
        repetitions: 2,
        session_ms: 1_500,
        training: TrainingConfig { runs: 4, ..TrainingConfig::quick(5) },
        seed: 5,
    }
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Compares `actual` against the named fixture, or rewrites the fixture
/// when `RAVEN_UPDATE_GOLDEN=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("RAVEN_UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with RAVEN_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from the checked-in golden fixture; if the change is \
         intentional, regenerate with RAVEN_UPDATE_GOLDEN=1 and review the diff"
    );
}

/// Runs `run` at the sealed seed of the index row `name` and compares the
/// output with the row's sealed record, `results/<name>.json`, which
/// `raven-sim artifacts` regenerates.
fn assert_sealed(name: &str, run: impl FnOnce(u64) -> String) {
    let row = EXPERIMENTS.iter().find(|e| e.name == name).expect("an index row");
    let actual = run(row.seed.expect("a seeded row"));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("results/{name}.json"));
    let sealed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        actual, sealed,
        "{name} drifted from its sealed record; if the change is intentional, \
         regenerate results/ with `raven-sim artifacts` and review the diff"
    );
}

/// Pretty JSON of an experiment result (the fixture format).
fn pretty(result: &impl Serialize) -> String {
    serde_json::to_string_pretty(result).expect("serialize experiment result")
}

#[test]
fn table1_matches_golden_fixture() {
    assert_golden("golden_table1.json", &pretty(&run_table1(5)));
}

#[test]
fn table4_matches_golden_fixture() {
    let result = run_table4_with(&golden_table4(), &ExecutorConfig::serial());
    let json = serde_json::to_string_pretty(&result).expect("serialize table4");
    assert_golden("golden_table4.json", &json);

    // The same protocol on two workers must reproduce the fixture too:
    // the guard also pins worker-count independence at golden scale.
    let parallel = run_table4_with(&golden_table4(), &ExecutorConfig::with_workers(2));
    let parallel_json = serde_json::to_string_pretty(&parallel).expect("serialize table4");
    assert_eq!(json, parallel_json, "table4 golden run diverged at workers=2");
}

#[test]
fn fig9_matches_golden_fixture() {
    let result = run_fig9_with(&golden_fig9(), &ExecutorConfig::serial());
    let json = serde_json::to_string_pretty(&result).expect("serialize fig9");
    assert_golden("golden_fig9.json", &json);

    let parallel = run_fig9_with(&golden_fig9(), &ExecutorConfig::with_workers(2));
    let parallel_json = serde_json::to_string_pretty(&parallel).expect("serialize fig9");
    assert_eq!(json, parallel_json, "fig9 golden run diverged at workers=2");
}

#[test]
fn ablations_match_golden_fixtures() {
    let exec = ExecutorConfig::with_workers(2);
    assert_golden("golden_fusion.json", &pretty(&run_fusion_ablation_with(5, 4, &exec).0));
    assert_golden("golden_mitigation.json", &pretty(&run_mitigation_ablation_with(5, 2, &exec).0));
    assert_golden("golden_lookahead.json", &pretty(&run_lookahead_ablation_with(5, 3, &exec).0));
    assert_sealed("ablation_hardened_board", |seed| {
        pretty(&run_hardened_board_with(seed, &exec).0)
    });
    assert_sealed("ablation_bitw", |seed| pretty(&run_bitw_study_with(seed, &exec).0));
}

#[test]
fn studies_and_capture_figures_match_golden_fixtures() {
    assert_golden("golden_network.json", &pretty(&run_network_study(5)));
    assert_golden("golden_fig5.json", &pretty(&run_fig5(5, 1_500)));
    assert_sealed("fig6_state_inference", |seed| pretty(&run_fig6(seed)));
    assert_golden("golden_fig8.json", &pretty(&run_fig8(5, 2, 600, 0.02).0));
}

#[test]
fn safety_oracles_judge_every_golden_table4_run() {
    let config = golden_table4();
    let thresholds = train_thresholds_with(&config.training, &ExecutorConfig::serial()).thresholds;
    // Every run of both scenarios, clean and attacked.
    for (scenario, runs) in [('A', config.scenario_a_runs), ('B', config.scenario_b_runs)] {
        for run in 0..runs {
            let spec = for_oracles(table4::spec(&config, thresholds, scenario, run));
            let report = run_oracles(&run_standalone(&spec, 0, |_| {}), &Expectations::default());
            assert!(
                report.passed(),
                "Table IV {scenario} run {run}:\n{}",
                report.failure_summary()
            );
        }
    }
}
