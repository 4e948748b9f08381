//! The fixed-seed chaos matrix: the unmutated system must satisfy every
//! safety oracle under seeded fault injection, and every chaos run must
//! replay byte-identically.
//!
//! On an oracle failure the offending run's full report and the oracle
//! verdicts are dumped as JSON under `chaos-artifacts/` at the workspace
//! root (uploaded by CI), so a red matrix entry arrives with its evidence
//! attached.

use raven_core::{run_standalone, SessionArtifact, SessionSpec};
use raven_verify::oracles::replay_determinism;
use raven_verify::{for_oracles, observed, run_oracles, Expectations};
use simbus::ChaosConfig;

/// The CI chaos matrix seeds (fixed: the runs are fully deterministic).
const MATRIX_SEEDS: [u64; 8] = [101, 102, 103, 104, 105, 106, 107, 108];

fn artifact_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../chaos-artifacts")
}

/// Runs one verification session.
fn run(spec: &SessionSpec) -> SessionArtifact {
    run_standalone(spec, 0, |_| {})
}

/// Judges one run; on failure, dumps evidence and panics.
fn assert_oracles(spec: &SessionSpec, exp: &Expectations) {
    let report = run(spec);
    let oracles = run_oracles(&report, exp);
    if !oracles.passed() {
        let dir = artifact_dir();
        let _ = std::fs::create_dir_all(&dir);
        let stem = format!("{}-seed{}", report.name, report.seed);
        let _ = std::fs::write(dir.join(format!("{stem}.report.json")), report.to_json());
        if let Ok(json) = serde_json::to_string_pretty(&oracles) {
            let _ = std::fs::write(dir.join(format!("{stem}.oracles.json")), json);
        }
        panic!(
            "oracle failures for {} (evidence in {}):\n{}",
            stem,
            dir.display(),
            oracles.failure_summary()
        );
    }
}

#[test]
fn clean_sessions_under_standard_chaos_satisfy_every_oracle() {
    for seed in MATRIX_SEEDS {
        let spec = for_oracles(SessionSpec::guarded(seed)).with_chaos(ChaosConfig::standard());
        assert_oracles(&spec, &Expectations { must_boot: true, ..Expectations::default() });
    }
}

#[test]
fn estop_defense_under_link_chaos_satisfies_every_oracle() {
    for seed in MATRIX_SEEDS {
        let spec = for_oracles(SessionSpec::defended(seed)).with_chaos(ChaosConfig::link_only());
        assert_oracles(
            &spec,
            &Expectations {
                must_boot: true,
                must_detect: true,
                must_estop: true,
                must_not_be_adverse: true,
                ..Expectations::default()
            },
        );
    }
}

#[test]
fn hold_defense_under_standard_chaos_satisfies_every_oracle() {
    for seed in MATRIX_SEEDS {
        let spec = for_oracles(SessionSpec::held(seed)).with_chaos(ChaosConfig::standard());
        assert_oracles(
            &spec,
            &Expectations { must_boot: true, must_detect: true, ..Expectations::default() },
        );
    }
}

#[test]
fn chaos_free_guarded_sessions_stay_silent() {
    for seed in MATRIX_SEEDS {
        let spec = for_oracles(SessionSpec::guarded(seed));
        assert_oracles(
            &spec,
            &Expectations {
                must_boot: true,
                no_false_alarms: true,
                must_not_be_adverse: true,
                must_not_estop: true,
                ..Expectations::default()
            },
        );
    }
}

/// Every chaos-matrix run exports a sealed forensic ledger that the
/// verifier accepts — the same `verify_sealed` code path behind
/// `raven-sim ledger verify --sealed`.
#[test]
fn matrix_runs_export_verifiable_sealed_ledgers() {
    for seed in MATRIX_SEEDS {
        for spec in [
            for_oracles(SessionSpec::guarded(seed)).with_chaos(ChaosConfig::standard()),
            for_oracles(SessionSpec::defended(seed)).with_chaos(ChaosConfig::link_only()),
        ] {
            let report = run(&spec);
            let text = raven_verify::run_ledger(&report).to_jsonl();
            let summary = raven_ledger::verify_sealed(&text).unwrap_or_else(|e| {
                panic!("{} seed {seed}: exported ledger rejected: {e}", spec.name)
            });
            assert!(summary.sealed, "{} seed {seed}: ledger must carry a seal", spec.name);
            // One record per retained event, plus the run-outcome record
            // and the seal itself.
            assert_eq!(
                summary.records as usize,
                report.events.len() + 2,
                "{} seed {seed}: ledger must cover the whole event ring",
                spec.name
            );
        }
    }
}

#[test]
fn chaos_runs_replay_byte_identically() {
    for spec in [
        for_oracles(SessionSpec::guarded(101)).with_chaos(ChaosConfig::standard()),
        for_oracles(SessionSpec::defended(102)).with_chaos(ChaosConfig::standard()),
        for_oracles(SessionSpec::held(103)).with_chaos(ChaosConfig::link_only()),
        for_oracles(observed(104)).with_chaos(ChaosConfig::standard()),
    ] {
        let verdict = replay_determinism(&run(&spec), &run(&spec));
        assert!(verdict.passed, "{} seed {}: {}", spec.name, spec.config.seed, verdict.detail);
    }
}

#[test]
fn fleet_cohabitation_with_chaos_cannot_perturb_a_clean_session() {
    // The fleet row of the matrix: a chaos-faulted defended session
    // runs next to a clean guarded one in a 2-worker fleet. The clean
    // session's serialized artifact must be byte-identical to running
    // its spec standalone — judged by the fleet-isolation oracle, with
    // evidence dumped like every other matrix row.
    use raven_core::ExecutorConfig;
    use raven_fleet::run_fleet;
    use raven_verify::fleet_isolation;

    let clean = SessionSpec::guarded(301).with_session_ms(900);
    let chaotic =
        SessionSpec::defended(302).with_session_ms(900).with_chaos(ChaosConfig::standard());

    let fleet = run_fleet(&[clean.clone(), chaotic], &ExecutorConfig::with_workers(2));
    let in_fleet = &fleet[0];

    let standalone = run(&clean);
    let verdict = fleet_isolation(&standalone.to_json(), &in_fleet.to_json());
    if !verdict.passed {
        let dir = artifact_dir();
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(dir.join("fleet-isolation.standalone.json"), standalone.to_json());
        let _ = std::fs::write(dir.join("fleet-isolation.fleet.json"), in_fleet.to_json());
        panic!("fleet-isolation failed (evidence in {}): {}", dir.display(), verdict.detail);
    }
}
