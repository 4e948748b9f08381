//! Fleet ↔ scalar equivalence: every session of a fleet of N
//! mixed-scenario sessions must produce a byte-identical artifact to
//! the same spec run standalone through `Simulation::run_session` —
//! verdict sequence, alarm/E-STOP timing, event log, metrics, incident
//! report, everything `SessionArtifact` serializes.
//!
//! Pinned for single- and multi-worker fleets and both alarm fusion
//! rules: one scalar reference per spec, every fleet compared to it.

use raven_core::{run_standalone, ExecutorConfig, SessionSpec};
use raven_detect::FusionRule;
use raven_fleet::{run_fleet, standard_mix};

/// Runs `specs` as a fleet on `workers` workers and returns each
/// artifact's serialized bytes, id order.
fn fleet_artifacts(specs: &[SessionSpec], workers: usize) -> Vec<String> {
    let artifacts = run_fleet(specs, &ExecutorConfig::with_workers(workers));
    assert_eq!(artifacts.len(), specs.len(), "every session yields an artifact");
    artifacts.iter().map(|a| a.to_json()).collect()
}

/// The scalar reference: each spec standalone, id = spec index.
fn standalone_artifacts(specs: &[SessionSpec]) -> Vec<String> {
    specs
        .iter()
        .enumerate()
        .map(|(id, spec)| run_standalone(spec, id as u64, |_| {}).to_json())
        .collect()
}

#[test]
fn mixed_fleet_matches_standalone_across_workers() {
    // 10 sessions cover each scenario twice with distinct seeds and
    // staggered horizons (800/1200/1600 ms).
    let specs = standard_mix(10, 3001);
    let reference = standalone_artifacts(&specs);
    for workers in [1usize, 2] {
        let got = fleet_artifacts(&specs, workers);
        for (id, (g, want)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(g, want, "session {id} diverged from standalone at workers={workers}");
        }
    }
}

#[test]
fn both_fusion_rules_hold_the_equivalence() {
    // Same guarded/defended mix under AllThree (paper default) and
    // AnyOne fusion: the fleet must track the scalar loop under either
    // alarm-combination rule.
    for fusion in [FusionRule::AllThree, FusionRule::AnyOne] {
        let mut specs =
            vec![SessionSpec::guarded(501), SessionSpec::defended(502), SessionSpec::held(503)];
        for spec in &mut specs {
            let setup = spec.config.detector.as_mut().expect("guarded specs carry a detector");
            setup.config.fusion = fusion;
        }
        let got = fleet_artifacts(&specs, 2);
        assert_eq!(got, standalone_artifacts(&specs), "fusion {fusion:?} diverged");
    }
}

#[test]
fn artifacts_are_independent_of_cohabitants() {
    // The same spec run in two very different fleets (different sizes,
    // different neighbors) yields byte-identical artifacts: a session
    // cannot observe who it shares the worker pool with.
    let probe = SessionSpec::defended(9091).with_session_ms(900);
    let solo = fleet_artifacts(std::slice::from_ref(&probe), 1);

    let mut crowd = standard_mix(7, 60_000);
    crowd.insert(3, probe);
    let in_crowd = &fleet_artifacts(&crowd, 2)[3];
    // The artifact embeds the fleet id; rewrite the solo one to match.
    let expected = solo[0].replacen("\"id\": 0", "\"id\": 3", 1);
    assert_eq!(*in_crowd, expected);
}
