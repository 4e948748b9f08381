//! The mutation kill-suite: proof the oracle/probe suite has teeth.
//!
//! `raven-detect` exposes twelve deliberately-seeded defects
//! ([`DetectorMutation`]), installed with `set_mutation`. The suite must
//! *kill* every one of them — each mutant fails at least one conformance
//! probe or end-to-end oracle — while the unmutated detector, the same
//! build that ships, passes everything. A surviving mutant means the
//! oracles have a blind spot exactly where that defect lives.
//!
//! Both verdict paths face the suite: the scalar detector behind the
//! guard, and a fleet monitor lane of a batched detector.

use raven_core::{run_standalone, SessionArtifact, SessionSpec};
use raven_detect::DetectorMutation;
use raven_verify::{all_probes, for_oracles, lane_probes, run_oracles, Expectations, ProbeResult};

/// Runs one verification session with `mutation` installed in the
/// detector before boot (`None` ⇒ production behavior).
fn run_mutated(spec: &SessionSpec, mutation: Option<DetectorMutation>) -> SessionArtifact {
    run_standalone(spec, 0, |sim| {
        if let Some(det) = sim.detector_mut() {
            det.set_mutation(mutation);
        }
    })
}

/// The probes a mutant fails.
fn failed(probes: &[ProbeResult]) -> Vec<&'static str> {
    probes.iter().filter(|p| p.result.is_err()).map(|p| p.probe).collect()
}

#[test]
fn unmutated_build_passes_every_probe() {
    for p in all_probes(None) {
        assert!(p.result.is_ok(), "probe {} failed on production code: {:?}", p.probe, p.result);
    }
}

#[test]
fn every_mutant_is_killed_by_the_probe_suite() {
    let mut survivors = Vec::new();
    for mutant in DetectorMutation::ALL {
        if failed(&all_probes(Some(mutant))).is_empty() {
            survivors.push(mutant.slug());
        }
    }
    assert!(survivors.is_empty(), "mutants not killed by any probe: {survivors:?}");
}

/// Each probe kills exactly the mutants whose defect it pins down — the
/// kill matrix is diagonal, not accidental.
#[test]
fn kill_matrix_matches_the_seeded_defects() {
    let expected: [(DetectorMutation, &str); 12] = [
        (DetectorMutation::EeLimitTenfold, "ee-limit"),
        (DetectorMutation::EeCheckDisabled, "ee-limit"),
        (DetectorMutation::FusionDropsJointVel, "fusion-rule"),
        (DetectorMutation::SwappedVelAccel, "fusion-rule"),
        (DetectorMutation::ThresholdsIgnored, "fusion-rule"),
        (DetectorMutation::FusionBecomesAnyOne, "fusion-rule"),
        (DetectorMutation::BlockPathDisabled, "guard-block-path"),
        (DetectorMutation::EstopRequestDropped, "guard-block-path"),
        (DetectorMutation::CooldownIgnored, "hold-semantics"),
        (DetectorMutation::HoldSubstitutesLatest, "hold-semantics"),
        (DetectorMutation::FirstAlarmOffByOne, "alarm-bookkeeping"),
        (DetectorMutation::AlarmCounterStuck, "alarm-bookkeeping"),
    ];
    for (mutant, probe) in expected {
        let failed = failed(&all_probes(Some(mutant)));
        assert!(
            failed.contains(&probe),
            "mutant {} must be killed by probe {probe}, but only {failed:?} failed",
            mutant.slug()
        );
    }
}

/// The same diagonal on a fleet monitor lane: every verdict and
/// bookkeeping mutant dies on lane 2 of a 4-lane batch. The three
/// guard-only mutants (`BlockPathDisabled`, `CooldownIgnored`,
/// `HoldSubstitutesLatest`) act outside the verdict and have no lane.
#[test]
fn lane_kill_matrix_matches_the_seeded_defects() {
    for p in lane_probes(None) {
        assert!(
            p.result.is_ok(),
            "lane probe {} failed on production code: {:?}",
            p.probe,
            p.result
        );
    }
    let expected: [(DetectorMutation, &str); 9] = [
        (DetectorMutation::EeLimitTenfold, "ee-limit"),
        (DetectorMutation::EeCheckDisabled, "ee-limit"),
        (DetectorMutation::FusionDropsJointVel, "fusion-rule"),
        (DetectorMutation::SwappedVelAccel, "fusion-rule"),
        (DetectorMutation::ThresholdsIgnored, "fusion-rule"),
        (DetectorMutation::FusionBecomesAnyOne, "fusion-rule"),
        (DetectorMutation::EstopRequestDropped, "estop-request"),
        (DetectorMutation::FirstAlarmOffByOne, "alarm-bookkeeping"),
        (DetectorMutation::AlarmCounterStuck, "alarm-bookkeeping"),
    ];
    for (mutant, probe) in expected {
        let failed = failed(&lane_probes(Some(mutant)));
        assert!(
            failed.contains(&probe),
            "mutant {} must be killed on the lane by probe {probe}, but only {failed:?} failed",
            mutant.slug()
        );
    }
}

/// End-to-end kills: mitigation- and bookkeeping-path mutants must also
/// fail the black-box oracle suite over a full guarded attack session —
/// the oracles do not need white-box access to notice these defects.
#[test]
fn mitigation_mutants_are_killed_end_to_end() {
    let spec = for_oracles(SessionSpec::defended(41));
    let exp = Expectations {
        must_boot: true,
        must_detect: true,
        must_estop: true,
        ..Expectations::default()
    };

    let control = run_oracles(&run_mutated(&spec, None), &exp);
    assert!(
        control.passed(),
        "unmutated control arm must pass every oracle:\n{}",
        control.failure_summary()
    );

    for mutant in [
        DetectorMutation::BlockPathDisabled,
        DetectorMutation::EstopRequestDropped,
        DetectorMutation::FirstAlarmOffByOne,
        DetectorMutation::AlarmCounterStuck,
    ] {
        let report = run_oracles(&run_mutated(&spec, Some(mutant)), &exp);
        assert!(!report.passed(), "mutant {} survived the end-to-end oracle suite", mutant.slug());
    }
}
