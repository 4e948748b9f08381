//! A boot-breaking run records the process's shared boot first: clean
//! runs after it replay the periods before its divergence and integrate
//! the rest, byte for byte as if alone. One test, so nothing else in this
//! process records the boot first.

mod common;

use common::{detach, replayed_and_identical, BOOT};
use raven_core::{run_spec, AttackSetup, SessionSpec, SimConfig};
use raven_hw::RobotState;

#[test]
fn a_boot_breaking_first_run_costs_later_runs_only_their_sharing() {
    let spec =
        |seed| SessionSpec::new(SimConfig { session_ms: 1_000, ..SimConfig::standard(seed) });
    let poison = spec(3)
        .with_attack(AttackSetup::PlcStateRewrite { forced_nibble: RobotState::PedalUp.nibble() });

    // Where the poisoned boot leaves the clean one: the first period whose
    // resulting plant state differs, from the cycle logs of detached runs
    // (they leave the shared boot empty).
    let [poisoned, clean] = [&poison, &spec(5)].map(|spec| {
        let mut spec = spec.clone();
        spec.config.record_cycles = true;
        run_spec(&spec, detach).sim.cycle_log().iter().map(|c| c.state).collect::<Vec<_>>()
    });
    let divergence =
        poisoned.iter().zip(&clean).position(|(a, b)| a != b).expect("the poisoned boot diverges");
    assert!(divergence > 0, "the boots share their idle start");

    // The poisoned run records first; clean runs after it replay every
    // period before the divergence and integrate the rest.
    let first = run_spec(&poison, |_| {});
    assert!(!first.booted, "{:?}", first.outcome);
    assert_eq!(first.sim.rig().plant.replayed_periods(), 0);
    for seed in [5, 6] {
        assert_eq!(replayed_and_identical(&spec(seed)), divergence, "seed {seed}");
    }
    assert_eq!(replayed_and_identical(&poison), BOOT);
}
