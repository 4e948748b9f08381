//! What the shared-boot tests have in common: a run on the process's
//! shared boot is checked against a detached reference, the same spec
//! with a `prepare` hook that sets the plant's substeps to their default.
//! That leaves the physics as it is and detaches the plant, so the
//! reference integrates every period itself.

use raven_core::{run_spec, SessionSpec, Simulation};
use raven_dynamics::RavenPlant;

/// The periods a session shares: every one before the pedal press.
pub const BOOT: usize = Simulation::PEDAL_PRESS_MS as usize;

/// A `prepare` hook that detaches the plant from the shared boot.
pub fn detach(sim: &mut Simulation) {
    sim.rig_mut().plant.set_substeps(RavenPlant::DEFAULT_SUBSTEPS);
}

/// Runs `spec` on the shared boot and detached, asserts that the two
/// artifacts are byte-identical, and returns the periods the shared run
/// replayed.
pub fn replayed_and_identical(spec: &SessionSpec) -> usize {
    let shared = run_spec(spec, |_| {});
    let alone = run_spec(spec, detach);
    assert_eq!(alone.sim.rig().plant.replayed_periods(), 0, "a detached plant replays nothing");
    assert_eq!(
        shared.artifact(spec, 0).to_json(),
        alone.artifact(spec, 0).to_json(),
        "seed {}",
        spec.config.seed
    );
    shared.sim.rig().plant.replayed_periods()
}
