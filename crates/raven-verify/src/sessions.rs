//! Verification sessions: the fleet's [`SessionSpec`]s, sized for the
//! oracles.
//!
//! A verification session is a guarded, defended or held spec, or the
//! defended spec in shadow mode ([`observed`]), passed through
//! [`for_oracles`] and run by [`raven_core::run_standalone`] — the same
//! runner, and so the same [`raven_core::SessionArtifact`], as a
//! rig-plane fleet session. Every fault a chaos schedule injects is
//! virtual-time-scheduled from the run's root seed, so a run replays
//! byte-identically (itself an oracle: `oracles::replay_determinism`).

use raven_core::SessionSpec;
use raven_detect::Mitigation;

/// Sizes a session for the oracles: a 4 000 ms horizon, every cycle's
/// trace signals recorded (the motion-bound oracle reads the
/// end-effector track), and an event ring no session fills.
///
/// The counting oracles (verdict monotonicity, chaos attribution) are
/// only sound when nothing is evicted from the event ring, and
/// block-and-hold sessions emit one attack-injection event per
/// substituted cycle — far past the default capacity of 1024.
pub fn for_oracles(mut spec: SessionSpec) -> SessionSpec {
    spec.config.session_ms = 4_000;
    spec.config.record_cycles = true;
    spec.config.event_capacity = 16_384;
    spec
}

/// The hot injection against a detector in shadow (observe-only) mode:
/// [`SessionSpec::defended`] with [`Mitigation::Observe`].
pub fn observed(seed: u64) -> SessionSpec {
    let mut spec = SessionSpec::defended(seed);
    spec.name = "observed".into();
    if let Some(setup) = spec.config.detector.as_mut() {
        setup.config.mitigation = Mitigation::Observe;
    }
    spec
}
