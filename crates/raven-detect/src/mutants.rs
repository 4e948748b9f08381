//! Deliberately-broken detector variants for the mutation kill-suite
//! (`raven-verify`).
//!
//! Each [`DetectorMutation`] names one seeded defect in the detection or
//! mitigation path — an off-by-one, a dropped fusion term, a disabled
//! block path — and the safety-oracle suite must *kill* every one of them
//! (fail at least one oracle on at least one scenario). A mutant that
//! survives means the oracles have a blind spot exactly where the defect
//! lives.
//!
//! The hooks are wired through private helpers: the verdict and
//! bookkeeping hooks on [`crate::BatchDetector`] (the one verdict
//! implementation, so they reach a fleet monitor lane and the scalar
//! detector alike), and the three guard-only hooks (`BlockPathDisabled`,
//! `CooldownIgnored`, `HoldSubstitutesLatest`) on
//! [`crate::DynamicDetector`] for the [`crate::GuardInterceptor`]. There
//! is one build: each helper's no-mutation arm is the production
//! expression, and no mutation is installed unless a test calls
//! `set_mutation` (no config field, serde path or CLI flag reaches it).
//! So the kill-suite's control arm ("unmutated detector passes every
//! oracle") checks the detector that ships.

use serde::{Deserialize, Serialize};

/// One seeded defect in the detector or mitigation path.
///
/// The variants are grouped by the layer they sabotage: detection features
/// and fusion, alarm bookkeeping, then mitigation plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DetectorMutation {
    /// The 1 mm end-effector step limit is applied ×10 too loose, so the
    /// paper's hard safety rule misses every sub-centimeter jump.
    EeLimitTenfold,
    /// The end-effector step check never alarms at all.
    EeCheckDisabled,
    /// The three-way fusion drops its joint-velocity term: alarms on motor
    /// acceleration ∧ motor velocity only.
    FusionDropsJointVel,
    /// Motor-velocity and motor-acceleration features are swapped before
    /// threshold comparison (a classic transposed-index defect).
    SwappedVelAccel,
    /// Threshold comparison is skipped entirely; only the end-effector
    /// check can alarm.
    ThresholdsIgnored,
    /// The `AllThree` fusion rule silently degrades to `AnyOne`: a single
    /// exceedance alarms, flooding clean sessions with false positives.
    FusionBecomesAnyOne,
    /// The guard assesses but never blocks: alarming commands are
    /// forwarded verbatim in every mitigation mode.
    BlockPathDisabled,
    /// The E-STOP mitigation stops requesting the stop: alarms are logged
    /// but the latch is never demanded.
    EstopRequestDropped,
    /// Block-and-hold forgets its cooldown: substitution lasts exactly one
    /// alarming cycle instead of `hold_cooldown_cycles`.
    CooldownIgnored,
    /// Block-and-hold substitutes the *newest* remembered command instead
    /// of the oldest — replaying the attack's own ramp-up tail.
    HoldSubstitutesLatest,
    /// The first-alarm assessment index is recorded off by one, corrupting
    /// every detection-latency measurement downstream.
    FirstAlarmOffByOne,
    /// The alarm counter never increments: verdicts are emitted but the
    /// session summary claims the detector stayed silent.
    AlarmCounterStuck,
}

impl DetectorMutation {
    /// Every mutant, in a fixed order (kill-suites iterate this).
    pub const ALL: [DetectorMutation; 12] = [
        DetectorMutation::EeLimitTenfold,
        DetectorMutation::EeCheckDisabled,
        DetectorMutation::FusionDropsJointVel,
        DetectorMutation::SwappedVelAccel,
        DetectorMutation::ThresholdsIgnored,
        DetectorMutation::FusionBecomesAnyOne,
        DetectorMutation::BlockPathDisabled,
        DetectorMutation::EstopRequestDropped,
        DetectorMutation::CooldownIgnored,
        DetectorMutation::HoldSubstitutesLatest,
        DetectorMutation::FirstAlarmOffByOne,
        DetectorMutation::AlarmCounterStuck,
    ];

    /// Stable dotted identifier (used in kill-suite reports).
    pub fn slug(self) -> &'static str {
        match self {
            DetectorMutation::EeLimitTenfold => "mutant.ee_limit_tenfold",
            DetectorMutation::EeCheckDisabled => "mutant.ee_check_disabled",
            DetectorMutation::FusionDropsJointVel => "mutant.fusion_drops_joint_vel",
            DetectorMutation::SwappedVelAccel => "mutant.swapped_vel_accel",
            DetectorMutation::ThresholdsIgnored => "mutant.thresholds_ignored",
            DetectorMutation::FusionBecomesAnyOne => "mutant.fusion_becomes_any_one",
            DetectorMutation::BlockPathDisabled => "mutant.block_path_disabled",
            DetectorMutation::EstopRequestDropped => "mutant.estop_request_dropped",
            DetectorMutation::CooldownIgnored => "mutant.cooldown_ignored",
            DetectorMutation::HoldSubstitutesLatest => "mutant.hold_substitutes_latest",
            DetectorMutation::FirstAlarmOffByOne => "mutant.first_alarm_off_by_one",
            DetectorMutation::AlarmCounterStuck => "mutant.alarm_counter_stuck",
        }
    }
}

impl std::fmt::Display for DetectorMutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_unique_and_dotted() {
        let mut seen = std::collections::BTreeSet::new();
        for m in DetectorMutation::ALL {
            assert!(m.slug().starts_with("mutant."), "{m}");
            assert!(seen.insert(m.slug()), "duplicate slug {m}");
        }
        assert_eq!(seen.len(), DetectorMutation::ALL.len());
    }

    #[test]
    fn serde_round_trips_every_mutant() {
        for m in DetectorMutation::ALL {
            let json = serde_json::to_string(&m).unwrap();
            let back: DetectorMutation = serde_json::from_str(&json).unwrap();
            assert_eq!(m, back);
        }
    }
}
