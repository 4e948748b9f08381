//! Dual-arm sessions.
//!
//! The RAVEN II "consists of two cable-driven surgical manipulators" (paper
//! §II.B), each served by its own 8-channel USB board. The paper's
//! experiments target one arm; this module provides the two-manipulator
//! surface a downstream user expects: two full control/hardware stacks
//! advanced in lockstep on one virtual clock, with attacks installable per
//! arm.
//!
//! Fidelity note: the real system runs one control *process* for both arms
//! and one PLC. We model per-arm stacks with independent PLCs; the paper's
//! single-arm experiments are unaffected, and cross-arm isolation under
//! attack (tested below) is the property a shared process would have to
//! enforce anyway.

use serde::{Deserialize, Serialize};
use simbus::obs::{streams, Event, Metrics};
use simbus::rng::derive_seed;

use crate::scenario::AttackSetup;
use crate::sim::{SessionOutcome, SimConfig, Simulation, Workload};

/// Which manipulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arm {
    /// The gold (left) arm.
    Gold,
    /// The green (right) arm.
    Green,
}

/// Outcome of a dual-arm session. Each arm's observability registry is
/// carried separately — an attack on one arm must never leak into the
/// other arm's metrics or event log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DualOutcome {
    /// Gold-arm outcome.
    pub gold: SessionOutcome,
    /// Green-arm outcome.
    pub green: SessionOutcome,
    /// Gold-arm metrics registry snapshot.
    pub gold_metrics: Metrics,
    /// Green-arm metrics registry snapshot.
    pub green_metrics: Metrics,
    /// Gold-arm event log snapshot.
    pub gold_events: Vec<Event>,
    /// Green-arm event log snapshot.
    pub green_events: Vec<Event>,
}

impl DualOutcome {
    /// The outcome of one arm.
    pub fn arm(&self, arm: Arm) -> &SessionOutcome {
        match arm {
            Arm::Gold => &self.gold,
            Arm::Green => &self.green,
        }
    }

    /// One arm's metrics registry.
    pub fn metrics(&self, arm: Arm) -> &Metrics {
        match arm {
            Arm::Gold => &self.gold_metrics,
            Arm::Green => &self.green_metrics,
        }
    }

    /// One arm's event log.
    pub fn events(&self, arm: Arm) -> &[Event] {
        match arm {
            Arm::Gold => &self.gold_events,
            Arm::Green => &self.green_events,
        }
    }

    /// Both registries merged in run order (gold steps before green on
    /// every tick, so gold merges first). The merge is deterministic —
    /// counters add, gauges last-write-wins, histograms merge
    /// bucket-wise — so serializing the result is byte-identical across
    /// runs, exactly like the sweep-level run-order merge.
    pub fn merged(&self) -> Metrics {
        let mut merged = self.gold_metrics.clone();
        merged.merge(&self.green_metrics);
        merged
    }

    /// Did *any* arm suffer adverse impact?
    pub fn any_adverse(&self) -> bool {
        self.gold.adverse || self.green.adverse
    }
}

/// Two manipulators driven in lockstep.
pub struct DualArmSession {
    gold: Simulation,
    green: Simulation,
}

impl DualArmSession {
    /// Builds both stacks from one configuration. The gold arm uses the
    /// configured workload; the green arm runs the complementary training
    /// workload (surgeons rarely mirror motions exactly), with its own
    /// derived seed.
    pub fn new(config: SimConfig) -> Self {
        let green_workload = match config.workload {
            Workload::Circle => Workload::Suturing,
            Workload::Suturing | Workload::Reach => Workload::Circle,
        };
        let green_config = SimConfig {
            seed: derive_seed(config.seed, streams::GREEN_ARM),
            workload: green_workload,
            ..config.clone()
        };
        DualArmSession { gold: Simulation::new(config), green: Simulation::new(green_config) }
    }

    /// Installs an attack against one arm's stack.
    pub fn install_attack(&mut self, arm: Arm, attack: &AttackSetup) {
        self.arm_mut(arm).install_attack(attack);
    }

    /// Mutable access to one arm's simulation.
    pub fn arm_mut(&mut self, arm: Arm) -> &mut Simulation {
        match arm {
            Arm::Gold => &mut self.gold,
            Arm::Green => &mut self.green,
        }
    }

    /// Boots both arms (shared start button, independent homing).
    ///
    /// # Panics
    ///
    /// Panics if either clean boot fails.
    pub fn boot(&mut self) {
        self.gold.boot();
        self.green.boot();
    }

    /// Runs both sessions in lockstep for the configured `session_ms`
    /// and returns both outcomes. An arm stops stepping once its
    /// controller enters E-STOP; each outcome's `ticks` counts that
    /// arm's stepped session cycles (boot excluded).
    pub fn run_session(&mut self) -> DualOutcome {
        let mut ran = [0u64; 2];
        let mut done = [false; 2];
        for _ in 0..self.gold.session_ms() {
            for (i, sim) in [&mut self.gold, &mut self.green].into_iter().enumerate() {
                if !done[i] {
                    sim.step();
                    ran[i] += 1;
                    done[i] = sim.controller().state_machine().is_estop();
                }
            }
        }
        DualOutcome {
            gold: self.gold.session_outcome(ran[0]),
            green: self.green.session_outcome(ran[1]),
            gold_metrics: self.gold.metrics(),
            green_metrics: self.green.metrics(),
            gold_events: self.gold.events(),
            green_events: self.green.events(),
        }
    }
}

impl std::fmt::Debug for DualArmSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DualArmSession")
            .field("gold", &self.gold)
            .field("green", &self.green)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_arms_run_clean_sessions() {
        let mut dual =
            DualArmSession::new(SimConfig { session_ms: 1_500, ..SimConfig::standard(61) });
        dual.boot();
        let out = dual.run_session();
        assert!(!out.any_adverse(), "{out:?}");
        assert_eq!(out.gold.final_state, "Pedal Down");
        assert_eq!(out.green.final_state, "Pedal Down");
    }

    #[test]
    fn attack_on_one_arm_leaves_the_other_untouched() {
        let mut dual =
            DualArmSession::new(SimConfig { session_ms: 3_000, ..SimConfig::standard(63) });
        dual.install_attack(
            Arm::Gold,
            &AttackSetup::ScenarioB {
                dac_delta: 30_000,
                channel: 0,
                delay_packets: 400,
                duration_packets: 256,
            },
        );
        dual.boot();
        let out = dual.run_session();
        assert!(out.arm(Arm::Gold).adverse, "attacked arm must jump: {out:?}");
        assert!(!out.arm(Arm::Green).adverse, "untouched arm must stay clean: {out:?}");
        assert_eq!(out.green.final_state, "Pedal Down");
    }

    #[test]
    fn outcome_ticks_count_session_cycles_only() {
        // The clean green arm steps the whole 3 000 ms session; boot's
        // pre-start ticks and homing are not session cycles. The gold arm
        // stops stepping at its E-STOP.
        let out = attacked_dual_outcome(63);
        assert_eq!(out.green.ticks, 3_000);
        assert!(out.gold.ticks < 3_000, "gold ran {} session cycles", out.gold.ticks);
    }

    fn attacked_dual_outcome(seed: u64) -> DualOutcome {
        let mut dual =
            DualArmSession::new(SimConfig { session_ms: 3_000, ..SimConfig::standard(seed) });
        dual.install_attack(
            Arm::Gold,
            &AttackSetup::ScenarioB {
                dac_delta: 30_000,
                channel: 0,
                delay_packets: 400,
                duration_packets: 256,
            },
        );
        dual.boot();
        dual.run_session()
    }

    #[test]
    fn per_arm_registries_isolate_attack_evidence() {
        let out = attacked_dual_outcome(63);

        // The attacked arm's registry records the injections; the clean
        // arm's registry must not see a single one.
        assert!(out.metrics(Arm::Gold).counter("attack.injections") > 0, "{out:?}");
        assert_eq!(out.metrics(Arm::Green).counter("attack.injections"), 0);
        assert!(out.events(Arm::Gold).iter().any(|e| e.kind == "attack.injection"));
        assert!(
            out.events(Arm::Green).iter().all(|e| e.kind != "attack.injection"),
            "gold-arm attack events leaked into the green arm's registry"
        );

        // The merged registry is the per-arm registries combined in run
        // order: counters add across arms.
        let merged = out.merged();
        assert_eq!(
            merged.counter("attack.injections"),
            out.metrics(Arm::Gold).counter("attack.injections")
        );
        assert_eq!(
            merged.counter("control.transitions"),
            out.metrics(Arm::Gold).counter("control.transitions")
                + out.metrics(Arm::Green).counter("control.transitions")
        );
    }

    #[test]
    fn merged_registry_serializes_byte_identically_across_runs() {
        let a = serde_json::to_string(&attacked_dual_outcome(63).merged()).unwrap();
        let b = serde_json::to_string(&attacked_dual_outcome(63).merged()).unwrap();
        assert_eq!(a, b, "run-order merge must be byte-identical across identical runs");
    }
}
