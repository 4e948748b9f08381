//! Ablation studies on the design choices DESIGN.md §5 calls out:
//!
//! 1. **Alarm fusion** — the paper fuses motor acceleration ∧ motor velocity
//!    ∧ joint velocity per axis "to reduce false alarms" (§IV.C); the
//!    ablation compares against any-single-variable alarming.
//! 2. **Mitigation policy** — E-STOP (safety-maximizing) vs block-and-hold
//!    (availability-preserving): jump magnitude *and* whether the session
//!    survives.
//! 3. **Hardened USB board** — the counterfactual integrity check the boards
//!    lack (§III.B.3): packet checksum verification stops scenario B cold
//!    but is blind to scenario A (which re-encodes well-formed packets).

#![expect(
    clippy::disallowed_methods,
    reason = "wall-clock here only feeds the stderr progress line; ablation results are virtual-time-derived"
)]

use raven_detect::{DetectorConfig, DynamicDetector, FusionRule, Mitigation};
use raven_math::stats::ConfusionMatrix;
use serde::{Deserialize, Serialize};
use simbus::obs::streams;
use simbus::rng::derive_seed;

use crate::campaign::executor::{run_sweep, ExecutorConfig};
use crate::scenario::AttackSetup;
use crate::sim::{DetectorSetup, SimConfig, Simulation, Workload};
use crate::training::{train_thresholds_with, TrainingConfig};

/// One fusion-rule row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FusionRow {
    /// Rule label.
    pub rule: String,
    /// TPR (%).
    pub tpr: f64,
    /// FPR (%).
    pub fpr: f64,
    /// Raw confusion counts.
    pub confusion: ConfusionMatrix,
}

/// Fusion-rule ablation result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FusionAblation {
    /// AllThree and AnyOne rows.
    pub rows: Vec<FusionRow>,
}

impl FusionAblation {
    /// Renders as text.
    pub fn render(&self) -> String {
        let mut out = String::from("ABLATION: alarm fusion rule (scenario B)\n");
        out.push_str(&format!("{:<12} {:>7} {:>7}\n", "rule", "TPR", "FPR"));
        for r in &self.rows {
            out.push_str(&format!("{:<12} {:>7.1} {:>7.1}\n", r.rule, r.tpr, r.fpr));
        }
        out
    }
}

/// Runs the fusion ablation: the same mixed attack/clean campaign under both
/// fusion rules, reusing one set of learned thresholds.
pub fn run_fusion_ablation(seed: u64, runs_per_rule: u32) -> FusionAblation {
    run_fusion_ablation_with(seed, runs_per_rule, &ExecutorConfig::default())
}

/// [`run_fusion_ablation`] with explicit executor control.
pub fn run_fusion_ablation_with(
    seed: u64,
    runs_per_rule: u32,
    exec: &ExecutorConfig,
) -> FusionAblation {
    let thresholds =
        train_thresholds_with(&TrainingConfig { runs: 24, ..TrainingConfig::quick(seed) }, exec)
            .thresholds;
    let mut rows = Vec::new();
    for (label, fusion) in [("all-three", FusionRule::AllThree), ("any-one", FusionRule::AnyOne)] {
        let records = run_sweep(
            &format!("ablation-fusion-{label}"),
            runs_per_rule as usize,
            exec,
            |i| derive_seed(seed, &format!("{}{label}-{i}", streams::FUSION_PREFIX)),
            |i, run_seed| {
                let run = i as u32;
                let clean = run.is_multiple_of(2);
                let attack = if clean {
                    AttackSetup::None
                } else {
                    AttackSetup::ScenarioB {
                        dac_delta: 22_000 + 2_000 * (run % 5) as i16,
                        channel: (run % 3) as usize,
                        delay_packets: 250 + u64::from(run) * 31 % 300,
                        duration_packets: [8, 32, 128, 512][(run % 4) as usize],
                    }
                };
                let mut sim = Simulation::new(SimConfig {
                    workload: Workload::training_pair()[(run % 2) as usize],
                    session_ms: 2_200,
                    detector: Some(DetectorSetup {
                        config: DetectorConfig {
                            mitigation: Mitigation::Observe,
                            fusion,
                            ..DetectorConfig::default()
                        },
                        model_perturbation: 0.02,
                        thresholds: Some(thresholds),
                    }),
                    ..SimConfig::standard(run_seed)
                });
                sim.install_attack(&attack);
                sim.boot();
                let out = sim.run_session();
                (attack.is_attack(), out.model_detected)
            },
        )
        .expect_all("fusion ablation");
        let mut cm = ConfusionMatrix::new();
        for (attacked, detected) in records {
            cm.record(attacked, detected);
        }
        rows.push(FusionRow {
            rule: label.to_string(),
            tpr: cm.tpr() * 100.0,
            fpr: cm.fpr() * 100.0,
            confusion: cm,
        });
    }
    FusionAblation { rows }
}

/// One mitigation-policy row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MitigationRow {
    /// Policy label.
    pub policy: String,
    /// Mean of the per-run worst 2 ms end-effector step (mm).
    pub mean_max_step_mm: f64,
    /// Fraction of runs with adverse impact.
    pub adverse_rate: f64,
    /// Fraction of runs still teleoperating at session end (availability).
    pub survived_rate: f64,
    /// Runs.
    pub runs: u32,
}

/// Mitigation-policy ablation result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MitigationAblation {
    /// Observe (no mitigation), BlockAndHold, EStop rows.
    pub rows: Vec<MitigationRow>,
}

impl MitigationAblation {
    /// Renders as text.
    pub fn render(&self) -> String {
        let mut out = String::from("ABLATION: mitigation policy under scenario-B attack\n");
        out.push_str(&format!(
            "{:<16} {:>16} {:>12} {:>12}\n",
            "policy", "mean jump (mm)", "adverse", "survived"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<16} {:>16.3} {:>11.0}% {:>11.0}%\n",
                r.policy,
                r.mean_max_step_mm,
                r.adverse_rate * 100.0,
                r.survived_rate * 100.0
            ));
        }
        out
    }
}

/// Runs the mitigation ablation: identical attacks under the three policies.
pub fn run_mitigation_ablation(seed: u64, runs_per_policy: u32) -> MitigationAblation {
    run_mitigation_ablation_with(seed, runs_per_policy, &ExecutorConfig::default())
}

/// [`run_mitigation_ablation`] with explicit executor control.
pub fn run_mitigation_ablation_with(
    seed: u64,
    runs_per_policy: u32,
    exec: &ExecutorConfig,
) -> MitigationAblation {
    let thresholds =
        train_thresholds_with(&TrainingConfig { runs: 24, ..TrainingConfig::quick(seed) }, exec)
            .thresholds;
    let mut rows = Vec::new();
    for (label, mitigation) in [
        ("observe", Mitigation::Observe),
        ("block-and-hold", Mitigation::BlockAndHold),
        ("e-stop", Mitigation::EStop),
    ] {
        let records = run_sweep(
            &format!("ablation-mitigation-{label}"),
            runs_per_policy as usize,
            exec,
            |i| derive_seed(seed, &format!("{}{i}", streams::MITIGATION_PREFIX)), // same per policy
            |i, run_seed| {
                let run = i as u32;
                let mut sim = Simulation::new(SimConfig {
                    workload: Workload::Circle,
                    session_ms: 2_500,
                    detector: Some(DetectorSetup {
                        config: DetectorConfig { mitigation, ..DetectorConfig::default() },
                        model_perturbation: 0.02,
                        thresholds: Some(thresholds),
                    }),
                    ..SimConfig::standard(run_seed)
                });
                sim.install_attack(&AttackSetup::ScenarioB {
                    dac_delta: 28_000,
                    channel: (run % 3) as usize,
                    delay_packets: 300 + u64::from(run) * 41,
                    duration_packets: 256,
                });
                sim.boot();
                let out = sim.run_session();
                (out.max_ee_step_2ms, out.adverse, out.final_state == "Pedal Down")
            },
        )
        .expect_all("mitigation ablation");
        let mut sum_step = 0.0;
        let mut adverse = 0u32;
        let mut survived = 0u32;
        for (max_step, was_adverse, did_survive) in records {
            sum_step += max_step * 1e3;
            if was_adverse {
                adverse += 1;
            }
            if did_survive {
                survived += 1;
            }
        }
        let n = f64::from(runs_per_policy.max(1));
        rows.push(MitigationRow {
            policy: label.to_string(),
            mean_max_step_mm: sum_step / n,
            adverse_rate: f64::from(adverse) / n,
            survived_rate: f64::from(survived) / n,
            runs: runs_per_policy,
        });
    }
    MitigationAblation { rows }
}

/// Hardened-board counterfactual result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HardenedBoardResult {
    /// Scenario-B injections rejected by the checksum check.
    pub b_integrity_rejects: u64,
    /// Scenario B caused adverse impact despite the hardened board.
    pub b_adverse: bool,
    /// Scenario A caused adverse impact or a fault despite the hardened
    /// board (it must: the MITM re-encodes well-formed packets).
    pub a_still_effective: bool,
}

impl HardenedBoardResult {
    /// Renders as text.
    pub fn render(&self) -> String {
        format!(
            "ABLATION: checksum-verifying USB board\n\
             scenario B: {} corrupted packets rejected, adverse = {}\n\
             scenario A: still effective = {} (integrity checks cannot stop re-encoded input)\n",
            self.b_integrity_rejects, self.b_adverse, self.a_still_effective
        )
    }
}

/// A 3 s session on the checksum-verifying board: the stock simulation
/// with only its board swapped, so the plant boots from the same stowed
/// pose and the rig keeps its span handle.
fn hardened_board_sim(run_seed: u64) -> Simulation {
    let mut sim = Simulation::new(SimConfig { session_ms: 3_000, ..SimConfig::standard(run_seed) });
    sim.rig_mut().board = raven_hw::UsbBoard::hardened();
    sim
}

/// Runs the hardened-board counterfactual with the default executor.
pub fn run_hardened_board(seed: u64) -> HardenedBoardResult {
    run_hardened_board_with(seed, &ExecutorConfig::default())
}

/// [`run_hardened_board`] with explicit executor control: the two
/// counterfactual sessions (scenario B, then scenario A, both against the
/// checksum-verifying board) fan out as one sweep; seeds match the original
/// serial protocol, so the result is identical for any worker count.
pub fn run_hardened_board_with(seed: u64, exec: &ExecutorConfig) -> HardenedBoardResult {
    let labels = ["hardened-b", "hardened-a"];
    let outcomes = run_sweep(
        "ablation-hardened",
        labels.len(),
        exec,
        |i| derive_seed(seed, labels[i]),
        |i, run_seed| {
            let mut sim = hardened_board_sim(run_seed);
            if i == 0 {
                sim.install_attack(&AttackSetup::ScenarioB {
                    dac_delta: 30_000,
                    channel: 0,
                    delay_packets: 300,
                    duration_packets: 256,
                });
            } else {
                sim.install_attack(&AttackSetup::ScenarioA {
                    magnitude: 4.0e-3,
                    delay_packets: 300,
                    duration_packets: 512,
                });
            }
            sim.boot();
            let out = sim.run_session();
            (sim.rig_mut().board.integrity_rejects(), out)
        },
    )
    .expect_all("hardened-board ablation");
    let (b_rejects, out_b) = &outcomes[0];
    let (_, out_a) = &outcomes[1];
    HardenedBoardResult {
        b_integrity_rejects: *b_rejects,
        b_adverse: out_b.adverse,
        a_still_effective: out_a.adverse
            || out_a.controller_fault.is_some()
            || out_a.max_ee_step_2ms > 2e-4,
    }
}

/// One lookahead-horizon row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LookaheadRow {
    /// Prediction horizon (control steps).
    pub horizon: u32,
    /// TPR (%).
    pub tpr: f64,
    /// FPR (%).
    pub fpr: f64,
    /// Mean detection latency over detected attacks (ms from the first
    /// injected packet to the first alarm).
    pub mean_latency_ms: f64,
}

/// Lookahead-horizon ablation (the §IV.C trusted-hardware future work).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LookaheadAblation {
    /// One row per horizon.
    pub rows: Vec<LookaheadRow>,
}

impl LookaheadAblation {
    /// Renders as text.
    pub fn render(&self) -> String {
        let mut out =
            String::from("ABLATION: prediction horizon (scenario B, sub-authority injections)\n");
        out.push_str(&format!(
            "{:<10} {:>7} {:>7} {:>14}\n",
            "horizon", "TPR", "FPR", "latency (ms)"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:>7.1} {:>7.1} {:>14.1}\n",
                r.horizon, r.tpr, r.fpr, r.mean_latency_ms
            ));
        }
        out
    }
}

/// Runs the lookahead ablation: the same campaign with horizons 1–8.
pub fn run_lookahead_ablation(seed: u64, runs_per_horizon: u32) -> LookaheadAblation {
    run_lookahead_ablation_with(seed, runs_per_horizon, &ExecutorConfig::default())
}

/// [`run_lookahead_ablation`] with explicit executor control.
pub fn run_lookahead_ablation_with(
    seed: u64,
    runs_per_horizon: u32,
    exec: &ExecutorConfig,
) -> LookaheadAblation {
    let thresholds =
        train_thresholds_with(&TrainingConfig { runs: 24, ..TrainingConfig::quick(seed) }, exec)
            .thresholds;
    let mut rows = Vec::new();
    for horizon in [1u32, 2, 4, 8] {
        let records = run_sweep(
            &format!("ablation-lookahead-{horizon}"),
            runs_per_horizon as usize,
            exec,
            |i| derive_seed(seed, &format!("{}{i}", streams::LOOKAHEAD_PREFIX)), // shared per horizon
            |i, run_seed| {
                let run = i as u32;
                let clean = run.is_multiple_of(3);
                let delay = 300 + u64::from(run) * 29 % 200;
                let attack = if clean {
                    AttackSetup::None
                } else {
                    AttackSetup::ScenarioB {
                        dac_delta: 21_000 + 500 * (run % 6) as i16, // near PID authority: slow builds
                        channel: (run % 3) as usize,
                        delay_packets: delay,
                        duration_packets: 512,
                    }
                };
                let mut sim = Simulation::new(SimConfig {
                    workload: Workload::training_pair()[(run % 2) as usize],
                    session_ms: 2_500,
                    detector: Some(DetectorSetup {
                        config: DetectorConfig {
                            mitigation: Mitigation::Observe,
                            lookahead_steps: horizon,
                            ..DetectorConfig::default()
                        },
                        model_perturbation: 0.02,
                        thresholds: Some(thresholds),
                    }),
                    ..SimConfig::standard(run_seed)
                });
                sim.install_attack(&attack);
                sim.boot();
                let out = sim.run_session();
                let latency = if attack.is_attack() && out.model_detected {
                    sim.detector()
                        .and_then(DynamicDetector::first_alarm_assessment)
                        // Assessments count Pedal-Down packets; injection
                        // starts after `delay` of them.
                        .map(|first| first.saturating_sub(delay) as f64)
                } else {
                    None
                };
                (attack.is_attack(), out.model_detected, latency)
            },
        )
        .expect_all("lookahead ablation");
        let mut cm = ConfusionMatrix::new();
        let mut latency_sum = 0.0;
        let mut detected = 0u32;
        for (attacked, model, latency) in records {
            cm.record(attacked, model);
            if let Some(latency) = latency {
                latency_sum += latency;
                detected += 1;
            }
        }
        rows.push(LookaheadRow {
            horizon,
            tpr: cm.tpr() * 100.0,
            fpr: cm.fpr() * 100.0,
            mean_latency_ms: if detected > 0 {
                latency_sum / f64::from(detected)
            } else {
                f64::NAN
            },
        });
    }
    LookaheadAblation { rows }
}

/// One BITW configuration's outcome against the full malware lifecycle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BitwRow {
    /// Configuration label.
    pub config: String,
    /// Did the offline analysis recover the Pedal-Down trigger?
    pub recon_succeeded: bool,
    /// Corrupted command packets rejected by the BITW authenticator.
    pub rejected_packets: u64,
    /// Adverse impact (>1 mm jump) during the injection session.
    pub adverse: bool,
    /// Session still teleoperating at the end (availability).
    pub available: bool,
}

/// The BITW defense study (paper §III.D).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BitwStudy {
    /// none / wire / host rows.
    pub rows: Vec<BitwRow>,
    /// Mean seal+open cost per packet (µs) — the overhead the paper warns
    /// about, measured.
    pub crypto_overhead_us: f64,
}

impl BitwStudy {
    /// Renders as text.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "STUDY: bump-in-the-wire encryption vs the in-host malware (paper §III.D)\n",
        );
        out.push_str(&format!(
            "{:<12} {:>7} {:>10} {:>9} {:>11}\n",
            "placement", "recon", "rejected", "adverse", "available"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<12} {:>7} {:>10} {:>9} {:>11}\n",
                r.config,
                if r.recon_succeeded { "OK" } else { "FAILS" },
                r.rejected_packets,
                r.adverse,
                r.available
            ));
        }
        out.push_str(&format!(
            "crypto cost: {:.3} µs per packet (budget: 1000 µs per cycle)\n",
            self.crypto_overhead_us
        ));
        out
    }
}

/// Runs the BITW study: for each placement, (1) eavesdrop a session and try
/// the offline analysis, (2) deploy a Pedal-Down-triggered torque injection
/// and measure the physical outcome.
pub fn run_bitw_study(seed: u64) -> BitwStudy {
    run_bitw_study_with(seed, &ExecutorConfig::default())
}

/// [`run_bitw_study`] with explicit executor control: the three placements
/// run as one sweep (each placement's eavesdrop + attack phases stay
/// serial inside its run). Per-placement seeds are unchanged from the
/// original serial protocol, so rows are identical for any worker count.
/// The crypto-overhead measurement is wall-clock and stays outside the
/// sweep.
pub fn run_bitw_study_with(seed: u64, exec: &ExecutorConfig) -> BitwStudy {
    use raven_attack::{find_state_byte, LoggingWrapper};
    let configs: [(&str, Option<raven_hw::BitwPlacement>); 3] = [
        ("none", None),
        ("wire", Some(raven_hw::BitwPlacement::Wire)),
        ("host", Some(raven_hw::BitwPlacement::Host)),
    ];
    let rows = run_sweep(
        "bitw-study",
        configs.len(),
        exec,
        |i| derive_seed(seed, &format!("{}{}", streams::BITW_RECON_PREFIX, configs[i].0)),
        |i, _run_seed| {
            let (label, bitw) = configs[i];
            // Phase 1–2: eavesdrop + analyze.
            let mut sim = Simulation::new(SimConfig {
                session_ms: 3_000,
                bitw,
                ..SimConfig::standard(derive_seed(
                    seed,
                    &format!("{}{label}", streams::BITW_RECON_PREFIX),
                ))
            });
            sim.rig_mut().channel.install_first(LoggingWrapper::new());
            sim.boot();
            let _ = sim.run_session();
            let logger = sim.rig().channel.interceptor::<LoggingWrapper>().expect("installed");
            let recon = find_state_byte(logger.capture());
            let recon_succeeded = recon
                .as_ref()
                .map(|h| h.trigger_values().contains(&0x0F) || h.trigger_values().contains(&0x1F))
                .unwrap_or(false);

            // Phase 3. Against plaintext the attacker deploys the paper's
            // Pedal-Down-triggered injection. Against host-side ciphertext
            // the trigger byte is gone, so the best remaining move is
            // *blind* corruption of the opaque stream — which the
            // authenticator turns into a denial of service.
            let mut sim = Simulation::new(SimConfig {
                session_ms: 3_000,
                bitw,
                ..SimConfig::standard(derive_seed(
                    seed,
                    &format!("{}{label}", streams::BITW_ATTACK_PREFIX),
                ))
            });
            if bitw == Some(raven_hw::BitwPlacement::Host) {
                use raven_attack::{ActivationWindow, Corruption, InjectionWrapper};
                sim.rig_mut().channel.install_first(InjectionWrapper::with_trigger(
                    (0..=255).collect(), // fires on any packet: blind corruption
                    Corruption::SetByte { offset: 7, value: 0x55 },
                    ActivationWindow::delayed(1_800, 512),
                ));
            } else {
                sim.install_attack(&AttackSetup::ScenarioB {
                    dac_delta: 30_000,
                    channel: 0,
                    delay_packets: 300,
                    duration_packets: 256,
                });
            }
            sim.boot();
            let out = sim.run_session();
            BitwRow {
                config: label.to_string(),
                recon_succeeded,
                rejected_packets: sim.rig_mut().bitw_rejects(),
                adverse: out.adverse,
                // Available = still teleoperating AND the PLC has not
                // braked the arm (a PLC E-STOP stops the robot even if the
                // software state machine has not yet noticed).
                available: out.final_state == "Pedal Down" && out.estop.is_none(),
            }
        },
    )
    .expect_all("bitw study");

    // Crypto overhead per packet.
    let mut tx = raven_hw::BitwCodec::new(1234);
    let mut rx = raven_hw::BitwCodec::new(1234);
    let pkt = [0x1Fu8; 18];
    let started = std::time::Instant::now();
    let iters = 100_000u32;
    for _ in 0..iters {
        let sealed = tx.seal(&pkt);
        std::hint::black_box(rx.open(&sealed));
    }
    let crypto_overhead_us = started.elapsed().as_secs_f64() * 1e6 / f64::from(iters);

    BitwStudy { rows, crypto_overhead_us }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardened_board_session_starts_from_the_stock_plant_state() {
        let mut hardened = hardened_board_sim(45);
        let mut stock = Simulation::new(SimConfig { session_ms: 3_000, ..SimConfig::standard(45) });
        assert_eq!(hardened.rig_mut().plant.state(), stock.rig_mut().plant.state());
    }

    #[test]
    fn fusion_reduces_false_positives() {
        let r = run_fusion_ablation(41, 12);
        let all = &r.rows[0];
        let any = &r.rows[1];
        // The paper's justification for fusion: fewer false alarms at
        // comparable (or mildly reduced) sensitivity.
        assert!(
            all.fpr <= any.fpr,
            "fusion must not increase FPR: all-three {} vs any-one {}\n{}",
            all.fpr,
            any.fpr,
            r.render()
        );
        assert!(any.tpr >= all.tpr, "any-one is at least as sensitive\n{}", r.render());
    }

    #[test]
    fn mitigations_trade_safety_for_availability() {
        let r = run_mitigation_ablation(43, 6);
        let observe = &r.rows[0];
        let hold = &r.rows[1];
        let estop = &r.rows[2];
        // No mitigation: the attack lands.
        assert!(observe.adverse_rate > 0.5, "{}", r.render());
        // Both mitigations suppress the jump.
        assert!(hold.adverse_rate < observe.adverse_rate, "{}", r.render());
        assert!(estop.adverse_rate < observe.adverse_rate, "{}", r.render());
        // Block-and-hold preserves availability better than E-STOP.
        assert!(hold.survived_rate >= estop.survived_rate, "{}", r.render());
        // And mean jump magnitude shrinks under both.
        assert!(hold.mean_max_step_mm < observe.mean_max_step_mm, "{}", r.render());
    }

    #[test]
    fn longer_horizons_do_not_hurt_detection() {
        let r = run_lookahead_ablation(49, 9);
        let h1 = &r.rows[0];
        let h8 = r.rows.last().unwrap();
        // Deeper rollouts can only strengthen the EE rule: TPR monotone
        // non-decreasing, and detected attacks are caught no later.
        assert!(h8.tpr >= h1.tpr, "{}", r.render());
        if h1.mean_latency_ms.is_finite() && h8.mean_latency_ms.is_finite() {
            assert!(h8.mean_latency_ms <= h1.mean_latency_ms + 1.0, "{}", r.render());
        }
    }

    #[test]
    fn bitw_wire_placement_is_useless_host_placement_degrades_to_dos() {
        let r = run_bitw_study(47);
        let by = |label: &str| r.rows.iter().find(|row| row.config == label).unwrap();
        // Unprotected: recon works, attack jumps the arm.
        assert!(by("none").recon_succeeded, "{}", r.render());
        assert!(by("none").adverse, "{}", r.render());
        // Wire placement: the in-host malware still sees plaintext — recon
        // and injection both unaffected (the paper's TOCTOU argument).
        assert!(by("wire").recon_succeeded, "{}", r.render());
        assert!(by("wire").adverse, "{}", r.render());
        assert_eq!(by("wire").rejected_packets, 0, "{}", r.render());
        // Host placement: recon fails (ciphertext); the targeted trigger is
        // dead, and the blind-corruption fallback degrades to rejected
        // packets — no jump, but availability is lost (watchdog starvation
        // E-STOP): encryption does not buy graceful survival.
        assert!(!by("host").recon_succeeded, "{}", r.render());
        assert!(!by("host").adverse, "{}", r.render());
        assert!(by("host").rejected_packets > 0, "{}", r.render());
        assert!(!by("host").available, "blind corruption is still a DoS\n{}", r.render());
    }

    #[test]
    fn hardened_board_stops_b_not_a() {
        let r = run_hardened_board(45);
        assert!(r.b_integrity_rejects > 0, "{}", r.render());
        assert!(!r.b_adverse, "checksums must stop byte-level corruption\n{}", r.render());
        assert!(r.a_still_effective, "integrity checks cannot stop scenario A\n{}", r.render());
    }
}
