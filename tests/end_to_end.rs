//! Cross-crate integration tests: the full system, attack and defense,
//! spanning every crate in the workspace.

use raven_core::training::{train_thresholds, TrainingConfig};
use raven_core::{AttackSetup, DetectorSetup, SimConfig, Simulation, Workload};
use raven_detect::{DetectorConfig, Mitigation};

fn quick_thresholds(seed: u64) -> raven_detect::DetectionThresholds {
    train_thresholds(&TrainingConfig { runs: 8, ..TrainingConfig::quick(seed) }).thresholds
}

/// The paper's headline, end to end: the TOCTOU torque injection jumps the
/// undefended arm; the dynamic-model guard stops the identical attack.
#[test]
fn defense_stops_the_attack_the_undefended_robot_suffers() {
    let attack = AttackSetup::ScenarioB {
        dac_delta: 30_000,
        channel: 0,
        delay_packets: 400,
        duration_packets: 256,
    };

    // Undefended.
    let mut undefended = Simulation::new(SimConfig {
        workload: Workload::Circle,
        session_ms: 4_000,
        ..SimConfig::standard(8)
    });
    undefended.install_attack(&attack);
    undefended.boot();
    let hit = undefended.run_session();
    assert!(hit.adverse, "undefended robot must jump: {hit:?}");

    // Defended (same seed, same attack, guard armed with E-STOP policy).
    let thresholds = quick_thresholds(3);
    let mut defended = Simulation::new(SimConfig {
        workload: Workload::Circle,
        session_ms: 4_000,
        detector: Some(DetectorSetup {
            config: DetectorConfig { mitigation: Mitigation::EStop, ..DetectorConfig::default() },
            model_perturbation: 0.02,
            thresholds: Some(thresholds),
        }),
        ..SimConfig::standard(8)
    });
    defended.install_attack(&attack);
    defended.boot();
    let saved = defended.run_session();
    assert!(saved.model_detected, "guard must detect: {saved:?}");
    assert!(!saved.adverse, "guard must prevent the jump: {saved:?}");
    assert!(
        saved.max_ee_step_2ms < hit.max_ee_step_2ms,
        "defended jump ({}) must be smaller than undefended ({})",
        saved.max_ee_step_2ms,
        hit.max_ee_step_2ms
    );
}

/// Block-and-hold preserves availability: the session survives the attack.
#[test]
fn block_and_hold_keeps_the_session_alive() {
    let thresholds = quick_thresholds(5);
    let mut sim = Simulation::new(SimConfig {
        workload: Workload::Suturing,
        session_ms: 4_000,
        detector: Some(DetectorSetup {
            config: DetectorConfig {
                mitigation: Mitigation::BlockAndHold,
                ..DetectorConfig::default()
            },
            model_perturbation: 0.02,
            thresholds: Some(thresholds),
        }),
        ..SimConfig::standard(11)
    });
    sim.install_attack(&AttackSetup::ScenarioB {
        dac_delta: 28_000,
        channel: 1,
        delay_packets: 300,
        duration_packets: 128,
    });
    sim.boot();
    let out = sim.run_session();
    assert!(out.model_detected);
    assert!(!out.adverse, "{out:?}");
    assert_eq!(out.final_state, "Pedal Down", "session must survive: {out:?}");
    assert!(out.estop.is_none());
}

/// A defended *clean* session must not be disturbed by the guard
/// (false alarms may occur, but must not halt or jump the robot under the
/// availability-preserving policy).
#[test]
fn guard_is_transparent_on_clean_runs() {
    let thresholds = quick_thresholds(7);
    let mut sim = Simulation::new(SimConfig {
        workload: Workload::Circle,
        session_ms: 4_000,
        detector: Some(DetectorSetup {
            config: DetectorConfig {
                mitigation: Mitigation::BlockAndHold,
                ..DetectorConfig::default()
            },
            model_perturbation: 0.02,
            thresholds: Some(thresholds),
        }),
        ..SimConfig::standard(13)
    });
    sim.boot();
    let out = sim.run_session();
    assert!(!out.adverse);
    assert_eq!(out.final_state, "Pedal Down");
    assert!(out.controller_fault.is_none(), "{out:?}");
}

/// The full malware lifecycle uses only information leaked on the bus:
/// logging wrapper → byte analysis → trigger derivation → injection.
#[test]
fn malware_lifecycle_discovers_trigger_from_live_traffic() {
    use raven_attack::{find_state_byte, LoggingWrapper};

    let mut sim = Simulation::new(SimConfig {
        workload: Workload::Suturing,
        session_ms: 3_500,
        pedal: raven_core::sim::PedalPattern::DutyCycle { work_ms: 700, rest_ms: 250, cycles: 3 },
        ..SimConfig::standard(17)
    });
    sim.rig_mut().channel.install_first(LoggingWrapper::new());
    sim.boot();
    let _ = sim.run_session();

    let logger = sim.rig().channel.interceptor::<LoggingWrapper>().expect("logger installed");
    let hypothesis =
        find_state_byte(logger.capture()).expect("live traffic must leak the state byte");
    assert_eq!(hypothesis.offset, 0);
    assert_eq!(hypothesis.watchdog_mask, Some(0x10));
    let mut triggers = hypothesis.trigger_values();
    triggers.sort_unstable();
    assert_eq!(triggers, vec![0x0F, 0x1F]);
}

/// Network degradation (lossy link) does not destabilize the clean system —
/// the controller holds on stale input.
#[test]
fn lossy_network_degrades_gracefully() {
    let mut sim = Simulation::new(SimConfig {
        workload: Workload::Circle,
        session_ms: 3_000,
        link: simbus::LinkConfig::lossy_wan(0.3),
        ..SimConfig::standard(19)
    });
    sim.boot();
    let out = sim.run_session();
    assert!(!out.adverse, "packet loss alone must not jump the arm: {out:?}");
    assert!(out.controller_fault.is_none());
}

/// Determinism across the whole stack: same seed, same outcome, different
/// seed, different trajectory details.
#[test]
fn full_stack_determinism() {
    let run = |seed: u64| {
        let mut sim = Simulation::new(SimConfig { session_ms: 1_500, ..SimConfig::standard(seed) });
        sim.install_attack(&AttackSetup::ScenarioB {
            dac_delta: 24_000,
            channel: 0,
            delay_packets: 300,
            duration_packets: 64,
        });
        sim.boot();
        let out = sim.run_session();
        (out.max_ee_step_2ms.to_bits(), out.ticks, out.injections)
    };
    assert_eq!(run(23), run(23));
    assert_ne!(run(23), run(24));
}

/// The motion-gated attack (read-path eavesdropping feeding the trigger)
/// fires only while the robot is actually moving.
#[test]
fn motion_gated_attack_strikes_only_during_motion() {
    use raven_attack::{motion_gated_attack, ActivationWindow, Corruption, GatedInjection};

    let run = |threshold: f64| {
        let mut sim = Simulation::new(SimConfig {
            workload: Workload::Reach, // moves ~3 s, then holds still
            session_ms: 5_000,
            ..SimConfig::standard(29)
        });
        sim.rig_mut().channel.install_first(motion_gated_attack(
            Corruption::AddDacWord { channel: 0, delta: 30_000 },
            ActivationWindow::delayed(200, 256),
            threshold,
        ));
        sim.boot();
        let outcome = sim.run_session();
        let gate = sim.rig().channel.interceptor::<GatedInjection>().expect("gate installed");
        assert_eq!(gate.injections(), outcome.injections, "the gate made every injection");
        (outcome, gate.gated_out())
    };

    // A realistic activity threshold (encoder counts/packet): the reach
    // produces ~10–15, tremor-only holding ~2–4.
    let (active, _) = run(6.0);
    assert!(active.injections > 0, "gate must open during motion: {active:?}");

    // An absurd threshold: the robot never looks "active enough"; the
    // malware never corrupts a single packet and the session stays clean.
    let (idle, gated_out) = run(1e12);
    assert_eq!(idle.injections, 0, "{idle:?}");
    assert!(gated_out > 0, "the closed gate suppressed Pedal-Down packets");
    assert!(!idle.adverse);
    assert!(idle.controller_fault.is_none());
}

/// Increments apply exactly once even when network jitter batches packets,
/// and console silence drops the robot to a safe stop (pedal-up semantics).
#[test]
fn console_silence_stops_the_robot() {
    // A link that dies partway through the session.
    let mut sim = Simulation::new(SimConfig {
        workload: Workload::Circle,
        session_ms: 3_000,
        ..SimConfig::standard(31)
    });
    sim.boot();
    // Run 1 s of normal teleop, then cut the console by switching the link
    // to 100% loss.
    for _ in 0..1_000 {
        sim.step();
    }
    sim.install_attack(&AttackSetup::DropItp);
    let mut outcome = None;
    for _ in 0..1_000 {
        sim.step();
        if sim.controller().state_machine().state() == raven_hw::RobotState::PedalUp {
            outcome = Some(sim.now());
            break;
        }
    }
    assert!(
        outcome.is_some(),
        "console silence must drop the robot to Pedal Up within the timeout"
    );
}

/// The controller reports telemetry every cycle, and learned thresholds
/// survive a JSON round trip into a new deployment.
#[test]
fn telemetry_bus_and_threshold_persistence() {
    // Train once, persist, reload — the production workflow.
    let trained = quick_thresholds(37);
    let json = trained.to_json().expect("thresholds serialize");
    let reloaded = raven_detect::DetectionThresholds::from_json(&json).unwrap();
    // JSON float formatting may lose the final ULP; verify to full printed
    // precision rather than bit equality.
    for i in 0..3 {
        assert!((reloaded.motor_accel[i] - trained.motor_accel[i]).abs() < 1e-9);
        assert!((reloaded.motor_vel[i] - trained.motor_vel[i]).abs() < 1e-12);
        assert!((reloaded.joint_vel[i] - trained.joint_vel[i]).abs() < 1e-15);
    }

    let mut sim = Simulation::new(SimConfig {
        session_ms: 1_500,
        detector: Some(DetectorSetup {
            config: DetectorConfig::default(),
            model_perturbation: 0.02,
            thresholds: Some(reloaded),
        }),
        ..SimConfig::standard(37)
    });
    sim.boot();
    let mut frames = Vec::new();
    for _ in 0..sim.session_ms() {
        sim.run_session_burst(1);
        frames.extend(sim.controller().telemetry().copied());
        if sim.halted() {
            break;
        }
    }
    assert!(frames.len() > 1_000, "telemetry must stream every cycle: {}", frames.len());
    // Frames carry real state: the last ones are Pedal Down with a target.
    let last = frames.last().unwrap();
    assert_eq!(last.state, raven_hw::RobotState::PedalDown);
    assert!(last.pos_d.is_some());
}

/// The guard also catches attacks on the *feedback* path: a phantom encoder
/// offset makes the controller slam the arm; the model's prediction of that
/// command's consequence trips the alarm.
#[test]
fn guard_detects_encoder_feedback_attacks() {
    let thresholds = quick_thresholds(41);
    let mut sim = Simulation::new(SimConfig {
        workload: Workload::Circle,
        session_ms: 4_000,
        detector: Some(DetectorSetup {
            config: DetectorConfig { mitigation: Mitigation::Observe, ..DetectorConfig::default() },
            model_perturbation: 0.02,
            thresholds: Some(thresholds),
        }),
        ..SimConfig::standard(43)
    });
    sim.install_attack(&AttackSetup::EncoderCorruption {
        channel: 2,
        offset_counts: 12_000,
        delay_reads: 3_200,
    });
    sim.boot();
    let out = sim.run_session();
    assert!(
        out.model_detected,
        "phantom encoder jump must look like (and be treated as) unsafe motion: {out:?}"
    );
}

/// Dual-arm session, end to end: an attack on the gold arm is invisible in
/// the green arm's registries, and the combined registry is exactly the
/// per-arm registries merged in run order (gold first) — the same
/// discipline the campaign executor uses across runs.
#[test]
fn dual_arm_attack_isolation_and_run_order_merge() {
    use raven_core::{Arm, DualArmSession};

    let mut dual = DualArmSession::new(SimConfig {
        workload: Workload::Circle,
        session_ms: 3_000,
        ..SimConfig::standard(19)
    });
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

    // Per-arm independence: every injection the attack landed is in the
    // gold arm's registry, none in the green arm's.
    assert!(out.arm(Arm::Gold).adverse, "attacked arm must jump: {out:?}");
    assert!(!out.arm(Arm::Green).adverse, "clean arm must be untouched: {out:?}");
    assert!(out.metrics(Arm::Gold).counter("attack.injections") > 0);
    assert_eq!(out.metrics(Arm::Green).counter("attack.injections"), 0);
    assert!(out.events(Arm::Green).iter().all(|e| e.kind != "attack.injection"));

    // `merged()` must equal a manual gold-then-green run-order merge,
    // byte for byte.
    let mut manual = out.metrics(Arm::Gold).clone();
    manual.merge(out.metrics(Arm::Green));
    assert_eq!(
        serde_json::to_string(&out.merged()).expect("serialize merged"),
        serde_json::to_string(&manual).expect("serialize manual merge"),
        "DualOutcome::merged() must be the run-order merge of the per-arm registries"
    );
}
