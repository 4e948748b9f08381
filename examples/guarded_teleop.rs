//! The defense in action: the same torque-injection attack as
//! `attack_demo`, but with the dynamic model-based guard armed (paper §IV.C)
//! — first in E-STOP mitigation mode, then in block-and-hold mode.
//!
//! ```sh
//! cargo run --release --example guarded_teleop
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_core::training::{train_thresholds, TrainingConfig};
use raven_core::{run_spec, DetectorSetup, SessionSpec};
use raven_detect::{DetectionThresholds, Mitigation};

fn attacked_session(mitigation: Mitigation, thresholds: DetectionThresholds) {
    // The paper's hot scenario-B injection (+30 000 DAC counts on the
    // shoulder for 256 ms) during a 4 s circle scan.
    let mut spec = SessionSpec::attacked(8).with_session_ms(4_000);
    spec.config.detector = Some(DetectorSetup::new(mitigation, Some(thresholds)));
    let outcome = run_spec(&spec, |_| {}).expect_booted().outcome;
    println!("\nmitigation = {mitigation:?}:");
    println!("  model detected      : {}", outcome.model_detected);
    println!("  adverse impact      : {}", outcome.adverse);
    println!("  max EE step (2 ms)  : {:.3} mm", outcome.max_ee_step_2ms * 1e3);
    println!("  final state         : {}", outcome.final_state);
    println!("  E-STOP              : {:?}", outcome.estop);
    assert!(outcome.model_detected, "the guard must see the attack");
    assert!(!outcome.adverse, "mitigation must keep the arm below the 1 mm jump limit");
}

fn main() {
    println!("training detection thresholds over fault-free runs (§IV.C) …");
    let report = train_thresholds(&TrainingConfig { runs: 20, ..TrainingConfig::quick(3) });
    println!(
        "learned from {} runs / {} cycles; e.g. motor-vel thresholds = {:.2?} rad/s",
        report.runs, report.samples, report.thresholds.motor_vel
    );

    // Safety-maximizing mitigation: drop the command and E-STOP.
    attacked_session(Mitigation::EStop, report.thresholds);
    // Availability-preserving mitigation: substitute the last safe command.
    attacked_session(Mitigation::BlockAndHold, report.thresholds);

    println!(
        "\nboth policies stopped the jump before it manifested in the physical system; \
         E-STOP sacrifices availability, block-and-hold keeps the session alive."
    );
}
