//! Dual-arm session: the RAVEN II's two manipulators under a single-arm
//! attack — the untouched arm keeps operating.
//!
//! ```sh
//! cargo run --release --example dual_arm
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_core::{Arm, AttackSetup, DualArmSession, SimConfig};

fn main() {
    let mut dual = DualArmSession::new(SimConfig { session_ms: 4_000, ..SimConfig::standard(63) });
    println!("installing the scenario-B injection against the GOLD arm only …");
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

    for (name, arm) in [("gold (attacked)", &out.gold), ("green (clean)  ", &out.green)] {
        println!(
            "{name}: adverse={} max2ms={:.3}mm state={} estop={:?}",
            arm.adverse,
            arm.max_ee_step_2ms * 1e3,
            arm.final_state,
            arm.estop
        );
    }
    assert!(out.gold.adverse && !out.green.adverse);
    println!("\nthe attacked arm jumped and halted; the other manipulator never noticed.");
}
