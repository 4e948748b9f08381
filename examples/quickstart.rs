//! Quickstart: boot the simulated RAVEN II and run a clean teleoperation
//! session.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_core::{SimConfig, Simulation, Workload};

fn main() {
    // A 5-second circle-scan session with operator tremor, seed 42.
    let config =
        SimConfig { workload: Workload::Circle, session_ms: 5_000, ..SimConfig::standard(42) };
    let mut sim = Simulation::new(config);

    println!("booting: E-STOP → start button → homing → Pedal Up …");
    sim.boot();
    println!("boot complete at {} — starting teleoperation", sim.now());

    let outcome = sim.run_session();
    println!("\nsession outcome:");
    println!("  final state        : {}", outcome.final_state);
    println!("  ticks executed     : {}", outcome.ticks);
    println!("  max EE step (1 ms) : {:.4} mm", outcome.max_ee_step_1ms * 1e3);
    println!("  max EE step (2 ms) : {:.4} mm", outcome.max_ee_step_2ms * 1e3);
    println!("  adverse impact     : {}", outcome.adverse);
    println!("  E-STOP             : {:?}", outcome.estop);
    assert!(!outcome.adverse, "a clean run must not jump");
    println!("\nclean session: no faults, no jumps — the robot tracked the surgeon.");
}
