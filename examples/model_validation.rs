//! Model validation (the paper's Fig. 8): run the real-time dynamic model
//! in parallel with the simulated robot under identical DAC streams and
//! compare trajectories and per-step cost for RK4 vs Euler.
//!
//! ```sh
//! cargo run --release --example model_validation
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_core::experiments::fig8::ms_per_step;
use raven_core::experiments::run_fig8;

fn main() {
    println!("running 4 paired model/robot sessions per integrator …\n");
    let (result, times) = run_fig8(42, 4, 3_000, 0.02);
    print!("{}", result.render(&times));

    let euler = ms_per_step(&times, "Euler").expect("euler row");
    let rk4 = ms_per_step(&times, "Runge").expect("rk4 row");
    println!(
        "\nEuler is {:.1}× cheaper per step than RK4 and both fit the 1 ms budget — \
         the paper's conclusion (0.011 ms vs 0.032 ms on their testbed).",
        rk4 / euler.max(1e-12)
    );
}
