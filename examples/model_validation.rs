//! Model validation (the paper's Fig. 8): run the real-time dynamic model
//! in parallel with the simulated robot under identical DAC streams and
//! compare trajectories and per-step cost for RK4 vs Euler.
//!
//! ```sh
//! cargo run --release --example model_validation
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_core::experiments::run_fig8;

fn main() {
    println!("running 4 paired model/robot sessions per integrator …\n");
    let result = run_fig8(42, 4, 3_000, 0.02);
    print!("{}", result.render());

    let euler = result.row("Euler").expect("euler row");
    let rk4 = result.row("Runge").expect("rk4 row");
    println!(
        "\nEuler is {:.1}× cheaper per step than RK4 and both fit the 1 ms budget — \
         the paper's conclusion (0.011 ms vs 0.032 ms on their testbed).",
        rk4.avg_time_ms_per_step / euler.avg_time_ms_per_step.max(1e-12)
    );
}
