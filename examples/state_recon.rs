//! State reconnaissance (the paper's Figs. 5–6): what an attacker learns
//! from raw USB captures without any packet documentation.
//!
//! ```sh
//! cargo run --release --example state_recon
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_core::experiments::{run_fig5, run_fig6};

fn main() {
    println!("=== Figure 5: one run, byte-by-byte ===\n");
    let fig5 = run_fig5(3, 4_000);
    print!("{}", fig5.render());

    println!("\n=== Figure 6: nine runs, state staircases ===\n");
    let fig6 = run_fig6(5);
    print!("{}", fig6.render());

    assert_eq!(fig6.correct_runs(), 9);
    println!(
        "\nall nine sessions leak the operational state machine through Byte 0 — \
         the reconnaissance that makes the self-triggered malware possible."
    );
}
