//! The "bump-in-the-wire" encryption study (paper §III.D): why the classic
//! BITW retrofit does not stop this attack, and what host-side encryption
//! would and would not buy.
//!
//! ```sh
//! cargo run --release --example bitw_defense
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_core::experiments::run_bitw_study_with;
use raven_core::ExecutorConfig;

fn main() {
    println!("running the BITW study: recon + injection vs three placements …\n");
    let (study, cost, _) = run_bitw_study_with(47, &ExecutorConfig::default());
    print!("{}", study.render(cost));
    println!(
        "\nthe paper's §III.D argument, executed: the wire retrofit encrypts *downstream* \
         of the compromised host, so the malware still sees plaintext (TOCTOU survives); \
         host-side encryption kills the reconnaissance and the targeted trigger, but blind \
         corruption still denies service — and neither predicts physical consequences the \
         way the dynamic-model guard does."
    );
}
