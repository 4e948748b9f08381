//! Regenerates Table II: performance overhead of the malicious system-call
//! wrappers (50,000 timed writes per configuration, as in the paper).
//!
//! ```sh
//! cargo bench -p bench --bench table2_overhead
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_core::experiments::run_table2;

fn main() {
    let iters = if bench::quick_mode() { 5_000 } else { 50_000 };
    let result = run_table2(iters);
    print!("{}", result.render());
    println!(
        "paper (µs, on real hardware): baseline 1.3 | logging 20.0 | injection 3.6 — \
         absolute values differ (no kernel crossing here); the reproduced claim is the \
         ordering logging ≫ injection ≥ baseline, all ≪ the 1 ms cycle budget."
    );
    bench::save_json("table2_overhead", &result);

    let base = result.rows[0].mean_us;
    let logging = result.rows[1].mean_us;
    let injection = result.rows[2].mean_us;
    assert!(logging > injection && injection >= base, "overhead ordering must hold");
    assert!(logging < 1_000.0, "well under the 1 ms real-time budget");
}
