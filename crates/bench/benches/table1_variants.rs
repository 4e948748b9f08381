//! Regenerates Table I: attack variants vs observed impact.
//!
//! ```sh
//! cargo bench -p bench --bench table1_variants
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![expect(
    clippy::disallowed_methods,
    reason = "benches measure wall time by definition; bench JSON is a sidecar artifact, never merged into results byte-identity checks"
)]

use raven_core::experiments::run_table1;

fn main() {
    let started = std::time::Instant::now();
    let result = run_table1(31);
    print!("{}", result.render());
    println!(
        "{}/{} variants reproduce the paper's impact class ({:.1} s)",
        result.matching_rows(),
        result.rows.len(),
        started.elapsed().as_secs_f64()
    );
    bench::save_json("table1_variants", &result);
    assert_eq!(result.matching_rows(), result.rows.len(), "all Table I variants must reproduce");
}
