//! Regenerates Figure 6: Byte 0 state staircases across nine runs.
//!
//! ```sh
//! cargo bench -p bench --bench fig6_state_inference
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_core::experiments::run_fig6;

fn main() {
    let result = run_fig6(5);
    print!("{}", result.render());
    bench::save_json("fig6_state_inference", &result);
    assert_eq!(result.correct_runs(), 9, "all nine state machines must be recoverable");
}
