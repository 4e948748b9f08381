//! Regenerates Figure 5: byte-by-byte analysis of one captured session.
//!
//! ```sh
//! cargo bench -p bench --bench fig5_packet_bytes
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_core::experiments::run_fig5;

fn main() {
    let session_ms = if bench::quick_mode() { 3_000 } else { 8_000 };
    let result = run_fig5(3, session_ms);
    print!("{}", result.render());
    bench::save_json("fig5_packet_bytes", &result);

    assert_eq!(result.byte0_values.len(), 8, "Byte 0 must take 8 values (Fig. 5(c))");
    assert_eq!(result.watchdog_mask, Some(0x10), "bit 4 is the watchdog");
    assert_eq!(result.byte0_values_masked.len(), 4, "4 states after masking");
}
