//! Ablation benches for the design choices DESIGN.md §5 calls out:
//! alarm fusion, mitigation policy, and the hardened-board counterfactual.
//!
//! ```sh
//! cargo bench -p bench --bench ablation_suite
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_core::experiments::{
    run_bitw_study_with, run_fusion_ablation_with, run_hardened_board_with,
    run_lookahead_ablation_with, run_mitigation_ablation_with, run_network_study,
};
use raven_core::ExecutorConfig;

fn main() {
    let (fusion_runs, mitigation_runs) = if bench::quick_mode() { (12, 6) } else { (80, 20) };
    let exec = ExecutorConfig::default();

    let fusion = run_fusion_ablation_with(41, fusion_runs, &exec);
    print!("{}", fusion.render());
    bench::save_json("ablation_fusion", &fusion);

    let mitigation = run_mitigation_ablation_with(43, mitigation_runs, &exec);
    print!("\n{}", mitigation.render());
    bench::save_json("ablation_mitigation", &mitigation);

    let hardened = run_hardened_board_with(45, &exec);
    print!("\n{}", hardened.render());
    bench::save_json("ablation_hardened_board", &hardened);

    let bitw = run_bitw_study_with(47, &exec);
    print!("\n{}", bitw.render());
    bench::save_json("ablation_bitw", &bitw);

    let lookahead =
        run_lookahead_ablation_with(49, if bench::quick_mode() { 9 } else { 30 }, &exec);
    print!("\n{}", lookahead.render());
    bench::save_json("ablation_lookahead", &lookahead);

    let network = run_network_study(53);
    print!("\n{}", network.render());
    bench::save_json("study_network", &network);

    assert!(fusion.rows[0].fpr <= fusion.rows[1].fpr, "fusion reduces false alarms");
    assert!(
        mitigation.rows[1].survived_rate >= mitigation.rows[2].survived_rate,
        "hold preserves availability at least as well as E-STOP"
    );
    assert!(!hardened.b_adverse && hardened.a_still_effective);
    assert!(
        bitw.rows[1].adverse && !bitw.rows[2].adverse,
        "wire placement useless, host placement degrades the attack to DoS"
    );
}
