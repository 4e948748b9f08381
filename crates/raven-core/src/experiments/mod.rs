//! Experiment runners — one module per table/figure of the paper's
//! evaluation (see DESIGN.md §4 for the index).
//!
//! Each runner takes a size/seed configuration, executes full-system
//! simulations, and returns a serde-serializable result struct with a
//! `render()` method that prints the same rows/series the paper reports.
//! A result is a pure function of its seed and sizes: the wall-clock
//! readings of Fig. 8 ([`fig8::StepTime`]) and of the BITW study
//! ([`ablations::CryptoCost`]) are returned beside it, and Table II,
//! which measures nothing else, returns only readings.
//! [`index`] holds every sealed artifact's seed, quick and paper sizes,
//! files and shape checks in one table: `raven-sim artifacts`,
//! `raven-sim <command>` and `raven-sim profile` all run from it. Unit
//! tests and the golden fixtures run reduced sizes.

pub mod ablations;
pub mod chaos;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod index;
pub mod network;
pub mod table1;
pub mod table2;
pub mod table4;

pub use ablations::{
    run_bitw_study_with, run_fusion_ablation_with, run_hardened_board_with,
    run_lookahead_ablation_with, run_mitigation_ablation_with, BitwStudy, CryptoCost,
    FusionAblation, HardenedBoardResult, LookaheadAblation, MitigationAblation,
};
pub use chaos::{run_chaos_study_with, ChaosStudy, ChaosStudyConfig};
pub use fig5::{run_fig5, Fig5Result};
pub use fig6::{run_fig6, Fig6Result};
pub use fig8::{run_fig8, Fig8Result, StepTime};
pub use fig9::{run_fig9, run_fig9_with, Fig9Config, Fig9Result};
pub use network::{run_network_study, NetworkRow, NetworkStudy};
pub use table1::{run_table1, Table1Result};
pub use table2::{run_table2, Table2Result};
pub use table4::{run_table4, run_table4_with, Table4Config, Table4Result};
