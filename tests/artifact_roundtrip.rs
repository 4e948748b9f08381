//! Artifact-schema guard: every committed `results/*.json` (the signed
//! `MANIFEST.json` included) and every golden fixture parse into the
//! record type that wrote them, and `to_string_pretty` of the parsed
//! record reproduces the file byte for byte. A key the type no longer has
//! is dropped on the way through, and a field the file lacks fails to
//! parse, so either drift fails here. A new artifact must be added to
//! `ARTIFACTS` with its type.

use raven_core::experiments::{
    BitwStudy, Fig5Result, Fig6Result, Fig8Result, Fig9Result, FusionAblation, HardenedBoardResult,
    LookaheadAblation, MitigationAblation, NetworkStudy, Table1Result, Table4Result,
};
use raven_ledger::Manifest;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Parses `text` as `T` and renders it back the way the writer does.
fn reserialize<T: Serialize + Deserialize>(text: &str) -> Result<String, String> {
    let record: T = serde_json::from_str(text).map_err(|e| e.to_string())?;
    serde_json::to_string_pretty(&record).map_err(|e| e.to_string())
}

type Roundtrip = fn(&str) -> Result<String, String>;

/// Every pinned artifact and the record type its writer serializes.
const ARTIFACTS: [(&str, Roundtrip); 22] = [
    // The manifest's writer appends a newline to the pretty JSON.
    ("results/MANIFEST.json", |text| Manifest::from_json(text).map(|m| m.to_json_pretty())),
    ("results/ablation_bitw.json", reserialize::<BitwStudy>),
    ("results/ablation_fusion.json", reserialize::<FusionAblation>),
    ("results/ablation_hardened_board.json", reserialize::<HardenedBoardResult>),
    ("results/ablation_lookahead.json", reserialize::<LookaheadAblation>),
    ("results/ablation_mitigation.json", reserialize::<MitigationAblation>),
    ("results/fig5_packet_bytes.json", reserialize::<Fig5Result>),
    ("results/fig6_state_inference.json", reserialize::<Fig6Result>),
    ("results/fig8_model_validation.json", reserialize::<Fig8Result>),
    ("results/fig9_sweep.json", reserialize::<Fig9Result>),
    ("results/study_network.json", reserialize::<NetworkStudy>),
    ("results/table1_variants.json", reserialize::<Table1Result>),
    ("results/table4_detection.json", reserialize::<Table4Result>),
    ("tests/fixtures/golden_fig5.json", reserialize::<Fig5Result>),
    ("tests/fixtures/golden_fig8.json", reserialize::<Fig8Result>),
    ("tests/fixtures/golden_fig9.json", reserialize::<Fig9Result>),
    ("tests/fixtures/golden_fusion.json", reserialize::<FusionAblation>),
    ("tests/fixtures/golden_lookahead.json", reserialize::<LookaheadAblation>),
    ("tests/fixtures/golden_mitigation.json", reserialize::<MitigationAblation>),
    ("tests/fixtures/golden_network.json", reserialize::<NetworkStudy>),
    ("tests/fixtures/golden_table1.json", reserialize::<Table1Result>),
    ("tests/fixtures/golden_table4.json", reserialize::<Table4Result>),
];

#[test]
fn every_artifact_roundtrips_through_its_record_type_byte_for_byte() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut results: Vec<String> = std::fs::read_dir(root.join("results"))
        .expect("results dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".json") && !name.starts_with("profile_"))
        .map(|name| format!("results/{name}"))
        .collect();
    results.sort();
    let listed: Vec<&str> =
        ARTIFACTS.iter().map(|(p, _)| *p).filter(|p| p.starts_with("results/")).collect();
    assert_eq!(results, listed, "every results/*.json needs its record type in ARTIFACTS");

    for (rel, roundtrip) in ARTIFACTS {
        let text = std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let again = roundtrip(&text).unwrap_or_else(|e| panic!("{rel} does not parse: {e}"));
        if let Some(line) = again.lines().zip(text.lines()).position(|(a, b)| a != b) {
            panic!("{rel} does not round-trip through its record type: line {} differs", line + 1);
        }
        assert_eq!(again.len(), text.len(), "{rel} does not round-trip: its length differs");
    }
}
