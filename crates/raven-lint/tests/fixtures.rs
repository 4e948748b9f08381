//! Per-rule positive/negative coverage over the fixture corpus in
//! `tests/fixtures/cases/`. Every rule must fire on its `_bad` fixture and
//! stay silent on its `_ok` counterpart.

use raven_lint::config::WatchedEnum;
use raven_lint::rules;
use raven_lint::SourceFile;
use std::path::Path;

fn fixture(name: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cases").join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    SourceFile::parse(name, &src, false)
}

fn watched() -> Vec<WatchedEnum> {
    vec![
        WatchedEnum {
            name: "RobotState".into(),
            variants: vec!["EStop".into(), "Init".into(), "PedalUp".into(), "PedalDown".into()],
        },
        WatchedEnum {
            name: "ControlEvent".into(),
            variants: vec![
                "StartPressed".into(),
                "HomingComplete".into(),
                "PedalPressed".into(),
                "PedalReleased".into(),
                "Fault".into(),
            ],
        },
    ]
}

#[test]
fn r4_match_positive_and_negative() {
    let enums = watched();
    let bad = rules::exhaustive_safety_match(&fixture("r4_match_bad.rs"), &enums);
    assert_eq!(bad.len(), 2, "{bad:?}"); // `_ => true` and `(s, _) => s`
    let ok = rules::exhaustive_safety_match(&fixture("r4_match_ok.rs"), &enums);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn r7_float_cmp_positive_and_negative() {
    let bad = rules::float_cmp(&fixture("r7_float_cmp_bad.rs"));
    assert_eq!(bad.len(), 4, "{bad:?}");
    assert!(bad.iter().all(|f| f.rule == "R7" && f.name == "no-float-eq"));
    let ok = rules::float_cmp(&fixture("r7_float_cmp_ok.rs"));
    assert!(ok.is_empty(), "{ok:?}");
}
