//! Per-rule positive/negative coverage over the fixture corpus in
//! `tests/fixtures/cases/`. Every rule must fire on its `_bad` fixture and
//! stay silent on its `_ok` counterpart.

use raven_lint::callgraph::CallGraph;
use raven_lint::config::{ArtifactRoot, WatchedEnum};
use raven_lint::rules;
use raven_lint::Config;
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

/// Builds the call graph for one fixture and runs the hot-path rule from
/// `entry`.
fn hot_path(name: &str, entry: &str, tokens: &[&str]) -> Vec<rules::Finding> {
    let files = vec![fixture(name)];
    let graph = CallGraph::build(&files);
    let reach = graph.reachable_from(&[entry.to_string()]);
    let tokens: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
    rules::hot_path_rule(&files, &graph, &reach, &tokens)
}

#[test]
fn r3_panic_positive_and_negative() {
    let tokens = [".unwrap(", ".expect(", "panic!("];
    let bad = hot_path("r3_panic_bad.rs", "decode", &tokens);
    assert_eq!(bad.len(), 3, "{bad:?}");
    assert!(bad.iter().all(|f| f.rule == "R3"));
    let ok = hot_path("r3_panic_ok.rs", "decode", &tokens);
    assert!(ok.is_empty(), "unwraps in #[cfg(test)] must not fire: {ok:?}");
}

#[test]
fn r3_callgraph_positive_and_negative() {
    let bad = hot_path("r3_callgraph_bad.rs", "Sim::step", &[".unwrap(", "panic!("]);
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(bad[0].hint.contains("Sim::step → relay → sink"), "{bad:?}");
    // cfg(test)-gated chain and an unreachable panic: both silent.
    let ok = hot_path("r3_callgraph_ok.rs", "Sim::step", &[".unwrap(", "panic!("]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn r9_stream_call_sites_positive_and_negative() {
    let fns = vec!["stream_rng".to_string()];
    let bad = rules::rng_stream_call_sites(&fixture("r9_stream_bad.rs"), &fns);
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(bad[0].snippet.contains("rogue-stream"), "{bad:?}");
    let ok = rules::rng_stream_call_sites(&fixture("r9_stream_ok.rs"), &fns);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn r11_schema_positive_and_negative() {
    let cfg = Config {
        artifact_roots: vec![ArtifactRoot {
            json: "golden_stats.json".into(),
            strukt: "GoldenStats".into(),
        }],
        ..Config::default()
    };
    let bad_files = vec![fixture("r11_schema_bad.rs")];
    let artifacts =
        vec![("golden_stats.json".to_string(), r#"{"seed": 1, "rogue": 2}"#.to_string())];
    let bad = rules::artifact_schema(&cfg, &bad_files, &CallGraph::build(&bad_files), &artifacts);
    assert_eq!(bad.len(), 2, "{bad:?}");
    assert!(bad.iter().any(|f| f.hint.contains("rogue")), "{bad:?}");
    assert!(bad.iter().any(|f| f.hint.contains("never_written")), "{bad:?}");

    let ok_files = vec![fixture("r11_schema_ok.rs")];
    let artifacts =
        vec![("golden_stats.json".to_string(), r#"{"seed": 1, "mean": 0.5}"#.to_string())];
    let ok = rules::artifact_schema(&cfg, &ok_files, &CallGraph::build(&ok_files), &artifacts);
    assert!(ok.is_empty(), "{ok:?}");
}
