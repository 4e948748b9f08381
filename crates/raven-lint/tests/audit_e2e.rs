//! End-to-end binary tests: the mini fixture workspace (one seeded
//! violation per rule) must fail the audit with every rule represented,
//! and the real workspace must pass it — this is the tier-1 guard that
//! keeps `cargo test -q` equivalent to `cargo run -p raven-lint`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn ws() -> PathBuf {
    manifest_dir().join("tests/fixtures/ws")
}

fn run_args(args: &[&str], root: Option<&Path>) -> (std::process::ExitStatus, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_raven-lint"));
    cmd.args(args);
    if let Some(root) = root {
        cmd.arg("--root").arg(root);
    }
    let out = cmd.output().expect("spawn raven-lint");
    (
        out.status,
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn run_lint(root: &Path) -> (bool, String) {
    let (status, stdout, stderr) = run_args(&["--json"], Some(root));
    (status.success(), format!("{stdout}\n{stderr}"))
}

#[test]
fn seeded_violations_fail_with_every_rule_represented() {
    let (ok, output) = run_lint(&ws());
    assert!(!ok, "seeded workspace must fail the audit:\n{output}");
    for rule in ["R4", "R5", "R7"] {
        assert!(
            output.contains(&format!("\"rule\": \"{rule}\"")),
            "rule {rule} missing from findings:\n{output}"
        );
    }
    // The deliberately stale allowlist entry must surface as CONFIG.
    assert!(
        output.contains("\"rule\": \"CONFIG\""),
        "stale allowlist entry not reported:\n{output}"
    );
}

#[test]
fn r5_fires_on_registered_names_only() {
    let (ok, output) = run_lint(&ws());
    assert!(!ok);
    // The names come from simbus::obs itself: a registered metric and a
    // registered channel fire, an unregistered dotted name does not.
    assert!(output.contains("m.inc(\\\"detector.alarms"), "registered metric missed:\n{output}");
    assert!(output.contains("t.record(\\\"ee_x_mm"), "registered channel missed:\n{output}");
    assert!(!output.contains("unregistered.metric"), "unregistered name flagged:\n{output}");
}

#[test]
fn sarif_output_has_the_2_1_0_shape() {
    let (status, stdout, _) = run_args(&["--format", "sarif"], Some(&ws()));
    assert!(!status.success());
    assert!(stdout.contains("\"version\": \"2.1.0\""), "{stdout}");
    assert!(stdout.contains("sarif-2.1.0.json"), "{stdout}");
    assert!(stdout.contains("\"driver\""), "{stdout}");
    assert!(stdout.contains("\"ruleId\": \"R4\""), "{stdout}");
    assert!(stdout.contains("\"fingerprints\""), "{stdout}");
    assert!(stdout.contains("\"physicalLocation\""), "{stdout}");
}

#[test]
fn list_rules_prints_catalog_and_unknown_rule_is_an_error() {
    let (status, stdout, _) = run_args(&["--list-rules"], None);
    assert!(status.success());
    let ids: Vec<&str> =
        stdout.lines().skip(1).filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(ids, ["R4", "R5", "R7", "CONFIG"], "{stdout}");
    // Unknown and retired rule ids, and the removed baseline flags, are
    // usage errors.
    for args in [
        &["--rule", "R99"][..],
        &["--rule", "R1"],
        &["--rule", "R3"],
        &["--rule", "R9"],
        &["--rule", "R10"],
        &["--rule", "R11"],
        &["--baseline", "x"],
    ] {
        let (status, _, stderr) = run_args(args, Some(&ws()));
        assert_eq!(status.code(), Some(2), "{args:?} must be a usage error:\n{stderr}");
    }
    let (_, _, stderr) = run_args(&["--rule", "R99"], Some(&ws()));
    assert!(stderr.contains("unknown rule"), "{stderr}");
    // A valid filter narrows the findings to that rule.
    let (status, stdout, _) = run_args(&["--json", "--rule", "R7"], Some(&ws()));
    assert!(!status.success());
    assert!(stdout.contains("\"rule\": \"R7\""), "{stdout}");
    assert!(!stdout.contains("\"rule\": \"R4\""), "{stdout}");
}

#[test]
fn real_workspace_passes_the_audit() {
    // crates/raven-lint -> the workspace root two levels up.
    let root: PathBuf = manifest_dir().ancestors().nth(2).expect("workspace root").to_path_buf();
    assert!(
        root.join("raven-lint.toml").is_file(),
        "expected raven-lint.toml at {}",
        root.display()
    );
    let (ok, output) = run_lint(&root);
    assert!(ok, "workspace audit must be clean:\n{output}");
}
