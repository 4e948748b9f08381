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
    for rule in ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R9", "R10", "R11"] {
        assert!(
            output.contains(&format!("\"rule\": \"{rule}\"")),
            "rule {rule} missing from findings:\n{output}"
        );
    }
    // The deliberately stale allowlist entry and the entry point that
    // names no fn must both surface as CONFIG.
    assert!(
        output.contains("\"rule\": \"CONFIG\""),
        "stale allowlist entry not reported:\n{output}"
    );
    assert!(
        output.contains("unresolved-entry-point") && output.contains("Missing::step"),
        "unresolved entry point not reported:\n{output}"
    );
}

#[test]
fn call_graph_rules_walk_the_chain_and_respect_cfg_test() {
    let (ok, output) = run_lint(&ws());
    assert!(!ok);
    // The panic sits two calls from HotLoop::step; the
    // finding must carry the reconstructed chain.
    assert!(
        output.contains("expect(\\\"non-empty\\\")") || output.contains("non-empty"),
        "transitive panic not found:\n{output}"
    );
    assert!(output.contains("hot path:"), "chain hint missing:\n{output}");
    assert!(output.contains("deep"), "chain should name the sink fn:\n{output}");
    // Negative space: unreachable and #[cfg(test)]-gated panics stay dark.
    assert!(
        !output.contains("cold-path-marker"),
        "R3 fired on a fn unreachable from the entry point:\n{output}"
    );
    assert!(!output.contains("cfg-test-marker"), "R3 fired on a #[cfg(test)]-gated fn:\n{output}");
    // The old per-crate R3 seed in violations.rs is likewise unreachable.
    assert!(
        !output.contains("buf.first().unwrap()"),
        "R3 must be reachability-scoped, not crate-scoped:\n{output}"
    );
}

#[test]
fn r9_r10_r11_fire_on_their_seeds_only() {
    let (ok, output) = run_lint(&ws());
    assert!(!ok);
    // R9: the raw label fires; the streams:: constant site stays quiet;
    // registry/doc drift is reported both directions.
    assert!(output.contains("raw-label"), "raw stream label not flagged:\n{output}");
    assert!(!output.contains("streams::TREMOR"), "constant-labelled site flagged:\n{output}");
    assert!(output.contains("undoc-stream"), "registered-but-undocumented missed:\n{output}");
    assert!(output.contains("phantom-stream"), "documented-but-unregistered missed:\n{output}");
    // R10: the ABBA pair is reported once, naming both locks.
    assert!(output.contains("Pair.a"), "{output}");
    assert!(output.contains("Pair.b"), "{output}");
    // R11: drift both directions.
    assert!(output.contains("rogue_key"), "key without field missed:\n{output}");
    assert!(output.contains("missing_everywhere"), "field without key missed:\n{output}");
}

#[test]
fn sarif_output_has_the_2_1_0_shape() {
    let (status, stdout, _) = run_args(&["--format", "sarif"], Some(&ws()));
    assert!(!status.success());
    assert!(stdout.contains("\"version\": \"2.1.0\""), "{stdout}");
    assert!(stdout.contains("sarif-2.1.0.json"), "{stdout}");
    assert!(stdout.contains("\"driver\""), "{stdout}");
    assert!(stdout.contains("\"ruleId\": \"R3\""), "{stdout}");
    assert!(stdout.contains("\"fingerprints\""), "{stdout}");
    assert!(stdout.contains("\"physicalLocation\""), "{stdout}");
}

#[test]
fn baseline_suppresses_known_findings() {
    let dir = std::env::temp_dir().join(format!("raven-lint-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let baseline = dir.join("baseline.json");
    let baseline_str = baseline.to_string_lossy().into_owned();

    let (status, _, stderr) =
        run_args(&["--baseline", &baseline_str, "--update-baseline"], Some(&ws()));
    assert!(status.success(), "--update-baseline must exit 0:\n{stderr}");
    assert!(baseline.is_file());

    // Every current finding is now known: the audit passes and reports
    // the suppression count.
    let (status, stdout, stderr) = run_args(&["--json", "--baseline", &baseline_str], Some(&ws()));
    assert!(status.success(), "baselined audit must pass:\n{stderr}");
    assert!(stdout.trim() == "[]", "no fresh findings expected:\n{stdout}");
    assert!(stderr.contains("baseline-suppressed"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn list_rules_prints_catalog_and_unknown_rule_is_an_error() {
    let (status, stdout, _) = run_args(&["--list-rules"], None);
    assert!(status.success());
    for id in ["R1", "R3", "R9", "R10", "R11"] {
        assert!(stdout.contains(id), "catalog missing {id}:\n{stdout}");
    }
    let (status, _, stderr) = run_args(&["--rule", "R99"], Some(&ws()));
    assert_eq!(status.code(), Some(2), "unknown rule must be a hard error");
    assert!(stderr.contains("unknown rule"), "{stderr}");
    // A valid filter narrows the findings to that rule.
    let (status, stdout, _) = run_args(&["--json", "--rule", "R7"], Some(&ws()));
    assert!(!status.success());
    assert!(stdout.contains("\"rule\": \"R7\""), "{stdout}");
    assert!(!stdout.contains("\"rule\": \"R1\""), "{stdout}");
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
