//! Tier-1 guard for the static audit: the workspace must pass
//! `cargo run -p raven-lint` with pinned scan/finding/exception counts,
//! and the seeded fixture workspace must fail it with every rule
//! represented. This keeps the audit inside the plain `cargo test -q`
//! gate (the per-rule fixture suite lives in `crates/raven-lint/tests/`
//! and runs with the workspace tests).

use std::path::Path;
use std::process::Command;

fn run_lint(root: &Path) -> (bool, String, String) {
    let out = Command::new(env!("CARGO"))
        .args(["run", "-q", "-p", "raven-lint", "--", "--json", "--root"])
        .arg(root)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cargo run -p raven-lint");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn workspace_passes_its_own_audit_with_pinned_counts() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(root.join("raven-lint.toml").is_file());
    let (ok, stdout, stderr) = run_lint(root);
    assert!(ok, "the workspace must pass its own static audit:\n{stdout}\n{stderr}");

    // The summary line pins the audit's shape: zero findings, and the
    // audited-exception count must move deliberately — an exception that
    // appears (or vanishes) without this number being updated is exactly
    // the drift the allowlist is supposed to make loud.
    let summary = stderr
        .lines()
        .find(|l| l.contains("file(s) scanned"))
        .unwrap_or_else(|| panic!("no summary line in stderr:\n{stderr}"));
    let grab = |marker: &str| -> usize {
        let end = summary.find(marker).unwrap_or_else(|| panic!("`{marker}` in: {summary}"));
        summary[..end]
            .rsplit(|c: char| !c.is_ascii_digit())
            .find(|s| !s.is_empty())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no count before `{marker}` in: {summary}"))
    };
    assert_eq!(grab(" finding(s)"), 0, "{summary}");
    assert_eq!(grab(" allowlisted exception(s)"), 19, "{summary}");
    let scanned = grab(" file(s) scanned");
    assert!(
        (140..=220).contains(&scanned),
        "scanned file count drifted out of the expected band: {summary}"
    );
}

#[test]
fn seeded_violations_fail_the_audit() {
    let ws = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/raven-lint/tests/fixtures/ws");
    let (ok, stdout, stderr) = run_lint(&ws);
    assert!(!ok, "the seeded fixture workspace must fail the audit:\n{stdout}\n{stderr}");
    for rule in ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R9", "R10", "R11", "CONFIG"] {
        assert!(
            stdout.contains(&format!("\"rule\": \"{rule}\"")),
            "rule {rule} missing from findings:\n{stdout}"
        );
    }
}
