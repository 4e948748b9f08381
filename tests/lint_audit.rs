//! Tier-1 guard for the static audit: the workspace must pass
//! `cargo run -p raven-lint` with pinned scan/finding/exception counts,
//! and the seeded fixture workspace must fail it with every rule
//! represented. This keeps the audit inside the plain `cargo test -q`
//! gate (the per-rule fixture suite lives in `crates/raven-lint/tests/`
//! and runs with the workspace tests). The rules the toolchain checks
//! (clippy.toml and `[workspace.lints]`) are gated by CI's clippy step;
//! the last test here pins their configuration and their exception sites.

use std::collections::BTreeMap;
use std::fs;
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
    assert_eq!(grab(" allowlisted exception(s)"), 5, "{summary}");
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
    for rule in ["R3", "R4", "R5", "R7", "R9", "R11", "CONFIG"] {
        assert!(
            stdout.contains(&format!("\"rule\": \"{rule}\"")),
            "rule {rule} missing from findings:\n{stdout}"
        );
    }
}

/// The `key = value` lines of one `[header]` table of a TOML file.
fn toml_table<'a>(text: &'a str, header: &str) -> BTreeMap<&'a str, &'a str> {
    text.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim(), v.trim()))
        .collect()
}

/// The body of the `key = [ ... ]` array in `clippy.toml`.
fn clippy_array<'a>(text: &'a str, key: &str) -> &'a str {
    let open = format!("{key} = [");
    let start = text.find(&open).unwrap_or_else(|| panic!("clippy.toml has no `{key}`"));
    let body = &text[start + open.len()..];
    &body[..body.find("\n]").unwrap_or_else(|| panic!("unterminated `{key}`"))]
}

/// Lint-level attributes (`#[allow(..)]`, `#![expect(..)]`, ...) in `src`
/// that name one of `lints`, as (attribute kind, lint list) pairs.
fn exceptions<'a>(src: &'a str, lints: &[&str]) -> Vec<(&'a str, &'a str)> {
    let mut out = Vec::new();
    for kind in ["allow", "expect"] {
        let opener = format!("{kind}(");
        for (at, _) in src.match_indices(&opener) {
            let before = src[..at].trim_end();
            if !(before.ends_with("#[") || before.ends_with("#![")) {
                continue;
            }
            let rest = &src[at + opener.len()..];
            let end = rest.find("reason").into_iter().chain(rest.find(')')).min().unwrap_or(0);
            let list = &rest[..end];
            if lints.iter().any(|l| list.contains(l)) {
                out.push((kind, list.trim()));
            }
        }
    }
    out
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            if entry.file_name() != "target" && rel != "crates/raven-lint/tests/fixtures" {
                walk_rs(&path, root, out);
            }
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
}

#[test]
fn toolchain_lints_are_configured_and_their_exceptions_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &str| fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("{p}: {e}"));

    // clippy.toml bans the wall clock (R1), hash collections (R2) and
    // locks (R10), each entry with the reason clippy prints.
    let clippy = read("clippy.toml");
    for (key, paths) in [
        ("disallowed-methods", &["std::time::Instant::now", "std::time::SystemTime::now"][..]),
        (
            "disallowed-types",
            &[
                "std::time::SystemTime",
                "std::collections::HashMap",
                "std::collections::HashSet",
                "parking_lot::Mutex",
                "parking_lot::RwLock",
                "std::sync::Mutex",
                "std::sync::RwLock",
            ],
        ),
    ] {
        let body = clippy_array(&clippy, key);
        for path in paths {
            assert!(body.contains(&format!("path = \"{path}\"")), "{key} must ban {path}");
        }
        assert_eq!(body.matches("path = ").count(), paths.len(), "{key}:\n{body}");
        assert_eq!(body.matches("reason = ").count(), paths.len(), "{key} needs reasons");
    }

    // The root [workspace.lints] denies the lints those bans and the
    // unsafe audit (R6) rely on.
    let cargo = read("Cargo.toml");
    assert_eq!(toml_table(&cargo, "[workspace.lints.rust]").get("unsafe_code"), Some(&"\"deny\""));
    let clippy_lints = toml_table(&cargo, "[workspace.lints.clippy]");
    for lint in ["undocumented_unsafe_blocks", "disallowed_methods", "disallowed_types"] {
        assert_eq!(clippy_lints.get(lint), Some(&"\"deny\""), "{lint}");
    }

    // The root package and every crate opt in.
    let mut manifests = vec!["Cargo.toml".to_string()];
    for entry in fs::read_dir(root.join("crates")).unwrap().flatten() {
        if entry.path().join("Cargo.toml").is_file() {
            manifests.push(format!("crates/{}/Cargo.toml", entry.file_name().to_string_lossy()));
        }
    }
    assert!(manifests.len() >= 16, "{manifests:?}");
    for m in &manifests {
        assert_eq!(toml_table(&read(m), "[lints]").get("workspace"), Some(&"true"), "{m}");
    }

    // Every exception is a file-level `expect` (stale ones fail clippy
    // with unfulfilled_lint_expectations), one lint per attribute, and the
    // set of (file, lint) pairs is pinned: a new exception must edit this
    // list. The three `disallowed_types` sites in span.rs, prefix.rs and
    // trace.rs are the workspace's only locks, each a leaf lock.
    let lints = ["clippy::disallowed_methods", "clippy::disallowed_types", "unsafe_code"];
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        walk_rs(&root.join(dir), root, &mut files);
    }
    let mut found = Vec::new();
    for f in &files {
        let src = read(f);
        for (kind, list) in exceptions(&src, &lints) {
            assert_eq!(kind, "expect", "{f}: `{kind}({list})` must be an expect");
            let named: Vec<&str> = lints.into_iter().filter(|l| list.contains(l)).collect();
            assert_eq!(named.len(), 1, "{f}: one lint per exception: `{list}`");
            found.push((f.clone(), named[0]));
        }
    }
    found.sort();
    let expected = [
        ("crates/bench/benches/fig9_sweep.rs", "clippy::disallowed_methods"),
        ("crates/bench/benches/fleet_throughput.rs", "clippy::disallowed_methods"),
        ("crates/bench/benches/micro_kernels.rs", "clippy::disallowed_methods"),
        ("crates/bench/benches/table1_variants.rs", "clippy::disallowed_methods"),
        ("crates/bench/benches/table4_detection.rs", "clippy::disallowed_methods"),
        ("crates/raven-core/src/campaign/executor.rs", "clippy::disallowed_methods"),
        ("crates/raven-core/src/campaign/trace.rs", "clippy::disallowed_methods"),
        ("crates/raven-core/src/campaign/trace.rs", "clippy::disallowed_types"),
        ("crates/raven-core/src/experiments/ablations.rs", "clippy::disallowed_methods"),
        ("crates/raven-core/src/experiments/fig8.rs", "clippy::disallowed_methods"),
        ("crates/raven-core/src/experiments/table2.rs", "clippy::disallowed_methods"),
        ("crates/raven-dynamics/src/plant/prefix.rs", "clippy::disallowed_types"),
        ("crates/simbus/src/span.rs", "clippy::disallowed_methods"),
        ("crates/simbus/src/span.rs", "clippy::disallowed_types"),
        ("tests/zero_alloc.rs", "unsafe_code"),
    ];
    let found: Vec<(&str, &str)> = found.iter().map(|(f, l)| (f.as_str(), *l)).collect();
    assert_eq!(found, expected);
}
