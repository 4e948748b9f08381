//! Tier-1 guard for the static checks. The rules the toolchain enforces
//! (clippy.toml and `[workspace.lints]`, the panic and `float_cmp` denials
//! at target roots) are gated by CI's clippy step; the last test here pins
//! their configuration and their exception sites. The one rule no lint
//! covers, that registered observability names are spelled only in
//! `simbus::obs`, is checked here. See docs/STATIC_ANALYSIS.md.

use simbus::obs::{channels, names, spans, EventKind};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A workspace file's text.
fn read(p: &str) -> String {
    fs::read_to_string(root().join(p)).unwrap_or_else(|e| panic!("{p}: {e}"))
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
/// that name one of `lints`, as (attribute kind, lint list, has a
/// `reason`) triples.
fn exceptions<'a>(src: &'a str, lints: &[&str]) -> Vec<(&'a str, &'a str, bool)> {
    let mut out = Vec::new();
    for kind in ["allow", "expect"] {
        let opener = format!("{kind}(");
        for (at, _) in src.match_indices(&opener) {
            let before = src[..at].trim_end();
            if !(before.ends_with("#[") || before.ends_with("#![")) {
                continue;
            }
            let rest = &src[at + opener.len()..];
            let attr = &rest[..rest.find(")]").unwrap_or(rest.len())];
            let end = attr.find("reason").unwrap_or(attr.len());
            let list = &attr[..end];
            if lints.iter().any(|l| list.contains(l)) {
                out.push((kind, list.trim(), attr[end..].starts_with("reason = \"")));
            }
        }
    }
    out
}

/// The lints a `#![deny(..)]` attribute in `src` names.
fn denied(src: &str) -> Vec<&str> {
    let Some(at) = src.find("#![deny(") else { return Vec::new() };
    let rest = &src[at + "#![deny(".len()..];
    rest[..rest.find(")]").unwrap_or(0)]
        .split(',')
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect()
}

/// Workspace-relative paths of the `.rs` files under `dir`, skipping
/// build output.
fn walk_rs(dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path.strip_prefix(root()).unwrap().to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            if entry.file_name() != "target" {
                walk_rs(&path, out);
            }
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
}

fn rs_files(dirs: &[&str]) -> Vec<String> {
    let mut files = Vec::new();
    for dir in dirs {
        walk_rs(&root().join(dir), &mut files);
    }
    files.sort();
    files
}

/// Registered observability names (event kinds, metrics, channels, spans)
/// are spelled only in `simbus::obs`: a literal elsewhere would keep the
/// old name through a rename there. The names and family prefixes come
/// from the registry's own arrays. Test code is exempt: everything from a
/// file's one `#[cfg(test)]` on, which must open the file's trailing
/// module, so no production item can sit behind it.
#[test]
fn registered_names_are_spelled_only_in_the_registry() {
    let kinds = EventKind::ALL.map(EventKind::as_str);
    let mut literals: Vec<String> = [&kinds[..], &names::ALL, &channels::ALL, &spans::ALL]
        .concat()
        .iter()
        .map(|name| format!("\"{name}\""))
        .collect();
    literals.extend(names::FAMILIES.iter().map(|prefix| format!("\"{prefix}")));

    let mut findings = Vec::new();
    let mut scanned = 0;
    for f in rs_files(&["crates", "src", "examples"]) {
        if f == "crates/simbus/src/obs.rs" || f.split('/').any(|d| d == "tests" || d == "vendor") {
            continue;
        }
        scanned += 1;
        let src = read(&f);
        let lines: Vec<&str> = src.lines().collect();
        let cut = lines.iter().position(|l| l.contains("#[cfg(test)]"));
        if let Some(at) = cut {
            assert_eq!(src.matches("#[cfg(test)]").count(), 1, "{f}: one `#[cfg(test)]` at most");
            assert_eq!(lines[at], "#[cfg(test)]", "{f}:{}: gates a top-level item", at + 1);
            let opener = lines.get(at + 1).copied().unwrap_or_default();
            assert!(
                opener.starts_with("mod ") && opener.ends_with(" {"),
                "{f}:{}: `#[cfg(test)]` must open a module",
                at + 2
            );
            // rustfmt indents a module's body, so its `}` is the only
            // unindented line left if the module ends the file.
            let top_level: Vec<&str> = lines[at + 2..]
                .iter()
                .copied()
                .filter(|l| !l.is_empty() && !l.starts_with(char::is_whitespace))
                .collect();
            assert_eq!(top_level, ["}"], "{f}: the `#[cfg(test)]` module must end the file");
        }
        for (i, line) in lines[..cut.unwrap_or(lines.len())].iter().enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            for literal in literals.iter().filter(|l| line.contains(l.as_str())) {
                findings.push(format!("{f}:{}: {literal}", i + 1));
            }
        }
    }
    assert!(scanned > 100, "only {scanned} files scanned");
    assert!(
        findings.is_empty(),
        "registered names spelled as literals; use simbus::obs \
         (EventKind, names::*, channels::*, spans::*):\n{}",
        findings.join("\n")
    );
}

#[test]
fn toolchain_lints_are_configured_and_their_exceptions_pinned() {
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
    // unsafe audit (R6) rely on, and `_` arms over enums (R4): a new state,
    // event or fault reason must be handled wherever it is matched.
    let cargo = read("Cargo.toml");
    assert_eq!(toml_table(&cargo, "[workspace.lints.rust]").get("unsafe_code"), Some(&"\"deny\""));
    let clippy_lints = toml_table(&cargo, "[workspace.lints.clippy]");
    for lint in [
        "undocumented_unsafe_blocks",
        "disallowed_methods",
        "disallowed_types",
        "wildcard_enum_match_arm",
    ] {
        assert_eq!(clippy_lints.get(lint), Some(&"\"deny\""), "{lint}");
    }

    // The panic lints are denied where the 1 ms cycle runs: at the root of
    // each crate it runs through and on raven-core's sim.rs. clippy.toml
    // exempts `#[cfg(test)]` code from the first three.
    let panic_lints = [
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::unreachable",
        "clippy::todo",
        "clippy::unimplemented",
    ];
    for krate in [
        "simbus",
        "raven-math",
        "raven-kinematics",
        "raven-dynamics",
        "raven-hw",
        "raven-control",
        "raven-teleop",
        "raven-attack",
        "raven-detect",
    ] {
        let f = format!("crates/{krate}/src/lib.rs");
        assert_eq!(denied(&read(&f)), panic_lints, "{f}");
    }
    assert_eq!(denied(&read("crates/raven-core/src/sim.rs")), panic_lints, "sim.rs");
    for key in ["allow-unwrap-in-tests", "allow-expect-in-tests", "allow-panic-in-tests"] {
        assert!(clippy.lines().any(|l| l == format!("{key} = true")), "clippy.toml: {key}");
    }

    // Exact float equality (R7) is denied outside tests at the root of
    // every non-test target of the crates whose outputs are serialized or
    // merged.
    let mut float_roots: Vec<String> =
        ["simbus", "raven-core", "raven-attack", "raven-ledger", "raven-fleet", "bench"]
            .iter()
            .map(|krate| format!("crates/{krate}/src/lib.rs"))
            .collect();
    float_roots.extend(["src/lib.rs".to_string(), "src/bin/raven-sim.rs".to_string()]);
    float_roots.extend(rs_files(&["crates/bench/benches", "examples"]));
    assert_eq!(float_roots.len(), 18, "{float_roots:?}");
    for f in &float_roots {
        let attr = "#![cfg_attr(not(test), deny(clippy::float_cmp))]";
        assert!(read(f).lines().any(|l| l == attr), "{f} needs `{attr}`");
    }

    // The root package and every crate opt in.
    let mut manifests = vec!["Cargo.toml".to_string()];
    for entry in fs::read_dir(root().join("crates")).unwrap().flatten() {
        if entry.path().join("Cargo.toml").is_file() {
            manifests.push(format!("crates/{}/Cargo.toml", entry.file_name().to_string_lossy()));
        }
    }
    assert!(manifests.len() >= 15, "{manifests:?}");
    for m in &manifests {
        assert_eq!(toml_table(&read(m), "[lints]").get("workspace"), Some(&"true"), "{m}");
    }

    // Every exception is an `expect` with a reason (stale ones fail clippy
    // with unfulfilled_lint_expectations), one lint per attribute, and the
    // set of (file, lint) pairs is pinned: a new exception must edit this
    // list. The two `disallowed_types` sites in span.rs and trace.rs are
    // the workspace's only locks, each a leaf lock. The panic
    // exceptions are item-level: each excuses one documented fail-fast.
    let lints: Vec<&str> = [
        "clippy::disallowed_methods",
        "clippy::disallowed_types",
        "clippy::wildcard_enum_match_arm",
        "clippy::float_cmp",
        "unsafe_code",
    ]
    .into_iter()
    .chain(panic_lints)
    .collect();
    let mut found = Vec::new();
    for f in &rs_files(&["crates", "src", "tests", "examples"]) {
        let src = read(f);
        for (kind, list, reasoned) in exceptions(&src, &lints) {
            assert_eq!(kind, "expect", "{f}: `{kind}({list})` must be an expect");
            assert!(reasoned, "{f}: `expect({list})` needs a reason");
            let named: Vec<&str> = lints.iter().copied().filter(|l| list.contains(l)).collect();
            assert_eq!(named.len(), 1, "{f}: one lint per exception: `{list}`");
            found.push((f.clone(), named[0]));
        }
    }
    found.sort();
    let expected = [
        ("crates/bench/benches/fleet_throughput.rs", "clippy::disallowed_methods"),
        ("crates/bench/benches/micro_kernels.rs", "clippy::disallowed_methods"),
        ("crates/raven-attack/src/malware.rs", "clippy::expect_used"),
        ("crates/raven-core/src/campaign/executor.rs", "clippy::disallowed_methods"),
        ("crates/raven-core/src/campaign/trace.rs", "clippy::disallowed_methods"),
        ("crates/raven-core/src/campaign/trace.rs", "clippy::disallowed_types"),
        ("crates/raven-core/src/experiments/ablations.rs", "clippy::disallowed_methods"),
        ("crates/raven-core/src/experiments/fig8.rs", "clippy::disallowed_methods"),
        ("crates/raven-core/src/experiments/table2.rs", "clippy::disallowed_methods"),
        ("crates/raven-detect/tests/tail_memory.rs", "unsafe_code"),
        ("crates/raven-dynamics/src/estimator.rs", "clippy::expect_used"),
        ("crates/raven-kinematics/src/coupling.rs", "clippy::expect_used"),
        ("crates/raven-math/src/stats.rs", "clippy::expect_used"),
        ("crates/raven-math/src/vec3.rs", "clippy::panic"),
        ("crates/raven-math/src/vec3.rs", "clippy::panic"),
        ("crates/simbus/src/span.rs", "clippy::disallowed_methods"),
        ("crates/simbus/src/span.rs", "clippy::disallowed_types"),
        ("crates/simbus/src/trace.rs", "clippy::panic"),
        ("tests/zero_alloc.rs", "unsafe_code"),
    ];
    let found: Vec<(&str, &str)> = found.iter().map(|(f, l)| (f.as_str(), *l)).collect();
    assert_eq!(found, expected);
}
