//! Tier-1 guard for the static audit. The workspace must pass raven-lint
//! (run in-process on the policy below) with pinned scan, finding and
//! exception counts, and the seeded fixture workspace must fail it with
//! every rule represented, so the audit is part of the plain `cargo test -q`
//! gate (the per-rule fixture suite lives in `crates/raven-lint/tests/`).
//! The rules the toolchain checks (clippy.toml and `[workspace.lints]`)
//! are gated by CI's clippy step; the last test here pins their
//! configuration and their exception sites.

use raven_lint::{AllowEntry, AuditReport, Config, WatchedEnum};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// The workspace's audit policy. See docs/STATIC_ANALYSIS.md.
const WORKSPACE: Config = Config {
    roots: &["crates", "src", "tests", "examples"],
    exclude: &[
        // The linter's own fixture corpus intentionally violates every rule.
        "crates/raven-lint/tests/fixtures/",
        // Vendored offline stubs are third-party API surface, not our code.
        "vendor/",
    ],
    // R4: matches over these enums must spell out every variant; a wildcard
    // would let a newly added state slip through a safety handler silently
    // (the paper's TOCTOU lesson: trust nothing implicit on the safety path).
    watched_enums: &[
        WatchedEnum { name: "RobotState", variants: &["EStop", "Init", "PedalUp", "PedalDown"] },
        WatchedEnum {
            name: "ControlEvent",
            variants: &["StartPressed", "HomingComplete", "PedalPressed", "PedalReleased", "Fault"],
        },
        WatchedEnum {
            name: "FaultReason",
            variants: &[
                "DacLimit",
                "JointLimit",
                "IkFailure",
                "HomingFailure",
                "OperatorStop",
                "GuardStop",
                "PlcStop",
            ],
        },
        WatchedEnum {
            name: "EStopCause",
            variants: &["WatchdogTimeout", "SoftwareCommand", "PhysicalButton", "HardwareFault"],
        },
        WatchedEnum { name: "Mitigation", variants: &["Observe", "BlockAndHold", "EStop"] },
        WatchedEnum { name: "FusionRule", variants: &["AllThree", "AnyOne"] },
        WatchedEnum { name: "DetectorMode", variants: &["Learning", "Armed"] },
        WatchedEnum { name: "WriteAction", variants: &["Forward", "Drop"] },
        WatchedEnum {
            name: "EventKind",
            variants: &[
                "AttackInstalled",
                "StateTransition",
                "ControlFault",
                "AttackInjection",
                "DetectorVerdict",
                "EstopLatched",
                "EstopCleared",
                "ChaosInjected",
                "LedgerAppended",
            ],
        },
        WatchedEnum {
            name: "ChaosFaultKind",
            variants: &[
                "ReorderNext",
                "DuplicateNext",
                "CorruptPacket",
                "BurstLoss",
                "StuckEncoder",
                "EncoderBitFlip",
                "DropUsbFrames",
                "BoardSilence",
            ],
        },
    ],
    // R7: exact float equality in the crates whose outputs are serialized
    // or merged: one reordered FMA flips `==` without failing any test.
    // Bit-exact checks go through f64::to_bits, tolerances through an
    // epsilon helper.
    float_cmp_crates: &[
        "simbus",
        "raven-core",
        "raven-attack",
        "raven-ledger",
        "raven-fleet",
        "bench",
        "raven-repro",
    ],
    allows: &[
        AllowEntry {
            rule: "R4",
            path: "crates/raven-control/src/state_machine.rs",
            contains: Some("(_, Fault(reason))"),
            reason: "faults preempt from *every* state by design (paper Fig. 1c); enumerating \
                     states here would weaken the guarantee",
        },
        AllowEntry {
            rule: "R4",
            path: "crates/raven-control/src/state_machine.rs",
            contains: Some("(s, _) => s"),
            reason: "terminal rule: events illegal in a state are ignored, holding the state \
                     (paper Fig. 1c); all legal pairs are enumerated above it",
        },
    ],
};

/// The seeded fixture workspace's policy: one violation per rule under
/// `src/`, plus two entries that must surface as stale (`CONFIG`): one
/// excusing a file that does not exist, one naming a rule id no rule emits.
const SEEDED: Config = Config {
    roots: &["src"],
    exclude: &[],
    watched_enums: &[WatchedEnum {
        name: "RobotState",
        variants: &["EStop", "Init", "PedalUp", "PedalDown"],
    }],
    float_cmp_crates: &["raven-repro"],
    allows: &[
        AllowEntry {
            rule: "R7",
            path: "src/stale_never_matches.rs",
            contains: None,
            reason: "deliberately stale: the engine must report this entry as CONFIG",
        },
        AllowEntry {
            rule: "R9",
            path: "src/violations.rs",
            contains: Some("err == 0.0"),
            reason: "a retired rule id covers nothing, not even the R7 finding on its line",
        },
    ],
};

fn audit(root: &Path, cfg: &Config) -> AuditReport {
    raven_lint::run(root, cfg).unwrap_or_else(|e| panic!("audit of {}: {e}", root.display()))
}

#[test]
fn workspace_passes_its_own_audit_with_pinned_counts() {
    let report = audit(Path::new(env!("CARGO_MANIFEST_DIR")), &WORKSPACE);
    assert!(
        report.findings.is_empty(),
        "the workspace must pass its own static audit:\n{:#?}",
        report.findings
    );
    // The audited-exception count must move deliberately: an exception
    // that appears (or vanishes) without this number being updated is
    // exactly the drift the allowlist is supposed to make loud.
    assert_eq!(report.allowed, 2, "{report:?}");
    assert!(
        (140..=220).contains(&report.files_scanned),
        "scanned file count drifted out of the expected band: {}",
        report.files_scanned
    );
}

#[test]
fn every_allowlist_entry_has_a_reason() {
    for a in WORKSPACE.allows {
        assert!(!a.reason.trim().is_empty(), "{a:?} needs a one-line reason");
        assert!(["R4", "R5", "R7"].contains(&a.rule), "{a:?} names no live rule");
    }
}

#[test]
fn seeded_violations_fail_the_audit() {
    let ws = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/raven-lint/tests/fixtures/ws");
    let report = audit(&ws, &SEEDED);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    for rule in ["R4", "R5", "R7", "CONFIG"] {
        assert!(rules.contains(&rule), "rule {rule} missing from findings:\n{report:#?}");
    }
    // R5's names come from simbus::obs itself: a registered metric and a
    // registered channel fire, an unregistered dotted name does not.
    let r5: Vec<&str> =
        report.findings.iter().filter(|f| f.rule == "R5").map(|f| f.snippet.as_str()).collect();
    assert!(r5.iter().any(|s| s.contains("m.inc(\"detector.alarms")), "{r5:?}");
    assert!(r5.iter().any(|s| s.contains("t.record(\"ee_x_mm")), "{r5:?}");
    assert!(!r5.iter().any(|s| s.contains("unregistered.metric")), "{r5:?}");
    // Both seeded entries are stale, the one naming a retired rule id
    // included, and neither suppressed anything.
    let stale: Vec<&str> =
        report.findings.iter().filter(|f| f.rule == "CONFIG").map(|f| f.snippet.as_str()).collect();
    assert_eq!(stale.len(), 2, "{stale:?}");
    assert!(stale.iter().any(|s| s.contains("src/stale_never_matches.rs")), "{stale:?}");
    assert!(stale.iter().any(|s| s.contains("\"R9\"")), "{stale:?}");
    assert_eq!(report.allowed, 0, "{report:?}");
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

    // Every exception is an `expect` with a reason (stale ones fail clippy
    // with unfulfilled_lint_expectations), one lint per attribute, and the
    // set of (file, lint) pairs is pinned: a new exception must edit this
    // list. The three `disallowed_types` sites in span.rs, prefix.rs and
    // trace.rs are the workspace's only locks, each a leaf lock. The panic
    // exceptions are item-level: each excuses one documented fail-fast.
    let lints: Vec<&str> =
        ["clippy::disallowed_methods", "clippy::disallowed_types", "unsafe_code"]
            .into_iter()
            .chain(panic_lints)
            .collect();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        walk_rs(&root.join(dir), root, &mut files);
    }
    let mut found = Vec::new();
    for f in &files {
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
        ("crates/bench/benches/fig9_sweep.rs", "clippy::disallowed_methods"),
        ("crates/bench/benches/fleet_throughput.rs", "clippy::disallowed_methods"),
        ("crates/bench/benches/micro_kernels.rs", "clippy::disallowed_methods"),
        ("crates/bench/benches/table1_variants.rs", "clippy::disallowed_methods"),
        ("crates/bench/benches/table4_detection.rs", "clippy::disallowed_methods"),
        ("crates/raven-attack/src/malware.rs", "clippy::expect_used"),
        ("crates/raven-core/src/campaign/executor.rs", "clippy::disallowed_methods"),
        ("crates/raven-core/src/campaign/trace.rs", "clippy::disallowed_methods"),
        ("crates/raven-core/src/campaign/trace.rs", "clippy::disallowed_types"),
        ("crates/raven-core/src/experiments/ablations.rs", "clippy::disallowed_methods"),
        ("crates/raven-core/src/experiments/fig8.rs", "clippy::disallowed_methods"),
        ("crates/raven-core/src/experiments/table2.rs", "clippy::disallowed_methods"),
        ("crates/raven-dynamics/src/estimator.rs", "clippy::expect_used"),
        ("crates/raven-dynamics/src/plant/prefix.rs", "clippy::disallowed_types"),
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
