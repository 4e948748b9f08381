//! `cargo run -p raven-lint` — audits the workspace against
//! `raven-lint.toml` and exits nonzero on any unallowlisted finding.
//!
//! Flags:
//! * `--format text|json|sarif` — report format (`--json` is shorthand
//!   for `--format json`; SARIF is the 2.1.0 document CI uploads).
//! * `--rule <id>` — keep only this rule's findings (repeatable; an
//!   unknown id is a hard error, not an empty filter).
//! * `--list-rules` — print the rule catalog and exit.
//! * `--root <dir>` — override workspace-root discovery (the nearest
//!   ancestor containing `raven-lint.toml`).

#![forbid(unsafe_code)]

use raven_lint::sarif;
use raven_lint::{run, Config, Finding};
use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut root_override: Option<PathBuf> = None;
    let mut rule_filter: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                Some(other) => {
                    return usage(&format!(
                        "unknown format `{other}` (expected text, json, or sarif)"
                    ))
                }
                None => return usage("--format needs a value (text, json, or sarif)"),
            },
            "--rule" => match args.next() {
                Some(id) => rule_filter.push(id),
                None => return usage("--rule needs a rule id (e.g. R3)"),
            },
            "--list-rules" => return list_rules(),
            "--root" => match args.next() {
                Some(dir) => root_override = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    for id in &rule_filter {
        if sarif::rule_info(id).is_none() {
            return usage(&format!(
                "unknown rule `{id}`; run raven-lint --list-rules for the catalog"
            ));
        }
    }

    let root = match root_override.or_else(discover_root) {
        Some(r) => r,
        None => {
            eprintln!("raven-lint: no raven-lint.toml found in this directory or any ancestor");
            return ExitCode::from(2);
        }
    };
    let config_text = match std::fs::read_to_string(root.join("raven-lint.toml")) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("raven-lint: cannot read raven-lint.toml: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = match Config::parse(&config_text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("raven-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("raven-lint: audit failed: {e}");
            return ExitCode::from(2);
        }
    };
    let mut findings: Vec<Finding> = report.findings;
    if !rule_filter.is_empty() {
        findings.retain(|f| rule_filter.iter().any(|r| r == &f.rule));
    }

    match format {
        Format::Json => match serde_json::to_string_pretty(&findings) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("raven-lint: serialization failed: {e}");
                return ExitCode::from(2);
            }
        },
        Format::Sarif => print!("{}", sarif::to_sarif(&findings)),
        Format::Text => {
            for f in &findings {
                println!("{}:{}: [{} {}] {}", f.path, f.line, f.rule, f.name, f.snippet);
                println!("    hint: {}", f.hint);
            }
        }
    }
    eprintln!(
        "raven-lint: {} file(s) scanned, {} finding(s), {} allowlisted exception(s)",
        report.files_scanned,
        findings.len(),
        report.allowed
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list_rules() -> ExitCode {
    println!("{:<7} {:<24} {:<60} scope", "id", "name", "summary");
    for r in sarif::catalog() {
        println!("{:<7} {:<24} {:<60} {}", r.id, r.name, r.summary, r.scope);
    }
    ExitCode::SUCCESS
}

const USAGE: &str = "usage: raven-lint [--format text|json|sarif] [--json] [--rule <id>]... \
                     [--list-rules] [--root <workspace-dir>]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("raven-lint: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Nearest ancestor of the current directory holding `raven-lint.toml`.
fn discover_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("raven-lint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
