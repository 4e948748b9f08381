//! File walk, per-crate rule dispatch, allowlist filtering, and the
//! stale-entry check.

use crate::config::Config;
use crate::lexer::SourceFile;
use crate::rules::{self, Finding};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The audit result: surviving findings plus scan statistics.
#[derive(Debug)]
pub struct AuditReport {
    /// Findings not covered by any allowlist entry, sorted by
    /// (path, line, rule).
    pub findings: Vec<Finding>,
    /// `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by the allowlist.
    pub allowed: usize,
}

/// Runs every rule over the workspace rooted at `root`.
pub fn run(root: &Path, cfg: &Config) -> io::Result<AuditReport> {
    let mut paths = Vec::new();
    for dir in cfg.roots {
        collect_rs(&root.join(dir), &mut paths)?;
    }
    // Deterministic order: findings and stale-entry reports must not
    // depend on directory iteration order.
    paths.sort();
    let rel = |p: &Path| -> String {
        p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/")
    };
    let mut files = Vec::new();
    for p in &paths {
        let path = rel(p);
        if cfg.exclude.iter().any(|e| covered_by(&path, e)) {
            continue;
        }
        let src = fs::read_to_string(p)?;
        let is_test_file = path.split('/').any(|seg| seg == "tests");
        files.push(SourceFile::parse(&path, &src, is_test_file));
    }

    let mut raw = Vec::new();
    for file in &files {
        raw.extend(rules::exhaustive_safety_match(file, cfg.watched_enums));
        raw.extend(rules::registry_literals(file));
        if cfg.float_cmp_crates.contains(&crate_of(&file.path)) {
            raw.extend(rules::float_cmp(file));
        }
    }

    // Allowlist pass: drop covered findings, remember which entries fired.
    let mut used = vec![false; cfg.allows.len()];
    let mut findings = Vec::new();
    let mut allowed = 0usize;
    for f in raw {
        let cover =
            cfg.allows.iter().position(|a| a.rule == f.rule && a.covers(&f.path, &f.snippet));
        match cover {
            Some(i) => {
                used[i] = true;
                allowed += 1;
            }
            None => findings.push(f),
        }
    }
    // A stale exception is itself a finding: the allowlist must shrink
    // when the code it excuses goes away. It is reported against the
    // config, at the entry's 1-based index in `Config::allows`.
    for (i, a) in cfg.allows.iter().enumerate() {
        if !used[i] {
            findings.push(Finding {
                path: "Config::allows".to_string(),
                line: i + 1,
                rule: "CONFIG".to_string(),
                name: "stale-allowlist-entry".to_string(),
                snippet: format!("rule: \"{}\", path: \"{}\"", a.rule, a.path),
                hint: "this AllowEntry matched no finding; delete it (or fix its \
                       `rule`/`path`/`contains`) so the exception list stays honest"
                    .to_string(),
            });
        }
    }
    findings.sort();
    Ok(AuditReport { findings, files_scanned: files.len(), allowed })
}

/// Does `path` fall under exclude/allow prefix `pat` (exact file, or a
/// directory prefix when `pat` ends with `/`)?
fn covered_by(path: &str, pat: &str) -> bool {
    if let Some(dir) = pat.strip_suffix('/') {
        path == dir || path.starts_with(pat)
    } else {
        path == pat
    }
}

/// Which crate owns a workspace-relative path. Top-level `src`/`tests`/
/// `examples` belong to the root `raven-repro` package.
pub fn crate_of(path: &str) -> &str {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") | Some("vendor") => parts.next().unwrap_or(""),
        _ => "raven-repro",
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            if entry.file_name() == "target" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_resolution() {
        assert_eq!(crate_of("crates/raven-detect/src/detector.rs"), "raven-detect");
        assert_eq!(crate_of("src/lib.rs"), "raven-repro");
        assert_eq!(crate_of("tests/end_to_end.rs"), "raven-repro");
        assert_eq!(crate_of("examples/quickstart.rs"), "raven-repro");
    }

    #[test]
    fn exclusion_patterns() {
        assert!(covered_by("vendor/serde/src/lib.rs", "vendor/"));
        assert!(covered_by("a/b.rs", "a/b.rs"));
        assert!(!covered_by("a/bc.rs", "a/b"));
    }
}
