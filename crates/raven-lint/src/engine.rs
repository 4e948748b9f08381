//! File walk, per-crate rule dispatch, the workspace call graph, allowlist
//! filtering, and the stale-entry check.

use crate::callgraph::CallGraph;
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
    for dir in &cfg.roots {
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
        if !cfg.stream_fns.is_empty() {
            raw.extend(rules::rng_stream_call_sites(file, &cfg.stream_fns));
        }
        raw.extend(rules::exhaustive_safety_match(file, &cfg.watched_enums));
        if cfg.float_cmp_crates.iter().any(|c| c == crate_of(&file.path)) {
            raw.extend(rules::float_cmp(file));
        }
    }

    // Call-graph rule: R3 over every fn reachable from the hot-path entry
    // points.
    let graph = CallGraph::build(&files);
    if !cfg.hot_path_entry_points.is_empty() {
        let reach = graph.reachable_from(&cfg.hot_path_entry_points);
        raw.extend(rules::hot_path_rule(&files, &graph, &reach, &cfg.panic_tokens));
    }

    // R11: golden artifacts vs the structs that serialize them.
    if !cfg.artifact_globs.is_empty() || !cfg.artifact_roots.is_empty() {
        let mut artifact_paths = Vec::new();
        for pattern in &cfg.artifact_globs {
            artifact_paths.extend(glob_files(root, pattern)?);
        }
        for r in &cfg.artifact_roots {
            artifact_paths.extend(glob_files(root, &r.json)?);
        }
        artifact_paths.sort();
        artifact_paths.dedup();
        let mut artifacts = Vec::new();
        for p in &artifact_paths {
            artifacts.push((p.clone(), fs::read_to_string(root.join(p))?));
        }
        raw.extend(rules::artifact_schema(cfg, &files, &graph, &artifacts));
    }

    if !cfg.registry_path.is_empty() {
        let registry_src = fs::read_to_string(root.join(&cfg.registry_path))?;
        let doc_src = fs::read_to_string(root.join(&cfg.doc_path))?;
        raw.extend(rules::doc_drift(cfg, &registry_src, &doc_src, &files));
        raw.extend(rules::stream_registry_drift(cfg, &registry_src, &doc_src));
        for scoped in &cfg.scoped_docs {
            let scoped_src = fs::read_to_string(root.join(&scoped.doc))?;
            raw.extend(rules::scoped_doc_drift(
                scoped,
                &cfg.registry_path,
                &registry_src,
                &scoped_src,
            ));
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
    // when the code it excuses goes away.
    for (i, a) in cfg.allows.iter().enumerate() {
        if !used[i] {
            findings.push(Finding {
                path: "raven-lint.toml".to_string(),
                line: 1,
                rule: "CONFIG".to_string(),
                name: "stale-allowlist-entry".to_string(),
                snippet: format!("rule = \"{}\", path = \"{}\"", a.rule, a.path),
                hint: "this [[allow]] entry matched no finding; delete it (or fix its \
                       `path`/`contains`) so the exception list stays honest"
                    .to_string(),
            });
        }
    }
    // An entry point that names no fn silently shrinks the hot set to
    // nothing, so it is reported the same way.
    for spec in &cfg.hot_path_entry_points {
        if graph.entry_indices(spec).is_empty() {
            findings.push(Finding {
                path: "raven-lint.toml".to_string(),
                line: 1,
                rule: "CONFIG".to_string(),
                name: "unresolved-entry-point".to_string(),
                snippet: format!("entry_points = [\"{spec}\"]"),
                hint: "this [rules.hot_path] entry point matches no fn in the scanned \
                       sources; fix the `Type::method` spelling or delete it"
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

/// Expands a `dir/stem_*.json`-style pattern: one optional `*`, filename
/// component only, non-recursive. A pattern without `*` matches the exact
/// file if it exists. Returned paths are workspace-relative and sorted.
fn glob_files(root: &Path, pattern: &str) -> io::Result<Vec<String>> {
    let (dir, fname) = pattern.rsplit_once('/').unwrap_or(("", pattern));
    let joined = |name: &str| {
        if dir.is_empty() {
            name.to_string()
        } else {
            format!("{dir}/{name}")
        }
    };
    let dir_path = root.join(dir);
    let mut out = Vec::new();
    let Some((prefix, suffix)) = fname.split_once('*') else {
        if dir_path.join(fname).is_file() {
            out.push(joined(fname));
        }
        return Ok(out);
    };
    if !dir_path.is_dir() {
        return Ok(out);
    }
    for entry in fs::read_dir(&dir_path)? {
        let entry = entry?;
        if !entry.path().is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().to_string();
        if name.len() >= prefix.len() + suffix.len()
            && name.starts_with(prefix)
            && name.ends_with(suffix)
        {
            out.push(joined(&name));
        }
    }
    out.sort();
    Ok(out)
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
