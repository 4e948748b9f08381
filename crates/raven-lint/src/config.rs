//! Rule parameters and the audited allowlist, as plain `'static` data.
//!
//! The caller declares one [`Config`] constant; the workspace's lives in
//! `tests/lint_audit.rs`, next to the clippy-exception pin.

/// One intentional exception. Every entry carries a `reason`; entries that
/// never match a finding, including entries naming a rule no rule emits,
/// are reported as stale (rule `CONFIG`), so the allowlist cannot silently
/// outlive the code it excuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id: `R4`, `R5` or `R7`.
    pub rule: &'static str,
    /// Workspace-relative file path, or a directory prefix ending in `/`.
    pub path: &'static str,
    /// Optional substring the offending line must contain, to scope the
    /// exception to specific call sites instead of a whole file.
    pub contains: Option<&'static str>,
    /// One-line justification.
    pub reason: &'static str,
}

impl AllowEntry {
    /// Does this entry cover `path` (and `line_text`, when scoped)?
    pub fn covers(&self, path: &str, line_text: &str) -> bool {
        let path_ok =
            if self.path.ends_with('/') { path.starts_with(self.path) } else { path == self.path };
        path_ok && self.contains.is_none_or(|needle| line_text.contains(needle))
    }
}

/// A safety-critical enum R4 watches: `match`es mentioning its variants
/// must not use a wildcard `_` arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchedEnum {
    pub name: &'static str,
    pub variants: &'static [&'static str],
}

/// What to scan, which rules apply where, and the audited exceptions.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Directories (workspace-relative) to scan for `.rs` files.
    pub roots: &'static [&'static str],
    /// Path prefixes skipped entirely (fixtures, vendored stubs).
    pub exclude: &'static [&'static str],
    /// R4: enums whose matches must be exhaustive.
    pub watched_enums: &'static [WatchedEnum],
    /// R7: crates where float `==`/`!=` against literals is forbidden
    /// (the crates whose outputs are serialized or merged).
    pub float_cmp_crates: &'static [&'static str],
    /// The audited exception list.
    pub allows: &'static [AllowEntry],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_entry_path_and_contains_matching() {
        let dir = AllowEntry { rule: "R7", path: "crates/bench/", contains: None, reason: "r" };
        assert!(dir.covers("crates/bench/src/lib.rs", "anything"));
        assert!(!dir.covers("crates/benchx/src/lib.rs", "anything"));
        let scoped = AllowEntry { rule: "R4", path: "a.rs", contains: Some("(s, _)"), reason: "r" };
        assert!(scoped.covers("a.rs", "  (s, _) => s,"));
        assert!(!scoped.covers("a.rs", "  (_, Fault(r)) => x,"));
    }
}
