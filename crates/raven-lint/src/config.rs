//! `raven-lint.toml` — rule parameters and the audited allowlist.
//!
//! The workspace builds offline with vendored stubs only, so this module
//! hand-parses the small TOML subset the config actually uses: `[a.b]`
//! sections, `[[a.b]]` array-of-tables, string values, string arrays
//! (single- or multi-line), and `#` comments. Anything fancier is a parse
//! error — the config is meant to stay boring.

use crate::sarif::catalog;
use std::fmt;

/// One intentional exception. Every entry must carry a `reason`; entries
/// that never match a finding are reported as stale (rule `CONFIG`), so
/// the allowlist cannot silently outlive the code it excuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id: any catalog rule except `CONFIG` (so none of the retired
    /// `R1`–`R3`, `R6` and `R8`–`R11`).
    pub rule: String,
    /// Workspace-relative file path, or a directory prefix ending in `/`.
    pub path: String,
    /// Optional substring the offending line must contain, to scope the
    /// exception to specific call sites instead of a whole file.
    pub contains: Option<String>,
    /// One-line justification. Mandatory and non-empty.
    pub reason: String,
}

impl AllowEntry {
    /// Does this entry cover `path` (and `line_text`, when scoped)?
    pub fn covers(&self, path: &str, line_text: &str) -> bool {
        let path_ok = if self.path.ends_with('/') {
            path.starts_with(self.path.as_str())
        } else {
            path == self.path
        };
        path_ok && self.contains.as_deref().is_none_or(|needle| line_text.contains(needle))
    }
}

/// A safety-critical enum R4 watches: `match`es mentioning its variants
/// must not use a wildcard `_` arm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchedEnum {
    pub name: String,
    pub variants: Vec<String>,
}

/// Parsed `raven-lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Directories (workspace-relative) to scan for `.rs` files.
    pub roots: Vec<String>,
    /// Path prefixes skipped entirely (fixtures, vendored stubs).
    pub exclude: Vec<String>,
    /// R4: enums whose matches must be exhaustive.
    pub watched_enums: Vec<WatchedEnum>,
    /// R7: crates where float `==`/`!=` against literals is forbidden
    /// (the crates whose outputs are serialized or merged).
    pub float_cmp_crates: Vec<String>,
    /// The audited exception list.
    pub allows: Vec<AllowEntry>,
}

/// Config-file problem, reported with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "raven-lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError { line, message: message.into() }
}

/// What a `key = value` line parsed into.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Str(String),
    Arr(Vec<String>),
}

impl Config {
    /// Parses and validates the config text.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        // Which array-of-tables entry is open, if any.
        enum Open {
            None,
            Allow,
            Enum,
        }
        let mut section = String::new();
        let mut open = Open::None;

        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                section = name.trim().to_string();
                open = match section.as_str() {
                    "allow" => {
                        cfg.allows.push(AllowEntry {
                            rule: String::new(),
                            path: String::new(),
                            contains: None,
                            reason: String::new(),
                        });
                        Open::Allow
                    }
                    "rules.exhaustive_safety_match.enums" => {
                        cfg.watched_enums
                            .push(WatchedEnum { name: String::new(), variants: Vec::new() });
                        Open::Enum
                    }
                    other => return Err(err(lineno, format!("unknown table array [[{other}]]"))),
                };
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                open = Open::None;
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
            };
            let key = line[..eq].trim().to_string();
            let mut value_text = line[eq + 1..].trim().to_string();
            // Multi-line array: keep consuming lines until brackets balance.
            while value_text.starts_with('[') && !array_closed(&value_text) {
                let Some((_, next)) = lines.next() else {
                    return Err(err(lineno, "unterminated array"));
                };
                value_text.push(' ');
                value_text.push_str(strip_comment(next).trim());
            }
            let value = parse_value(&value_text, lineno)?;
            match (&open, section.as_str(), key.as_str()) {
                (Open::None, "scan", "roots") => cfg.roots = value.arr(lineno)?,
                (Open::None, "scan", "exclude") => cfg.exclude = value.arr(lineno)?,
                (Open::None, "rules.float_cmp", "crates") => {
                    cfg.float_cmp_crates = value.arr(lineno)?
                }
                (Open::Enum, _, "name") => {
                    cfg.watched_enums.last_mut().expect("open enum").name = value.str(lineno)?
                }
                (Open::Enum, _, "variants") => {
                    cfg.watched_enums.last_mut().expect("open enum").variants = value.arr(lineno)?
                }
                (Open::Allow, _, "rule") => {
                    cfg.allows.last_mut().expect("open allow").rule = value.str(lineno)?
                }
                (Open::Allow, _, "path") => {
                    cfg.allows.last_mut().expect("open allow").path = value.str(lineno)?
                }
                (Open::Allow, _, "contains") => {
                    cfg.allows.last_mut().expect("open allow").contains = Some(value.str(lineno)?)
                }
                (Open::Allow, _, "reason") => {
                    cfg.allows.last_mut().expect("open allow").reason = value.str(lineno)?
                }
                _ => {
                    return Err(err(
                        lineno,
                        format!("unknown key `{key}` in section `[{section}]`"),
                    ))
                }
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), ConfigError> {
        let rules: Vec<&str> =
            catalog().iter().map(|r| r.id).filter(|&id| id != "CONFIG").collect();
        for (i, a) in self.allows.iter().enumerate() {
            let at = |msg: String| err(0, format!("[[allow]] entry #{}: {msg}", i + 1));
            if !rules.contains(&a.rule.as_str()) {
                return Err(at(format!(
                    "rule must be one of {}, got `{}`",
                    rules.join(", "),
                    a.rule
                )));
            }
            if a.path.is_empty() {
                return Err(at("missing `path`".into()));
            }
            if a.reason.trim().is_empty() {
                return Err(at(format!(
                    "missing `reason` for path `{}` — every exception must be justified",
                    a.path
                )));
            }
        }
        for e in &self.watched_enums {
            if e.name.is_empty() || e.variants.is_empty() {
                return Err(err(0, "watched enum needs `name` and non-empty `variants`"));
            }
        }
        Ok(())
    }
}

impl Value {
    fn str(self, line: usize) -> Result<String, ConfigError> {
        match self {
            Value::Str(s) => Ok(s),
            Value::Arr(_) => Err(err(line, "expected a string, got an array")),
        }
    }

    fn arr(self, line: usize) -> Result<Vec<String>, ConfigError> {
        match self {
            Value::Arr(a) => Ok(a),
            Value::Str(_) => Err(err(line, "expected an array, got a string")),
        }
    }
}

/// Drops a `#` comment unless the `#` sits inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let b = line.as_bytes();
    let mut in_str = false;
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Are all `[`s of a (possibly partial) array value closed, ignoring
/// brackets inside quoted strings?
fn array_closed(text: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in text.bytes() {
        match c {
            b'"' => in_str = !in_str,
            b'[' if !in_str => depth += 1,
            b']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

fn parse_value(text: &str, line: usize) -> Result<Value, ConfigError> {
    let text = text.trim();
    if let Some(inner) = text.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut items = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            if rest.starts_with(',') {
                rest = rest[1..].trim_start();
                continue;
            }
            let (item, tail) = parse_string(rest, line)?;
            items.push(item);
            rest = tail.trim_start();
        }
        return Ok(Value::Arr(items));
    }
    let (s, tail) = parse_string(text, line)?;
    if !tail.trim().is_empty() {
        return Err(err(line, format!("trailing data after string: `{tail}`")));
    }
    Ok(Value::Str(s))
}

/// Parses one leading `"..."`, returning (content, remainder).
fn parse_string(text: &str, line: usize) -> Result<(String, &str), ConfigError> {
    let rest = text
        .strip_prefix('"')
        .ok_or_else(|| err(line, format!("expected a quoted string at `{text}`")))?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &rest[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, other)) => {
                    return Err(err(line, format!("unsupported escape `\\{other}`")))
                }
                None => break,
            },
            other => out.push(other),
        }
    }
    Err(err(line, "unterminated string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r##"
# comment
[scan]
roots = ["crates", "src"]
exclude = [
    "crates/raven-lint/tests/fixtures/",  # the linter's own test corpus
    "vendor/",
]

[rules.float_cmp]
crates = ["simbus", "raven-core"]

[[rules.exhaustive_safety_match.enums]]
name = "RobotState"
variants = ["Init", "EStop"]

[[allow]]
rule = "R7"
path = "crates/simbus/src/trace.rs"
contains = "== 0.0"
reason = "exact sentinel"

[[allow]]
rule = "R4"
path = "crates/raven-control/src/state_machine.rs"
contains = "(s, _) => s"
reason = "illegal events are ignored by design (paper Fig. 1c)"
"##;

    #[test]
    fn parses_the_full_shape() {
        let cfg = Config::parse(SAMPLE).expect("parse");
        assert_eq!(cfg.roots, vec!["crates", "src"]);
        assert_eq!(cfg.exclude.len(), 2);
        assert_eq!(cfg.float_cmp_crates, vec!["simbus", "raven-core"]);
        assert_eq!(cfg.watched_enums.len(), 1);
        assert_eq!(cfg.watched_enums[0].variants, vec!["Init", "EStop"]);
        assert_eq!(cfg.allows.len(), 2);
        assert_eq!(cfg.allows[1].contains.as_deref(), Some("(s, _) => s"));
    }

    #[test]
    fn rejects_missing_reason() {
        let bad = "[[allow]]\nrule = \"R4\"\npath = \"x.rs\"\nreason = \"\"\n";
        let e = Config::parse(bad).unwrap_err();
        assert!(e.message.contains("reason"), "{e}");
    }

    #[test]
    fn rejects_unknown_rule_and_keys() {
        // Retired ids (R1, R2, R3, R6 and R10 moved to clippy and rustc
        // lints, R9 to the `Stream` type, R8 and R11 to tests) are not
        // reused, and CONFIG is not an allowable rule.
        for rule in ["R12", "R1", "R2", "R3", "R6", "R8", "R9", "R10", "R11", "CONFIG"] {
            let bad = format!("[[allow]]\nrule = \"{rule}\"\npath = \"x.rs\"\nreason = \"y\"\n");
            assert!(Config::parse(&bad).is_err(), "{rule}");
        }
        let bad2 = "[scan]\nbogus = \"x\"\n";
        assert!(Config::parse(bad2).is_err());
        // The deleted rules' sections are unknown keys now.
        for section in [
            "[rules.no_wall_clock]\ntokens = [\"x\"]\n",
            "[rules.hot_path]\nentry_points = [\"Simulation::step\"]\n",
            "[rules.no_panic_in_hot_path]\ntokens = [\".unwrap(\"]\n",
            "[rules.rng_stream]\nfns = [\"derive_seed\"]\n",
            "[rules.artifact_schema]\nglobs = [\"results/*.json\"]\n",
            "[rules.doc_drift]\ndoc = \"docs/OBSERVABILITY.md\"\n",
            "[[rules.doc_drift.scoped]]\n",
        ] {
            assert!(Config::parse(section).is_err(), "{section}");
        }
    }

    #[test]
    fn allow_entry_path_and_contains_matching() {
        let dir = AllowEntry {
            rule: "R7".into(),
            path: "crates/bench/".into(),
            contains: None,
            reason: "r".into(),
        };
        assert!(dir.covers("crates/bench/src/lib.rs", "anything"));
        assert!(!dir.covers("crates/benchx/src/lib.rs", "anything"));
        let scoped = AllowEntry {
            rule: "R4".into(),
            path: "a.rs".into(),
            contains: Some("(s, _)".into()),
            reason: "r".into(),
        };
        assert!(scoped.covers("a.rs", "  (s, _) => s,"));
        assert!(!scoped.covers("a.rs", "  (_, Fault(r)) => x,"));
    }
}
