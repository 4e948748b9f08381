//! The audit rules. Each returns [`Finding`]s; the engine applies the
//! allowlist afterwards so rules stay pure functions of the source (plus,
//! for the call-graph rules, the workspace [`CallGraph`]).

use crate::callgraph::{CallGraph, CallSite, Reachability, Receiver};
use crate::config::{Config, ScopedDoc, WatchedEnum};
use crate::lexer::{find_token, SourceFile};
use crate::parse::{self, FnDecl};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// One rule violation, serializable for `--json` consumers.
#[derive(Debug, Clone, Serialize, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id (`R1`..`R11`, or `CONFIG` for configuration hygiene).
    pub rule: String,
    /// Short rule name.
    pub name: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// How to fix it.
    pub hint: String,
}

impl Finding {
    fn at(file: &SourceFile, offset: usize, rule: &str, name: &str, hint: String) -> Self {
        let line = file.line_of(offset);
        Finding {
            path: file.path.clone(),
            line,
            rule: rule.to_string(),
            name: name.to_string(),
            snippet: file.line_text(line).to_string(),
            hint,
        }
    }
}

/// R1/R2/R3 share a shape: a token list that must not appear outside test
/// code. `crates` empty means "every crate".
pub fn token_rule(
    file: &SourceFile,
    tokens: &[String],
    rule: &str,
    name: &str,
    hint: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for token in tokens {
        for offset in find_token(&file.scrubbed, token) {
            if file.is_test_line(file.line_of(offset)) {
                continue;
            }
            out.push(Finding::at(file, offset, rule, name, format!("`{token}` {hint}")));
        }
    }
    out
}

/// R4: wildcard `_` arms in `match`es that mention a watched enum.
pub fn exhaustive_safety_match(file: &SourceFile, enums: &[WatchedEnum]) -> Vec<Finding> {
    let s = &file.scrubbed;
    // Bare variants only count when the enum is glob-imported here.
    let starred: Vec<&WatchedEnum> =
        enums.iter().filter(|e| s.contains(&format!("{}::*", e.name))).collect();
    let mut out = Vec::new();
    for m in find_token(s, "match") {
        if file.is_test_line(file.line_of(m)) {
            continue;
        }
        let Some(body) = match_body(s, m + "match".len()) else {
            continue;
        };
        let arms = split_arms(s, body);
        let watched = arms.iter().any(|&(start, end)| {
            let pattern = strip_guard(&s[start..end]);
            enums.iter().any(|e| !find_token(pattern, &format!("{}::", e.name)).is_empty())
                || starred
                    .iter()
                    .any(|e| e.variants.iter().any(|v| !find_token(pattern, v).is_empty()))
        });
        if !watched {
            continue;
        }
        for &(start, end) in &arms {
            let pattern = strip_guard(&s[start..end]);
            if !find_token(pattern, "_").is_empty() {
                out.push(Finding::at(
                    file,
                    start,
                    "R4",
                    "exhaustive-safety-match",
                    "spell out every variant of the safety-critical enum; a new state must \
                     not fall through a wildcard silently"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// Finds the `{` opening a match body, given the offset just past the
/// `match` keyword. Returns `(open, close)` byte offsets.
fn match_body(s: &str, from: usize) -> Option<(usize, usize)> {
    let b = s.as_bytes();
    let mut depth = 0i32;
    let mut i = from;
    while i < b.len() {
        match b[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' if depth == 0 => return brace_close(s, i).map(|c| (i, c)),
            b'{' => depth += 1,
            b'}' => depth -= 1,
            b';' if depth == 0 => return None,
            _ => {}
        }
        if depth < 0 {
            return None;
        }
        i += 1;
    }
    None
}

/// Offset of the `}` matching the `{` at `open`.
fn brace_close(s: &str, open: usize) -> Option<usize> {
    let b = s.as_bytes();
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits a match body into arm patterns: `(pattern_start, pattern_end)`
/// pairs where `pattern_end` points at the `=>`.
fn split_arms(s: &str, (open, close): (usize, usize)) -> Vec<(usize, usize)> {
    let b = s.as_bytes();
    let mut arms = Vec::new();
    let mut i = open + 1;
    'outer: while i < close {
        while i < close && (b[i].is_ascii_whitespace() || b[i] == b',') {
            i += 1;
        }
        if i >= close {
            break;
        }
        let start = i;
        // Scan to the arm's `=>` at bracket depth 0.
        let mut depth = 0i32;
        let fat = loop {
            if i >= close {
                break 'outer;
            }
            match b[i] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b'=' if depth == 0 && b.get(i + 1) == Some(&b'>') => break i,
                _ => {}
            }
            i += 1;
        };
        arms.push((start, fat));
        // Skip the arm body: a braced block, or an expression up to `,`.
        i = fat + 2;
        while i < close && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < close && b[i] == b'{' {
            i = brace_close(s, i).map(|c| c + 1).unwrap_or(close);
        } else {
            let mut depth = 0i32;
            while i < close {
                match b[i] {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' | b'}' => depth -= 1,
                    b',' if depth == 0 => break,
                    _ => {}
                }
                i += 1;
            }
        }
    }
    arms
}

/// Drops a ` if guard` clause from an arm pattern (depth-0 `if` token).
fn strip_guard(pattern: &str) -> &str {
    let b = pattern.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'i' if depth == 0
                && pattern[i..].starts_with("if")
                && (i == 0 || !is_ident(b[i - 1]))
                && !b.get(i + 2).copied().is_some_and(is_ident) =>
            {
                return &pattern[..i];
            }
            _ => {}
        }
        i += 1;
    }
    pattern
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The machine-readable observability registry extracted from
/// `simbus::obs`: event kinds (`EventKind::X => "a.b"` arms), metric
/// names (`pub const X: &str = "a.b"` in `pub mod names`, `*_PREFIX`
/// consts being families), flight-recorder channel names
/// (`pub const X: &str = "..."` in `pub mod channels`), and span names
/// (`pub const X: &str = "span...."` in `pub mod spans`).
#[derive(Debug, Default, Clone)]
pub struct Registry {
    /// `(variant, dotted-name)` pairs.
    pub event_kinds: Vec<(String, String)>,
    /// Exact metric names.
    pub metrics: Vec<String>,
    /// Metric-family prefixes (e.g. `fault.count.`).
    pub families: Vec<String>,
    /// Flight-recorder trace channel names.
    pub channels: Vec<String>,
    /// Span names from the tracing registry.
    pub spans: Vec<String>,
    /// `(const-name, label)` pairs of exact RNG stream labels from
    /// `pub mod streams`.
    pub streams: Vec<(String, String)>,
    /// `(const-name, prefix)` pairs of RNG stream families (`*_PREFIX`).
    pub stream_families: Vec<(String, String)>,
}

/// Parses the registry out of the ORIGINAL (unscrubbed) source — the
/// string literals are the payload here. Metric constants are read only
/// from inside the `pub mod names` block and channel constants only from
/// inside `pub mod channels`, so unrelated `&str` constants elsewhere in
/// the file (e.g. env-var names) don't join the registry.
pub fn parse_registry(src: &str) -> Registry {
    let mut reg = Registry::default();
    let mut from = 0;
    while let Some(rel) = src[from..].find("EventKind::") {
        let mut i = from + rel + "EventKind::".len();
        let b = src.as_bytes();
        let vstart = i;
        while i < b.len() && is_ident(b[i]) {
            i += 1;
        }
        let variant = src[vstart..i].to_string();
        from = i;
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if !src[i..].starts_with("=>") {
            continue;
        }
        i += 2;
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if let Some(name) = leading_string(&src[i..]) {
            if !variant.is_empty() {
                reg.event_kinds.push((variant, name));
            }
        }
    }
    let scrubbed = crate::lexer::scrub(src);
    for (cname, value) in module_str_consts(src, &scrubbed, "pub mod names") {
        if cname.ends_with("_PREFIX") {
            reg.families.push(value);
        } else {
            reg.metrics.push(value);
        }
    }
    for (_, value) in module_str_consts(src, &scrubbed, "pub mod channels") {
        reg.channels.push(value);
    }
    for (_, value) in module_str_consts(src, &scrubbed, "pub mod spans") {
        reg.spans.push(value);
    }
    for (cname, value) in module_str_consts(src, &scrubbed, "pub mod streams") {
        if cname.ends_with("_PREFIX") {
            reg.stream_families.push((cname, value));
        } else {
            reg.streams.push((cname, value));
        }
    }
    reg
}

/// `(const-name, value)` pairs of every `pub const X: &str = "..."` inside
/// the module block opened by `header` (e.g. `pub mod names`). The block
/// is located on the scrubbed text so commented-out braces can't skew it.
fn module_str_consts(src: &str, scrubbed: &str, header: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let span = scrubbed.find(header).and_then(|at| {
        let open = at + scrubbed[at..].find('{')?;
        Some((open, brace_close(scrubbed, open)?))
    });
    let Some((mod_open, mod_close)) = span else {
        return out;
    };
    let mut from = mod_open;
    while let Some(rel) = src[from..mod_close].find("pub const ") {
        let mut i = from + rel + "pub const ".len();
        let b = src.as_bytes();
        let cstart = i;
        while i < b.len() && is_ident(b[i]) {
            i += 1;
        }
        let cname = src[cstart..i].to_string();
        from = i;
        let rest = &src[i..];
        let Some(after_type) = rest.trim_start().strip_prefix(": &str") else {
            continue;
        };
        let Some(after_eq) = after_type.trim_start().strip_prefix('=') else {
            continue;
        };
        if let Some(value) = leading_string(after_eq.trim_start()) {
            out.push((cname, value));
        }
    }
    out
}

/// The content of a `"..."` literal at the start of `s`, if present.
fn leading_string(s: &str) -> Option<String> {
    let rest = s.strip_prefix('"')?;
    rest.find('"').map(|end| rest[..end].to_string())
}

/// Names extracted from one `docs/OBSERVABILITY.md` table column.
#[derive(Debug, Default, Clone)]
pub struct DocNames {
    pub kinds: Vec<String>,
    pub metrics: Vec<String>,
    pub channels: Vec<String>,
    pub spans: Vec<String>,
    pub streams: Vec<String>,
}

/// Reads the first backticked name of each row of the `kind`, `metric`,
/// `channel`, and `span` tables. `fault.count.<slug>`-style rows
/// normalize to their family prefix (`fault.count.`).
pub fn parse_doc(doc: &str) -> DocNames {
    #[derive(PartialEq)]
    enum Mode {
        None,
        Kinds,
        Metrics,
        Channels,
        Spans,
        Streams,
    }
    let mut mode = Mode::None;
    let mut out = DocNames::default();
    for line in doc.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            mode = Mode::None;
            continue;
        }
        let first_cell = line.trim_matches('|').split('|').next().unwrap_or("").trim().to_string();
        if first_cell.starts_with("---") {
            continue;
        }
        match first_cell.as_str() {
            "kind" => {
                mode = Mode::Kinds;
                continue;
            }
            "metric" => {
                mode = Mode::Metrics;
                continue;
            }
            "channel" => {
                mode = Mode::Channels;
                continue;
            }
            "span" => {
                mode = Mode::Spans;
                continue;
            }
            "stream" => {
                mode = Mode::Streams;
                continue;
            }
            _ => {}
        }
        let Some(name) = first_cell.strip_prefix('`').and_then(|s| s.split('`').next()) else {
            continue;
        };
        let name = match name.find('<') {
            Some(angle) => name[..angle].to_string(),
            None => name.to_string(),
        };
        match mode {
            Mode::Kinds => out.kinds.push(name),
            Mode::Metrics => out.metrics.push(name),
            Mode::Channels => out.channels.push(name),
            Mode::Spans => out.spans.push(name),
            Mode::Streams => out.streams.push(name),
            Mode::None => {}
        }
    }
    out
}

/// R5: registry ↔ doc cross-check plus the point-of-use check (registered
/// names must be emitted through the registry constants, not raw string
/// literals).
pub fn doc_drift(
    cfg: &Config,
    registry_src: &str,
    doc_src: &str,
    files: &[SourceFile],
) -> Vec<Finding> {
    let reg = parse_registry(registry_src);
    let doc = parse_doc(doc_src);
    let mut out = Vec::new();
    let drift = |line: usize, path: &str, snippet: &str, hint: String| Finding {
        path: path.to_string(),
        line,
        rule: "R5".to_string(),
        name: "doc-code-drift".to_string(),
        snippet: snippet.to_string(),
        hint,
    };
    for (variant, name) in &reg.event_kinds {
        if !doc.kinds.contains(name) {
            out.push(drift(
                1,
                &cfg.doc_path,
                name,
                format!(
                    "event kind `{name}` (EventKind::{variant}) is registered in \
                     `{}` but missing from the kind table",
                    cfg.registry_path
                ),
            ));
        }
    }
    for name in &doc.kinds {
        if !reg.event_kinds.iter().any(|(_, n)| n == name) {
            out.push(drift(
                1,
                &cfg.registry_path,
                name,
                format!(
                    "event kind `{name}` is documented in `{}` but has no \
                     EventKind variant",
                    cfg.doc_path
                ),
            ));
        }
    }
    let registered_metric = |name: &str| {
        reg.metrics.iter().any(|m| m == name) || reg.families.iter().any(|f| f == name)
    };
    for name in reg.metrics.iter().chain(reg.families.iter()) {
        if !doc.metrics.contains(name) {
            out.push(drift(
                1,
                &cfg.doc_path,
                name,
                format!(
                    "metric `{name}` is registered in `{}` but missing from the \
                     metric table",
                    cfg.registry_path
                ),
            ));
        }
    }
    for name in &doc.metrics {
        if !registered_metric(name) {
            out.push(drift(
                1,
                &cfg.registry_path,
                name,
                format!(
                    "metric `{name}` is documented in `{}` but has no `names` \
                     constant",
                    cfg.doc_path
                ),
            ));
        }
    }
    for name in &reg.channels {
        if !doc.channels.contains(name) {
            out.push(drift(
                1,
                &cfg.doc_path,
                name,
                format!(
                    "flight-recorder channel `{name}` is registered in `{}` but \
                     missing from the channel table",
                    cfg.registry_path
                ),
            ));
        }
    }
    for name in &doc.channels {
        if !reg.channels.contains(name) {
            out.push(drift(
                1,
                &cfg.registry_path,
                name,
                format!(
                    "flight-recorder channel `{name}` is documented in `{}` but \
                     has no `channels` constant",
                    cfg.doc_path
                ),
            ));
        }
    }
    for name in &reg.spans {
        if !doc.spans.contains(name) {
            out.push(drift(
                1,
                &cfg.doc_path,
                name,
                format!(
                    "span `{name}` is registered in `{}` but missing from the \
                     span table",
                    cfg.registry_path
                ),
            ));
        }
    }
    for name in &doc.spans {
        if !reg.spans.contains(name) {
            out.push(drift(
                1,
                &cfg.registry_path,
                name,
                format!(
                    "span `{name}` is documented in `{}` but has no `spans` \
                     constant",
                    cfg.doc_path
                ),
            ));
        }
    }
    // Point of use: a registered dotted name as a raw literal outside the
    // registry (and outside tests) bypasses the registry — rename drift
    // would then silently fork the taxonomy.
    for file in files {
        if file.path == cfg.registry_path {
            continue;
        }
        for (offset, literal) in string_literals(&file.original) {
            if file.is_test_line(file.line_of(offset)) {
                continue;
            }
            let hit = reg.event_kinds.iter().any(|(_, n)| n == &literal)
                || reg.metrics.iter().any(|m| m == &literal)
                || reg.channels.iter().any(|c| c == &literal)
                || reg.spans.iter().any(|s| s == &literal)
                || reg.families.iter().any(|f| literal.starts_with(f.as_str()));
            if hit {
                out.push(Finding::at(
                    file,
                    offset,
                    "R5",
                    "doc-code-drift",
                    format!(
                        "`\"{literal}\"` is a registered observability name; emit it \
                         through `simbus::obs` (EventKind / names::* / channels::*) \
                         so renames cannot drift"
                    ),
                ));
            }
        }
    }
    out
}

/// R5 (scoped): a subsystem doc must agree with the registry for every
/// name under its prefix, both directions — a `ledger.*` kind or metric
/// missing from `docs/FORENSICS.md` is drift, and so is a name the doc
/// tables carry that the registry never registered (prefixed or not:
/// a typo'd table row is drift wherever it points).
pub fn scoped_doc_drift(
    scoped: &ScopedDoc,
    registry_path: &str,
    registry_src: &str,
    doc_src: &str,
) -> Vec<Finding> {
    let reg = parse_registry(registry_src);
    let doc = parse_doc(doc_src);
    let mut out = Vec::new();
    let drift = |path: &str, snippet: &str, hint: String| Finding {
        path: path.to_string(),
        line: 1,
        rule: "R5".to_string(),
        name: "doc-code-drift".to_string(),
        snippet: snippet.to_string(),
        hint,
    };
    let scoped_to = |name: &str| name.starts_with(scoped.prefix.as_str());
    for (variant, name) in &reg.event_kinds {
        if scoped_to(name) && !doc.kinds.contains(name) {
            out.push(drift(
                &scoped.doc,
                name,
                format!(
                    "event kind `{name}` (EventKind::{variant}) falls under the \
                     `{}` scope but is missing from this doc's kind table",
                    scoped.prefix
                ),
            ));
        }
    }
    for name in reg.metrics.iter().chain(reg.families.iter()) {
        if scoped_to(name) && !doc.metrics.contains(name) {
            out.push(drift(
                &scoped.doc,
                name,
                format!(
                    "metric `{name}` falls under the `{}` scope but is missing \
                     from this doc's metric table",
                    scoped.prefix
                ),
            ));
        }
    }
    for name in &reg.channels {
        if scoped_to(name) && !doc.channels.contains(name) {
            out.push(drift(
                &scoped.doc,
                name,
                format!(
                    "flight-recorder channel `{name}` falls under the `{}` scope \
                     but is missing from this doc's channel table",
                    scoped.prefix
                ),
            ));
        }
    }
    for name in &reg.spans {
        if scoped_to(name) && !doc.spans.contains(name) {
            out.push(drift(
                &scoped.doc,
                name,
                format!(
                    "span `{name}` falls under the `{}` scope but is missing \
                     from this doc's span table",
                    scoped.prefix
                ),
            ));
        }
    }
    for name in &doc.kinds {
        if !reg.event_kinds.iter().any(|(_, n)| n == name) {
            out.push(drift(
                registry_path,
                name,
                format!(
                    "event kind `{name}` is documented in `{}` but has no \
                     EventKind variant",
                    scoped.doc
                ),
            ));
        }
    }
    for name in &doc.metrics {
        if !reg.metrics.iter().any(|m| m == name) && !reg.families.iter().any(|f| f == name) {
            out.push(drift(
                registry_path,
                name,
                format!(
                    "metric `{name}` is documented in `{}` but has no `names` \
                     constant",
                    scoped.doc
                ),
            ));
        }
    }
    for name in &doc.channels {
        if !reg.channels.contains(name) {
            out.push(drift(
                registry_path,
                name,
                format!(
                    "flight-recorder channel `{name}` is documented in `{}` but \
                     has no `channels` constant",
                    scoped.doc
                ),
            ));
        }
    }
    for name in &doc.spans {
        if !reg.spans.contains(name) {
            out.push(drift(
                registry_path,
                name,
                format!(
                    "span `{name}` is documented in `{}` but has no `spans` \
                     constant",
                    scoped.doc
                ),
            ));
        }
    }
    out
}

/// `(offset, content)` of every plain `"..."` literal, skipping comments
/// and raw strings (raw strings hold fixtures/JSON, not metric names).
fn string_literals(src: &str) -> Vec<(usize, String)> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if src[i..].starts_with("/*") {
                        depth += 1;
                        i += 2;
                    } else if src[i..].starts_with("*/") {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if !(i > 0 && is_ident(b[i - 1])) => {
                // Raw string: skip it entirely.
                let mut j = i;
                if b[j] == b'b' {
                    j += 1;
                }
                if b.get(j) == Some(&b'r') {
                    j += 1;
                    let mut hashes = 0usize;
                    while b.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&b'"') {
                        j += 1;
                        let closer = format!("\"{}", "#".repeat(hashes));
                        match src[j..].find(&closer) {
                            Some(rel) => i = j + rel + closer.len(),
                            None => i = b.len(),
                        }
                        continue;
                    }
                }
                i += 1;
            }
            b'"' => {
                let start = i;
                i += 1;
                let mut content = Vec::new();
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => break,
                        c => {
                            content.push(c);
                            i += 1;
                        }
                    }
                }
                i += 1;
                out.push((start, String::from_utf8_lossy(&content).into_owned()));
            }
            b'\'' => {
                // Char literal or lifetime; skip conservatively. A
                // multibyte scalar (`'é'`) spans several bytes before the
                // closing tick — without this arm its closing tick would
                // be re-read as an opener and could swallow real code.
                if b.get(i + 1) == Some(&b'\\') {
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                } else if b.get(i + 1).is_some_and(|&c| c >= 0x80) {
                    i += 1;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                } else if b.get(i + 2) == Some(&b'\'') {
                    i += 3;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// R7: direct `==`/`!=` where an operand is a floating-point literal, in
/// crates whose outputs are serialized or merged. Exact float equality is
/// how byte-identity quietly breaks: a refactor that reorders arithmetic
/// flips the comparison without failing any test. The rule is lexical —
/// it cannot type-infer `a == b` — so it keys on the unambiguous case, a
/// float literal on either side. Bit-exact checks go through
/// `f64::to_bits`; tolerance checks through an epsilon helper; sanctioned
/// sites (e.g. an exact-sentinel compare) get an audited `[[allow]]`.
pub fn float_cmp(file: &SourceFile) -> Vec<Finding> {
    let s = &file.scrubbed;
    let b = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < b.len() {
        let op = match (b[i], b[i + 1]) {
            (b'=', b'=') => "==",
            (b'!', b'=') => "!=",
            _ => {
                i += 1;
                continue;
            }
        };
        // `<=`/`>=`/`=>` never match the two-byte patterns above; the
        // guards below only reject degenerate runs like `===`.
        if b.get(i + 2) == Some(&b'=') || (i > 0 && matches!(b[i - 1], b'=' | b'!' | b'<' | b'>')) {
            i += 2;
            continue;
        }
        if file.is_test_line(file.line_of(i)) {
            i += 2;
            continue;
        }
        if is_float_literal(token_before(s, i)) || is_float_literal(token_after(s, i + 2)) {
            out.push(Finding::at(
                file,
                i,
                "R7",
                "no-float-eq",
                format!(
                    "`{op}` compares a float for exact equality in a merged-artifact \
                     crate; compare `f64::to_bits` for intentional bit-exact checks \
                     or use an epsilon tolerance, and allowlist the site if \
                     exactness is the point"
                ),
            ));
        }
        i += 2;
    }
    out
}

/// The identifier-ish token ending just before `at` (scanning back over
/// whitespace): chars in `[A-Za-z0-9_.]`.
fn token_before(s: &str, at: usize) -> &str {
    let b = s.as_bytes();
    let mut end = at;
    while end > 0 && b[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && (is_ident(b[start - 1]) || b[start - 1] == b'.') {
        start -= 1;
    }
    &s[start..end]
}

/// The identifier-ish token starting at or after `at` (scanning forward
/// over whitespace and one unary `-`): chars in `[A-Za-z0-9_.]`.
fn token_after(s: &str, at: usize) -> &str {
    let b = s.as_bytes();
    let mut start = at;
    while start < b.len() && b[start].is_ascii_whitespace() {
        start += 1;
    }
    let tok_start = start;
    if start < b.len() && b[start] == b'-' {
        start += 1;
    }
    let mut end = start;
    while end < b.len() && (is_ident(b[end]) || b[end] == b'.') {
        end += 1;
    }
    &s[tok_start..end]
}

/// Is `tok` a floating-point literal (`1.0`, `2.`, `1e3`, `0.5f64`,
/// `-3.25`)? Integer literals, hex/octal/binary, and field/method chains
/// like `0.5f64.to_bits` are not.
fn is_float_literal(tok: &str) -> bool {
    let t = tok.strip_prefix('-').unwrap_or(tok);
    if !t.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return false;
    }
    if t.starts_with("0x") || t.starts_with("0o") || t.starts_with("0b") {
        return false;
    }
    if let Some(body) = t.strip_suffix("f32").or_else(|| t.strip_suffix("f64")) {
        return body.bytes().all(|c| c.is_ascii_digit() || matches!(c, b'.' | b'_' | b'e' | b'E'));
    }
    (t.contains('.') || t.contains('e') || t.contains('E'))
        && t.bytes().all(|c| c.is_ascii_digit() || matches!(c, b'.' | b'_' | b'e' | b'E'))
}

/// R6: `unsafe` requires an allowlisted file and a `// SAFETY:` comment in
/// the three preceding lines.
pub fn unsafe_audit(file: &SourceFile, unsafe_files: &[String]) -> Vec<Finding> {
    let mut out = Vec::new();
    for offset in find_token(&file.scrubbed, "unsafe") {
        let line = file.line_of(offset);
        if !unsafe_files.iter().any(|f| f == &file.path) {
            out.push(Finding::at(
                file,
                offset,
                "R6",
                "unsafe-audit",
                "this file is not allowlisted for `unsafe`; remove the block or add \
                 the file to [rules.unsafe_audit] with a justification"
                    .to_string(),
            ));
            continue;
        }
        let has_safety = (line.saturating_sub(3)..line)
            .filter(|&l| l >= 1)
            .any(|l| file.line_text(l).contains("SAFETY:"));
        if !has_safety {
            out.push(Finding::at(
                file,
                offset,
                "R6",
                "unsafe-audit",
                "add a `// SAFETY:` comment immediately above explaining why the \
                 invariants hold"
                    .to_string(),
            ));
        }
    }
    out
}

/// R3: none of `tokens` (the panic forms) may appear in a function
/// transitively reachable from the hot-path entry points. The hint carries
/// the discovery chain so the report explains *why* a function is hot, not
/// just that it is.
pub fn hot_path_rule(
    files: &[SourceFile],
    graph: &CallGraph,
    reach: &Reachability,
    tokens: &[String],
) -> Vec<Finding> {
    let mut out = Vec::new();
    // Nested fns produce overlapping body spans; dedup by source line.
    let mut seen = BTreeSet::new();
    for &idx in reach.parent.keys() {
        let f = &graph.fns[idx];
        let Some((open, close)) = f.body else { continue };
        let file = &files[f.file];
        let body = &file.scrubbed[open..=close];
        for token in tokens {
            for rel in find_token(body, token) {
                let offset = open + rel;
                let line = file.line_of(offset);
                if file.is_test_line(line) {
                    continue;
                }
                if !seen.insert((f.file, line, token.clone())) {
                    continue;
                }
                out.push(Finding::at(
                    file,
                    offset,
                    "R3",
                    "no-panic-in-hot-path",
                    format!(
                        "`{token}` can panic inside the control cycle; return a typed error \
                         or restructure so the failure is impossible (panic isolation \
                         belongs to the campaign executor, not the safety loop) (hot path: {})",
                        graph.chain(reach, idx)
                    ),
                ));
            }
        }
    }
    out
}

/// R9 (call sites): every `stream_rng`/`derive_seed` call names its stream
/// via a `streams::` constant. A raw string label at the call site can
/// collide with another stream silently — same label, same seed, two
/// supposedly independent RNG streams in lockstep — and never shows up in
/// the registry/doc cross-check.
pub fn rng_stream_call_sites(file: &SourceFile, stream_fns: &[String]) -> Vec<Finding> {
    let s = &file.scrubbed;
    let b = s.as_bytes();
    let mut out = Vec::new();
    for fname in stream_fns {
        for offset in find_token(s, fname) {
            if file.is_test_line(file.line_of(offset)) {
                continue;
            }
            let mut i = offset + fname.len();
            while i < b.len() && b[i].is_ascii_whitespace() {
                i += 1;
            }
            if b.get(i) != Some(&b'(') {
                continue;
            }
            let Some(close) = parse::close_delim(s, i) else { continue };
            let args = parse::split_commas(s, i + 1, close);
            if args.len() < 2 {
                continue;
            }
            let (a_start, a_end) = args[1];
            // The ORIGINAL text: string literals are scrubbed to spaces,
            // so the quote itself is the evidence of a raw label.
            let arg = &file.original[a_start..a_end];
            if arg.contains('"') && !arg.contains("streams::") {
                out.push(Finding::at(
                    file,
                    a_start,
                    "R9",
                    "rng-stream-discipline",
                    format!(
                        "`{fname}` is called with a raw stream label; name it via a \
                         `simbus::obs::streams` constant so every stream stays unique \
                         workspace-wide and documented"
                    ),
                ));
            }
        }
    }
    out
}

/// R9 (registry side): stream constants must be unique workspace-wide and
/// agree with the doc's `stream` table, both directions. `*_PREFIX`
/// constants are families; the doc normalizes `fig9-<idx>`-style rows to
/// their prefix exactly like metric families.
pub fn stream_registry_drift(cfg: &Config, registry_src: &str, doc_src: &str) -> Vec<Finding> {
    let reg = parse_registry(registry_src);
    let doc = parse_doc(doc_src);
    let mut out = Vec::new();
    let drift = |path: &str, snippet: &str, hint: String| Finding {
        path: path.to_string(),
        line: 1,
        rule: "R9".to_string(),
        name: "rng-stream-discipline".to_string(),
        snippet: snippet.to_string(),
        hint,
    };
    // Uniqueness: two constants with the same label would derive the same
    // seed and correlate two supposedly independent streams.
    let mut first_by_label: BTreeMap<&str, &str> = BTreeMap::new();
    for (cname, value) in reg.streams.iter().chain(reg.stream_families.iter()) {
        if let Some(prev) = first_by_label.insert(value.as_str(), cname.as_str()) {
            out.push(drift(
                &cfg.registry_path,
                value,
                format!(
                    "stream label `{value}` is registered twice (`{prev}` and \
                     `{cname}`); duplicate labels derive identical seeds, so the \
                     two streams silently correlate"
                ),
            ));
        }
    }
    for (cname, value) in reg.streams.iter().chain(reg.stream_families.iter()) {
        if !doc.streams.iter().any(|d| d == value) {
            out.push(drift(
                &cfg.doc_path,
                value,
                format!(
                    "stream `{value}` (streams::{cname}) is registered in `{}` but \
                     missing from the stream table",
                    cfg.registry_path
                ),
            ));
        }
    }
    for name in &doc.streams {
        let known = reg.streams.iter().any(|(_, v)| v == name)
            || reg.stream_families.iter().any(|(_, v)| v == name);
        if !known {
            out.push(drift(
                &cfg.registry_path,
                name,
                format!(
                    "stream `{name}` is documented in `{}` but has no `streams` \
                     constant",
                    cfg.doc_path
                ),
            ));
        }
    }
    out
}

/// R10: lock discipline, two shapes. (a) Inconsistent acquisition order —
/// lock `A` taken while holding `B` somewhere and `B` while holding `A`
/// elsewhere is the classic ABBA deadlock. (b) A guard held across a call
/// into another function that itself takes a lock — including re-acquiring
/// the same lock, which `std::sync::Mutex` turns into a deadlock, not an
/// error. Locks are identified structurally: `self.field.lock()` where the
/// field's wrapper-peeled type crosses `Mutex`/`RwLock` gets the identity
/// `Type.field`; `param.lock()` gets the protected type's name. Guard
/// lifetime is approximated: let-bound → to `drop(guard)` or the enclosing
/// block's close; temporary → to the end of the statement.
pub fn lock_discipline(files: &[SourceFile], graph: &CallGraph) -> Vec<Finding> {
    let lock_ids: Vec<Vec<Option<String>>> = graph
        .fns
        .iter()
        .enumerate()
        .map(|(idx, f)| graph.sites[idx].iter().map(|s| lock_id(graph, f, s)).collect())
        .collect();
    let locking: BTreeSet<usize> =
        (0..graph.fns.len()).filter(|&i| lock_ids[i].iter().any(Option::is_some)).collect();
    // (held, acquired) -> where the nested acquisition happened.
    let mut pairs: BTreeMap<(String, String), (String, usize, String)> = BTreeMap::new();
    let mut out = Vec::new();
    for (idx, f) in graph.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let Some((body_open, body_close)) = f.body else { continue };
        let file = &files[f.file];
        let s = &file.scrubbed;
        for (si, site) in graph.sites[idx].iter().enumerate() {
            let Some(id_a) = &lock_ids[idx][si] else { continue };
            if file.is_test_line(file.line_of(site.offset)) {
                continue;
            }
            let end = held_until(s, site.offset, body_open, body_close);
            for (sj, other) in graph.sites[idx].iter().enumerate() {
                if sj == si || other.offset <= site.offset || other.offset > end {
                    continue;
                }
                if let Some(id_b) = &lock_ids[idx][sj] {
                    if id_b == id_a {
                        out.push(Finding::at(
                            file,
                            other.offset,
                            "R10",
                            "lock-discipline",
                            format!(
                                "re-acquires lock `{id_a}` while its guard from line \
                                 {} is still alive; with std::sync that deadlocks \
                                 rather than erroring — drop the first guard before \
                                 taking the lock again",
                                file.line_of(site.offset)
                            ),
                        ));
                    } else {
                        pairs.entry((id_a.clone(), id_b.clone())).or_insert_with(|| {
                            let line = file.line_of(other.offset);
                            (file.path.clone(), line, file.line_text(line).to_string())
                        });
                    }
                } else if matches!(other.recv, Receiver::Chained) {
                    // Chained receivers resolve by name only (low
                    // confidence) and are usually methods on the guard
                    // itself (`.lock().items.drain(..)`); not evidence of
                    // a nested lock.
                } else if let Some(&callee) = other.targets.iter().find(|t| locking.contains(t)) {
                    out.push(Finding::at(
                        file,
                        other.offset,
                        "R10",
                        "lock-discipline",
                        format!(
                            "calls `{}` (which takes a lock) while holding `{id_a}` \
                             (acquired line {}); drop the guard first so lock scopes \
                             never nest across function boundaries",
                            graph.fns[callee].qualified(),
                            file.line_of(site.offset)
                        ),
                    ));
                }
            }
        }
    }
    for ((a, b), (path, line, snippet)) in &pairs {
        if a >= b {
            continue;
        }
        if let Some((p2, l2, _)) = pairs.get(&(b.clone(), a.clone())) {
            out.push(Finding {
                path: path.clone(),
                line: *line,
                rule: "R10".to_string(),
                name: "lock-discipline".to_string(),
                snippet: snippet.clone(),
                hint: format!(
                    "inconsistent lock order: `{a}` is taken before `{b}` here, but \
                     `{b}` before `{a}` at {p2}:{l2}; pick one global order for these \
                     locks and stick to it"
                ),
            });
        }
    }
    out
}

/// The identity of the lock a `lock()`/`read()`/`write()` call site takes,
/// if its receiver resolves to a Mutex/RwLock. `None` for everything else
/// (including io `read`/`write` on non-lock receivers).
fn lock_id(graph: &CallGraph, f: &FnDecl, site: &CallSite) -> Option<String> {
    if !matches!(site.name.as_str(), "lock" | "read" | "write") {
        return None;
    }
    match &site.recv {
        Receiver::SelfField(field) => {
            let ty = f.self_type.as_deref()?;
            let fd = graph.structs.get(ty)?.fields.iter().find(|fd| fd.name == *field)?;
            let is_lock = fd.is_lock || graph.resolve_core(&fd.core_type).1;
            is_lock.then(|| format!("{ty}.{field}"))
        }
        Receiver::Ident(name) => {
            let (_, core, direct) = f.params.iter().find(|(p, _, _)| p == name)?;
            let (resolved, aliased) = graph.resolve_core(core);
            (*direct || aliased).then_some(resolved)
        }
        _ => None,
    }
}

/// How long the guard produced at `site` stays alive (byte offset of the
/// first point it is certainly gone).
fn held_until(s: &str, site: usize, body_open: usize, body_close: usize) -> usize {
    let Some(guard) = let_binding(s, site, body_open) else {
        return stmt_end(s, site, body_close);
    };
    let close = enclosing_close(s, site, body_close);
    let b = s.as_bytes();
    for at in find_token(&s[site..close], "drop") {
        let mut i = site + at + "drop".len();
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if b.get(i) != Some(&b'(') {
            continue;
        }
        i += 1;
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        let end = i + guard.len();
        if s[i..].starts_with(guard.as_str()) && !b.get(end).copied().is_some_and(is_ident) {
            return site + at;
        }
    }
    close
}

/// The binding name if the statement containing `site` is
/// `let [mut] guard [: Ty] = …`. Pattern bindings (`let Ok(g) = …`) return
/// `None` and fall back to statement-scoped lifetime.
fn let_binding(s: &str, site: usize, body_open: usize) -> Option<String> {
    let b = s.as_bytes();
    let mut i = site;
    let mut depth = 0i32;
    while i > body_open {
        i -= 1;
        match b[i] {
            b')' | b']' => depth += 1,
            b'(' | b'[' => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            b';' | b'{' | b'}' if depth == 0 => break,
            _ => {}
        }
    }
    let stmt = &s[i + 1..site];
    let at = find_token(stmt, "let").into_iter().next()?;
    let rest = stmt[at + "let".len()..].trim_start();
    let rest = rest.strip_prefix("mut ").map(str::trim_start).unwrap_or(rest);
    let name: String =
        rest.chars().take_while(|&c| c.is_ascii_alphanumeric() || c == '_').collect();
    let after = rest[name.len()..].trim_start();
    if name.is_empty() || !(after.starts_with('=') || after.starts_with(':')) {
        return None;
    }
    // `let v = *guard_expr` copies out of the guard; the guard itself is a
    // temporary that dies at the end of the statement.
    if let Some(rhs) = after.split_once('=') {
        if rhs.1.trim_start().starts_with('*') {
            return None;
        }
    }
    Some(name)
}

/// End of the statement containing `site`: the next `;` at depth 0, or the
/// close of the surrounding block, whichever comes first.
fn stmt_end(s: &str, site: usize, body_close: usize) -> usize {
    let b = s.as_bytes();
    let mut depth = 0i32;
    let mut i = site;
    while i < body_close {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            b';' if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    body_close
}

/// Close of the block enclosing `site` (first `}` that drops below the
/// starting depth).
fn enclosing_close(s: &str, site: usize, body_close: usize) -> usize {
    let b = s.as_bytes();
    let mut depth = 0i32;
    let mut i = site;
    while i < body_close {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    body_close
}

/// R11: golden artifacts and the structs that serialize them must agree.
/// Direction one: every snake_case key in an artifact must be a field of
/// *some* `#[derive(Serialize)]` struct (minus `ignore_keys` — map keys
/// that are data, not schema). Direction two: for each configured root
/// struct, every field must appear as a key in its artifact — a renamed
/// field whose old key lingers in `results/` is drift the other way.
pub fn artifact_schema(
    cfg: &Config,
    files: &[SourceFile],
    graph: &CallGraph,
    artifacts: &[(String, String)],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut field_names: BTreeSet<&str> = BTreeSet::new();
    for st in graph.structs.values() {
        if st.serialize {
            for fd in &st.fields {
                field_names.insert(fd.name.as_str());
            }
        }
    }
    let finding = |path: &str, snippet: &str, hint: String| Finding {
        path: path.to_string(),
        line: 1,
        rule: "R11".to_string(),
        name: "artifact-schema-drift".to_string(),
        snippet: snippet.to_string(),
        hint,
    };
    let mut keys_by_file: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for (path, text) in artifacts {
        match serde_json::value_from_str(text) {
            Ok(v) => {
                let mut keys = BTreeSet::new();
                collect_keys(&v, &mut keys);
                keys_by_file.insert(path, keys);
            }
            Err(e) => out.push(finding(
                path,
                path,
                format!("golden artifact does not parse as JSON: {e:?}"),
            )),
        }
    }
    for (path, keys) in &keys_by_file {
        for key in keys {
            if !ident_like_key(key) || cfg.artifact_ignore_keys.iter().any(|k| k == key) {
                continue;
            }
            if !field_names.contains(key.as_str()) {
                out.push(finding(
                    path,
                    key,
                    format!(
                        "artifact key `{key}` matches no field of any \
                         #[derive(Serialize)] struct; the code that wrote this file \
                         has moved on — regenerate the artifact, or add the key to \
                         `ignore_keys` if it is data rather than schema"
                    ),
                ));
            }
        }
    }
    for root in &cfg.artifact_roots {
        let Some(st) = graph.structs.get(&root.strukt) else {
            out.push(finding(
                "raven-lint.toml",
                &root.strukt,
                format!(
                    "[[rules.artifact_schema.roots]] names struct `{}` but no such \
                     struct exists in the scanned workspace",
                    root.strukt
                ),
            ));
            continue;
        };
        let Some(keys) = keys_by_file.get(root.json.as_str()) else {
            out.push(finding(
                "raven-lint.toml",
                &root.json,
                format!(
                    "[[rules.artifact_schema.roots]] expects `{}` but the \
                     [rules.artifact_schema] globs did not match it (missing file or \
                     glob misconfiguration)",
                    root.json
                ),
            ));
            continue;
        };
        let file = &files[st.file];
        for fd in &st.fields {
            if !keys.contains(&fd.name) {
                out.push(Finding::at(
                    file,
                    st.name_offset,
                    "R11",
                    "artifact-schema-drift",
                    format!(
                        "field `{}` of `{}` never appears as a key in `{}`; \
                         regenerate the artifact or prune the struct",
                        fd.name, st.name, root.json
                    ),
                ));
            }
        }
    }
    out
}

/// Every object key in a JSON document, recursively.
fn collect_keys(v: &serde_json::Value, keys: &mut BTreeSet<String>) {
    match v {
        serde_json::Value::Map(entries) => {
            for (k, val) in entries {
                keys.insert(k.clone());
                collect_keys(val, keys);
            }
        }
        serde_json::Value::Seq(items) => {
            for item in items {
                collect_keys(item, keys);
            }
        }
        _ => {}
    }
}

/// Keys that look like Rust field identifiers: snake_case ASCII. Dotted
/// metric names, path-like keys, and camelCase foreign formats can never
/// be struct fields and stay out of direction one.
fn ident_like_key(k: &str) -> bool {
    !k.is_empty()
        && !k.as_bytes()[0].is_ascii_digit()
        && k.bytes().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("x.rs", src, false)
    }

    #[test]
    fn token_rule_skips_tests_and_strings() {
        let src = "fn a() { let t = Instant::now(); }\n\
                   fn b() { let s = \"Instant::now\"; }\n\
                   #[cfg(test)]\nmod t { fn c() { let t = Instant::now(); } }\n";
        let f = file(src);
        let hits = token_rule(&f, &["Instant::now".into()], "R1", "no-wall-clock", "x");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn r4_flags_wildcard_in_watched_match() {
        let enums = vec![WatchedEnum {
            name: "RobotState".into(),
            variants: vec!["Init".into(), "EStop".into()],
        }];
        let src = "fn f(s: RobotState) -> u8 { match s { RobotState::Init => 0, _ => 1 } }";
        let hits = exhaustive_safety_match(&file(src), &enums);
        assert_eq!(hits.len(), 1, "{hits:?}");
        let ok = "fn f(s: RobotState) -> u8 { match s { RobotState::Init => 0, RobotState::EStop => 1 } }";
        assert!(exhaustive_safety_match(&file(ok), &enums).is_empty());
        let unwatched = "fn f(x: Option<u8>) -> u8 { match x { Some(v) => v, _ => 0 } }";
        assert!(exhaustive_safety_match(&file(unwatched), &enums).is_empty());
    }

    #[test]
    fn r4_sees_bare_variants_under_glob_import_and_strips_guards() {
        let enums = vec![WatchedEnum {
            name: "ControlEvent".into(),
            variants: vec!["Start".into(), "Fault".into()],
        }];
        let src = "use ControlEvent::*;\n\
                   fn f(e: ControlEvent, n: u8) -> u8 {\n\
                   match (e, n) { (Start, k) if k > 0 => k, (_, _) => 0 } }";
        let hits = exhaustive_safety_match(&file(src), &enums);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3);
    }

    #[test]
    fn r4_ignores_matches_macro_and_test_code() {
        let enums = vec![WatchedEnum { name: "RobotState".into(), variants: vec!["Init".into()] }];
        let src = "fn f(s: RobotState) -> bool { matches!(s, RobotState::Init) }\n\
                   #[cfg(test)]\nmod t { fn g(s: RobotState) -> u8 { match s { _ => 0 } } }";
        assert!(exhaustive_safety_match(&file(src), &enums).is_empty());
    }

    #[test]
    fn registry_and_doc_parse() {
        let reg_src = r#"
            impl EventKind {
                pub fn as_str(self) -> &'static str {
                    match self {
                        EventKind::EstopLatched => "estop.latched",
                        EventKind::EstopCleared => "estop.cleared",
                    }
                }
            }
            pub mod names {
                pub const DETECTOR_ALARMS: &str = "detector.alarms";
                pub const FAULT_COUNT_PREFIX: &str = "fault.count.";
            }
            pub mod channels {
                pub const EE_X_MM: &str = "ee_x_mm";
                pub const JPOS1: &str = "jpos1";
            }
        "#;
        let reg = parse_registry(reg_src);
        assert_eq!(reg.event_kinds.len(), 2);
        assert_eq!(reg.metrics, vec!["detector.alarms"]);
        assert_eq!(reg.families, vec!["fault.count."]);
        assert_eq!(reg.channels, vec!["ee_x_mm", "jpos1"]);
        let doc = parse_doc(
            "| kind | x |\n|---|---|\n| `estop.latched` | a |\n\n\
             | metric | type |\n|---|---|\n| `detector.alarms` | counter |\n\
             | `fault.count.<slug>` | counter |\n\n\
             | channel | unit |\n|---|---|\n| `ee_x_mm` | mm |\n| `jpos1` | rad |\n",
        );
        assert_eq!(doc.kinds, vec!["estop.latched"]);
        assert_eq!(doc.metrics, vec!["detector.alarms", "fault.count."]);
        assert_eq!(doc.channels, vec!["ee_x_mm", "jpos1"]);
    }

    #[test]
    fn doc_drift_both_directions_and_point_of_use() {
        let cfg = Config {
            registry_path: "obs.rs".into(),
            doc_path: "doc.md".into(),
            ..Config::default()
        };
        let reg_src = r#"
            EventKind::EstopLatched => "estop.latched",
            pub mod names {
                pub const DETECTOR_ALARMS: &str = "detector.alarms";
            }
        "#;
        let doc_src = "| kind | x |\n|---|---|\n| `estop.latched` | a |\n| `ghost.kind` | b |\n\n\
                       | metric | t |\n|---|---|\n";
        let emit =
            SourceFile::parse("emit.rs", "fn f(m: &mut M) { m.inc(\"detector.alarms\"); }", false);
        let hits = doc_drift(&cfg, reg_src, doc_src, std::slice::from_ref(&emit));
        // ghost.kind documented-but-unregistered, detector.alarms
        // registered-but-undocumented, and one raw-literal emit site.
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits.iter().any(|h| h.hint.contains("ghost.kind")));
        assert!(hits.iter().any(|h| h.path == "emit.rs"));
    }

    #[test]
    fn string_literals_survive_multibyte_chars_and_content() {
        let lits = string_literals("let c = 'é'; let a = ('µ', 'x'); m.inc(\"detector.alarms\");");
        assert_eq!(lits.len(), 1, "{lits:?}");
        assert_eq!(lits[0].1, "detector.alarms");
        // Non-ASCII string content round-trips instead of being mangled
        // byte-by-byte.
        let lits = string_literals("let s = \"détecteur\";");
        assert_eq!(lits[0].1, "détecteur");
        // Raw strings are fixture payloads, not names: skipped.
        let lits = string_literals("let r = r#\"{\"detector.alarms\":1}\"#; f(\"x\");");
        assert_eq!(lits.len(), 1, "{lits:?}");
        assert_eq!(lits[0].1, "x");
    }

    #[test]
    fn scoped_doc_drift_checks_only_the_prefix_both_directions() {
        let scoped = ScopedDoc { doc: "forensics.md".into(), prefix: "ledger.".into() };
        let reg_src = r#"
            EventKind::EstopLatched => "estop.latched",
            EventKind::LedgerAppended => "ledger.appended",
            pub mod names {
                pub const DETECTOR_ALARMS: &str = "detector.alarms";
                pub const LEDGER_RECORDS: &str = "ledger.records";
            }
        "#;

        // Complete scoped doc: both ledger.* names present, plus one
        // registered out-of-scope name for context — all clean. The
        // unprefixed registry names don't have to appear here.
        let good = "| kind | x |\n|---|---|\n| `ledger.appended` | a |\n\n\
                    | metric | t |\n|---|---|\n| `ledger.records` | counter |\n\
                    | `detector.alarms` | counter |\n";
        assert!(scoped_doc_drift(&scoped, "obs.rs", reg_src, good).is_empty());

        // Drift, both directions: `ledger.records` missing from the doc,
        // and a `ledger.ghost` row with no registry constant.
        let bad = "| kind | x |\n|---|---|\n| `ledger.appended` | a |\n\n\
                   | metric | t |\n|---|---|\n| `ledger.ghost` | counter |\n";
        let hits = scoped_doc_drift(&scoped, "obs.rs", reg_src, bad);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits
            .iter()
            .any(|h| h.hint.contains("`ledger.records`") && h.path == "forensics.md"));
        assert!(hits.iter().any(|h| h.hint.contains("`ledger.ghost`") && h.path == "obs.rs"));
    }

    #[test]
    fn channel_drift_both_directions_and_point_of_use() {
        let cfg = Config {
            registry_path: "obs.rs".into(),
            doc_path: "doc.md".into(),
            ..Config::default()
        };
        let reg_src = r#"
            pub mod channels {
                pub const EE_X_MM: &str = "ee_x_mm";
                pub const JPOS1: &str = "jpos1";
            }
        "#;
        // `jpos1` registered but undocumented; `ghost_chan` documented but
        // unregistered; one raw-literal record site.
        let doc_src = "| channel | unit |\n|---|---|\n| `ee_x_mm` | mm |\n| `ghost_chan` | ? |\n";
        let emit = SourceFile::parse(
            "emit.rs",
            "fn f(t: &mut Trace) { t.record(\"ee_x_mm\", now, v); }",
            false,
        );
        let hits = doc_drift(&cfg, reg_src, doc_src, std::slice::from_ref(&emit));
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits.iter().any(|h| h.hint.contains("`jpos1`") && h.path == "doc.md"));
        assert!(hits.iter().any(|h| h.hint.contains("`ghost_chan`") && h.path == "obs.rs"));
        assert!(hits.iter().any(|h| h.path == "emit.rs"));
    }

    #[test]
    fn span_registry_and_doc_parse() {
        let reg_src = r#"
            pub mod spans {
                pub const CYCLE: &str = "span.cycle";
                pub const STAGE_CONSOLE: &str = "span.stage.console";
                pub const ALL: [&str; 2] = [CYCLE, STAGE_CONSOLE];
            }
        "#;
        let reg = parse_registry(reg_src);
        // The `ALL` array is not a `&str` const and stays out.
        assert_eq!(reg.spans, vec!["span.cycle", "span.stage.console"]);
        let doc = parse_doc(
            "| span | opened by |\n|---|---|\n| `span.cycle` | step |\n\
             | `span.stage.console` | step |\n",
        );
        assert_eq!(doc.spans, vec!["span.cycle", "span.stage.console"]);
    }

    #[test]
    fn span_drift_both_directions_and_point_of_use() {
        let cfg = Config {
            registry_path: "obs.rs".into(),
            doc_path: "doc.md".into(),
            ..Config::default()
        };
        let reg_src = r#"
            pub mod spans {
                pub const CYCLE: &str = "span.cycle";
                pub const STAGE_LINK: &str = "span.stage.link";
            }
        "#;
        // `span.stage.link` registered but undocumented; `span.ghost`
        // documented but unregistered; one raw-literal begin site.
        let doc_src = "| span | x |\n|---|---|\n| `span.cycle` | a |\n| `span.ghost` | b |\n";
        let emit = SourceFile::parse(
            "emit.rs",
            "fn f(h: &SpanHandle) { h.begin(\"span.cycle\"); }",
            false,
        );
        let hits = doc_drift(&cfg, reg_src, doc_src, std::slice::from_ref(&emit));
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits.iter().any(|h| h.hint.contains("`span.stage.link`") && h.path == "doc.md"));
        assert!(hits.iter().any(|h| h.hint.contains("`span.ghost`") && h.path == "obs.rs"));
        assert!(hits.iter().any(|h| h.path == "emit.rs"));
    }

    #[test]
    fn scoped_span_drift_checks_the_prefix_both_directions() {
        let scoped = ScopedDoc { doc: "obs.md".into(), prefix: "span.".into() };
        let reg_src = r#"
            pub mod spans {
                pub const CYCLE: &str = "span.cycle";
                pub const EXEC_RUN: &str = "span.exec.run";
            }
        "#;
        let good = "| span | x |\n|---|---|\n| `span.cycle` | a |\n| `span.exec.run` | b |\n";
        assert!(scoped_doc_drift(&scoped, "obs.rs", reg_src, good).is_empty());
        let bad = "| span | x |\n|---|---|\n| `span.cycle` | a |\n| `span.ghost` | b |\n";
        let hits = scoped_doc_drift(&scoped, "obs.rs", reg_src, bad);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().any(|h| h.hint.contains("`span.exec.run`") && h.path == "obs.md"));
        assert!(hits.iter().any(|h| h.hint.contains("`span.ghost`") && h.path == "obs.rs"));
    }

    #[test]
    fn r7_flags_float_literal_equality_only() {
        let bad = "fn a(x: f64) -> bool { x == 0.0 }\n\
                   fn b(g: f32) -> bool { 1.5f32 != g }\n\
                   fn c(x: f64) -> bool { x == -2.5 }\n\
                   fn d(x: f64) -> bool { x != 1e3 }\n";
        let hits = float_cmp(&file(bad));
        assert_eq!(hits.len(), 4, "{hits:?}");
        assert!(hits.iter().all(|h| h.rule == "R7"));

        let ok = "fn a(n: u32) -> bool { n == 3 }\n\
                  fn b(x: f64) -> bool { x <= 0.5 && x >= -0.5 }\n\
                  fn c(x: f64) -> bool { x.to_bits() == 0.25f64.to_bits() }\n\
                  fn d(x: f64, y: f64) -> bool { (x - y).abs() < 1e-9 }\n\
                  fn e(s: &str) -> bool { s == \"1.5\" }\n\
                  fn f() -> impl Fn() -> f64 { || 0.5 }\n\
                  #[cfg(test)]\nmod t { fn g(x: f64) -> bool { x == 0.0 } }\n";
        let clean = float_cmp(&file(ok));
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn float_literal_classifier() {
        for yes in ["0.0", "1.", "2.5", "-3.25", "1e3", "1_000.5", "0.5f64", "1f32", "2.5e3f64"] {
            assert!(is_float_literal(yes), "{yes}");
        }
        for no in ["", "x", "3", "42u64", "0x1e", "0b10", "x.y", "0.5f64.to_bits", "1degree"] {
            assert!(!is_float_literal(no), "{no}");
        }
    }

    #[test]
    fn unsafe_audit_requires_allowlist_and_safety_comment() {
        let src = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        let hits = unsafe_audit(&file(src), &[]);
        assert_eq!(hits.len(), 1);
        let allowed_src =
            "fn f() {\n    // SAFETY: guarded by the check above.\n    unsafe { x() }\n}";
        let f2 = file(allowed_src);
        assert!(unsafe_audit(&f2, &["x.rs".into()]).is_empty());
        let no_comment = "fn f() { unsafe { x() } }";
        assert_eq!(unsafe_audit(&file(no_comment), &["x.rs".into()]).len(), 1);
    }

    #[test]
    fn forbid_attribute_is_not_an_unsafe_token() {
        let src = "#![forbid(unsafe_code)]\nfn f() {}";
        assert!(unsafe_audit(&file(src), &[]).is_empty());
    }

    fn graph_of(files: &[SourceFile]) -> CallGraph {
        CallGraph::build(files)
    }

    #[test]
    fn hot_path_rule_reports_with_chain_and_skips_unreachable() {
        let src = "struct Sim { x: u8 }\n\
                   impl Sim {\n\
                       pub fn step(&mut self) { self.inner(); }\n\
                       fn inner(&mut self) { let v = self.x.checked_add(1).unwrap(); }\n\
                   }\n\
                   fn cold() { let v = Some(1).unwrap(); }\n";
        let files = vec![file(src)];
        let graph = graph_of(&files);
        let reach = graph.reachable_from(&["Sim::step".to_string()]);
        let hits = hot_path_rule(&files, &graph, &reach, &[".unwrap(".to_string()]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "R3");
        assert_eq!(hits[0].line, 4);
        assert!(hits[0].hint.contains("Sim::step → Sim::inner"), "{}", hits[0].hint);
    }

    #[test]
    fn hot_path_rule_ignores_cfg_test_calls() {
        let src = "pub fn step() { work(); }\n\
                   fn work() {}\n\
                   #[cfg(test)]\n\
                   mod t {\n\
                       fn helper() { let s = Some(1).unwrap(); }\n\
                   }\n";
        let files = vec![file(src)];
        let graph = graph_of(&files);
        let reach = graph.reachable_from(&["step".to_string()]);
        let hits = hot_path_rule(&files, &graph, &reach, &[".unwrap(".to_string()]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn rng_stream_call_sites_flag_raw_labels_only() {
        let src = "fn f(bus: &Bus) {\n\
                       let a = bus.stream_rng(7, \"raw-label\");\n\
                       let b = bus.stream_rng(7, streams::TREMOR);\n\
                       let c = bus.stream_rng(7, &format!(\"{}{}\", streams::FIG9_PREFIX, 3));\n\
                       let d = derive_seed(root, label);\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod t { fn g(bus: &Bus) { bus.stream_rng(7, \"test-only\"); } }\n";
        let hits = rng_stream_call_sites(
            &file(src),
            &["stream_rng".to_string(), "derive_seed".to_string()],
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[0].rule, "R9");
    }

    #[test]
    fn stream_registry_parse_uniqueness_and_doc_drift() {
        let cfg = Config {
            registry_path: "obs.rs".into(),
            doc_path: "doc.md".into(),
            ..Config::default()
        };
        let reg_src = r#"
            pub mod streams {
                pub const TREMOR: &str = "tremor";
                pub const WORKLOAD: &str = "workload";
                pub const SHADOW: &str = "tremor";
                pub const FIG9_PREFIX: &str = "fig9-";
            }
        "#;
        let reg = parse_registry(reg_src);
        assert_eq!(reg.streams.len(), 3);
        assert_eq!(reg.stream_families, vec![("FIG9_PREFIX".to_string(), "fig9-".to_string())]);
        // `workload` undocumented; `ghost` documented-but-unregistered;
        // `tremor` registered twice; `fig9-<idx>` normalizes to its prefix.
        let doc_src = "| stream | seeded by |\n|---|---|\n| `tremor` | a |\n\
                       | `fig9-<idx>` | b |\n| `ghost` | c |\n";
        let hits = stream_registry_drift(&cfg, reg_src, doc_src);
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits.iter().any(|h| h.hint.contains("registered twice")));
        assert!(hits.iter().any(|h| h.hint.contains("`workload`") && h.path == "doc.md"));
        assert!(hits.iter().any(|h| h.hint.contains("`ghost`") && h.path == "obs.rs"));
        assert!(hits.iter().all(|h| h.rule == "R9"));
    }

    #[test]
    fn lock_discipline_flags_abba_inversion() {
        let src = "use std::sync::Mutex;\n\
                   struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                   impl S {\n\
                       fn fwd(&self) {\n\
                           let ga = self.a.lock().unwrap();\n\
                           let gb = self.b.lock().unwrap();\n\
                       }\n\
                       fn rev(&self) {\n\
                           let gb = self.b.lock().unwrap();\n\
                           let ga = self.a.lock().unwrap();\n\
                       }\n\
                   }\n";
        let files = vec![file(src)];
        let hits = lock_discipline(&files, &graph_of(&files));
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].hint.contains("inconsistent lock order"), "{}", hits[0].hint);
    }

    #[test]
    fn lock_discipline_flags_held_across_locking_call_and_reacquire() {
        let src = "use std::sync::Mutex;\n\
                   struct S { a: Mutex<u8> }\n\
                   impl S {\n\
                       fn outer(&self) {\n\
                           let g = self.a.lock().unwrap();\n\
                           self.inner();\n\
                       }\n\
                       fn reenter(&self) {\n\
                           let g = self.a.lock().unwrap();\n\
                           let h = self.a.lock().unwrap();\n\
                       }\n\
                       fn inner(&self) { let g = self.a.lock().unwrap(); }\n\
                   }\n";
        let files = vec![file(src)];
        let hits = lock_discipline(&files, &graph_of(&files));
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().any(|h| h.hint.contains("re-acquires lock `S.a`")), "{hits:?}");
        assert!(hits.iter().any(|h| h.hint.contains("calls `S::inner`")), "{hits:?}");
    }

    #[test]
    fn lock_discipline_respects_drop_and_statement_scope() {
        let src = "use std::sync::Mutex;\n\
                   struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                   impl S {\n\
                       fn dropped(&self) {\n\
                           let ga = self.a.lock().unwrap();\n\
                           drop(ga);\n\
                           self.locker();\n\
                       }\n\
                       fn temporary(&self) {\n\
                           let v = *self.a.lock().unwrap();\n\
                           self.locker();\n\
                       }\n\
                       fn locker(&self) { let g = self.b.lock().unwrap(); }\n\
                   }\n";
        let files = vec![file(src)];
        let hits = lock_discipline(&files, &graph_of(&files));
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn lock_discipline_ignores_io_read_on_non_lock_receivers() {
        let src = "struct S { rng: SmallRng }\n\
                   impl S {\n\
                       fn f(&mut self, file: &mut File) {\n\
                           let n = file.read(&mut self.buf);\n\
                       }\n\
                   }\n";
        let files = vec![file(src)];
        let hits = lock_discipline(&files, &graph_of(&files));
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn artifact_schema_checks_both_directions() {
        let cfg = Config {
            artifact_ignore_keys: vec!["ignored_key".to_string()],
            artifact_roots: vec![crate::config::ArtifactRoot {
                json: "results/table4.json".to_string(),
                strukt: "Table4".to_string(),
            }],
            ..Config::default()
        };
        let src = "#[derive(Serialize)]\n\
                   pub struct Table4 { pub tpr: f64, pub missing_field: u8 }\n";
        let files = vec![file(src)];
        let graph = graph_of(&files);
        let artifacts = vec![(
            "results/table4.json".to_string(),
            "{\"tpr\": 0.5, \"ghost_key\": 1, \"ignored_key\": 2, \
             \"dotted.metric\": 3, \"camelCase\": 4}"
                .to_string(),
        )];
        let hits = artifact_schema(&cfg, &files, &graph, &artifacts);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().any(|h| h.hint.contains("`ghost_key`")), "{hits:?}");
        assert!(hits.iter().any(|h| h.hint.contains("`missing_field`")), "{hits:?}");
        assert!(hits.iter().all(|h| h.rule == "R11"));
    }

    #[test]
    fn artifact_schema_flags_unparseable_and_missing_targets() {
        let cfg = Config {
            artifact_roots: vec![
                crate::config::ArtifactRoot {
                    json: "results/absent.json".to_string(),
                    strukt: "X".to_string(),
                },
                crate::config::ArtifactRoot {
                    json: "results/bad.json".to_string(),
                    strukt: "NoSuchStruct".to_string(),
                },
            ],
            ..Config::default()
        };
        let files = vec![file("pub struct X { pub a: u8 }")];
        let graph = graph_of(&files);
        let artifacts = vec![("results/bad.json".to_string(), "{not json".to_string())];
        let hits = artifact_schema(&cfg, &files, &graph, &artifacts);
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits.iter().any(|h| h.hint.contains("does not parse")));
        assert!(hits.iter().any(|h| h.hint.contains("`NoSuchStruct`")));
        assert!(hits.iter().any(|h| h.hint.contains("globs did not match")));
    }
}
