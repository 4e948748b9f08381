//! The audit rules. Each returns [`Finding`]s; the engine applies the
//! allowlist afterwards so rules stay pure functions of the source.

use crate::config::WatchedEnum;
use crate::lexer::{find_token, SourceFile};
use simbus::obs::{channels, names, spans, EventKind};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id (`R4`, `R5`, `R7`, or `CONFIG` for a stale allowlist
    /// entry).
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

/// Where the registry lives: the one file allowed to spell its names.
const REGISTRY_FILE: &str = "crates/simbus/src/obs.rs";

/// R5: a registered event kind, metric, channel or span name spelled as a
/// raw string literal outside the registry (and outside tests) bypasses
/// `simbus::obs`, so a rename there would silently fork the taxonomy.
/// The names come from the registry's own `ALL`/`FAMILIES` arrays.
pub fn registry_literals(file: &SourceFile) -> Vec<Finding> {
    if file.path == REGISTRY_FILE {
        return Vec::new();
    }
    let kinds = EventKind::ALL.map(EventKind::as_str);
    let registered = |lit: &str| {
        [&kinds[..], &names::ALL, &channels::ALL, &spans::ALL].iter().any(|set| set.contains(&lit))
            || names::FAMILIES.iter().any(|f| lit.starts_with(f))
    };
    let mut out = Vec::new();
    for (offset, literal) in string_literals(&file.original) {
        if file.is_test_line(file.line_of(offset)) {
            continue;
        }
        if registered(&literal) {
            out.push(Finding::at(
                file,
                offset,
                "R5",
                "registry-name-literal",
                format!(
                    "`\"{literal}\"` is a registered observability name; emit it \
                     through `simbus::obs` (EventKind / names::* / channels::* / spans::*) \
                     so renames cannot drift"
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

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("x.rs", src, false)
    }

    #[test]
    fn r4_flags_wildcard_in_watched_match() {
        let enums = [WatchedEnum { name: "RobotState", variants: &["Init", "EStop"] }];
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
        let enums = [WatchedEnum { name: "ControlEvent", variants: &["Start", "Fault"] }];
        let src = "use ControlEvent::*;\n\
                   fn f(e: ControlEvent, n: u8) -> u8 {\n\
                   match (e, n) { (Start, k) if k > 0 => k, (_, _) => 0 } }";
        let hits = exhaustive_safety_match(&file(src), &enums);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3);
    }

    #[test]
    fn r4_ignores_matches_macro_and_test_code() {
        let enums = [WatchedEnum { name: "RobotState", variants: &["Init"] }];
        let src = "fn f(s: RobotState) -> bool { matches!(s, RobotState::Init) }\n\
                   #[cfg(test)]\nmod t { fn g(s: RobotState) -> u8 { match s { _ => 0 } } }";
        assert!(exhaustive_safety_match(&file(src), &enums).is_empty());
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
    fn r5_flags_registered_names_as_raw_literals_outside_tests() {
        let src = "fn f(m: &mut M) { m.inc(\"detector.alarms\"); }\n\
                   fn g(t: &mut T) { t.record(\"ee_x_mm\", 0, 0.0); }\n\
                   fn h(m: &mut M) { m.inc(\"fault.count.dac_limit\"); }\n\
                   fn k(h: &S) { h.begin(\"span.cycle\"); let _ = \"estop.latched\"; }\n\
                   fn ok(m: &mut M) { m.inc(\"not.registered\"); }\n\
                   #[cfg(test)]\nmod t { fn u(m: &mut M) { m.inc(\"detector.alarms\"); } }\n";
        let hits = registry_literals(&file(src));
        let lines: Vec<usize> = hits.iter().map(|h| h.line).collect();
        assert_eq!(lines, [1, 2, 3, 4, 4], "{hits:?}");
        assert!(hits.iter().all(|h| h.rule == "R5"));
        let registry = SourceFile::parse(REGISTRY_FILE, src, false);
        assert!(registry_literals(&registry).is_empty());
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
}
