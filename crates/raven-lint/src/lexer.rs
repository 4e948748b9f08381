//! A comment/string-stripping lexer for Rust sources.
//!
//! Rules must never fire on prose: the word `unsafe` in a doc comment or
//! `"Instant::now"` inside a string literal is not a violation. Rather than
//! pulling in a full parser (the workspace builds offline, with no external
//! parser crates), [`scrub`] produces a same-length copy of the source in
//! which every comment and every string/char literal is replaced by spaces
//! — newlines preserved — so byte offsets and line numbers stay valid in
//! both views. Token scans run on the scrubbed text; human-facing snippets
//! and the `// SAFETY:` audit read the original.

/// One parsed source file: original text, scrubbed text, line index, and
/// the `#[cfg(test)]` region map.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The file as read.
    pub original: String,
    /// Comments and literals blanked; same byte length as `original`.
    pub scrubbed: String,
    /// Byte offset of the start of each line (0-based lines).
    line_starts: Vec<usize>,
    /// Per line (0-based): inside a `#[cfg(test)]`-gated item.
    test_lines: Vec<bool>,
    /// The whole file is test code (an integration-test target).
    pub is_test_file: bool,
}

impl SourceFile {
    /// Parses one file. `is_test_file` marks integration-test targets
    /// (`tests/*.rs`), where test-only idioms are allowed wholesale.
    pub fn parse(path: &str, original: &str, is_test_file: bool) -> Self {
        let scrubbed = scrub(original);
        let mut line_starts = vec![0usize];
        for (i, b) in original.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let mut test_lines = vec![false; line_starts.len()];
        for (start, end) in test_regions(&scrubbed) {
            let first = offset_to_line0(&line_starts, start);
            let last = offset_to_line0(&line_starts, end.saturating_sub(1));
            for flag in test_lines.iter_mut().take(last + 1).skip(first) {
                *flag = true;
            }
        }
        SourceFile {
            path: path.to_string(),
            original: original.to_string(),
            scrubbed,
            line_starts,
            test_lines,
            is_test_file,
        }
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        offset_to_line0(&self.line_starts, offset) + 1
    }

    /// Original text of a 1-based line, trimmed.
    pub fn line_text(&self, line: usize) -> &str {
        let idx = line - 1;
        let start = self.line_starts[idx.min(self.line_starts.len() - 1)];
        let end = self
            .line_starts
            .get(idx + 1)
            .map(|s| s.saturating_sub(1))
            .unwrap_or(self.original.len());
        self.original[start..end.max(start)].trim()
    }

    /// `true` when the 1-based line belongs to test code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.is_test_file || self.test_lines.get(line - 1).copied().unwrap_or(false)
    }
}

fn offset_to_line0(line_starts: &[usize], offset: usize) -> usize {
    match line_starts.binary_search(&offset) {
        Ok(idx) => idx,
        Err(idx) => idx - 1,
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Replaces comments and string/char literals with spaces, preserving
/// newlines and byte offsets. Handles line and (nested) block comments,
/// plain/byte strings with escapes, raw strings with arbitrary `#` counts,
/// char literals, and lifetimes.
pub fn scrub(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                out[i] = b' ';
                out[i + 1] = b' ';
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else {
                        if b[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'"' => i = scrub_quoted(b, &mut out, i),
            b'r' | b'b' if !(i > 0 && is_ident(b[i - 1])) => {
                if let Some(next) = raw_string_after(b, i) {
                    i = next_raw_scrub(b, &mut out, i, next);
                } else if b[i] == b'b' && b.get(i + 1) == Some(&b'"') {
                    i = scrub_quoted(b, &mut out, i + 1);
                } else if b[i] == b'b' && b.get(i + 1) == Some(&b'\'') {
                    i = scrub_char_or_lifetime(b, &mut out, i + 1);
                } else {
                    i += 1;
                }
            }
            b'\'' => i = scrub_char_or_lifetime(b, &mut out, i),
            _ => i += 1,
        }
    }
    String::from_utf8(out).unwrap_or_else(|_| src.to_string())
}

/// If position `i` starts a raw string (`r"`, `r#"`, `br##"`, …), returns
/// the number of `#`s; otherwise `None`.
fn raw_string_after(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) == Some(&b'"') {
        Some(hashes)
    } else {
        None
    }
}

fn next_raw_scrub(b: &[u8], out: &mut [u8], start: usize, hashes: usize) -> usize {
    // Blank the prefix (b, r, #s, opening quote).
    let mut i = start;
    while b[i] != b'"' {
        out[i] = b' ';
        i += 1;
    }
    out[i] = b' ';
    i += 1;
    // Scan for `"` followed by `hashes` hash marks.
    while i < b.len() {
        if b[i] == b'"' {
            let mut k = 0usize;
            while k < hashes && b.get(i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                for slot in out.iter_mut().take(i + 1 + hashes).skip(i) {
                    *slot = b' ';
                }
                return i + 1 + hashes;
            }
        }
        if b[i] != b'\n' {
            out[i] = b' ';
        }
        i += 1;
    }
    i
}

fn scrub_quoted(b: &[u8], out: &mut [u8], start: usize) -> usize {
    let mut i = start;
    out[i] = b' ';
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                out[i] = b' ';
                if let Some(&next) = b.get(i + 1) {
                    if next != b'\n' {
                        out[i + 1] = b' ';
                    }
                    i += 2;
                } else {
                    i += 1;
                }
            }
            b'"' => {
                out[i] = b' ';
                return i + 1;
            }
            b'\n' => i += 1,
            _ => {
                out[i] = b' ';
                i += 1;
            }
        }
    }
    i
}

fn scrub_char_or_lifetime(b: &[u8], out: &mut [u8], i: usize) -> usize {
    // `'\n'`-style escape, a multibyte `'é'`, or ASCII `'x'` are char
    // literals; `'a` / `'static` are lifetimes (or loop labels) and only
    // the tick is consumed.
    let Some(&next) = b.get(i + 1) else { return i + 1 };
    if next == b'\\' || next >= 0x80 {
        out[i] = b' ';
        let mut j = i + 1;
        while j < b.len() && b[j] != b'\'' {
            if b[j] == b'\\' {
                out[j] = b' ';
                j += 1;
                if j < b.len() && b[j] != b'\n' {
                    out[j] = b' ';
                }
            } else if b[j] != b'\n' {
                out[j] = b' ';
            }
            j += 1;
        }
        if j < b.len() {
            out[j] = b' ';
            j += 1;
        }
        return j;
    }
    if b.get(i + 2) == Some(&b'\'') && next != b'\'' {
        out[i] = b' ';
        out[i + 1] = b' ';
        out[i + 2] = b' ';
        return i + 3;
    }
    i + 1
}

/// Byte regions of the scrubbed source covered by `#[cfg(test)]`-gated
/// items (attribute through the matching closing brace).
fn test_regions(scrubbed: &str) -> Vec<(usize, usize)> {
    const MARKER: &str = "#[cfg(test)]";
    let b = scrubbed.as_bytes();
    let mut regions = Vec::new();
    let mut from = 0;
    while let Some(rel) = scrubbed[from..].find(MARKER) {
        let attr_start = from + rel;
        let mut i = attr_start + MARKER.len();
        // Skip whitespace and any further attributes before the item.
        loop {
            while i < b.len() && b[i].is_ascii_whitespace() {
                i += 1;
            }
            if b.get(i) == Some(&b'#') && b.get(i + 1) == Some(&b'[') {
                let mut depth = 0usize;
                while i < b.len() {
                    match b[i] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            } else {
                break;
            }
        }
        // Find the item's opening brace; `mod x;` declarations (a `;`
        // first) have no inline body to mark.
        let mut open = None;
        while i < b.len() {
            match b[i] {
                b'{' => {
                    open = Some(i);
                    break;
                }
                b';' => break,
                _ => i += 1,
            }
        }
        if let Some(open) = open {
            let mut depth = 0usize;
            let mut j = open;
            while j < b.len() {
                match b[j] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            regions.push((attr_start, (j + 1).min(b.len())));
            from = j.min(b.len() - 1) + 1;
        } else {
            from = i.min(b.len() - 1) + 1;
        }
        if from >= b.len() {
            break;
        }
    }
    regions
}

/// Byte offsets where `token` occurs in `scrubbed`, respecting identifier
/// boundaries on whichever ends of the token are identifier-like.
pub fn find_token(scrubbed: &str, token: &str) -> Vec<usize> {
    let tb = token.as_bytes();
    let check_front = tb.first().is_some_and(|&c| is_ident(c));
    let check_back = tb.last().is_some_and(|&c| is_ident(c));
    let b = scrubbed.as_bytes();
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(rel) = scrubbed[from..].find(token) {
        let at = from + rel;
        let front_ok = !check_front || at == 0 || !is_ident(b[at - 1]);
        let back_ok = !check_back || at + tb.len() >= b.len() || !is_ident(b[at + tb.len()]);
        if front_ok && back_ok {
            hits.push(at);
        }
        from = at + 1;
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let src = "let x = \"Instant::now\"; // Instant::now\nlet y = 1; /* unsafe */";
        let s = scrub(src);
        assert_eq!(s.len(), src.len());
        assert!(!s.contains("Instant::now"));
        assert!(!s.contains("unsafe"));
        assert!(s.contains("let y = 1;"));
        assert_eq!(s.matches('\n').count(), 1);
    }

    #[test]
    fn scrub_handles_raw_strings_and_chars() {
        let src = r##"let r = r#"panic!("x")"#; let c = '"'; let l: &'static str = e;"##;
        let s = scrub(src);
        assert!(!s.contains("panic!"));
        assert!(s.contains("'static"), "lifetimes survive: {s}");
        assert!(s.contains("let l"));
    }

    #[test]
    fn scrub_handles_escapes_and_nested_block_comments() {
        let src = "let s = \"a\\\"unsafe\\\"b\"; /* outer /* unsafe */ still */ let t = 2;";
        let s = scrub(src);
        assert!(!s.contains("unsafe"));
        assert!(s.contains("let t = 2;"));
    }

    #[test]
    fn scrub_raw_string_trailing_backslash_is_not_an_escape() {
        // Raw strings have no escapes: the `"` after `\` closes the
        // literal. An escape-aware scanner would swallow the rest of the
        // line and miss the token after it.
        let src = r#"let s = r"a\"; let x = Instant::now();"#;
        let s = scrub(src);
        assert_eq!(s.len(), src.len());
        assert!(s.contains("Instant::now"), "{s}");
    }

    #[test]
    fn scrub_comment_openers_inside_literals_do_not_open_comments() {
        let src = "let s = \"/*\"; let t = SystemTime; // */";
        let s = scrub(src);
        assert!(s.contains("SystemTime"), "{s}");
        let src2 = "let r = r\"// not a comment\"; let z = Instant::now();";
        let s2 = scrub(src2);
        assert!(s2.contains("Instant::now"), "{s2}");
    }

    #[test]
    fn scrub_deeply_nested_and_unterminated_block_comments() {
        let src = "/* a /* b /* c */ */ still */ let y = Utc::now();";
        let s = scrub(src);
        assert!(s.contains("Utc::now"), "{s}");
        assert!(!s.contains("still"), "{s}");
        // Unterminated comment blanks to EOF without panicking.
        let s2 = scrub("/* unterminated Instant::now");
        assert!(!s2.contains("Instant"), "{s2}");
    }

    #[test]
    fn scrub_empty_raw_string_and_byte_string_escapes() {
        let src = "let e = r#\"\"#; let bs = b\"a\\\"b\"; let q = Instant::now();";
        let s = scrub(src);
        assert_eq!(s.len(), src.len());
        assert!(s.contains("Instant::now"), "{s}");
        assert!(!s.contains("a\\\"b"), "{s}");
    }

    #[test]
    fn scrub_multibyte_char_literal_does_not_derail_the_scan() {
        let src = "let c = 'é'; let v = \"tremor\"; let u = Instant::now();";
        let s = scrub(src);
        assert_eq!(s.len(), src.len());
        assert!(!s.contains("tremor"), "{s}");
        assert!(s.contains("Instant::now"), "{s}");
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn tail() {}\n";
        let f = SourceFile::parse("x.rs", src, false);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn find_token_respects_ident_boundaries() {
        let s = "use std::collections::HashMap; type MyHashMap = (); let h: HashMap<u8, u8>;";
        assert_eq!(find_token(s, "HashMap").len(), 2);
        let s2 = "#![forbid(unsafe_code)] fn f() {}";
        assert!(find_token(s2, "unsafe").is_empty());
    }

    #[test]
    fn line_bookkeeping() {
        let f = SourceFile::parse("x.rs", "a\nbb\nccc\n", false);
        assert_eq!(f.line_of(0), 1);
        assert_eq!(f.line_of(2), 2);
        assert_eq!(f.line_of(5), 3);
        assert_eq!(f.line_text(3), "ccc");
    }
}
