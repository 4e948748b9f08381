//! A lightweight item/signature parser over the scrubbed token stream.
//!
//! The workspace builds offline — no syn, no proc-macro2 — so this module
//! extracts just enough structure from [`crate::lexer::SourceFile`]s to
//! power the hot-path rule (R3) and
//! artifact-schema drift (R11): function items with their impl type and
//! parameter types, struct declarations with field types and their
//! `#[derive(Serialize)]` flag, and `type` aliases. It is an
//! *approximation* by design: generics are skipped, macros are opaque, and
//! trait dispatch resolves by method name. `docs/STATIC_ANALYSIS.md`
//! ("The call-graph model") spells out what this can and cannot see.

use crate::lexer::{find_token, SourceFile};

/// One `fn` item: free function, inherent/trait method, or default trait
/// method.
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// Index into the parsed-files slice.
    pub file: usize,
    /// The function name.
    pub name: String,
    /// Last path segment of the enclosing `impl`/`trait` type, if any.
    pub self_type: Option<String>,
    /// Byte offset of the name token (for line reporting).
    pub name_offset: usize,
    /// Byte span of the `{ ... }` body, braces inclusive; `None` for
    /// bodiless trait signatures.
    pub body: Option<(usize, usize)>,
    /// `(name, core type)` of each identifier-pattern parameter.
    pub params: Vec<(String, String)>,
    /// Declared with a `self` receiver.
    pub has_self: bool,
    /// Lives in `#[cfg(test)]` code or a test file.
    pub is_test: bool,
}

impl FnDecl {
    /// `Type::name` for methods, bare `name` for free functions.
    pub fn qualified(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One struct field: name and core type (wrappers peeled).
#[derive(Debug, Clone)]
pub struct FieldDecl {
    pub name: String,
    /// Last path segment after peeling `&`/`Option`/`Arc`/`Box`/... .
    pub core_type: String,
    /// The declared type verbatim (scrubbed text, trimmed).
    pub raw_type: String,
}

/// One `struct` item with named fields (tuple/unit structs keep an empty
/// field list).
#[derive(Debug, Clone)]
pub struct StructDecl {
    pub file: usize,
    pub name: String,
    pub name_offset: usize,
    pub fields: Vec<FieldDecl>,
    /// Carries `Serialize` in a `#[derive(...)]` attribute.
    pub serialize: bool,
}

/// A `type Name = ...;` alias, used to see through aliases such as
/// `type Shared = Arc<Mutex<Det>>`.
#[derive(Debug, Clone)]
pub struct TypeAlias {
    pub name: String,
    pub raw_type: String,
}

/// Everything parsed out of one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    pub fns: Vec<FnDecl>,
    pub structs: Vec<StructDecl>,
    pub aliases: Vec<TypeAlias>,
    /// `(trait, type)` per `impl Trait for Type` block — lets the call
    /// graph resolve `dyn Trait` receivers to every implementation.
    pub trait_impls: Vec<(String, String)>,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Reads the identifier starting at `at` (must already be at its first
/// byte); returns `(ident, end_offset)`.
fn ident_at(s: &str, at: usize) -> (&str, usize) {
    let b = s.as_bytes();
    let mut end = at;
    while end < b.len() && is_ident(b[end]) {
        end += 1;
    }
    (&s[at..end], end)
}

fn skip_ws(s: &str, mut i: usize) -> usize {
    let b = s.as_bytes();
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Skips a balanced `<...>` group starting at `open` (which must be `<`).
/// `->` arrows inside (e.g. `fn f<F: Fn() -> u8>`) do not count as closers.
fn skip_angles(s: &str, open: usize) -> usize {
    let b = s.as_bytes();
    let mut depth = 0i32;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'<' => depth += 1,
            b'-' if b.get(i + 1) == Some(&b'>') => i += 1, // skip `->`
            b'=' if b.get(i + 1) == Some(&b'>') => i += 1, // skip `=>`
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Offset of the `}`/`)`/`]` matching the opener at `open`.
pub fn close_delim(s: &str, open: usize) -> Option<usize> {
    let b = s.as_bytes();
    let (o, c) = match b[open] {
        b'{' => (b'{', b'}'),
        b'(' => (b'(', b')'),
        b'[' => (b'[', b']'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (i, &x) in b.iter().enumerate().skip(open) {
        if x == o {
            depth += 1;
        } else if x == c {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Peels references, `mut`, lifetimes, and standard smart-pointer /
/// container wrappers off a type, returning the core type's last path
/// segment.
pub fn core_type(raw: &str) -> String {
    const WRAPPERS: [&str; 10] =
        ["Option", "Arc", "Rc", "Box", "RefCell", "Cell", "Mutex", "RwLock", "Vec", "VecDeque"];
    let mut t = raw.trim();
    loop {
        t = t.trim_start_matches('&').trim();
        if let Some(rest) = t.strip_prefix('\'') {
            // Lifetime: drop the tick + its identifier.
            let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(0);
            t = rest[end..].trim();
            continue;
        }
        for kw in ["mut ", "dyn ", "impl "] {
            if let Some(rest) = t.strip_prefix(kw) {
                t = rest.trim();
            }
        }
        // `Wrapper<Inner>` (possibly path-qualified): unwrap one level.
        let Some(lt) = t.find('<') else { break };
        let head = t[..lt].trim();
        let seg = head.rsplit("::").next().unwrap_or(head).trim();
        if !WRAPPERS.contains(&seg) {
            break;
        }
        let Some(gt) = t.rfind('>') else { break };
        t = t[lt + 1..gt].trim();
    }
    // Last path segment, generics stripped.
    let t = t.split('<').next().unwrap_or(t).trim();
    let seg = t.rsplit("::").next().unwrap_or(t).trim();
    seg.bytes().take_while(|&b| is_ident(b)).map(|b| b as char).collect()
}

/// `(impl_or_trait_type, implemented_trait, body_span)` for each
/// `impl`/`trait` block; the trait slot is set only for `impl T for X`.
fn impl_spans(s: &str) -> Vec<(String, Option<String>, (usize, usize))> {
    let mut out = Vec::new();
    for kw in ["impl", "trait"] {
        for at in find_token(s, kw) {
            let mut i = at + kw.len();
            let b = s.as_bytes();
            i = skip_ws(s, i);
            if b.get(i) == Some(&b'<') {
                i = skip_angles(s, i);
                i = skip_ws(s, i);
            }
            // Read up to the `{` (or `;`/EOF) at depth 0, remembering the
            // type path after a ` for ` if one appears (trait impls).
            let head_start = i;
            let mut brace = None;
            let mut for_at: Option<usize> = None;
            let mut where_at: Option<usize> = None;
            while i < b.len() {
                match b[i] {
                    b'{' => {
                        brace = Some(i);
                        break;
                    }
                    b';' => break,
                    b'<' => {
                        i = skip_angles(s, i);
                        continue;
                    }
                    b'(' | b'[' => {
                        i = close_delim(s, i).map(|c| c + 1).unwrap_or(b.len());
                        continue;
                    }
                    b'f' if s[i..].starts_with("for")
                        && !is_ident(b[i.saturating_sub(1)])
                        && !b.get(i + 3).copied().is_some_and(is_ident) =>
                    {
                        for_at = Some(i);
                    }
                    b'w' if s[i..].starts_with("where")
                        && !is_ident(b[i.saturating_sub(1)])
                        && !b.get(i + 5).copied().is_some_and(is_ident) =>
                    {
                        where_at.get_or_insert(i);
                    }
                    _ => {}
                }
                i += 1;
            }
            let Some(open) = brace else { continue };
            let Some(close) = close_delim(s, open) else { continue };
            let head_end = where_at.unwrap_or(open);
            let (ty_text, trait_text) = match for_at {
                Some(f) if f < head_end => (&s[f + 3..head_end], Some(&s[head_start..f])),
                _ => (&s[head_start..head_end], None),
            };
            let ty = core_type(ty_text);
            let trait_name = trait_text.map(core_type).filter(|t| !t.is_empty() && kw == "impl");
            if !ty.is_empty() {
                out.push((ty, trait_name, (open, close)));
            }
        }
    }
    out
}

/// Splits a delimiter-free span on top-level commas.
pub fn split_commas(s: &str, start: usize, end: usize) -> Vec<(usize, usize)> {
    let b = s.as_bytes();
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut from = start;
    let mut i = start;
    while i < end {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'<' => {
                i = skip_angles(s, i);
                continue;
            }
            b',' if depth == 0 => {
                parts.push((from, i));
                from = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if from < end {
        parts.push((from, end));
    }
    parts
}

/// Parses one parameter: `name: Type`, `&self`, `mut name: Type`, or a
/// non-identifier pattern (returned as `None`). Returns
/// `Some((name, core_type))` with `name == "self"` for receivers.
fn parse_param(text: &str) -> Option<(String, String)> {
    let t = text.trim();
    if t.is_empty() {
        return None;
    }
    let bare = t.trim_start_matches('&').trim();
    let bare = bare.strip_prefix("mut ").unwrap_or(bare).trim();
    let bare = match bare.strip_prefix('\'') {
        Some(rest) => {
            let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(0);
            rest[end..].trim().strip_prefix("mut ").unwrap_or(rest[end..].trim()).trim()
        }
        None => bare,
    };
    if bare == "self" || bare.starts_with("self:") || bare.starts_with("self ") {
        return Some(("self".to_string(), String::new()));
    }
    let colon = bare.find(':')?;
    let name = bare[..colon].trim();
    if name.is_empty() || !name.bytes().all(is_ident) {
        return None; // tuple/struct pattern parameter
    }
    Some((name.to_string(), core_type(&bare[colon + 1..])))
}

/// Is the attribute stack immediately above `at` (attributes, visibility,
/// doc lines were scrubbed to spaces) carrying `needle` inside a
/// `#[derive(...)]` or other attribute? Reads the ORIGINAL text so
/// attribute contents survive.
fn attrs_above_contain(file: &SourceFile, at: usize, needle: &str) -> bool {
    let s = &file.scrubbed;
    let b = s.as_bytes();
    let mut i = at;
    loop {
        // Walk back over whitespace and the `pub`/`pub(crate)` qualifier.
        while i > 0 && b[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i >= 3 && &s[i - 3..i] == "pub" {
            i -= 3;
            continue;
        }
        if i > 0 && b[i - 1] == b')' {
            // `pub(crate)` / `pub(super)`: hop the group and retry.
            let mut depth = 0usize;
            let mut j = i;
            while j > 0 {
                j -= 1;
                match b[j] {
                    b')' => depth += 1,
                    b'(' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if j >= 3 && &s[j - 3..j] == "pub" {
                i = j - 3;
                continue;
            }
            return false;
        }
        if i == 0 || b[i - 1] != b']' {
            return false;
        }
        // Hop the `#[...]` attribute group backwards.
        let mut depth = 0usize;
        let mut j = i;
        while j > 0 {
            j -= 1;
            match b[j] {
                b']' => depth += 1,
                b'[' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        if j == 0 || b[j - 1] != b'#' {
            return false;
        }
        if file.original[j..i].contains(needle) {
            return true;
        }
        i = j - 1;
    }
}

/// Parses one file's items. `file_idx` is the caller's index for this
/// file, stored on each item.
pub fn parse_items(file: &SourceFile, file_idx: usize) -> FileItems {
    let s = &file.scrubbed;
    let b = s.as_bytes();
    let impls = impl_spans(s);
    let mut items = FileItems::default();
    for (ty, tr, _) in &impls {
        if let Some(tr) = tr {
            items.trait_impls.push((tr.clone(), ty.clone()));
        }
    }

    for at in find_token(s, "fn") {
        let mut i = skip_ws(s, at + 2);
        if i >= b.len() || !is_ident(b[i]) {
            continue; // `fn(...)` pointer type
        }
        let (name, end) = ident_at(s, i);
        let name_offset = i;
        i = skip_ws(s, end);
        if b.get(i) == Some(&b'<') {
            i = skip_angles(s, i);
            i = skip_ws(s, i);
        }
        if b.get(i) != Some(&b'(') {
            continue;
        }
        let Some(params_close) = close_delim(s, i) else { continue };
        let mut params = Vec::new();
        let mut has_self = false;
        for (ps, pe) in split_commas(s, i + 1, params_close) {
            if let Some((pname, pty)) = parse_param(&s[ps..pe]) {
                if pname == "self" {
                    has_self = true;
                } else {
                    params.push((pname, pty));
                }
            }
        }
        // Find the body `{` (or `;` for trait signatures) at depth 0.
        let mut j = params_close + 1;
        let mut body = None;
        while j < b.len() {
            match b[j] {
                b'{' => {
                    body = close_delim(s, j).map(|c| (j, c));
                    break;
                }
                b';' => break,
                b'<' => {
                    j = skip_angles(s, j);
                    continue;
                }
                b'(' | b'[' => {
                    j = close_delim(s, j).map(|c| c + 1).unwrap_or(b.len());
                    continue;
                }
                _ => {}
            }
            j += 1;
        }
        let self_type = impls
            .iter()
            .filter(|(_, _, (open, close))| name_offset > *open && name_offset < *close)
            .min_by_key(|(_, _, (open, close))| close - open)
            .map(|(ty, _, _)| ty.clone());
        items.fns.push(FnDecl {
            file: file_idx,
            name: name.to_string(),
            self_type,
            name_offset,
            body,
            params,
            has_self,
            is_test: file.is_test_line(file.line_of(name_offset)),
        });
    }

    for at in find_token(s, "struct") {
        let mut i = skip_ws(s, at + "struct".len());
        if i >= b.len() || !is_ident(b[i]) {
            continue;
        }
        let (name, end) = ident_at(s, i);
        let name_offset = i;
        i = skip_ws(s, end);
        if b.get(i) == Some(&b'<') {
            i = skip_angles(s, i);
            i = skip_ws(s, i);
        }
        // `where` clauses before the brace.
        while i < b.len() && b[i] != b'{' && b[i] != b'(' && b[i] != b';' {
            i += 1;
        }
        let mut fields = Vec::new();
        if b.get(i) == Some(&b'{') {
            if let Some(close) = close_delim(s, i) {
                for (fs, fe) in split_commas(s, i + 1, close) {
                    let text = s[fs..fe].trim();
                    let Some(colon) = find_depth0_colon(text) else { continue };
                    let fname = text[..colon]
                        .trim()
                        .rsplit(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                        .next()
                        .unwrap_or("")
                        .to_string();
                    if fname.is_empty() || fname.bytes().next().is_some_and(|c| c.is_ascii_digit())
                    {
                        continue;
                    }
                    let raw_type = text[colon + 1..].trim().to_string();
                    fields.push(FieldDecl {
                        name: fname,
                        core_type: core_type(&raw_type),
                        raw_type,
                    });
                }
            }
        }
        items.structs.push(StructDecl {
            file: file_idx,
            name: name.to_string(),
            name_offset,
            fields,
            serialize: attrs_above_contain(file, at, "Serialize"),
        });
    }

    for at in find_token(s, "type") {
        let mut i = skip_ws(s, at + 4);
        if i >= b.len() || !is_ident(b[i]) {
            continue;
        }
        let (name, end) = ident_at(s, i);
        i = skip_ws(s, end);
        if b.get(i) == Some(&b'<') {
            i = skip_angles(s, i);
            i = skip_ws(s, i);
        }
        if b.get(i) != Some(&b'=') {
            continue;
        }
        let Some(semi) = s[i..].find(';') else { continue };
        items.aliases.push(TypeAlias {
            name: name.to_string(),
            raw_type: s[i + 1..i + semi].trim().to_string(),
        });
    }

    items
}

/// Offset of the first `:` at angle/paren depth 0 (skips `::`).
fn find_depth0_colon(text: &str) -> Option<usize> {
    let b = text.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'<' | b'(' | b'[' | b'{' => depth += 1,
            b'>' | b')' | b']' | b'}' => depth -= 1,
            b':' if b.get(i + 1) == Some(&b':') => i += 1,
            b':' if depth == 0 => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> FileItems {
        parse_items(&SourceFile::parse("x.rs", src, false), 0)
    }

    #[test]
    fn parses_free_fns_methods_and_impl_types() {
        let src = "fn free(a: u8, b: &mut Foo) {}\n\
                   struct Sim { rig: Rig, det: Option<Arc<Mutex<Det>>> }\n\
                   impl Sim {\n    pub fn step(&mut self) { self.rig.go(); }\n}\n\
                   impl Drop for Sim {\n    fn drop(&mut self) {}\n}\n";
        let it = items(src);
        let names: Vec<_> = it.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["free", "Sim::step", "Sim::drop"]);
        assert!(it.fns[1].has_self);
        assert_eq!(it.fns[0].params, vec![("a".into(), "u8".into()), ("b".into(), "Foo".into())]);
        let sim = &it.structs[0];
        assert_eq!(sim.fields[0].core_type, "Rig");
        assert_eq!(sim.fields[1].core_type, "Det");
        assert_eq!(it.trait_impls, vec![("Drop".to_string(), "Sim".to_string())]);
    }

    #[test]
    fn serialize_derive_detected_through_attr_stack() {
        let src = "#[derive(Debug, Clone, Serialize, Deserialize)]\n\
                   #[allow(dead_code)]\n\
                   pub struct Report { pub acc: f64, pub tpr: f64 }\n\
                   pub struct Plain { x: u8 }\n";
        let it = items(src);
        assert!(it.structs[0].serialize);
        assert!(!it.structs[1].serialize);
        assert_eq!(it.structs[0].fields.len(), 2);
    }

    #[test]
    fn generic_fns_and_trait_bodies() {
        let src = "fn apply<F: Fn(u8) -> u8>(f: F) -> u8 { f(1) }\n\
                   trait Policy {\n    fn decide(&self) -> bool { helper() }\n    fn name(&self) -> &str;\n}\n\
                   fn helper() -> bool { true }\n";
        let it = items(src);
        let q: Vec<_> = it.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(q, vec!["apply", "Policy::decide", "Policy::name", "helper"]);
        assert!(it.fns[1].body.is_some());
        assert!(it.fns[2].body.is_none());
    }

    #[test]
    fn core_type_peels_wrappers() {
        assert_eq!(core_type("&mut Foo"), "Foo");
        assert_eq!(core_type("Option<Arc<Mutex<DynamicDetector>>>"), "DynamicDetector");
        assert_eq!(core_type("parking_lot::RwLock<State>"), "State");
        assert_eq!(core_type("Vec<Finding>"), "Finding");
        assert_eq!(core_type("&'a str"), "str");
        assert_eq!(core_type("BTreeMap<String, u64>"), "BTreeMap");
    }

    #[test]
    fn type_aliases_captured() {
        let it = items("pub type Shared = Arc<Mutex<Det>>;\ntype Small = u8;\n");
        assert_eq!(it.aliases.len(), 2);
        assert_eq!(it.aliases[0].name, "Shared");
        assert!(it.aliases[0].raw_type.contains("Mutex"));
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod t {\n    fn helper() {}\n}\n";
        let it = items(src);
        assert!(!it.fns[0].is_test);
        assert!(it.fns[1].is_test);
    }
}
