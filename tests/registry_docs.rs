//! Registry ↔ documentation guard: the kind, metric, channel, span and
//! stream tables of `docs/OBSERVABILITY.md` must list exactly what
//! `simbus::obs` registers, `docs/FORENSICS.md` must list the registry's
//! `ledger.*` slice and nothing unregistered, and no RNG stream label may
//! be registered twice. A table row is read by its first backticked name;
//! a family row (`fault.count.<slug>`, `fig9-<value>-<ms>-<rep>`) stands
//! for its prefix.

use simbus::obs::{channels, names, spans, streams, EventKind};
use std::collections::BTreeSet;
use std::path::Path;

fn read_doc(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The row names of every markdown table whose header's first cell is
/// `header`, each cut at its first `<`.
fn table(doc: &str, header: &str) -> BTreeSet<String> {
    let mut rows = BTreeSet::new();
    let mut inside = false;
    for line in doc.lines().map(str::trim) {
        let Some(first) = line.strip_prefix('|').and_then(|l| l.split('|').next()) else {
            inside = false;
            continue;
        };
        let first = first.trim();
        if !first.starts_with('`') {
            if !first.starts_with("---") {
                inside = first == header;
            }
            continue;
        }
        if inside {
            let name = first.trim_matches('`').split('`').next().unwrap_or_default();
            rows.insert(name.split('<').next().unwrap_or_default().to_string());
        }
    }
    rows
}

fn set<T: ToString>(names: impl IntoIterator<Item = T>) -> BTreeSet<String> {
    names.into_iter().map(|n| n.to_string()).collect()
}

/// Every registered stream label, then every family prefix.
fn stream_labels() -> Vec<String> {
    let exact = streams::ALL.iter().map(ToString::to_string);
    exact.chain(streams::FAMILIES.iter().map(|f| f.prefix().to_string())).collect()
}

/// Every registered name, by the header of the table that documents it.
fn registry() -> [(&'static str, BTreeSet<String>); 5] {
    [
        ("kind", set(EventKind::ALL.map(EventKind::as_str))),
        ("metric", set(names::ALL.into_iter().chain(names::FAMILIES))),
        ("channel", set(channels::ALL)),
        ("span", set(spans::ALL)),
        ("stream", set(stream_labels())),
    ]
}

#[test]
fn doc_tables_match_the_registry_both_directions() {
    let observability = read_doc("docs/OBSERVABILITY.md");
    let forensics = read_doc("docs/FORENSICS.md");
    for (header, registered) in registry() {
        let documented = table(&observability, header);
        let undocumented: Vec<_> = registered.difference(&documented).collect();
        let unregistered: Vec<_> = documented.difference(&registered).collect();
        assert!(
            undocumented.is_empty() && unregistered.is_empty(),
            "OBSERVABILITY.md `{header}` table: registered but not documented {undocumented:?}, \
             documented but not registered {unregistered:?}"
        );

        // FORENSICS.md owns the `ledger.*` slice.
        let documented = table(&forensics, header);
        let undocumented: Vec<_> = registered
            .iter()
            .filter(|n| n.starts_with("ledger.") && !documented.contains(*n))
            .collect();
        let unregistered: Vec<_> = documented.difference(&registered).collect();
        assert!(
            undocumented.is_empty() && unregistered.is_empty(),
            "FORENSICS.md `{header}` table: registered ledger.* name not documented \
             {undocumented:?}, documented but not registered {unregistered:?}"
        );
    }
}

#[test]
fn stream_labels_are_registered_once() {
    let labels = stream_labels();
    assert_eq!(
        set(&labels).len(),
        labels.len(),
        "a stream label or family prefix repeats: {labels:?}"
    );
}
