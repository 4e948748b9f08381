//! The experiment index at quick scale: every row passes its shape
//! checks, every record parses as JSON, the sealed rows produce exactly
//! the `results/*.json` files the signed manifest pins plus the four
//! figures, and running them writes nothing under `results/`.

use raven_core::experiments::index::{Scale, EXPERIMENTS};
use raven_core::{manifest_candidates, ExecutorConfig};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every file under `dir` with its bytes, sorted by name.
fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read results/")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read file"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn every_row_passes_its_checks_and_the_sealed_rows_produce_the_pinned_set() {
    let root = workspace_root();
    let results = root.join("results");
    let before = snapshot(&results);

    let exec = ExecutorConfig::with_workers(2);
    let mut failures = Vec::new();
    let mut produced = Vec::new();
    for row in EXPERIMENTS {
        let out = (row.run)(row.seed.unwrap_or_default(), Scale::Quick, &exec);
        assert!(!out.text.is_empty(), "{}: empty text", row.name);
        failures.extend(out.failures.iter().map(|f| format!("{}: {f}", row.name)));
        if let Err(e) = serde_json::value_from_str(&out.record) {
            panic!("{}: record is not JSON: {e:?}", row.name);
        }
        if row.sealed {
            produced.extend(row.files(&out).into_iter().map(|(name, _)| format!("results/{name}")));
        }
    }
    assert!(failures.is_empty(), "failed checks at quick scale:\n{}", failures.join("\n"));

    let mut pinned: Vec<String> = manifest_candidates(&root)
        .expect("enumerate golden artifacts")
        .into_iter()
        .filter(|rel| rel.starts_with("results/"))
        .collect();
    pinned.extend(
        ["fig8_overlay", "fig9_adverse", "fig9_model", "fig9_raven"]
            .map(|svg| format!("results/{svg}.svg")),
    );
    pinned.sort();
    produced.sort();
    assert_eq!(produced, pinned);

    assert!(snapshot(&results) == before, "running the index wrote under results/");
}
