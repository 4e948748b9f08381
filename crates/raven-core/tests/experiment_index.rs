//! The experiment index at quick scale: every row passes its shape
//! checks, every record and sidecar parses as JSON, a run on one worker
//! and a run on two produce the same bytes in every file but the
//! `profile_*` sidecars, every sweep row merges a non-empty metrics
//! registry that is the same on one worker as on two, the sealed rows
//! produce exactly the `results/*.json` files the signed manifest pins
//! plus the four figures, and running them writes nothing under
//! `results/`.

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

/// One file a row produced: whether its row is sealed, its name, its text.
type File = (bool, String, String);

/// Runs every row at its sealed seed and quick scale on `workers`, and
/// returns every row's files in index order and every failed check. Each
/// sweep row's merged metrics ride along as the file `metrics_<name>`.
fn quick_pass(workers: usize) -> (Vec<File>, Vec<String>) {
    let exec = ExecutorConfig::with_workers(workers);
    let (mut files, mut failures) = (Vec::new(), Vec::new());
    for row in EXPERIMENTS {
        let out = (row.run)(row.seed.unwrap_or_default(), Scale::Quick, &exec);
        assert!(!out.text.is_empty(), "{}: empty text", row.name);
        if row.sweep {
            assert!(!out.metrics.is_empty(), "{}: the sweep merged no metrics", row.name);
            let metrics = serde_json::to_string(&out.metrics).expect("serialize metrics");
            files.push((false, format!("metrics_{}", row.name), metrics));
        }
        failures.extend(out.failures.iter().map(|f| format!("{}: {f}", row.name)));
        for (name, text) in row.files(&out) {
            if name.ends_with(".json") {
                if let Err(e) = serde_json::value_from_str(text) {
                    panic!("{name} is not JSON: {e:?}");
                }
            }
            files.push((row.sealed, name, text.to_string()));
        }
    }
    (files, failures)
}

#[test]
fn rows_pass_their_checks_reproduce_on_any_worker_count_and_produce_the_pinned_set() {
    let root = workspace_root();
    let results = root.join("results");
    let before = snapshot(&results);

    // Table II's and Fig. 8's checks read the clock, so one pass is judged.
    let (two, failures) = quick_pass(2);
    assert!(failures.is_empty(), "failed checks at quick scale:\n{}", failures.join("\n"));
    let (one, _) = quick_pass(1);

    // Wall-clock numbers live only in the `profile_*` sidecars: every
    // other file is the same on one worker as on two.
    let names = |pass: &[File]| pass.iter().map(|(_, name, _)| name.clone()).collect::<Vec<_>>();
    assert_eq!(names(&one), names(&two));
    for ((_, name, a), (_, _, b)) in one.iter().zip(&two) {
        assert!(name.starts_with("profile_") || a == b, "{name} differs between 1 and 2 workers");
    }

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
    let mut sealed: Vec<String> = two
        .iter()
        .filter(|(sealed, name, _)| *sealed && !name.starts_with("profile_"))
        .map(|(_, name, _)| format!("results/{name}"))
        .collect();
    sealed.sort();
    assert_eq!(sealed, pinned);

    assert!(snapshot(&results) == before, "running the index wrote under results/");
}
