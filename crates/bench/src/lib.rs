//! Shared plumbing for the table/figure regeneration harnesses.
//!
//! Each `benches/*.rs` target reruns one experiment of the paper at paper
//! scale, prints the reproduced rows/series, and persists a JSON record
//! under `results/` at the workspace root (consumed by EXPERIMENTS.md).

#![forbid(unsafe_code)]
// Outputs of this crate are serialized or merged: an exact float `==`
// flips when one FMA is reordered, so compare bits or use a tolerance.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::path::PathBuf;

/// Directory where experiment records are persisted.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the workspace root.
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir.push("results");
    dir
}

/// Persists one experiment's JSON record.
///
/// # Panics
///
/// Panics if the results directory cannot be created or the file cannot be
/// written — a bench run that silently loses its record is worse than one
/// that fails loudly.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize experiment record");
    std::fs::write(&path, json).expect("write experiment record");
    println!("\n[saved {}]", path.display());
}

/// Persists a span-derived stage profile (`SpanHandle::stage_stats`, or
/// the sweep-trace collector's `SweepTraceCollector::stage_stats`) as a
/// **non-deterministic sidecar** at `results/profile_<name>.json` — the
/// one profile schema, which `raven-sim --profile-json` writes too. Rows
/// are keyed by span path (`span.cycle/span.stage.plant`).
///
/// Wall-clock timings vary run to run, so these files are gitignored and
/// must never be byte-compared or folded into the deterministic
/// experiment records written by [`save_json`].
///
/// # Panics
///
/// Panics if the results directory cannot be created or the file cannot be
/// written.
pub fn save_profile_stats(name: &str, stats: &[simbus::obs::StageStats]) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("profile_{name}.json"));
    let json = serde_json::to_string_pretty(&stats).expect("serialize stage profile");
    std::fs::write(&path, json).expect("write stage profile");
    println!("[profile sidecar {}]", path.display());
}

/// Paper-scale toggle: set `RAVEN_BENCH_QUICK=1` to run reduced sizes (used
/// by CI smoke runs); default is paper scale.
pub fn quick_mode() -> bool {
    std::env::var("RAVEN_BENCH_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// The header of a wall-clock `BENCH_*.json` record: what a number needs
/// beside it to be compared with one taken on another host or commit.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchHeader {
    /// Cores the host exposes (`available_parallelism`).
    pub nproc: usize,
    /// Reduced sizes ([`quick_mode`]) rather than full ones.
    pub quick_mode: bool,
    /// The checkout's commit (`git describe --always --dirty`), or
    /// `unknown` outside a git work tree. A tree with uncommitted changes
    /// reads `<HEAD>-dirty-<12 hex>`, the hex a hash of `git diff HEAD`,
    /// so records taken from two different uncommitted trees differ.
    pub commit: String,
}

/// The header's `commit` string from `git describe --always --dirty`
/// output and the bytes of `git diff HEAD`: a dirty describe gains the
/// first 12 hex digits of the diff's SHA-256.
pub fn commit_label(describe: &str, diff: &[u8]) -> String {
    if describe.ends_with("-dirty") {
        format!("{describe}-{}", &raven_ledger::sha256_hex(diff)[..12])
    } else {
        describe.to_string()
    }
}

impl BenchHeader {
    /// The header for a run on this host, in this mode, at this checkout.
    pub fn current() -> Self {
        let workspace = results_dir().parent().map(std::path::Path::to_path_buf);
        let git = |args: &[&str]| {
            let root = workspace.as_deref()?;
            std::process::Command::new("git")
                .args(args)
                .current_dir(root)
                // Never pick up a repository above the workspace.
                .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
                .output()
                .ok()
                .filter(|out| out.status.success())
                .map(|out| out.stdout)
        };
        let commit = git(&["describe", "--always", "--dirty", "--abbrev=40"])
            .map(|out| {
                let describe = String::from_utf8_lossy(&out).trim().to_string();
                commit_label(&describe, &git(&["diff", "HEAD"]).unwrap_or_default())
            })
            .unwrap_or_else(|| "unknown".to_string());
        BenchHeader {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            quick_mode: quick_mode(),
            commit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_workspace_level() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(d.parent().unwrap().join("Cargo.toml").exists());
    }

    #[test]
    fn save_profile_stats_writes_sidecar() {
        let row = simbus::StageStats::from_samples_ns("stage_a".into(), &mut [1_000, 3_000]);
        save_profile_stats("_selftest", &[row]);
        let path = results_dir().join("profile__selftest.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("stage_a"));
        assert!(text.contains("mean_us"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn header_names_a_commit_and_at_least_one_core() {
        let h = BenchHeader::current();
        assert!(h.nproc >= 1);
        assert!(!h.commit.is_empty());
    }

    #[test]
    fn dirty_commit_label_names_its_diff() {
        let head = "b2165c4a3eac7db9c5f315e943e2523dc221b633";
        assert_eq!(commit_label(head, b"ignored when clean"), head);
        let dirty = format!("{head}-dirty");
        let a = commit_label(&dirty, b"diff --git a/x b/x\n-1\n+2\n");
        let b = commit_label(&dirty, b"diff --git a/x b/x\n-1\n+3\n");
        assert_ne!(a, b, "two different diffs must give two labels");
        assert_eq!(a, commit_label(&dirty, b"diff --git a/x b/x\n-1\n+2\n"));
        let suffix = a.strip_prefix(&format!("{dirty}-")).expect("dirty label keeps its prefix");
        assert!(suffix.len() == 12 && suffix.bytes().all(|c| c.is_ascii_hexdigit()), "{a}");
    }

    #[test]
    fn save_json_roundtrip() {
        save_json("_selftest", &serde_json::json!({"ok": true}));
        let path = results_dir().join("_selftest.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("ok"));
        std::fs::remove_file(path).unwrap();
    }
}
