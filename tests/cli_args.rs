//! `raven-sim` argument validation: invalid arguments exit 2 with a
//! one-line `raven-sim:` error before any simulation runs.

use std::process::{Command, Stdio};

/// Runs `raven-sim` with `args` and asserts it is rejected with exit
/// code 2 and a `raven-sim:` message naming `needle`.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_raven-sim"))
        .args(args)
        .env_remove("RAVEN_WORKERS")
        .env("RAVEN_LOG", "off")
        .output()
        .expect("raven-sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "raven-sim {args:?}: stderr {stderr}");
    assert!(
        stderr.starts_with("raven-sim: ") && stderr.contains(needle),
        "raven-sim {args:?}: stderr {stderr}"
    );
}

#[test]
fn zero_workers_is_rejected_like_the_env_override() {
    assert_rejected(
        &["fleet", "1", "--sessions", "1", "--duration", "1", "--workers", "0"],
        "worker count must be at least 1",
    );
    assert_rejected(&["train", "--workers", "0"], "worker count must be at least 1");
    assert_rejected(&["train", "--workers", "two"], "expected a positive integer");
}

#[test]
fn removed_shards_flag_is_an_unrecognized_argument() {
    assert_rejected(&["fleet", "--shards", "2"], "unrecognized argument `--shards`");
}

#[test]
fn commands_reject_the_flags_they_do_not_take() {
    assert_rejected(&["table1", "--bogus"], "unrecognized argument `--bogus`");
    assert_rejected(&["fig8", "--bogus"], "unrecognized argument `--bogus`");
    assert_rejected(&["session", "--workers", "2"], "unrecognized argument `--workers`");
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_raven-sim"))
        .arg("table2")
        .env("RAVEN_LOG", "off")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("raven-sim runs");
    // Close the read end before the command prints its table.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("raven-sim exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr {stderr}");
    assert!(!stderr.contains("panicked"), "stderr {stderr}");
}
