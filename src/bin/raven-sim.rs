//! `raven-sim` — command-line front end for the reproduction.
//!
//! ```text
//! raven-sim session [seed]         run a clean teleoperation session
//! raven-sim attack [seed]          run the scenario-B attack, undefended
//! raven-sim defend [seed]          train the guard and run the same attack
//! raven-sim train [seed]           learn detection thresholds (parallel)
//! raven-sim table1|table2|table4|fig5|fig6|fig8|fig9|ablations|chaos [seed]
//!                                  run one group of the experiment index
//! raven-sim artifacts              regenerate the sealed results/ set
//! raven-sim fleet [seed]           run N mixed sessions as one sweep
//! ```
//!
//! The experiment commands run the rows of
//! `raven_core::experiments::index`: the default seed is each row's
//! sealed seed, a positional seed overrides every row of the group, and
//! `--paper` switches from the quick sizes to the paper sizes of the
//! sealed set. Commands whose rows run on the campaign executor (and
//! `train`) accept `--workers N` (default: all cores, or
//! `$RAVEN_WORKERS`). Progress and throughput (runs completed, runs/sec,
//! ETA) are reported on stderr while a sweep runs. Results are
//! bit-identical for any `--workers` value.
//!
//! Observability:
//!
//! * `--metrics-json <path>` — write the run's (or sweep's) metrics
//!   registry as JSON (counters, gauges, histograms);
//! * `--trace-out <path>` — write a Chrome Trace Event JSON file
//!   (loadable in Perfetto / `chrome://tracing`): pipeline-stage spans
//!   for single-run commands, the per-worker `queued → running → merged`
//!   sweep timeline for sweep commands;
//! * `--profile-json <path>` — write span/sweep timing statistics as a
//!   `Vec<StageStats>` sidecar (one row per span path or sweep segment),
//!   the schema of `raven-sim artifacts`' `results/profile_*.json`;
//! * `--incident-dir <dir>` — when a single-run command trips the flight
//!   recorder (fault, detector alarm, or E-STOP), write the incident
//!   report (event ring + last 250 ms of every trace signal) as JSON
//!   into `<dir>`;
//! * `raven-sim metrics export [seed] [--out <path>]` — OpenMetrics text
//!   snapshot of every metric in the `names::` registry;
//! * `raven-sim profile <table4|fig9|ablations|chaos>` — terminal report
//!   with nearest-rank p50/p99 per span path plus a worker-utilization
//!   summary (busy%, merge stall);
//! * `RAVEN_LOG=<debug|info|warn|error|off>` — stderr log threshold
//!   (the CLI defaults to `info`; library callers default to `warn`).
//!
//! Tracing is opt-in and wall-clock output is sidecar-only: without
//! `--trace-out`/`--profile-json` no timestamps are taken, and the
//! deterministic artifacts (`--metrics-json`, experiment records) are
//! byte-identical either way.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use raven_core::experiments::index::{
    group, representative_session, Experiment, Produced, Scale, EXPERIMENTS,
};
use raven_core::training::{train_thresholds, train_thresholds_with, TrainingConfig};
use raven_core::{
    run_spec, DetectorSetup, ExecutorConfig, SessionSpec, SimConfig, Simulation,
    SweepTraceCollector,
};
use raven_detect::Mitigation;
use simbus::obs::{log, registry_template, Metrics, Severity};
use simbus::ChromeTraceBuilder;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The positional root seed, as an entry of a command's accepted flags.
const SEED: &str = "<seed>";

/// The single-run commands: `session`, `attack`, `defend`.
const RUN: &[&str] = &[SEED, "--metrics-json", "--trace-out", "--profile-json", "--incident-dir"];

/// The commands that run on the campaign executor.
const SWEEP: &[&str] =
    &[SEED, "--workers", "--paper", "--metrics-json", "--trace-out", "--profile-json"];

/// `train`: a sweep that records no metrics registry.
const TRAIN: &[&str] = &[SEED, "--workers", "--paper", "--trace-out", "--profile-json"];

/// Parsed options; a field stays at its default unless its flag was given.
#[derive(Default)]
struct Opts {
    seed: Option<u64>,
    workers: Option<usize>,
    paper: bool,
    metrics_json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    profile_json: Option<PathBuf>,
    incident_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    sessions: Option<u64>,
    duration: Option<u64>,
}

impl Opts {
    /// Whether any consumer needs timestamps: a span recorder for a
    /// single run, a sweep-trace collector for a sweep.
    fn wants_tracing(&self) -> bool {
        self.trace_out.is_some() || self.profile_json.is_some()
    }

    /// The executor for a sweep: the requested workers, progress on
    /// stderr, and a trace collector only when a trace consumer asked for
    /// one (so an untraced sweep pays for no timestamps).
    fn executor(&self) -> ExecutorConfig {
        let trace = self.wants_tracing().then(|| Arc::new(SweepTraceCollector::new()));
        ExecutorConfig { workers: self.workers, progress: true, trace }
    }
}

/// Parses `args` (everything after the command) into [`Opts`], accepting
/// only the flags in `accepts` ([`SEED`] for a positional seed). Exits 2
/// on any other argument or a bad value.
fn parse_opts(args: &[String], accepts: &[&str]) -> Opts {
    let mut opts = Opts::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let seed = arg.parse().ok();
        let flag = if seed.is_some() { SEED } else { arg.as_str() };
        if !accepts.contains(&flag) || (flag == SEED && seed.is_none()) {
            die::<()>(&format!("unrecognized argument `{arg}`"));
        }
        let path = |value: Option<&String>, what: &str| {
            value.map(PathBuf::from).or_else(|| die(&format!("{arg} needs {what}")))
        };
        let positive = |value: Option<&String>, what: &str| {
            value
                .and_then(|v| v.parse().ok())
                .filter(|&n: &u64| n > 0)
                .or_else(|| die(&format!("{arg} needs {what}")))
        };
        match flag {
            "--workers" => opts.workers = workers_flag(rest.next()),
            "--paper" => opts.paper = true,
            "--metrics-json" => opts.metrics_json = path(rest.next(), "a path"),
            "--trace-out" => opts.trace_out = path(rest.next(), "a path"),
            "--profile-json" => opts.profile_json = path(rest.next(), "a path"),
            "--out" => opts.out = path(rest.next(), "a path"),
            "--incident-dir" => opts.incident_dir = path(rest.next(), "a directory"),
            "--sessions" => opts.sessions = positive(rest.next(), "a positive integer"),
            "--duration" => opts.duration = positive(rest.next(), "a positive ms count"),
            _ => opts.seed = seed,
        }
    }
    if accepts.contains(&"--workers") {
        check_workers_env(opts.workers);
    }
    opts
}

/// The value of `--workers`: a positive integer, parsed like
/// `$RAVEN_WORKERS` (anything else exits 2).
fn workers_flag(value: Option<&String>) -> Option<usize> {
    match value.map(|v| raven_core::parse_workers(v)) {
        Some(Ok(workers)) => Some(workers),
        Some(Err(e)) => die(&format!("--workers: {e}")),
        None => die("--workers needs a positive integer"),
    }
}

/// Surfaces a bad `$RAVEN_WORKERS` as a CLI error up front rather than
/// a panic mid-sweep (only consulted when `--workers` is absent).
fn check_workers_env(workers: Option<usize>) {
    if workers.is_none() {
        if let Ok(raw) = std::env::var(raven_core::WORKERS_ENV) {
            if let Err(e) = raven_core::parse_workers(&raw) {
                die::<()>(&format!("invalid {}: {e}", raven_core::WORKERS_ENV));
            }
        }
    }
}

/// Writes `text` to `path`, creating its directory; exits 2 on failure.
fn write_file(path: &Path, text: &str, what: &str) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(parent) {
            die::<()>(&format!("cannot create {}: {e}", parent.display()));
        }
    }
    match std::fs::write(path, text) {
        Ok(()) => log::emit(Severity::Info, "raven-sim", &format!("{what}: {}", path.display())),
        Err(e) => {
            die::<()>(&format!("cannot write {}: {e}", path.display()));
        }
    }
}

fn dump_metrics(path: Option<&PathBuf>, metrics: &Metrics) {
    if let Some(path) = path {
        let json = serde_json::to_string_pretty(metrics).expect("metrics serialize");
        write_file(path, &json, "metrics written");
    }
}

/// Flushes a single run's observability artifacts: metrics JSON, the
/// span trace and profile (when asked for), and the incident report (if
/// the flight recorder tripped).
///
/// Metrics are dumped *before* the incident sink runs: the sink's
/// ledger bookkeeping must never leak into the run's deterministic
/// metrics artifact.
fn flush_run_artifacts(sim: &Simulation, opts: &Opts) {
    dump_metrics(opts.metrics_json.as_ref(), &sim.metrics());
    if opts.wants_tracing() {
        sim.spans().finish();
        if let Some(path) = &opts.trace_out {
            let mut trace = ChromeTraceBuilder::new();
            trace.set_process_name(1, "session");
            trace.set_thread_name(1, 1, "pipeline");
            sim.spans().chrome_events(1, 1, &mut trace);
            write_file(path, &trace.build(), "trace written");
        }
        if let Some(path) = &opts.profile_json {
            let json = serde_json::to_string_pretty(&sim.spans().stage_stats())
                .expect("span profile serialize");
            write_file(path, &json, "profile written");
        }
    }
    if let Some(dir) = &opts.incident_dir {
        match sim.incident() {
            Some(incident) => record_incident(dir, incident),
            None => {
                log::emit(Severity::Info, "raven-sim", "no incident: flight recorder never tripped")
            }
        }
    }
}

/// Appends an incident to the hash-chained ledger in `dir`. The sink
/// writes a seq-suffixed file (unique across runs — a fixed name silently
/// overwrote earlier incidents of the same seed) and appends its content
/// address to the ledger. Exits 2 when the directory cannot take it.
fn record_incident(dir: &Path, incident: &raven_core::IncidentReport) {
    match raven_core::IncidentSink::open(dir).and_then(|mut sink| sink.append(incident)) {
        Ok(receipt) => log::emit(
            Severity::Info,
            "raven-sim",
            &format!(
                "incident written: {} (ledger seq {})",
                receipt.path.display(),
                receipt.record.seq
            ),
        ),
        Err(e) => {
            die::<()>(&format!("cannot record incident in {}: {e}", dir.display()));
        }
    }
}

/// Flushes a sweep's trace artifacts from the collector `exec` carries
/// (a no-op when tracing was not requested).
fn flush_sweep_trace(opts: &Opts, exec: &ExecutorConfig) {
    let Some(collector) = &exec.trace else { return };
    if let Some(path) = &opts.trace_out {
        // The per-worker `queued → running → merged` timeline.
        let mut trace = ChromeTraceBuilder::new();
        collector.chrome_events(&mut trace);
        write_file(path, &trace.build(), "trace written");
    }
    if let Some(path) = &opts.profile_json {
        let json = serde_json::to_string_pretty(&collector.stage_stats())
            .expect("sweep profile serialize");
        write_file(path, &json, "profile written");
    }
}

/// `println!` through [`say`].
macro_rules! sayln {
    () => {
        say("\n")
    };
    ($($arg:tt)*) => {
        say(&format!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes `text` to stdout, the one path every command prints through.
/// A closed stdout (a reader such as `head` that has seen enough) ends the
/// process quietly with status 0; any other write error exits 2.
fn say(text: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_all(text.as_bytes()).and_then(|()| stdout.flush()) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        die::<()>(&format!("cannot write to stdout: {e}"));
    }
}

fn die<T>(msg: &str) -> Option<T> {
    eprintln!("raven-sim: {msg}");
    std::process::exit(2);
}

/// Runs a single-run command's session (recording spans when the
/// options ask for a trace or a profile), prints its outcome under
/// `label`, and writes the artifacts the options ask for.
fn run_single(label: &str, mut spec: SessionSpec, opts: &Opts) {
    spec.config.record_cycles = opts.incident_dir.is_some();
    let run = run_spec(&spec, |sim| {
        if opts.wants_tracing() {
            sim.enable_span_recorder();
        }
    })
    .expect_booted();
    print_outcome(label, &run.outcome);
    flush_run_artifacts(&run.sim, opts);
}

fn print_outcome(label: &str, out: &raven_core::SessionOutcome) {
    sayln!("{label}:");
    sayln!("  final state      : {}", out.final_state);
    sayln!("  max 2 ms EE step : {:.3} mm", out.max_ee_step_2ms * 1e3);
    sayln!("  adverse impact   : {}", out.adverse);
    sayln!("  model detected   : {}", out.model_detected);
    sayln!("  RAVEN detected   : {}", out.raven_detected);
    sayln!("  E-STOP           : {:?}", out.estop);
}

fn main() {
    // The CLI is interactive: raise the default stderr log threshold to
    // `info` so progress and artifact notes show up. An explicit
    // `RAVEN_LOG=` still wins.
    log::set_default_level(Severity::Info);
    let args: Vec<String> = std::env::args().collect();
    let command = args.get(1).map(String::as_str).unwrap_or("help");
    let rest = args.get(2..).unwrap_or_default();
    match command {
        "session" => {
            let opts = parse_opts(rest, RUN);
            let spec = SessionSpec::new(SimConfig::standard(opts.seed.unwrap_or(42)));
            run_single("clean session", spec, &opts);
        }
        "attack" => {
            let opts = parse_opts(rest, RUN);
            let spec = SessionSpec::attacked(opts.seed.unwrap_or(42)).with_session_ms(4_000);
            run_single("undefended under scenario-B injection", spec, &opts);
        }
        "defend" => {
            let opts = parse_opts(rest, RUN);
            log::emit(
                Severity::Info,
                "raven-sim",
                "training thresholds (reduced 20-run protocol) …",
            );
            let report = train_thresholds(&TrainingConfig { runs: 20, ..TrainingConfig::quick(3) });
            let mut spec = SessionSpec::attacked(opts.seed.unwrap_or(42)).with_session_ms(4_000);
            spec.config.detector =
                Some(DetectorSetup::new(Mitigation::EStop, Some(report.thresholds)));
            run_single("guarded under scenario-B injection", spec, &opts);
        }
        "train" => {
            let opts = parse_opts(rest, TRAIN);
            let seed = opts.seed.unwrap_or(42);
            let config = if opts.paper {
                TrainingConfig::paper_scale(seed)
            } else {
                TrainingConfig::quick(seed)
            };
            let exec = opts.executor();
            let report = train_thresholds_with(&config, &exec);
            sayln!(
                "thresholds from {} runs ({} samples):\n{}",
                report.runs,
                report.samples,
                report.thresholds.to_json().expect("thresholds serialize")
            );
            flush_sweep_trace(&opts, &exec);
        }
        "artifacts" => run_artifacts_command(rest),
        "fleet" => run_fleet_command(rest),
        "ledger" => run_ledger_command(&args),
        "metrics" => run_metrics_command(&args),
        "profile" => run_profile_command(rest),
        other => match group(other).as_slice() {
            [] => {
                eprintln!(
                    "usage: raven-sim <session|attack|defend> [seed] [--metrics-json <path>]\n\
                     \x20      [--trace-out <path>] [--profile-json <path>] [--incident-dir <dir>]\n\
                     \x20      raven-sim train [seed] [--workers N] [--paper] [--trace-out <path>]\n\
                     \x20      [--profile-json <path>]\n\
                     \x20      raven-sim <table4|fig9|ablations|chaos> [seed] [--workers N]\n\
                     \x20      [--paper] [--metrics-json <path>] [--trace-out <path>] [--profile-json <path>]\n\
                     \x20      raven-sim <table1|fig5|fig6|fig8> [seed] [--paper]\n\
                     \x20      raven-sim table2 [--paper]\n\
                     \x20      raven-sim artifacts [--workers N]\n\
                     \x20      raven-sim fleet [seed] [--sessions N] [--duration MS] [--workers N]\n\
                     \x20      raven-sim metrics export [seed] [--out <path>]\n\
                     \x20      raven-sim profile <table4|fig9|ablations|chaos> [seed] [--workers N] [--paper]\n\
                     \x20      raven-sim ledger verify <ledger.jsonl> [--sealed]\n\
                     \x20      raven-sim ledger manifest [--root <dir>] [--update]\n\
                     \x20      (RAVEN_LOG=<level>)"
                );
                std::process::exit(2);
            }
            rows => run_experiment_command(rows, rest),
        },
    }
}

/// The options a group of index rows takes: a seed when a row has one,
/// `--paper`, and the sweep options when a row runs on the executor.
fn group_flags(rows: &[&Experiment]) -> Vec<&'static str> {
    let mut flags =
        if rows.iter().any(|r| r.sweep) { SWEEP.to_vec() } else { vec![SEED, "--paper"] };
    if rows.iter().all(|r| r.seed.is_none()) {
        flags.retain(|&f| f != SEED);
    }
    flags
}

/// Runs every row of a group at the options' seed and scale: the given
/// seed overrides each row's sealed seed.
fn run_group(rows: &[&Experiment], opts: &Opts, exec: &ExecutorConfig) -> Vec<Produced> {
    let scale = if opts.paper { Scale::Paper } else { Scale::Quick };
    rows.iter()
        .map(|row| (row.run)(opts.seed.or(row.seed).unwrap_or_default(), scale, exec))
        .collect()
}

/// Writes the group's sweep metrics merged in row order when
/// `--metrics-json` asked for them, then its sweep trace artifacts.
fn flush_group(produced: &[Produced], opts: &Opts, exec: &ExecutorConfig) {
    if let Some(path) = &opts.metrics_json {
        let mut merged = Metrics::new();
        for p in produced {
            merged.merge(&p.metrics);
        }
        dump_metrics(Some(path), &merged);
    }
    flush_sweep_trace(opts, exec);
}

/// `raven-sim <command> [seed] [--paper] …`: runs one group of the
/// experiment index and prints each row's text. A failed shape check is
/// a warning here; the sealed set's checks gate `raven-sim artifacts`.
fn run_experiment_command(rows: &[&Experiment], args: &[String]) {
    let opts = parse_opts(args, &group_flags(rows));
    let exec = opts.executor();
    let produced = run_group(rows, &opts, &exec);
    for (i, (row, p)) in rows.iter().zip(&produced).enumerate() {
        if i > 0 {
            sayln!();
        }
        say(&p.text);
        for failure in &p.failures {
            log::emit(
                Severity::Warn,
                "raven-sim",
                &format!("check failed: {}: {failure}", row.name),
            );
        }
    }
    flush_group(&produced, &opts, &exec);
}

/// `raven-sim artifacts [--workers N]`: regenerates the sealed set.
///
/// Runs every sealed row of the index at paper scale and its sealed seed,
/// prints its text and writes its files under `./results/`: the sealed
/// records and figures, and the wall-clock `profile_*.json` sidecars
/// (gitignored). Exits 1 naming every failed shape check. There is no
/// scale flag: a quick run would overwrite sealed files with numbers
/// nobody seals.
fn run_artifacts_command(args: &[String]) {
    let opts = parse_opts(args, &["--workers"]);
    let exec = opts.executor();
    let results = Path::new("results");
    let mut failed = Vec::new();
    for (i, row) in EXPERIMENTS.iter().filter(|r| r.sealed).enumerate() {
        if i > 0 {
            sayln!();
        }
        let produced = (row.run)(row.seed.unwrap_or_default(), Scale::Paper, &exec);
        say(&produced.text);
        for (name, contents) in row.files(&produced) {
            write_file(&results.join(name), contents, "saved");
        }
        failed.extend(produced.failures.iter().map(|f| format!("{}: {f}", row.name)));
    }
    if !failed.is_empty() {
        for f in &failed {
            eprintln!("raven-sim: check failed: {f}");
        }
        std::process::exit(1);
    }
}

/// `raven-sim fleet [seed] [--sessions N] [--duration MS]
/// [--workers N] [--metrics-json <path>] [--trace-out <path>]
/// [--incident-dir <dir>]`: run a mixed-scenario session fleet as one
/// campaign-executor sweep of standalone sessions.
///
/// Runs N `standard_mix` sessions (clean / guarded / attacked /
/// defended / block-and-hold, staggered seeds and horizons) through
/// `raven_fleet::run_fleet`. Output is bit-identical for any
/// `--workers` value; `--duration` overrides every session's
/// teleoperation horizon. `--metrics-json` dumps every session's
/// registry merged in session-id order; `--trace-out` writes the
/// executor's per-worker sweep timeline as a Chrome trace;
/// `--incident-dir` appends each tripped flight recorder to the
/// hash-chained incident ledger, in session-id order.
fn run_fleet_command(args: &[String]) {
    let opts = parse_opts(
        args,
        &[
            SEED,
            "--sessions",
            "--duration",
            "--workers",
            "--metrics-json",
            "--trace-out",
            "--incident-dir",
        ],
    );
    let sessions = opts.sessions.unwrap_or(16) as usize;
    let mut specs = raven_fleet::standard_mix(sessions, opts.seed.unwrap_or(42));
    if let Some(ms) = opts.duration {
        for spec in &mut specs {
            spec.config.session_ms = ms;
        }
    }
    let exec = ExecutorConfig { progress: false, ..opts.executor() };
    let artifacts = raven_fleet::run_fleet(&specs, &exec);

    let estops = artifacts.iter().filter(|a| a.outcome.estop.is_some()).count();
    let detected = artifacts.iter().filter(|a| a.outcome.model_detected).count();
    let adverse = artifacts.iter().filter(|a| a.outcome.adverse).count();
    sayln!("fleet: {sessions} sessions");
    sayln!("  model detected   : {detected}");
    sayln!("  E-STOP latched   : {estops}");
    sayln!("  adverse impact   : {adverse}");

    if let Some(path) = &opts.metrics_json {
        // Every session's registry, merged in session-id order —
        // deterministic for any worker count.
        let mut merged = Metrics::new();
        for artifact in &artifacts {
            merged.merge(&artifact.metrics);
        }
        dump_metrics(Some(path), &merged);
    }
    flush_sweep_trace(&opts, &exec);
    if let Some(dir) = &opts.incident_dir {
        let incidents: Vec<_> = artifacts.iter().filter_map(|a| a.incident.as_ref()).collect();
        for incident in &incidents {
            record_incident(dir, incident);
        }
        if incidents.is_empty() {
            log::emit(Severity::Info, "raven-sim", "no incidents: no flight recorder tripped");
        }
    }
}

/// `raven-sim profile <command> …`: span + executor profiling.
///
/// Runs a group of the experiment index that has sweep rows under a
/// [`SweepTraceCollector`], and one [`representative_session`] at the
/// group's seed, then prints nearest-rank p50/p99 per span path followed
/// by the per-worker utilization summary. Takes the sweep options;
/// `--trace-out`/`--profile-json` additionally export the sweep timeline.
fn run_profile_command(args: &[String]) {
    let mut profiled: Vec<&str> =
        EXPERIMENTS.iter().filter(|r| r.sweep).map(|r| r.command).collect();
    profiled.dedup();
    let choices = profiled.join(" | ");
    let Some(command) = args.first() else {
        die::<()>(&format!("profile needs an experiment: {choices}"));
        return;
    };
    if !profiled.contains(&command.as_str()) {
        die::<()>(&format!("unknown profile experiment `{command}` ({choices})"));
    }
    let rows = group(command);
    let opts = parse_opts(&args[1..], SWEEP);
    let collector = Arc::new(SweepTraceCollector::new());
    let exec = ExecutorConfig { trace: Some(Arc::clone(&collector)), ..opts.executor() };
    let produced = run_group(&rows, &opts, &exec);
    let seed = opts.seed.or(rows[0].seed).unwrap_or_default();
    let sim = representative_session(seed);
    sayln!("span paths (representative guarded session, seed {seed}):");
    sayln!("  {:<52} {:>7} {:>10} {:>10}", "path", "count", "p50 (us)", "p99 (us)");
    for s in sim.spans().stage_stats() {
        sayln!("  {:<52} {:>7} {:>10.1} {:>10.1}", s.name, s.count, s.p50_us, s.p99_us);
    }
    sayln!();
    say(&collector.render());
    flush_group(&produced, &opts, &exec);
}

/// `raven-sim metrics export [seed] [--out <path>]`: OpenMetrics snapshot.
///
/// Runs one guarded session (learning-mode detector, so the detector
/// family is exercised) and renders its metric registry — merged over the
/// zeroed [`registry_template`] so **every** metric in the `names::`
/// catalogue appears, touched or not — as OpenMetrics text. Without
/// `--out` the exposition goes to stdout.
fn run_metrics_command(args: &[String]) {
    match args.get(2).map(String::as_str) {
        Some("export") => {
            let opts = parse_opts(&args[3..], &[SEED, "--out"]);
            let seed = opts.seed.unwrap_or(42);
            let spec = SessionSpec::new(SimConfig {
                detector: Some(DetectorSetup::default()),
                ..SimConfig::standard(seed)
            });
            let run = run_spec(&spec, |_| {}).expect_booted();
            let mut metrics = registry_template();
            metrics.merge(&run.sim.observer().metrics);
            let text = metrics.to_openmetrics();
            match &opts.out {
                Some(path) => write_file(path, &text, "openmetrics written"),
                None => say(&text),
            }
        }
        _ => {
            die::<()>("usage: raven-sim metrics export [seed] [--out <path>]");
        }
    }
}

/// `raven-sim ledger …`: the offline forensics verifier.
///
/// * `ledger verify <file> [--sealed]` — verify a hash-chained JSONL
///   ledger. With `--sealed` the final seal record is mandatory;
///   otherwise a `<file>.head` sidecar is used when present, and the
///   check falls back to structural verification (which cannot see tail
///   truncation) when neither pin exists.
/// * `ledger manifest [--root <dir>] [--update]` — verify the signed
///   golden-artifact manifest (`results/MANIFEST.json`) against the
///   working tree, including completeness; `--update` re-hashes and
///   re-signs it instead.
///
/// Exit status: 0 on success, 1 on a verification failure, 2 on usage
/// errors.
fn run_ledger_command(args: &[String]) {
    match args.get(2).map(String::as_str) {
        Some("verify") => {
            let mut path = None;
            let mut sealed = false;
            for arg in &args[3..] {
                match arg.as_str() {
                    "--sealed" => sealed = true,
                    other if path.is_none() => path = Some(PathBuf::from(other)),
                    other => {
                        die::<()>(&format!("unrecognized argument `{other}`"));
                    }
                }
            }
            let Some(path) = path else {
                die::<()>("ledger verify needs a ledger file path");
                return;
            };
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    die::<()>(&format!("cannot read {}: {e}", path.display()));
                    return;
                }
            };
            let head_path = raven_ledger::LedgerHead::path_for(&path);
            let verified = if sealed {
                raven_ledger::verify_sealed(&text)
            } else if head_path.exists() {
                let head_text = match std::fs::read_to_string(&head_path) {
                    Ok(t) => t,
                    Err(e) => {
                        die::<()>(&format!("cannot read {}: {e}", head_path.display()));
                        return;
                    }
                };
                match raven_ledger::LedgerHead::from_json(&head_text) {
                    Ok(head) => raven_ledger::verify_against_head(&text, &head),
                    Err(e) => {
                        die::<()>(&e);
                        return;
                    }
                }
            } else {
                eprintln!(
                    "raven-sim: note: no seal required and no {} sidecar — structural \
                     verification only (tail truncation would be invisible)",
                    head_path.display()
                );
                raven_ledger::verify_jsonl(&text)
            };
            match verified {
                Ok(summary) => {
                    sayln!(
                        "ledger OK: {} records, head {}, {}",
                        summary.records,
                        summary.head_hash,
                        if summary.sealed { "sealed" } else { "unsealed" }
                    );
                }
                Err(e) => {
                    eprintln!("raven-sim: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("manifest") => {
            let mut root = PathBuf::from(".");
            let mut update = false;
            let mut rest = args[3..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--root" => {
                        root = rest.next().map(PathBuf::from).unwrap_or_else(|| {
                            die::<()>("--root needs a directory");
                            unreachable!()
                        });
                    }
                    "--update" => update = true,
                    other => {
                        die::<()>(&format!("unrecognized argument `{other}`"));
                    }
                }
            }
            let candidates = match raven_core::manifest_candidates(&root) {
                Ok(c) => c,
                Err(e) => {
                    die::<()>(&format!("cannot scan {}: {e}", root.display()));
                    return;
                }
            };
            let manifest_path = root.join(raven_core::MANIFEST_REL_PATH);
            if update {
                let manifest = match raven_ledger::Manifest::from_files(&root, &candidates) {
                    Ok(m) => m,
                    Err(e) => {
                        die::<()>(&format!("cannot hash artifacts: {e}"));
                        return;
                    }
                };
                write_file(&manifest_path, &manifest.to_json_pretty(), "manifest written");
                return;
            }
            let text = match std::fs::read_to_string(&manifest_path) {
                Ok(t) => t,
                Err(e) => {
                    die::<()>(&format!(
                        "cannot read {}: {e} (run `raven-sim ledger manifest --update`?)",
                        manifest_path.display()
                    ));
                    return;
                }
            };
            let manifest = match raven_ledger::Manifest::from_json(&text) {
                Ok(m) => m,
                Err(e) => {
                    die::<()>(&e);
                    return;
                }
            };
            let mut failed = false;
            if let Err(e) = manifest.verify_files(&root) {
                eprintln!("raven-sim: {e}");
                failed = true;
            }
            for rel in &candidates {
                if !manifest.entries.contains_key(rel) {
                    eprintln!("raven-sim: {rel}: on disk but not pinned by the manifest");
                    failed = true;
                }
            }
            for rel in manifest.entries.keys() {
                if !candidates.contains(rel) {
                    eprintln!(
                        "raven-sim: {rel}: pinned by the manifest but not an artifact on disk"
                    );
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
            sayln!("manifest OK: {} artifacts pinned, signature valid", manifest.entries.len());
        }
        _ => {
            die::<()>("usage: raven-sim ledger <verify <file> [--sealed] | manifest [--root <dir>] [--update]>");
        }
    }
}
