//! `raven-sim` — command-line front end for the reproduction.
//!
//! ```text
//! raven-sim session [seed]         run a clean teleoperation session
//! raven-sim attack [seed]          run the scenario-B attack, undefended
//! raven-sim defend [seed]          train the guard and run the same attack
//! raven-sim train [seed]           learn detection thresholds (parallel)
//! raven-sim table1|table2|fig5|fig6|fig8   regenerate an artifact (quick sizes)
//! raven-sim table4|fig9|ablations  Monte-Carlo sweeps (parallel campaign engine)
//! raven-sim chaos [seed]           accidental-fault study (guarded loop under chaos)
//! raven-sim fleet [seed]           multiplex N mixed sessions over the wake queue
//! ```
//!
//! Sweep commands accept `--workers N` (default: all cores, or
//! `$RAVEN_WORKERS`) and `--paper` (paper-scale sizes instead of the quick
//! protocol). Progress and throughput (runs completed, runs/sec, ETA) are
//! reported on stderr while a sweep runs. Results are bit-identical for
//! any `--workers` value.
//!
//! Observability:
//!
//! * `--metrics-json <path>` — write the run's (or sweep's) metrics
//!   registry as JSON (counters, gauges, histograms);
//! * `--trace-out <path>` — write a Chrome Trace Event JSON file
//!   (loadable in Perfetto / `chrome://tracing`): pipeline-stage spans
//!   for single-run commands, the per-worker `queued → running → merged`
//!   sweep timeline for sweep commands;
//! * `--profile-json <path>` — write span/sweep timing statistics in the
//!   `bench::save_profile_stats` sidecar schema (`Vec<StageStats>`, one
//!   row per span path or sweep segment);
//! * `--incident-dir <dir>` — when a single-run command trips the flight
//!   recorder (fault, detector alarm, or E-STOP), write the incident
//!   report (event ring + last 250 ms of every trace signal) as JSON
//!   into `<dir>`;
//! * `raven-sim metrics export [seed] [--out <path>]` — OpenMetrics text
//!   snapshot of every metric in the `names::` registry;
//! * `raven-sim profile <fig9|table4|chaos>` — terminal report with
//!   nearest-rank p50/p99 per span path plus a worker-utilization
//!   summary (busy%, merge stall);
//! * `RAVEN_LOG=<debug|info|warn|error|off>` — stderr log threshold
//!   (the CLI defaults to `info`; library callers default to `warn`).
//!
//! Tracing is opt-in and wall-clock output is sidecar-only: without
//! `--trace-out`/`--profile-json` no timestamps are taken, and the
//! deterministic artifacts (`--metrics-json`, experiment records) are
//! byte-identical either way.

#![forbid(unsafe_code)]

use raven_core::experiments::{
    run_chaos_study_with, run_fig5, run_fig6, run_fig8, run_fig9_with, run_fusion_ablation_with,
    run_lookahead_ablation_with, run_mitigation_ablation_with, run_table1, run_table2,
    run_table4_with, ChaosStudyConfig, Fig9Config, Table4Config,
};
use raven_core::training::{train_thresholds, train_thresholds_with, TrainingConfig};
use raven_core::{
    AttackSetup, DetectorSetup, ExecutorConfig, SimConfig, Simulation, SweepTraceCollector,
};
use raven_detect::{DetectorConfig, Mitigation};
use simbus::obs::{log, registry_template, Metrics, Severity};
use simbus::ChromeTraceBuilder;
use std::path::PathBuf;
use std::sync::Arc;

/// Options for the sweep commands:
/// `[seed] [--workers N] [--paper] [--metrics-json <path>]
/// [--trace-out <path>] [--profile-json <path>]`.
struct SweepOpts {
    seed: u64,
    paper: bool,
    exec: ExecutorConfig,
    metrics_json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    profile_json: Option<PathBuf>,
}

fn parse_sweep_opts(args: &[String]) -> SweepOpts {
    let mut seed = 42u64;
    let mut workers = None;
    let mut paper = false;
    let mut metrics_json = None;
    let mut trace_out = None;
    let mut profile_json = None;
    let mut rest = args[2..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--workers" => {
                workers = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .or_else(|| die("--workers needs a positive integer"));
            }
            "--paper" => paper = true,
            "--metrics-json" => {
                metrics_json =
                    rest.next().map(PathBuf::from).or_else(|| die("--metrics-json needs a path"));
            }
            "--trace-out" => {
                trace_out =
                    rest.next().map(PathBuf::from).or_else(|| die("--trace-out needs a path"));
            }
            "--profile-json" => {
                profile_json =
                    rest.next().map(PathBuf::from).or_else(|| die("--profile-json needs a path"));
            }
            other => match other.parse() {
                Ok(s) => seed = s,
                Err(_) => {
                    die::<u64>(&format!("unrecognized argument `{other}`"));
                }
            },
        }
    }
    if workers.is_none() {
        // Surface a bad $RAVEN_WORKERS as a CLI error up front rather than
        // a panic mid-sweep.
        if let Ok(raw) = std::env::var(raven_core::WORKERS_ENV) {
            if let Err(e) = raven_core::parse_workers(&raw) {
                die::<()>(&format!("invalid {}: {e}", raven_core::WORKERS_ENV));
            }
        }
    }
    // Only install a collector (and thus pay for timestamps) when a trace
    // consumer asked for one.
    let trace = (trace_out.is_some() || profile_json.is_some())
        .then(|| Arc::new(SweepTraceCollector::new()));
    SweepOpts {
        seed,
        paper,
        exec: ExecutorConfig { workers, progress: true, trace },
        metrics_json,
        trace_out,
        profile_json,
    }
}

/// Options for the single-run commands:
/// `[seed] [--metrics-json <path>] [--trace-out <path>]
/// [--profile-json <path>] [--incident-dir <dir>]`.
struct RunOpts {
    seed: u64,
    metrics_json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    profile_json: Option<PathBuf>,
    incident_dir: Option<PathBuf>,
}

impl RunOpts {
    /// Whether any consumer needs the span recorder turned on.
    fn wants_tracing(&self) -> bool {
        self.trace_out.is_some() || self.profile_json.is_some()
    }
}

fn parse_run_opts(args: &[String]) -> RunOpts {
    let mut seed = 42u64;
    let mut metrics_json = None;
    let mut trace_out = None;
    let mut profile_json = None;
    let mut incident_dir = None;
    let mut rest = args[2..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--metrics-json" => {
                metrics_json =
                    rest.next().map(PathBuf::from).or_else(|| die("--metrics-json needs a path"));
            }
            "--trace-out" => {
                trace_out =
                    rest.next().map(PathBuf::from).or_else(|| die("--trace-out needs a path"));
            }
            "--profile-json" => {
                profile_json =
                    rest.next().map(PathBuf::from).or_else(|| die("--profile-json needs a path"));
            }
            "--incident-dir" => {
                incident_dir = rest
                    .next()
                    .map(PathBuf::from)
                    .or_else(|| die("--incident-dir needs a directory"));
            }
            other => match other.parse() {
                Ok(s) => seed = s,
                Err(_) => {
                    die::<u64>(&format!("unrecognized argument `{other}`"));
                }
            },
        }
    }
    RunOpts { seed, metrics_json, trace_out, profile_json, incident_dir }
}

fn write_json(path: &std::path::Path, json: &str, what: &str) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(parent) {
            die::<()>(&format!("cannot create {}: {e}", parent.display()));
        }
    }
    match std::fs::write(path, json) {
        Ok(()) => log::emit(Severity::Info, "raven-sim", &format!("{what}: {}", path.display())),
        Err(e) => {
            die::<()>(&format!("cannot write {}: {e}", path.display()));
        }
    }
}

fn dump_metrics(path: Option<&PathBuf>, metrics: &Metrics) {
    if let Some(path) = path {
        let json = serde_json::to_string_pretty(metrics).expect("metrics serialize");
        write_json(path, &json, "metrics written");
    }
}

/// Flushes a single run's observability artifacts: metrics JSON, the
/// span trace and profile (when asked for), and the incident report (if
/// the flight recorder tripped).
///
/// Metrics are dumped *before* the incident sink runs: the sink's
/// ledger bookkeeping must never leak into the run's deterministic
/// metrics artifact.
fn flush_run_artifacts(sim: &Simulation, opts: &RunOpts) {
    dump_metrics(opts.metrics_json.as_ref(), &sim.metrics());
    if opts.wants_tracing() {
        sim.spans().finish();
        if let Some(path) = &opts.trace_out {
            let mut trace = ChromeTraceBuilder::new();
            trace.set_process_name(1, "session");
            trace.set_thread_name(1, 1, "pipeline");
            sim.spans().chrome_events(1, 1, &mut trace);
            write_json(path, &trace.build(), "trace written");
        }
        if let Some(path) = &opts.profile_json {
            let json = serde_json::to_string_pretty(&sim.spans().stage_stats())
                .expect("span profile serialize");
            write_json(path, &json, "profile written");
        }
    }
    if let Some(dir) = &opts.incident_dir {
        if let Some(incident) = sim.incident() {
            // The sink writes a seq-suffixed file (unique across runs —
            // a fixed name silently overwrote earlier incidents of the
            // same seed) and appends its content address to the
            // hash-chained ledger in the same directory.
            let appended =
                raven_core::IncidentSink::open(dir).and_then(|mut sink| sink.append(incident));
            let receipt = match appended {
                Ok(r) => r,
                Err(e) => {
                    die::<()>(&format!("cannot record incident in {}: {e}", dir.display()));
                    return;
                }
            };
            log::emit(
                Severity::Info,
                "raven-sim",
                &format!(
                    "incident written: {} (ledger seq {})",
                    receipt.path.display(),
                    receipt.record.seq
                ),
            );
        } else {
            log::emit(Severity::Info, "raven-sim", "no incident: flight recorder never tripped");
        }
    }
}

/// Flushes a sweep's trace artifacts from the collector installed by
/// `parse_sweep_opts` (a no-op when tracing was not requested).
fn flush_sweep_trace(opts: &SweepOpts) {
    let Some(collector) = &opts.exec.trace else { return };
    if let Some(path) = &opts.trace_out {
        let mut trace = ChromeTraceBuilder::new();
        collector.chrome_events(&mut trace);
        write_json(path, &trace.build(), "trace written");
    }
    if let Some(path) = &opts.profile_json {
        let json = serde_json::to_string_pretty(&collector.stage_stats())
            .expect("sweep profile serialize");
        write_json(path, &json, "profile written");
    }
}

fn die<T>(msg: &str) -> Option<T> {
    eprintln!("raven-sim: {msg}");
    std::process::exit(2);
}

fn attack() -> AttackSetup {
    AttackSetup::ScenarioB {
        dac_delta: 30_000,
        channel: 0,
        delay_packets: 400,
        duration_packets: 256,
    }
}

fn print_outcome(label: &str, out: &raven_core::SessionOutcome) {
    println!("{label}:");
    println!("  final state      : {}", out.final_state);
    println!("  max 2 ms EE step : {:.3} mm", out.max_ee_step_2ms * 1e3);
    println!("  adverse impact   : {}", out.adverse);
    println!("  model detected   : {}", out.model_detected);
    println!("  RAVEN detected   : {}", out.raven_detected);
    println!("  E-STOP           : {:?}", out.estop);
}

fn main() {
    // The CLI is interactive: raise the default stderr log threshold to
    // `info` so progress and artifact notes show up. An explicit
    // `RAVEN_LOG=` still wins.
    log::set_default_level(Severity::Info);
    let args: Vec<String> = std::env::args().collect();
    let command = args.get(1).map(String::as_str).unwrap_or("help");
    match command {
        "session" => {
            let opts = parse_run_opts(&args);
            let mut sim = Simulation::new(SimConfig {
                record_cycles: opts.incident_dir.is_some(),
                ..SimConfig::standard(opts.seed)
            });
            if opts.wants_tracing() {
                sim.enable_span_recorder();
            }
            sim.boot();
            print_outcome("clean session", &sim.run_session());
            flush_run_artifacts(&sim, &opts);
        }
        "attack" => {
            let opts = parse_run_opts(&args);
            let mut sim = Simulation::new(SimConfig {
                session_ms: 4_000,
                record_cycles: opts.incident_dir.is_some(),
                ..SimConfig::standard(opts.seed)
            });
            if opts.wants_tracing() {
                sim.enable_span_recorder();
            }
            sim.install_attack(&attack());
            sim.boot();
            print_outcome("undefended under scenario-B injection", &sim.run_session());
            flush_run_artifacts(&sim, &opts);
        }
        "defend" => {
            let opts = parse_run_opts(&args);
            log::emit(
                Severity::Info,
                "raven-sim",
                "training thresholds (reduced 20-run protocol) …",
            );
            let report = train_thresholds(&TrainingConfig { runs: 20, ..TrainingConfig::quick(3) });
            let mut sim = Simulation::new(SimConfig {
                session_ms: 4_000,
                record_cycles: opts.incident_dir.is_some(),
                detector: Some(DetectorSetup {
                    config: DetectorConfig {
                        mitigation: Mitigation::EStop,
                        ..DetectorConfig::default()
                    },
                    model_perturbation: 0.02,
                    thresholds: Some(report.thresholds),
                }),
                ..SimConfig::standard(opts.seed)
            });
            if opts.wants_tracing() {
                sim.enable_span_recorder();
            }
            sim.install_attack(&attack());
            sim.boot();
            print_outcome("guarded under scenario-B injection", &sim.run_session());
            flush_run_artifacts(&sim, &opts);
        }
        "train" => {
            let opts = parse_sweep_opts(&args);
            let config = if opts.paper {
                TrainingConfig::paper_scale(opts.seed)
            } else {
                TrainingConfig::quick(opts.seed)
            };
            let report = train_thresholds_with(&config, &opts.exec);
            println!(
                "thresholds from {} runs ({} samples):\n{}",
                report.runs,
                report.samples,
                report.thresholds.to_json().expect("thresholds serialize")
            );
            flush_sweep_trace(&opts);
        }
        "table4" => {
            let opts = parse_sweep_opts(&args);
            let config = if opts.paper {
                Table4Config::paper_scale(opts.seed)
            } else {
                Table4Config::quick(opts.seed)
            };
            let result = run_table4_with(&config, &opts.exec);
            print!("{}", result.render());
            dump_metrics(opts.metrics_json.as_ref(), &result.metrics);
            flush_sweep_trace(&opts);
        }
        "fig9" => {
            let opts = parse_sweep_opts(&args);
            let config = if opts.paper {
                Fig9Config::paper_scale(opts.seed)
            } else {
                Fig9Config::quick(opts.seed)
            };
            let result = run_fig9_with(&config, &opts.exec);
            print!("{}", result.render());
            dump_metrics(opts.metrics_json.as_ref(), &result.metrics);
            flush_sweep_trace(&opts);
        }
        "chaos" => {
            let opts = parse_sweep_opts(&args);
            let config = if opts.paper {
                ChaosStudyConfig::paper_scale(opts.seed)
            } else {
                ChaosStudyConfig::quick(opts.seed)
            };
            let result = run_chaos_study_with(&config, &opts.exec);
            print!("{}", result.render());
            dump_metrics(opts.metrics_json.as_ref(), &result.metrics);
            flush_sweep_trace(&opts);
        }
        "ablations" => {
            let opts = parse_sweep_opts(&args);
            let runs = if opts.paper { 60 } else { 12 };
            print!("{}", run_fusion_ablation_with(opts.seed, runs, &opts.exec).render());
            println!();
            print!("{}", run_mitigation_ablation_with(opts.seed, runs / 2, &opts.exec).render());
            println!();
            print!("{}", run_lookahead_ablation_with(opts.seed, runs, &opts.exec).render());
            flush_sweep_trace(&opts);
        }
        "fleet" => run_fleet_command(&args),
        "ledger" => run_ledger_command(&args),
        "metrics" => run_metrics_command(&args),
        "profile" => run_profile_command(&args),
        "table1" => print!("{}", run_table1(31).render()),
        "table2" => print!("{}", run_table2(10_000).render()),
        "fig5" => print!("{}", run_fig5(3, 4_000).render()),
        "fig6" => print!("{}", run_fig6(5).render()),
        "fig8" => print!("{}", run_fig8(42, 3, 2_500, 0.02).render()),
        _ => {
            eprintln!(
                "usage: raven-sim <session|attack|defend|train|table1|table2|table4|\
                 fig5|fig6|fig8|fig9|ablations|chaos> [seed] [--workers N] [--paper]\n\
                 \x20      [--metrics-json <path>] [--trace-out <path>] [--profile-json <path>]\n\
                 \x20      [--incident-dir <dir>]   (RAVEN_LOG=<level>)\n\
                 \x20      raven-sim fleet [seed] [--sessions N] [--shards W] [--duration MS]\n\
                 \x20      raven-sim metrics export [seed] [--out <path>]\n\
                 \x20      raven-sim profile <fig9|table4|chaos> [seed] [--workers N] [--paper]\n\
                 \x20      raven-sim ledger verify <ledger.jsonl> [--sealed]\n\
                 \x20      raven-sim ledger manifest [--root <dir>] [--update]"
            );
            std::process::exit(2);
        }
    }
}

/// `raven-sim fleet [seed] [--sessions N] [--shards W] [--duration MS]
/// [--workers N] [--metrics-json <path>] [--trace-out <path>]
/// [--incident-dir <dir>]`: run a mixed-scenario session fleet through
/// the virtual-time multiplexer.
///
/// Admits N `standard_mix` sessions (clean / guarded / attacked /
/// defended / block-and-hold, staggered seeds and admissions) into a
/// `FleetEngine` and runs the wake queue dry. Output is bit-identical
/// for any `--shards`/`--workers` value; `--duration` overrides every
/// session's teleoperation horizon. `--metrics-json` dumps the fleet
/// counters merged with every session's registry; `--trace-out` writes
/// the scheduler's round/shard span timeline as a Chrome trace;
/// `--incident-dir` appends each tripped flight recorder to the
/// hash-chained incident ledger, in session-id order.
fn run_fleet_command(args: &[String]) {
    let mut seed = 42u64;
    let mut sessions = 16usize;
    let mut shards = 4usize;
    let mut duration: Option<u64> = None;
    let mut workers: Option<usize> = None;
    let mut metrics_json: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut incident_dir: Option<PathBuf> = None;
    let mut rest = args[2..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--sessions" => {
                sessions = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .or_else(|| die("--sessions needs a positive integer"))
                    .unwrap_or(sessions);
            }
            "--shards" => {
                shards = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .or_else(|| die("--shards needs a positive integer"))
                    .unwrap_or(shards);
            }
            "--duration" => {
                duration = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u64| n > 0)
                    .or_else(|| die("--duration needs a positive ms count"));
            }
            "--workers" => {
                workers = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .or_else(|| die("--workers needs a positive integer"));
            }
            "--metrics-json" => {
                metrics_json =
                    rest.next().map(PathBuf::from).or_else(|| die("--metrics-json needs a path"));
            }
            "--trace-out" => {
                trace_out =
                    rest.next().map(PathBuf::from).or_else(|| die("--trace-out needs a path"));
            }
            "--incident-dir" => {
                incident_dir = rest
                    .next()
                    .map(PathBuf::from)
                    .or_else(|| die("--incident-dir needs a directory"));
            }
            other => match other.parse() {
                Ok(s) => seed = s,
                Err(_) => {
                    die::<u64>(&format!("unrecognized argument `{other}`"));
                }
            },
        }
    }

    let mut fleet = raven_fleet::FleetEngine::new(raven_fleet::FleetConfig {
        shard_width: shards,
        workers,
        burst_ms: 256,
    });
    for mut spec in raven_fleet::standard_mix(sessions, seed) {
        if let Some(ms) = duration {
            spec.config.session_ms = ms;
        }
        fleet.admit(spec);
    }
    if trace_out.is_some() {
        fleet.enable_span_recorder();
    }
    let report = fleet.run();

    let estops = report.artifacts.iter().filter(|a| a.outcome.estop.is_some()).count();
    let detected = report.artifacts.iter().filter(|a| a.outcome.model_detected).count();
    let adverse = report.artifacts.iter().filter(|a| a.outcome.adverse).count();
    println!("fleet: {} sessions, shard width {}, {} rounds", sessions, shards, report.rounds);
    println!("  model detected   : {detected}");
    println!("  E-STOP latched   : {estops}");
    println!("  adverse impact   : {adverse}");

    if let Some(path) = &metrics_json {
        // Fleet counters plus every session's registry, merged in
        // session-id order — deterministic for any dispatch shape.
        let mut merged = report.metrics.clone();
        for artifact in &report.artifacts {
            merged.merge(&artifact.metrics);
        }
        dump_metrics(Some(path), &merged);
    }
    if let Some(path) = &trace_out {
        let mut trace = ChromeTraceBuilder::new();
        trace.set_process_name(1, "fleet");
        trace.set_thread_name(1, 1, "scheduler");
        fleet.spans().chrome_events(1, 1, &mut trace);
        write_json(path, &trace.build(), "trace written");
    }
    if let Some(dir) = &incident_dir {
        let mut recorded = 0usize;
        for artifact in &report.artifacts {
            let Some(incident) = &artifact.incident else { continue };
            let appended =
                raven_core::IncidentSink::open(dir).and_then(|mut sink| sink.append(incident));
            match appended {
                Ok(receipt) => {
                    recorded += 1;
                    log::emit(
                        Severity::Info,
                        "raven-sim",
                        &format!(
                            "incident written: {} (ledger seq {})",
                            receipt.path.display(),
                            receipt.record.seq
                        ),
                    );
                }
                Err(e) => {
                    die::<()>(&format!("cannot record incident in {}: {e}", dir.display()));
                }
            }
        }
        if recorded == 0 {
            log::emit(Severity::Info, "raven-sim", "no incidents: no flight recorder tripped");
        }
    }
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
            let mut seed = 42u64;
            let mut out: Option<PathBuf> = None;
            let mut rest = args[3..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--out" => {
                        out = rest.next().map(PathBuf::from).or_else(|| die("--out needs a path"));
                    }
                    other => match other.parse() {
                        Ok(s) => seed = s,
                        Err(_) => {
                            die::<u64>(&format!("unrecognized argument `{other}`"));
                        }
                    },
                }
            }
            let mut sim = Simulation::new(SimConfig {
                detector: Some(DetectorSetup::default()),
                ..SimConfig::standard(seed)
            });
            sim.boot();
            sim.run_session();
            let mut metrics = registry_template();
            metrics.merge(&sim.metrics());
            let text = metrics.to_openmetrics();
            match &out {
                Some(path) => write_json(path, &text, "openmetrics written"),
                None => print!("{text}"),
            }
        }
        _ => {
            die::<()>("usage: raven-sim metrics export [seed] [--out <path>]");
        }
    }
}

/// `raven-sim profile <fig9|table4|chaos> …`: span + executor profiling.
///
/// Runs the named sweep under a [`SweepTraceCollector`] and one traced
/// representative guarded session, then prints nearest-rank p50/p99 per
/// span path followed by the per-worker utilization summary. Accepts the
/// usual sweep options; `--trace-out`/`--profile-json` additionally
/// export the sweep timeline.
fn run_profile_command(args: &[String]) {
    let Some(exp) = args.get(2).cloned() else {
        die::<()>("profile needs an experiment: fig9 | table4 | chaos");
        return;
    };
    // Re-use the sweep option grammar for everything after the experiment.
    let mut shifted = args.to_vec();
    shifted.remove(2);
    let mut opts = parse_sweep_opts(&shifted);
    let collector = match &opts.exec.trace {
        Some(c) => Arc::clone(c),
        None => {
            let c = Arc::new(SweepTraceCollector::new());
            opts.exec.trace = Some(Arc::clone(&c));
            c
        }
    };
    match exp.as_str() {
        "fig9" => {
            let config = if opts.paper {
                Fig9Config::paper_scale(opts.seed)
            } else {
                Fig9Config::quick(opts.seed)
            };
            run_fig9_with(&config, &opts.exec);
        }
        "table4" => {
            let config = if opts.paper {
                Table4Config::paper_scale(opts.seed)
            } else {
                Table4Config::quick(opts.seed)
            };
            run_table4_with(&config, &opts.exec);
        }
        "chaos" => {
            let config = if opts.paper {
                ChaosStudyConfig::paper_scale(opts.seed)
            } else {
                ChaosStudyConfig::quick(opts.seed)
            };
            run_chaos_study_with(&config, &opts.exec);
        }
        other => {
            die::<()>(&format!("unknown profile experiment `{other}` (fig9 | table4 | chaos)"));
        }
    }
    // One traced session for the span-path percentiles (the sweep's runs
    // stay untraced — per-run span recording would serialize the pool on
    // one shared recorder).
    let mut sim = Simulation::new(SimConfig {
        detector: Some(DetectorSetup::default()),
        ..SimConfig::standard(opts.seed)
    });
    sim.enable_span_recorder();
    sim.boot();
    sim.run_session();
    sim.spans().finish();
    println!("span paths (representative guarded session, seed {}):", opts.seed);
    println!("  {:<52} {:>7} {:>10} {:>10}", "path", "count", "p50 (us)", "p99 (us)");
    for s in sim.spans().stage_stats() {
        println!("  {:<52} {:>7} {:>10.1} {:>10.1}", s.name, s.count, s.p50_us, s.p99_us);
    }
    println!();
    print!("{}", collector.render());
    flush_sweep_trace(&opts);
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
                    println!(
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
                write_json(&manifest_path, &manifest.to_json_pretty(), "manifest written");
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
            println!("manifest OK: {} artifacts pinned, signature valid", manifest.entries.len());
        }
        _ => {
            die::<()>("usage: raven-sim ledger <verify <file> [--sealed] | manifest [--root <dir>] [--update]>");
        }
    }
}
