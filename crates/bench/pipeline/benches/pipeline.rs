//! The pipeline benchmark: four workloads driven through the public entry
//! points, timed by a span recorder the benchmark owns.
//!
//! ```sh
//! cargo bench --offline -q --manifest-path crates/bench/pipeline/Cargo.toml --bench pipeline \
//!     -- --workload guarded_session --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Without `--workload` every workload runs in turn, each in a process
//! of its own. `--trace 0` measures the end-to-end metrics with tracing
//! off; `--trace 1` runs the traced pass that yields the per-layer
//! metrics. Each mode repeats its unit of work until `--seconds` have
//! passed (at least three times), checks every repeat's output digest
//! against the first repeat and against `expected.json`, prints each
//! metric with its unit, writes a record under `records/`, and ends with
//! one JSON result line. `README.md` explains the workloads and metrics.
//!
//! Timing reads only span durations: the bench recorder wraps the public
//! calls, and the traced pass reads the spans the program already has
//! (`Simulation::enable_span_recorder`, `ExecutorConfig::traced`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;

use raven_core::experiments::{run_fig9_with, run_table4_with, Fig9Config, Table4Config};
use raven_core::training::{train_thresholds_with, TrainingConfig};
use raven_core::{
    AttackSetup, DetectorSetup, ExecutorConfig, SessionOutcome, SimConfig, Simulation,
    SweepSegment, SweepTraceCollector,
};
use raven_detect::{DetectionThresholds, DetectorConfig, Mitigation};
use raven_fleet::{FleetMonitor, MonitorConfig, MonitorSession};
use raven_ledger::sha256_hex;
use raven_pipeline_bench as calc;
use serde_json::Value;
use simbus::obs::{names, spans};
use simbus::{SpanHandle, SpanRecord};

const WORKLOADS: [&str; 4] = ["guarded_session", "table4_sweep", "fig9_sweep", "fleet_monitor"];

/// Sweep worker threads; everything else runs on the main thread.
const WORKERS: usize = 2;
/// Every mode repeats its unit at least this often, so medians exist.
const MIN_REPEATS: usize = 3;

/// Teleop cycles per timed burst of the guarded session.
const BURST_CYCLES: u64 = 1_000;
/// Untimed cycles between boot and the first timed burst: the attack
/// (delay 400, duration 256) and its alarms fall in here.
const WARMUP_CYCLES: u64 = 20_000;
/// Timed bursts per guarded-session repeat (100 000 cycles).
const TIMED_BURSTS: u64 = 100;
/// Teleop cycles of a traced session: ~12 spans a cycle plus boot stays
/// under the recorder's 2^18-span cap.
const TRACED_SESSION_MS: u64 = 15_000;

/// Monitored sessions in the fleet population; every 100th is
/// duty-cycled, the rest stay idle.
const FLEET_SESSIONS: u64 = 10_000;
const FLEET_LANES: usize = 64;
/// Active phases per duty-cycled session: the full workload, and the
/// small fleet probe other workloads' traced passes run.
const FLEET_PHASES: u32 = 40;
const FLEET_PROBE_PHASES: u32 = 4;

/// Pipeline stage spans and the per-cycle metric each one feeds.
const CYCLE_METRICS: [(&str, &str); 10] = [
    (spans::STAGE_CONSOLE, "stage.console_ns"),
    (spans::STAGE_LINK, "stage.link_ns"),
    (spans::STAGE_FEEDBACK, "stage.feedback_ns"),
    (spans::STAGE_CONTROLLER, "stage.controller_ns"),
    (spans::STAGE_INTERCEPTORS, "stage.interceptors_ns"),
    (spans::STAGE_DETECTOR, "stage.detector_ns"),
    (spans::STAGE_PLANT, "stage.plant_ns"),
    (spans::TELEOP_ENCODE, "teleop.encode_ns"),
    (spans::TELEOP_DECODE, "teleop.decode_ns"),
    (spans::HW_BOARD_CYCLE, "hw.board_cycle_ns"),
];

struct BenchArgs {
    workload: Option<&'static str>,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_bench_args() -> Result<BenchArgs, String> {
    let mut parsed = BenchArgs { workload: None, seed: 42, seconds: 10, traced: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--bench" {
            continue; // appended by `cargo bench`
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS.iter().find(|w| **w == value);
                parsed.workload = Some(known.ok_or_else(|| {
                    format!("unknown workload `{value}` (one of {})", WORKLOADS.join(", "))
                })?);
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    // The recorder's epoch is process start: the first repeat's set-up
    // is measured from here.
    let bench = SpanHandle::recording();
    let args = match parse_bench_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipeline: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one_workload(&bench, workload, &args),
        None => run_every_workload(&args),
    }
}

/// Runs each workload in a child process of its own, one after another,
/// so peak RSS and allocator state belong to one workload alone.
fn run_every_workload(args: &BenchArgs) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .status()
            .expect("spawn one workload");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one repeat produced: its output digest and the work units in
/// each of its timed spans (end-to-end) or its layer measurements
/// (traced).
struct Repeat {
    digest: String,
    units: u64,
    layers: Vec<(&'static str, f64)>,
    table4_err_pp: Option<f64>,
}

fn run_one_workload(bench: &SpanHandle, workload: &'static str, args: &BenchArgs) -> ExitCode {
    let pinned = match pinned_digest(workload, args.seed, args.traced) {
        Ok(pinned) => pinned,
        Err(e) => {
            eprintln!("pipeline: {e}");
            return ExitCode::from(2);
        }
    };
    // The traced pass arms every probe with one set of thresholds; the
    // end-to-end repeats train their own as part of set-up.
    let thresholds = args.traced.then(|| guarded_thresholds(args.seed));
    let seed = args.seed;
    let mut repeats: Vec<Option<Repeat>> = Vec::new();
    loop {
        let repeat = catch_unwind(AssertUnwindSafe(|| {
            let _repeat = bench.begin(spans::EXEC_RUN);
            match thresholds {
                Some(thresholds) => traced_repeat(bench, workload, seed, thresholds),
                None => timed_repeat(bench, workload, seed),
            }
        }));
        repeats.push(repeat.ok());
        // Stop before a repeat of average length would overrun the budget.
        let elapsed_ns = bench.snapshot().iter().map(calc::span_end_ns).max().unwrap_or(0);
        let next_end_ns = elapsed_ns + elapsed_ns / repeats.len() as u64;
        if repeats.len() >= MIN_REPEATS && next_end_ns > args.seconds * 1_000_000_000 {
            break;
        }
    }
    bench.finish();

    // Every repeat must reproduce the pin, or, for an unpinned seed (and
    // when regenerating pins), the first repeat.
    let update = std::env::var_os("RAVEN_UPDATE_GOLDEN").is_some_and(|v| v == "1");
    let first = repeats.iter().flatten().next().map(|r| r.digest.clone());
    let reference = if update { first } else { pinned.clone().or(first) };
    let failed = repeats
        .iter()
        .filter(|r| r.as_ref().is_none_or(|r| Some(&r.digest) != reference.as_ref()))
        .count();
    let good: Vec<(usize, &Repeat)> =
        repeats.iter().enumerate().filter_map(|(i, r)| r.as_ref().map(|r| (i, r))).collect();
    if let (true, 0, Some(digest)) = (update, failed, &reference) {
        pin_digest(workload, seed, args.traced, digest);
    }

    let samples = match (good.is_empty(), args.traced) {
        (true, _) => Vec::new(),
        (false, true) => layer_samples(&good),
        (false, false) => end_to_end_samples(&bench.snapshot(), workload, &good),
    };
    let summary: Vec<(&str, [f64; 3], usize)> = samples
        .into_iter()
        .map(|(name, mut values)| (name, calc::quartiles_f64(&mut values), values.len()))
        .collect();

    println!(
        "pipeline {workload} seed {seed} trace {} · {} repeat(s), {failed} failed",
        u8::from(args.traced),
        repeats.len()
    );
    let catalog = calc::catalog_for(args.traced);
    for (name, [p25, p50, p75], n) in &summary {
        let unit = catalog.iter().find(|(c, _)| c == name).map_or("", |(_, u)| *u);
        println!("  {name:<26} {p50:>16.4} {unit:<6} (p25 {p25:.4}, p75 {p75:.4}, n={n})");
    }
    let table4_err_pp = good.first().and_then(|(_, r)| r.table4_err_pp);
    if let Some(err) = table4_err_pp {
        println!(
            "  accuracy: table4_err_pp {err:.4} (mean |measured − paper| over 16 Table IV cells)"
        );
    }
    if failed > 0 {
        eprintln!(
            "pipeline: {failed} of {} repeat(s) panicked or produced another digest than {}",
            repeats.len(),
            reference.as_deref().unwrap_or("any")
        );
    }
    write_record(workload, args, &repeats, failed, &summary, table4_err_pp, pinned.as_deref());

    let values: Vec<(&str, f64)> = summary.iter().map(|(n, q, _)| (*n, q[1])).collect();
    println!("{}", calc::result_line(args.traced, repeats.len() as u64, failed as u64, &values));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Workload inputs.

/// Thresholds from the reduced fault-free protocol with a 25 % margin
/// (the recipe the fleet and verification suites arm with), trained
/// serially.
fn guarded_thresholds(seed: u64) -> DetectionThresholds {
    let training = TrainingConfig { runs: 8, ..TrainingConfig::quick(seed) };
    train_thresholds_with(&training, &ExecutorConfig::serial()).thresholds.scaled(1.25)
}

/// The guarded session: Observe guard over a scenario-B `AddDacWord`
/// attack the model alarms on and RAVEN never halts.
fn guarded_sim(seed: u64, thresholds: DetectionThresholds, session_ms: u64) -> Simulation {
    let mut sim = Simulation::new(SimConfig {
        session_ms,
        detector: Some(DetectorSetup {
            config: DetectorConfig { mitigation: Mitigation::Observe, ..DetectorConfig::default() },
            model_perturbation: 0.02,
            thresholds: Some(thresholds),
        }),
        ..SimConfig::standard(seed)
    });
    sim.install_attack(&AttackSetup::ScenarioB {
        dac_delta: 14_000,
        channel: 0,
        delay_packets: 400,
        duration_packets: 256,
    });
    sim
}

fn session_digest(outcome: &SessionOutcome, sim: &Simulation) -> String {
    let outcome = serde_json::to_string(outcome).expect("outcome serializes");
    let metrics = serde_json::to_string(&sim.metrics()).expect("metrics serialize");
    sha256_hex(format!("{outcome}\n{metrics}").as_bytes())
}

/// Table IV at 48 A / 48 B scored runs plus 16 training runs: about
/// 1.5 s on 2 workers, so a run medians over several sweeps.
fn table4_config(seed: u64) -> Table4Config {
    Table4Config {
        scenario_a_runs: 48,
        scenario_b_runs: 48,
        clean_fraction: 0.30,
        session_ms: 2_500,
        training: TrainingConfig { runs: 16, ..TrainingConfig::quick(seed) },
        seed,
    }
}

/// The small Table IV sweep that gives workloads without a sweep of
/// their own their executor-layer numbers.
fn table4_probe_config(seed: u64) -> Table4Config {
    Table4Config {
        scenario_a_runs: 8,
        scenario_b_runs: 8,
        training: TrainingConfig { runs: 4, ..TrainingConfig::quick(seed) },
        ..table4_config(seed)
    }
}

/// The paper's 6 × 9 value/duration grid at 2 repetitions per cell plus
/// 16 training runs (about 2 s on 2 workers).
fn fig9_config(seed: u64) -> Fig9Config {
    Fig9Config {
        repetitions: 2,
        training: TrainingConfig { runs: 16, ..TrainingConfig::quick(seed) },
        ..Fig9Config::paper_scale(seed)
    }
}

/// What one sweep produced.
struct SweepOutput {
    digest: String,
    runs: u64,
    assessments: u64,
    alarms: u64,
    table4_err_pp: Option<f64>,
}

fn run_table4_unit(config: &Table4Config, exec: &ExecutorConfig) -> SweepOutput {
    let result = run_table4_with(config, exec);
    SweepOutput {
        digest: sha256_hex(serde_json::to_string(&result).expect("Table IV serializes").as_bytes()),
        runs: u64::from(config.scenario_a_runs + config.scenario_b_runs + config.training.runs),
        assessments: result.metrics.counter(names::DETECTOR_ASSESSMENTS),
        alarms: result.metrics.counter(names::DETECTOR_ALARMS),
        table4_err_pp: Some(calc::table4_err_pp(&calc::table4_cells(&result))),
    }
}

fn run_fig9_unit(config: &Fig9Config, exec: &ExecutorConfig) -> SweepOutput {
    let result = run_fig9_with(config, exec);
    let cells = config.values.len() * config.durations_ms.len();
    SweepOutput {
        digest: sha256_hex(serde_json::to_string(&result).expect("Fig. 9 serializes").as_bytes()),
        runs: cells as u64 * u64::from(config.repetitions) + u64::from(config.training.runs),
        assessments: result.metrics.counter(names::DETECTOR_ASSESSMENTS),
        alarms: result.metrics.counter(names::DETECTOR_ALARMS),
        table4_err_pp: None,
    }
}

fn run_workload_sweep(workload: &str, seed: u64, exec: &ExecutorConfig) -> SweepOutput {
    match workload {
        "table4_sweep" => run_table4_unit(&table4_config(seed), exec),
        "fig9_sweep" => run_fig9_unit(&fig9_config(seed), exec),
        _ => run_table4_unit(&table4_probe_config(seed), exec),
    }
}

/// SplitMix64 finaliser: per-session seeds and idle gaps from the
/// workload seed.
fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fleet population: every 100th session duty-cycles (start
/// `i % 977` ms, active 500 ms, idle 250–340 ms), the rest stay idle.
fn fleet_population(seed: u64, phases: u32) -> Vec<MonitorSession> {
    (0..FLEET_SESSIONS)
        .map(|i| {
            let session_seed = mix_seed(seed, i);
            if i % 100 == 0 {
                MonitorSession {
                    seed: session_seed,
                    start_ms: i % 977,
                    active_ms: 500,
                    idle_ms: 250 + session_seed % 91,
                    phases,
                }
            } else {
                MonitorSession::idle(session_seed)
            }
        })
        .collect()
}

/// What one fleet run produced.
struct FleetOutput {
    digest: String,
    assessments: u64,
    alarms: u64,
    admissions: u64,
    deferrals: u64,
    cycles: u64,
}

/// Builds the population and the monitor (untimed: set-up), then times
/// `FleetMonitor::run` under a `span.fleet.round` span.
fn run_fleet_unit(
    bench: &SpanHandle,
    seed: u64,
    thresholds: DetectionThresholds,
    phases: u32,
) -> FleetOutput {
    let config =
        MonitorConfig { width: FLEET_LANES, detector: DetectorConfig::default(), thresholds };
    let mut monitor = FleetMonitor::new(config, fleet_population(seed, phases));
    let report = {
        let _round = bench.begin(spans::FLEET_ROUND);
        monitor.run()
    };
    FleetOutput {
        digest: sha256_hex(serde_json::to_string(&report).expect("report serializes").as_bytes()),
        assessments: report.totals.iter().map(|t| t.assessments).sum(),
        alarms: report.totals.iter().map(|t| t.alarms).sum(),
        admissions: report.totals.iter().map(|t| u64::from(t.phases_run)).sum(),
        deferrals: report.deferrals,
        cycles: report.cycles,
    }
}

// ---------------------------------------------------------------------------
// End-to-end mode: tracing off; the repeat's timed spans are the units.

/// The span name each workload's timed units run under.
fn timed_span(workload: &str) -> &'static str {
    match workload {
        "guarded_session" => spans::SESSION_RUN,
        "fleet_monitor" => spans::FLEET_ROUND,
        _ => spans::EXEC_SWEEP,
    }
}

fn timed_repeat(bench: &SpanHandle, workload: &str, seed: u64) -> Repeat {
    let mut repeat =
        Repeat { digest: String::new(), units: 0, layers: Vec::new(), table4_err_pp: None };
    match workload {
        "guarded_session" => {
            let thresholds = {
                let _training = bench.begin(spans::EXEC_SWEEP);
                guarded_thresholds(seed)
            };
            let mut sim =
                guarded_sim(seed, thresholds, WARMUP_CYCLES + TIMED_BURSTS * BURST_CYCLES);
            {
                let _boot = bench.begin(spans::SESSION_BOOT);
                sim.boot();
            }
            let mut ran = sim.run_session_burst(WARMUP_CYCLES);
            for _ in 0..TIMED_BURSTS {
                let _burst = bench.begin(spans::SESSION_RUN);
                ran += sim.run_session_burst(BURST_CYCLES);
            }
            assert_eq!(ran, WARMUP_CYCLES + TIMED_BURSTS * BURST_CYCLES, "the session halted");
            repeat.digest = session_digest(&sim.session_outcome(ran), &sim);
            repeat.units = BURST_CYCLES;
        }
        "fleet_monitor" => {
            let thresholds = {
                let _training = bench.begin(spans::EXEC_SWEEP);
                guarded_thresholds(seed)
            };
            let fleet = run_fleet_unit(bench, seed, thresholds, FLEET_PHASES);
            repeat.digest = fleet.digest;
            repeat.units = fleet.assessments;
        }
        _ => {
            // Set-up: one clean boot, so code and allocator are warm
            // before the timed sweep starts.
            {
                let _boot = bench.begin(spans::SESSION_BOOT);
                let mut sim = Simulation::new(SimConfig {
                    detector: Some(DetectorSetup::default()),
                    ..SimConfig::standard(seed)
                });
                sim.boot();
            }
            let sweep = {
                let _sweep = bench.begin(spans::EXEC_SWEEP);
                run_workload_sweep(workload, seed, &ExecutorConfig::with_workers(WORKERS))
            };
            repeat.digest = sweep.digest;
            repeat.units = sweep.runs;
            repeat.table4_err_pp = sweep.table4_err_pp;
        }
    }
    repeat
}

/// Indices of the direct children of `parent`, in open order.
fn child_spans(tree: &[SpanRecord], parent: usize) -> Vec<usize> {
    (parent + 1..tree.len()).filter(|&i| tree[i].parent == Some(parent)).collect()
}

/// End-to-end values of the good repeats: throughput of every timed
/// span (a burst, a sweep or a fleet run), set-up per repeat as the gap
/// from its start to its first timed span, and the process's peak RSS.
fn end_to_end_samples(
    tree: &[SpanRecord],
    workload: &str,
    good: &[(usize, &Repeat)],
) -> Vec<(&'static str, Vec<f64>)> {
    let roots: Vec<usize> = (0..tree.len()).filter(|&i| tree[i].parent.is_none()).collect();
    let mut units_per_s = Vec::new();
    let mut setup_s = Vec::new();
    for (index, repeat) in good {
        let root = roots[*index];
        let timed: Vec<usize> = child_spans(tree, root)
            .into_iter()
            .filter(|&i| tree[i].name == timed_span(workload))
            .collect();
        units_per_s
            .extend(timed.iter().map(|&i| repeat.units as f64 * 1e9 / tree[i].wall_ns as f64));
        setup_s.push((tree[timed[0]].wall_begin_ns - tree[root].wall_begin_ns) as f64 / 1e9);
    }
    vec![("units_per_s", units_per_s), ("setup_s", setup_s), ("peak_rss_mib", vec![peak_rss_mib()])]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

// ---------------------------------------------------------------------------
// Traced mode: the per-layer pass.
//
// Every repeat runs three parts, so every workload reports every layer:
// the guarded session (its own workload for guarded_session, a probe
// for the others), a traced sweep (the workload's own for the two sweep
// workloads, a small Table IV otherwise) and the fleet monitor (the full
// population for fleet_monitor, a 4-phase probe otherwise). Each part
// runs under its own `span.exec.run` span of the bench recorder.

fn traced_repeat(
    bench: &SpanHandle,
    workload: &str,
    seed: u64,
    thresholds: DetectionThresholds,
) -> Repeat {
    let session = probe_session(bench, seed, thresholds);
    let collector = Arc::new(SweepTraceCollector::new());
    let sweep = {
        let _part = bench.begin(spans::EXEC_RUN);
        let exec = ExecutorConfig::with_workers(WORKERS).traced(Arc::clone(&collector));
        run_workload_sweep(workload, seed, &exec)
    };
    let fleet_phases = if workload == "fleet_monitor" { FLEET_PHASES } else { FLEET_PROBE_PHASES };
    let mark = bench.snapshot().len();
    let fleet = {
        let _part = bench.begin(spans::EXEC_RUN);
        run_fleet_unit(bench, seed, thresholds, fleet_phases)
    };
    // [part, round]: the build is the gap before the round opens.
    let own = bench.snapshot().split_off(mark);
    let (part, round) = (&own[0], &own[1]);

    let (assessments, alarms) = match workload {
        "guarded_session" => (session.assessments, session.alarms),
        "fleet_monitor" => (fleet.assessments, fleet.alarms),
        _ => (sweep.assessments, sweep.alarms),
    };
    let mut layers = session.layers;
    layers.extend(exec_layer(&collector.segments()));
    layers.extend([
        ("detect.assessment_count", assessments as f64),
        ("detect.alarm_count", alarms as f64),
        ("sim.run_count", (2 + sweep.runs) as f64),
        ("fleet.build_s", (round.wall_begin_ns - part.wall_begin_ns) as f64 / 1e9),
        ("fleet.ns_per_assessment", round.wall_ns as f64 / fleet.assessments as f64),
        (
            "fleet.admit_ratio",
            fleet.admissions as f64 / (fleet.admissions + fleet.deferrals) as f64,
        ),
        ("fleet.cycle_count", fleet.cycles as f64),
        ("fleet.deferral_count", fleet.deferrals as f64),
    ]);
    Repeat {
        digest: sha256_hex(
            format!("{}\n{}\n{}", session.digest, sweep.digest, fleet.digest).as_bytes(),
        ),
        units: 0,
        layers,
        table4_err_pp: if workload == "table4_sweep" { sweep.table4_err_pp } else { None },
    }
}

struct SessionProbe {
    digest: String,
    assessments: u64,
    alarms: u64,
    layers: Vec<(&'static str, f64)>,
}

/// The guarded session twice over `TRACED_SESSION_MS` teleop cycles:
/// with tracing off, in 1 000-cycle bursts timed by the bench recorder;
/// then with the program's own spans on. Both must produce the same
/// output. Stage numbers come from the traced run's `span.session.run`
/// subtree; the difference in cost per cycle is the tracing overhead.
fn probe_session(bench: &SpanHandle, seed: u64, thresholds: DetectionThresholds) -> SessionProbe {
    let _part = bench.begin(spans::EXEC_RUN);
    let mark = bench.snapshot().len();
    let mut sim = guarded_sim(seed, thresholds, TRACED_SESSION_MS);
    {
        let _boot = bench.begin(spans::SESSION_BOOT);
        sim.boot();
    }
    let mut ran = 0;
    for _ in 0..TRACED_SESSION_MS / BURST_CYCLES {
        let _burst = bench.begin(spans::SESSION_RUN);
        ran += sim.run_session_burst(BURST_CYCLES);
    }
    assert_eq!(ran, TRACED_SESSION_MS, "the guarded session halted");
    let untraced_digest = session_digest(&sim.session_outcome(ran), &sim);
    let own = bench.snapshot().split_off(mark);
    let boot_ns = own.iter().find(|s| s.name == spans::SESSION_BOOT).map_or(0, |s| s.wall_ns);
    let mut bursts: Vec<u64> =
        own.iter().filter(|s| s.name == spans::SESSION_RUN).map(|s| s.wall_ns).collect();
    let untraced_ns_per_cycle = bursts.iter().sum::<u64>() as f64 / ran as f64;

    let mut sim = guarded_sim(seed, thresholds, TRACED_SESSION_MS);
    sim.enable_span_recorder();
    sim.boot();
    let outcome = sim.run_session();
    let recorder = sim.spans();
    recorder.finish();
    assert_eq!(recorder.dropped(), 0, "the traced session overflowed the span arena");
    let digest = session_digest(&outcome, &sim);
    assert_eq!(digest, untraced_digest, "tracing changed the session's output");
    let tree = recorder.snapshot();

    let in_session = calc::enclosed_by(&tree, spans::SESSION_RUN);
    let in_boot = calc::enclosed_by(&tree, spans::SESSION_BOOT);
    let self_ns = calc::self_times_ns(&tree);
    let session_span = tree.iter().find(|s| s.name == spans::SESSION_RUN).expect("session span");
    let is_cycle = |i: usize| tree[i].name == spans::CYCLE;
    let cycles = (0..tree.len()).filter(|&i| in_session[i] && is_cycle(i)).count() as f64;
    let boot_cycles = (0..tree.len()).filter(|&i| in_boot[i] && is_cycle(i)).count() as f64;
    let in_session_ns = |name: &str| -> u64 {
        (0..tree.len())
            .filter(|&i| in_session[i] && tree[i].name == name)
            .map(|i| tree[i].wall_ns)
            .sum()
    };
    let mut verdicts: Vec<u64> = (0..tree.len())
        .filter(|&i| in_session[i] && tree[i].name == spans::DETECTOR_VERDICT)
        .map(|i| tree[i].wall_ns)
        .collect();
    let observe_ns: u64 =
        (0..tree.len()).filter(|&i| in_session[i] && is_cycle(i)).map(|i| self_ns[i]).sum();
    let traced_ns_per_cycle = session_span.wall_ns as f64 / cycles;

    let mut layers: Vec<(&'static str, f64)> = CYCLE_METRICS
        .iter()
        .map(|&(span, metric)| (metric, in_session_ns(span) as f64 / cycles))
        .collect();
    layers.extend([
        ("stage.observe_ns", observe_ns as f64 / cycles),
        ("detect.verdict_ns", verdicts.iter().sum::<u64>() as f64 / verdicts.len() as f64),
        ("detect.verdict_p99_ns", calc::quantile(&mut verdicts, 0.99) as f64),
        ("detect.verdict_count", verdicts.len() as f64),
        ("sim.boot_ns_per_cycle", boot_ns as f64 / boot_cycles),
        ("sim.burst_p50_ns", calc::quantile(&mut bursts, 0.50) as f64),
        ("sim.burst_p98_ns", calc::quantile(&mut bursts, 0.98) as f64),
        ("span.overhead_ns", traced_ns_per_cycle - untraced_ns_per_cycle),
        (
            "span.overhead_pct",
            100.0 * (traced_ns_per_cycle - untraced_ns_per_cycle) / untraced_ns_per_cycle,
        ),
    ]);
    let metrics = sim.metrics();
    SessionProbe {
        digest,
        assessments: metrics.counter(names::DETECTOR_ASSESSMENTS),
        alarms: metrics.counter(names::DETECTOR_ALARMS),
        layers,
    }
}

/// Executor-layer numbers from one sweep call's trace: its first
/// segment is threshold training, the rest are scored runs.
fn exec_layer(segments: &[SweepSegment]) -> Vec<(&'static str, f64)> {
    assert!(segments.len() >= 2, "a sweep trains, then scores");
    let wall = |s: &SweepSegment| s.end_ns.saturating_sub(s.begin_ns);
    let mut busy_ns = 0u64;
    let mut capacity_ns = 0u64;
    let mut tail_idle_ns = 0u64;
    let mut run_ns = Vec::new();
    let mut merge_wait_ns = Vec::new();
    for segment in segments {
        capacity_ns += wall(segment) * segment.workers as u64;
        let last_finish =
            segment.runs.iter().map(|r| r.finished_ns).max().unwrap_or(segment.begin_ns);
        for worker in 0..segment.workers {
            let done = segment
                .runs
                .iter()
                .filter(|r| r.worker == worker)
                .map(|r| r.finished_ns)
                .max()
                .unwrap_or(segment.begin_ns);
            tail_idle_ns += last_finish.saturating_sub(done);
        }
        for run in &segment.runs {
            let ns = run.finished_ns.saturating_sub(run.started_ns);
            busy_ns += ns;
            run_ns.push(ns);
            merge_wait_ns.push(run.merged_ns.saturating_sub(run.finished_ns));
        }
    }
    let sweep_ns: u64 = segments.iter().map(wall).sum();
    vec![
        ("exec.training_s", wall(&segments[0]) as f64 / 1e9),
        ("exec.scored_s", segments[1..].iter().map(wall).sum::<u64>() as f64 / 1e9),
        ("exec.busy_pct", 100.0 * busy_ns as f64 / capacity_ns as f64),
        ("exec.tail_idle_pct", 100.0 * tail_idle_ns as f64 / capacity_ns as f64),
        ("exec.run_ms_p50", calc::quantile(&mut run_ns, 0.50) as f64 / 1e6),
        ("exec.run_ms_p95", calc::quantile(&mut run_ns, 0.95) as f64 / 1e6),
        ("exec.merge_wait_ms_p95", calc::quantile(&mut merge_wait_ns, 0.95) as f64 / 1e6),
        ("exec.speedup_vs_serial", busy_ns as f64 / sweep_ns as f64),
    ]
}

/// Per-repeat values of every per-layer metric, in catalogue order.
fn layer_samples(good: &[(usize, &Repeat)]) -> Vec<(&'static str, Vec<f64>)> {
    calc::PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let values = good
                .iter()
                .map(|(_, r)| {
                    let found = r.layers.iter().find(|(n, _)| *n == name);
                    found.unwrap_or_else(|| panic!("traced pass did not measure {name}")).1
                })
                .collect();
            (name, values)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Pinned digests and the run record.

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn trace_key(traced: bool) -> &'static str {
    if traced {
        "trace1"
    } else {
        "trace0"
    }
}

/// The digest `expected.json` pins for this workload, seed and mode, if
/// any (`{workload: {seed: {"trace0"|"trace1": sha256}}}`).
fn pinned_digest(workload: &str, seed: u64, traced: bool) -> Result<Option<String>, String> {
    let path = bench_dir().join("expected.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let pins =
        serde_json::value_from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let pin = pins
        .get(workload)
        .and_then(|w| w.get(&seed.to_string()))
        .and_then(|s| s.get(trace_key(traced)));
    match pin {
        None => Ok(None),
        Some(Value::Str(digest)) => Ok(Some(digest.clone())),
        Some(other) => {
            Err(format!("{}: {workload}/{seed} pin is a {}", path.display(), other.kind()))
        }
    }
}

/// The object under `key` in a JSON object, inserted (keys kept sorted)
/// when absent.
fn object_slot<'a>(object: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Map(entries) = object else { panic!("expected.json nests objects") };
    if !entries.iter().any(|(k, _)| k == key) {
        entries.push((key.to_string(), Value::Map(Vec::new())));
        entries.sort_by(|a, b| a.0.cmp(&b.0));
    }
    let slot = entries.iter().position(|(k, _)| k == key).expect("slot exists");
    &mut entries[slot].1
}

/// Rewrites this run's pin in `expected.json` (`RAVEN_UPDATE_GOLDEN=1`).
fn pin_digest(workload: &str, seed: u64, traced: bool, digest: &str) {
    let path = bench_dir().join("expected.json");
    let text = std::fs::read_to_string(&path).expect("read expected.json");
    let mut pins = serde_json::value_from_str(&text).expect("parse expected.json");
    let by_seed = object_slot(object_slot(&mut pins, workload), &seed.to_string());
    *object_slot(by_seed, trace_key(traced)) = Value::Str(digest.to_string());
    let json = serde_json::to_string_pretty(&pins).expect("pins serialize");
    std::fs::write(&path, json + "\n").expect("write expected.json");
    eprintln!("pipeline: pinned {workload}/{seed}/{} = {digest}", trace_key(traced));
}

/// The checkout's commit, or `unknown` outside a git work tree (git is
/// not allowed to search above the checkout).
fn checkout_commit() -> String {
    let Ok(root) = bench_dir().join("../../..").canonicalize() else {
        return "unknown".to_string();
    };
    let ceiling = root.parent().unwrap_or(&root).to_path_buf();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes `records/<workload>-seed<seed>-trace<0|1>.json`: a header
/// (host cores, workers, seed, commit), every metric's median,
/// quartiles and sample count, and the repeats' digests.
fn write_record(
    workload: &str,
    args: &BenchArgs,
    repeats: &[Option<Repeat>],
    failed: usize,
    summary: &[(&str, [f64; 3], usize)],
    table4_err_pp: Option<f64>,
    pinned: Option<&str>,
) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let catalog = calc::catalog_for(args.traced);
    let metrics = summary
        .iter()
        .map(|(name, [p25, p50, p75], n)| {
            let unit = catalog.iter().find(|(c, _)| c == name).map_or("", |(_, u)| *u);
            Value::Map(vec![
                ("name".to_string(), Value::Str(name.to_string())),
                ("unit".to_string(), Value::Str(unit.to_string())),
                ("median".to_string(), Value::F64(*p50)),
                ("p25".to_string(), Value::F64(*p25)),
                ("p75".to_string(), Value::F64(*p75)),
                ("samples".to_string(), Value::U64(*n as u64)),
            ])
        })
        .collect();
    let digests = repeats
        .iter()
        .map(|r| r.as_ref().map_or(Value::Null, |r| Value::Str(r.digest.clone())))
        .collect();
    let mut record = vec![
        ("workload".to_string(), Value::Str(workload.to_string())),
        ("seed".to_string(), Value::U64(args.seed)),
        ("trace".to_string(), Value::Bool(args.traced)),
        ("seconds".to_string(), Value::U64(args.seconds)),
        ("nproc".to_string(), Value::U64(nproc as u64)),
        ("workers".to_string(), Value::U64(WORKERS as u64)),
        ("commit".to_string(), Value::Str(checkout_commit())),
        ("repeats".to_string(), Value::U64(repeats.len() as u64)),
        ("failed".to_string(), Value::U64(failed as u64)),
        ("pinned_digest".to_string(), pinned.map_or(Value::Null, |d| Value::Str(d.to_string()))),
        ("digests".to_string(), Value::Seq(digests)),
        ("metrics".to_string(), Value::Seq(metrics)),
    ];
    if let Some(err) = table4_err_pp {
        record.push(("table4_err_pp".to_string(), Value::F64(err)));
    }
    let dir = bench_dir().join("records");
    std::fs::create_dir_all(&dir).expect("create records/");
    let path: PathBuf =
        dir.join(format!("{workload}-seed{}-{}.json", args.seed, trace_key(args.traced)));
    let json = serde_json::to_string_pretty(&Value::Map(record)).expect("record serializes");
    std::fs::write(&path, json + "\n").expect("write the run record");
    eprintln!("pipeline: record {}", path.display());
}
