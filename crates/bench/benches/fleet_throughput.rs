//! Fleet throughput: sessions/sec through the `raven-fleet`
//! multiplexers, published as `BENCH_fleet.json` at the workspace root.
//!
//! Two planes:
//!
//! * **monitor plane** — N ∈ {16, 256, 1 000, 10 000} sessions (90 %
//!   idle Pedal-Up, 10 % duty-cycled) multiplexed over a 64-lane
//!   `BatchDetector`. Idle sessions park in the wake queue and consume
//!   zero assessments, so cost tracks the *active* minority — the
//!   event-queue scaling claim, measured;
//! * **rig plane** — 16 fully simulated mixed-scenario sessions
//!   through `run_fleet` (one executor sweep of standalone sessions,
//!   default worker count), for a full-fidelity reference point.
//!
//! ```sh
//! cargo bench -p bench --bench fleet_throughput
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "benches measure wall time by definition; bench JSON is a sidecar artifact, never merged into results byte-identity checks"
)]

use raven_core::ExecutorConfig;
use raven_detect::{DetectionThresholds, DetectorConfig};
use raven_fleet::{
    fleet_thresholds, run_fleet, standard_mix, FleetMonitor, MonitorConfig, MonitorSession,
};
use raven_kinematics::NUM_AXES;
use serde::Serialize;
use std::time::Instant;

const WIDTH: usize = 64;
const IDLE_EVERY: usize = 10; // 1 in 10 active → 90 % idle.

#[derive(Serialize)]
struct MonitorPoint {
    sessions: usize,
    active_sessions: usize,
    width: usize,
    wall_ms: f64,
    sessions_per_sec: f64,
    detector_cycles: u64,
    assessments: u64,
    deferrals: u64,
}

#[derive(Serialize)]
struct RigPoint {
    sessions: usize,
    workers: usize,
    wall_ms: f64,
    sessions_per_sec: f64,
}

#[derive(Serialize)]
struct FleetBench {
    header: bench::BenchHeader,
    repeats: usize,
    idle_fraction: f64,
    monitor: Vec<MonitorPoint>,
    rig: RigPoint,
    note: String,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The soak-test population shape at size `n`: 90 % pure idle, the rest
/// on short staggered duty cycles.
fn population(n: usize) -> Vec<MonitorSession> {
    (0..n)
        .map(|i| {
            let seed = 0xF1EE7 ^ (i as u64).wrapping_mul(7919);
            if i % IDLE_EVERY == 0 {
                MonitorSession {
                    seed,
                    start_ms: (i % 977) as u64,
                    active_ms: 20 + (i % 4) as u64 * 10,
                    idle_ms: 40 + (i % 7) as u64 * 15,
                    phases: 2,
                }
            } else {
                MonitorSession::idle(seed)
            }
        })
        .collect()
}

fn monitor_config() -> MonitorConfig {
    MonitorConfig {
        width: WIDTH,
        detector: DetectorConfig::default(),
        thresholds: DetectionThresholds {
            motor_accel: [200.0; NUM_AXES],
            motor_vel: [20.0; NUM_AXES],
            joint_vel: [2.0; NUM_AXES],
        },
    }
}

fn main() {
    let quick = bench::quick_mode();
    let repeats = if quick { 2 } else { 5 };

    println!("fleet throughput ({} repeats, median):", repeats);
    println!("{:>10} {:>10} {:>12} {:>16}", "sessions", "active", "wall (ms)", "sessions/sec");

    let mut monitor_points = Vec::new();
    for &n in &[16usize, 256, 1_000, 10_000] {
        let sessions = population(n);
        let active = sessions.iter().filter(|s| s.phases > 0).count();
        let mut wall_ms = Vec::new();
        let mut last = None;
        for _ in 0..repeats {
            let mut monitor = FleetMonitor::new(monitor_config(), sessions.clone());
            let t0 = Instant::now();
            let report = monitor.run();
            wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            last = Some(report);
        }
        let report = last.expect("at least one repeat");
        let wall = median(&mut wall_ms);
        let rate = n as f64 / (wall / 1e3);
        println!("{n:>10} {active:>10} {wall:>12.2} {rate:>16.0}");
        monitor_points.push(MonitorPoint {
            sessions: n,
            active_sessions: active,
            width: WIDTH,
            wall_ms: wall,
            sessions_per_sec: rate,
            detector_cycles: report.cycles,
            assessments: report.totals.iter().map(|t| t.assessments).sum(),
            deferrals: report.deferrals,
        });
    }

    // Rig plane: 16 full simulations as one executor sweep. Train the
    // shared thresholds outside the timed region (OnceLock, once per
    // process — a real fleet trains once at deployment, not per run).
    let _ = fleet_thresholds();
    let rig_n = 16usize;
    let specs = standard_mix(rig_n, 9000);
    let exec = ExecutorConfig::default();
    let mut wall_ms = Vec::new();
    for _ in 0..repeats {
        let t0 = Instant::now();
        let artifacts = run_fleet(&specs, &exec);
        wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(artifacts.len(), rig_n, "every rig session must finish");
    }
    let wall = median(&mut wall_ms);
    let rig = RigPoint {
        sessions: rig_n,
        workers: exec.resolved_workers(),
        wall_ms: wall,
        sessions_per_sec: rig_n as f64 / (wall / 1e3),
    };
    println!(
        "rig plane: {} full sessions in {:.1} ms ({:.1} sessions/sec, {} workers)",
        rig_n, rig.wall_ms, rig.sessions_per_sec, rig.workers
    );

    // The scaling gate: 10k mostly-idle sessions must clear at a higher
    // sessions/sec rate than 1k — per-session cost must *fall* as the
    // idle share's zero-cost parking dominates, which only holds if the
    // wake queue really skips them.
    let p1k = monitor_points.iter().find(|p| p.sessions == 1_000).expect("1k point");
    let p10k = monitor_points.iter().find(|p| p.sessions == 10_000).expect("10k point");
    assert!(
        p10k.sessions_per_sec > p1k.sessions_per_sec * 0.8,
        "10k sessions/sec ({:.0}) collapsed vs 1k ({:.0}) — idle sessions are being polled",
        p10k.sessions_per_sec,
        p1k.sessions_per_sec
    );

    let record = FleetBench {
        header: bench::BenchHeader::current(),
        repeats,
        idle_fraction: 1.0 - 1.0 / IDLE_EVERY as f64,
        monitor: monitor_points,
        rig,
        note: "monitor plane: duty-cycled sessions over a 64-lane masked batch detector; \
               idle sessions park in the wake queue (zero assessments). rig plane: full \
               Simulation sessions via run_fleet, one executor sweep of standalone sessions"
            .to_string(),
    };
    // Workspace root ONLY: results/ holds the manifest-pinned deterministic
    // artifacts, and wall-clock timings must never enter that set.
    let root = {
        let mut d = bench::results_dir();
        d.pop();
        d
    };
    let path = root.join("BENCH_fleet.json");
    std::fs::write(&path, serde_json::to_string_pretty(&record).expect("serialize record"))
        .expect("write BENCH_fleet.json");
    println!("[saved {}]", path.display());
}
