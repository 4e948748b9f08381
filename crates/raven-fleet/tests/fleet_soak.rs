//! 10k-session soak: the monitor plane's scaling claim, executed.
//!
//! 10,000 admitted sessions, 90 % of them idle (Pedal-Up) for their
//! whole lifetime, multiplexed over a 64-lane batch detector. Asserts:
//!
//! * the run completes (the wake queue drains — no livelock under
//!   sustained lane contention);
//! * every idle session consumed exactly zero detector assessments
//!   and zero cycles of anyone's time;
//! * every active session got its full assessment budget despite
//!   156:1 session-to-lane oversubscription;
//! * peak RSS stays bounded — the fleet's footprint is the detector
//!   plus per-session descriptors, not 10,000 simulators.
//!
//! `#[ignore]`-gated: ~seconds of detector arithmetic. The monitor runs
//! on the default executor, so CI soaks it under `RAVEN_WORKERS=1` (the
//! inline path) and `RAVEN_WORKERS=2` (the threaded path):
//! `RAVEN_WORKERS=2 cargo test -q --release -p raven-fleet --test fleet_soak -- --ignored`.

use raven_detect::{DetectionThresholds, DetectorConfig};
use raven_fleet::{FleetMonitor, MonitorConfig, MonitorSession};
use raven_kinematics::NUM_AXES;

const SESSIONS: usize = 10_000;
const IDLE_EVERY: usize = 10; // 1 in 10 is active → 90 % idle.
const WIDTH: usize = 64;

/// Peak resident set (VmHWM) in kibibytes, from the kernel's
/// accounting. Linux-only; elsewhere the RSS bound is skipped.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
#[ignore = "10k-session soak; run in the CI bench-smoke job"]
fn ten_thousand_sessions_mostly_idle() {
    let sessions: Vec<MonitorSession> = (0..SESSIONS)
        .map(|i| {
            let seed = 0xF1EE7 ^ (i as u64).wrapping_mul(7919);
            if i % IDLE_EVERY == 0 {
                // The active minority: short staggered duty cycles.
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
        .collect();
    let config = MonitorConfig {
        width: WIDTH,
        detector: DetectorConfig::default(),
        thresholds: DetectionThresholds {
            motor_accel: [200.0; NUM_AXES],
            motor_vel: [20.0; NUM_AXES],
            joint_vel: [2.0; NUM_AXES],
        },
    };

    let monitor = FleetMonitor::new(config, sessions.clone());
    let report = monitor.run();

    assert_eq!(report.totals.len(), SESSIONS);
    let mut active_assessments = 0u64;
    for (i, (s, t)) in sessions.iter().zip(&report.totals).enumerate() {
        if s.phases == 0 {
            assert_eq!(t.assessments, 0, "idle session {i} was assessed");
            assert_eq!(t.phases_run, 0, "idle session {i} ran a phase");
            assert_eq!(t.deferrals, 0, "idle session {i} contended for a lane");
        } else {
            assert_eq!(t.phases_run, s.phases, "active session {i} starved");
            assert_eq!(
                t.assessments,
                s.phases as u64 * s.active_ms,
                "active session {i} short-changed"
            );
            active_assessments += t.assessments;
        }
    }
    // 1 000 active sessions × 2 phases × (20..50) ms each.
    assert!(active_assessments >= 1_000 * 2 * 20, "soak did too little work");
    assert!(report.peak_active <= WIDTH);
    // Idle sessions add zero cycles: total cycles is bounded by the
    // serialized active time (deferral can stretch but never inflate
    // assessments), far below the 10k × horizon a polling loop pays.
    assert!(report.cycles < active_assessments, "idle sessions leaked cycles");

    if let Some(kib) = peak_rss_kib() {
        // 64 detector lanes + 10k session descriptors is a few MiB;
        // 512 MiB flags an accidental per-session simulator (a full
        // rig fleet of this size would be tens of GiB).
        assert!(kib < 512 * 1024, "peak RSS {kib} KiB exceeds the soak bound");
    }
}
