//! Monitor plane ↔ worker count: the `MonitorReport` of a contended
//! population serializes to the same bytes on 1, 2 or 3 executor
//! workers — the monitor-plane counterpart of `fleet_equiv.rs`.
//!
//! The population spans several assessment chunks, so the workers
//! really split it, and it oversubscribes its lanes, so the schedule
//! pass defers.

use raven_core::ExecutorConfig;
use raven_detect::{DetectionThresholds, DetectorConfig};
use raven_fleet::{FleetMonitor, MonitorConfig, MonitorSession};
use raven_kinematics::NUM_AXES;

const WIDTH: usize = 3;

/// 60 sessions, one in five idle, the rest on staggered mixed duty
/// cycles: ~100 phases over 3 lanes.
fn population() -> Vec<MonitorSession> {
    (0..60u64)
        .map(|i| {
            let seed = 0x5EED ^ i.wrapping_mul(104_729);
            if i % 5 == 4 {
                MonitorSession::idle(seed)
            } else {
                MonitorSession {
                    seed,
                    start_ms: (i * 13) % 97,
                    active_ms: 8 + (i % 6) * 5,
                    idle_ms: (i % 4) * 9,
                    phases: 1 + (i % 3) as u32,
                }
            }
        })
        .collect()
}

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let config = MonitorConfig {
        width: WIDTH,
        detector: DetectorConfig::default(),
        // Tight enough that most phases alarm, so verdicts differ
        // from session to session and a misplaced one would show.
        thresholds: DetectionThresholds {
            motor_accel: [5.0; NUM_AXES],
            motor_vel: [0.5; NUM_AXES],
            joint_vel: [0.05; NUM_AXES],
        },
    };
    let monitor = FleetMonitor::new(config, population());
    let serial = monitor.run_with(&ExecutorConfig::with_workers(1));
    assert!(serial.deferrals > 0, "the population must contend for lanes");
    assert!(
        serial.totals.iter().any(|t| t.alarms > 0),
        "some phase must alarm, or the verdicts are not compared"
    );
    let want = serde_json::to_string(&serial).expect("report serializes");
    for workers in [2usize, 3] {
        let report = monitor.run_with(&ExecutorConfig::with_workers(workers));
        let got = serde_json::to_string(&report).expect("report serializes");
        assert_eq!(got, want, "report on {workers} workers diverged from 1 worker");
    }
}
