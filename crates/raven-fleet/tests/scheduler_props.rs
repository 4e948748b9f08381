//! Scheduler properties under proptest:
//!
//! * virtual time never goes backwards and frontier ids come out
//!   ascending, for any scheduled set;
//! * the pop sequence is invariant under permuted admission order —
//!   execution order is a pure function of the scheduled set;
//! * lane contention defers but never starves: every monitor session
//!   completes every phase, with its exact assessment budget and the
//!   verdicts of its scalar twin;
//! * mid-run retirement never perturbs siblings: with no contention,
//!   each co-scheduled session's totals equal its scalar twin
//!   (a fresh `DynamicDetector` per phase), regardless of who else is
//!   admitted, retired, or recycled onto neighboring lanes.

use proptest::prelude::*;
use raven_detect::{DetectionThresholds, DetectorConfig, DynamicDetector};
use raven_fleet::{FleetMonitor, MonitorConfig, MonitorSession, SessionTotals, WakeQueue};
use raven_kinematics::NUM_AXES;
use simbus::{SimDuration, SimTime};

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

fn mid_thresholds() -> DetectionThresholds {
    DetectionThresholds {
        motor_accel: [200.0; NUM_AXES],
        motor_vel: [20.0; NUM_AXES],
        joint_vel: [2.0; NUM_AXES],
    }
}

fn monitor_config(width: usize) -> MonitorConfig {
    MonitorConfig { width, detector: DetectorConfig::default(), thresholds: mid_thresholds() }
}

/// The scalar reference for one monitor session: a fresh armed
/// `DynamicDetector` per active phase over the same synthetic
/// trajectory — computed without any fleet machinery.
fn scalar_totals(monitor: &FleetMonitor, session: &MonitorSession) -> SessionTotals {
    let mut expected = SessionTotals::default();
    for _phase in 0..session.phases {
        let mut det = DynamicDetector::new(
            monitor.shared_arm(),
            monitor.session_model(session),
            DetectorConfig::default(),
        );
        det.arm_with(mid_thresholds());
        for cycle in 0..session.active_ms {
            det.sync_measurement(monitor.measurement(session, cycle));
            det.assess(&FleetMonitor::command(session, cycle));
        }
        expected.assessments += det.assessments();
        expected.alarms += det.alarms();
        expected.phases_run += 1;
    }
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn virtual_time_never_goes_backwards(
        wakes in prop::collection::vec((0u64..5_000, 0u64..64), 1..40),
    ) {
        let mut q = WakeQueue::new();
        for &(t_ms, id) in &wakes {
            q.schedule(ms(t_ms), id);
        }
        let mut popped = 0usize;
        let mut last: Option<SimTime> = None;
        while let Some((t, ids)) = q.pop_frontier() {
            if let Some(prev) = last {
                prop_assert!(t > prev, "frontier moved backwards: {t:?} after {prev:?}");
            }
            for w in ids.windows(2) {
                prop_assert!(w[0] <= w[1], "frontier ids not ascending: {ids:?}");
            }
            prop_assert_eq!(q.frontier(), t);
            popped += ids.len();
            last = Some(t);
        }
        prop_assert_eq!(popped, wakes.len());
    }

    #[test]
    fn pop_order_is_invariant_under_permuted_admission(
        wakes in prop::collection::vec((0u64..2_000, 0u64..64), 1..32),
        stride_pick in 0usize..6,
    ) {
        // Admit the same set in two orders: as generated, and walked by
        // a stride coprime to the length (a deterministic permutation
        // family — no RNG involved).
        let n = wakes.len();
        let stride = [1usize, 3, 5, 7, 11, 13][stride_pick];
        let stride = if n % stride == 0 { 1 } else { stride };

        let mut a = WakeQueue::new();
        for &(t_ms, id) in &wakes {
            a.schedule(ms(t_ms), id);
        }
        let mut b = WakeQueue::new();
        for k in 0..n {
            let (t_ms, id) = wakes[(k * stride) % n];
            b.schedule(ms(t_ms), id);
        }

        loop {
            let (fa, fb) = (a.pop_frontier(), b.pop_frontier());
            prop_assert_eq!(&fa, &fb);
            if fa.is_none() {
                break;
            }
        }
    }

    #[test]
    fn contended_monitor_sessions_never_starve(
        sessions in prop::collection::vec(
            (0u64..1_000, 0u64..40, 1u64..20, 0u64..12, 1u32..4),
            1..7,
        ),
        width in 1usize..4,
    ) {
        let specs: Vec<MonitorSession> = sessions
            .iter()
            .map(|&(seed, start_ms, active_ms, idle_ms, phases)| MonitorSession {
                seed,
                start_ms,
                active_ms,
                idle_ms,
                phases,
            })
            .collect();
        let monitor = FleetMonitor::new(monitor_config(width), specs.clone());
        let report = monitor.run();
        for (i, s) in specs.iter().enumerate() {
            let t = &report.totals[i];
            prop_assert!(t.phases_run == s.phases, "session {i} starved");
            prop_assert!(
                t.assessments == s.phases as u64 * s.active_ms,
                "session {i} lost assessments to contention"
            );
            // Deferral shifts a phase in virtual time but never changes
            // its verdicts: each session still matches its scalar twin.
            let expected = scalar_totals(&monitor, s);
            prop_assert!(
                (t.assessments, t.alarms, t.phases_run)
                    == (expected.assessments, expected.alarms, expected.phases_run),
                "contention perturbed session {i}: {t:?} vs {expected:?}"
            );
        }
        prop_assert!(report.peak_active <= width);
    }

    #[test]
    fn retirement_never_perturbs_siblings(
        sessions in prop::collection::vec(
            (0u64..1_000, 0u64..30, 1u64..20, 0u64..10, 0u32..3),
            2..5,
        ),
    ) {
        // Width ≥ session count: no deferrals, so every total must
        // equal the scalar twin exactly — siblings being admitted onto
        // and retired from neighboring lanes at arbitrary interleavings
        // (including pure-idle sessions that never take a lane) is
        // invisible to each session's own arithmetic.
        let specs: Vec<MonitorSession> = sessions
            .iter()
            .map(|&(seed, start_ms, active_ms, idle_ms, phases)| MonitorSession {
                seed,
                start_ms,
                active_ms,
                idle_ms,
                phases,
            })
            .collect();
        let monitor = FleetMonitor::new(monitor_config(specs.len()), specs.clone());
        let report = monitor.run();
        prop_assert!(report.deferrals == 0, "width >= n must never defer");
        for (i, s) in specs.iter().enumerate() {
            let expected = scalar_totals(&monitor, s);
            prop_assert!(report.totals[i] == expected, "sibling perturbed session {i}");
        }
    }
}

/// One fixed contended population: 12 sessions with staggered starts
/// and mixed duty cycles over 3 lanes.
fn contended_population() -> Vec<MonitorSession> {
    (0..12u64)
        .map(|i| MonitorSession {
            seed: 1_000 + i * 37,
            start_ms: (i * 7) % 23,
            active_ms: 5 + (i % 4) * 6,
            idle_ms: (i % 3) * 4,
            phases: 1 + (i % 3) as u32,
        })
        .collect()
}

#[test]
fn contended_schedule_numbers_are_pinned() {
    // The lane schedule is a pure function of the population: these
    // counts pin the wake-queue, free-lane and one-cycle-deferral rules.
    let monitor = FleetMonitor::new(monitor_config(3), contended_population());
    let report = monitor.run();
    assert_eq!(report.cycles, 157);
    assert_eq!(report.peak_active, 3);
    assert_eq!(report.deferrals, 335);
    let per_session: Vec<u64> = report.totals.iter().map(|t| t.deferrals).collect();
    assert_eq!(per_session, [0, 4, 7, 0, 21, 27, 21, 18, 62, 49, 46, 80]);
}
