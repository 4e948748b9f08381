//! One seeded violation per rule, for the exit-code end-to-end test.

pub fn r4(s: RobotState) -> bool {
    match s {
        RobotState::EStop => true,
        _ => false, // R4
    }
}

pub fn r5(m: &mut Metrics) {
    m.inc("detector.alarms"); // R5: registered metric as a raw literal
}

pub fn r5_channel(t: &mut Trace) {
    t.record("ee_x_mm", 0, 0.0); // R5: registered channel as a raw literal
}

pub fn r5_ok(m: &mut Metrics) {
    m.inc("unregistered.metric"); // not a registered name: no finding
}

pub fn r7(err: f64) -> bool {
    err == 0.0 // R7: exact float equality in a merged-artifact crate
}
