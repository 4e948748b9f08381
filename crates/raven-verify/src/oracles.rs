//! Safety-invariant oracles over completed sessions.
//!
//! Each oracle asserts one cross-cutting invariant the paper's defense is
//! supposed to guarantee, judged purely from a [`SessionArtifact`] — the
//! event log, the metrics registry, the signal trace, and the session
//! outcome. The oracles are deliberately *redundant* with the scenario
//! expectations: a seeded detector defect (see `raven_detect::mutants`)
//! must fail at least one of them, which the mutation kill-suite proves.
//!
//! The invariants:
//!
//! * **event-ring-intact** — no events were evicted, so counting oracles
//!   are sound;
//! * **motion-bound** — while mitigation is active the end-effector never
//!   moves more than 1 mm within 1–2 ms (the paper's §IV.C safety rule);
//! * **estop-lookahead** — the E-STOP latches within the one-cycle
//!   lookahead (≤ 2 ms) of the first unsafe (`drop`) verdict;
//! * **verdict-monotonicity** — verdict assessment indices strictly
//!   increase, the first-alarm gauge matches the first verdict, the alarm
//!   counter matches the verdict count, and `model_detected` holds exactly
//!   when verdicts exist;
//! * **verdict-consistency** — every verdict's fields are internally
//!   consistent (some alarm flag set, `ee_alarm ⇔ ee_step_mm > 1`, action
//!   label matches the mitigation policy);
//! * **chaos-attribution** — every applied chaos fault is counted and
//!   logged, never more than were scheduled, and exactly zero when chaos
//!   is off;
//! * **ledger-integrity** — the run's forensic export (see
//!   [`run_ledger`]) verifies as a sealed `raven-ledger` chain, and each
//!   of the four tamper classes (flipped byte, dropped record, reordered
//!   pair, truncated tail) is rejected with the correct first-bad
//!   sequence diagnosis;
//! * **replay-determinism** — two runs of the same spec serialize
//!   byte-identically;
//! * **fleet-isolation** — a session's serialized fleet artifact is
//!   byte-identical to the same spec run standalone: co-scheduling it
//!   with other sessions (including chaos-faulted ones) changes
//!   nothing.

use raven_core::SessionArtifact;
use raven_detect::Mitigation;
use serde::Serialize;
use simbus::obs::{channels, names, Event, EventKind, FieldValue};
use simbus::SimTime;

/// Event kinds the oracles key on, through the registered taxonomy so a
/// rename cannot silently detach an oracle from its events.
const KIND_VERDICT: &str = EventKind::DetectorVerdict.as_str();
const KIND_ESTOP_LATCHED: &str = EventKind::EstopLatched.as_str();
const KIND_CHAOS_INJECTED: &str = EventKind::ChaosInjected.as_str();

/// Settle allowance after mitigation engages before the motion bound is
/// enforced (ms): covers momentum the plant built before the first block.
const SETTLE_MS: u64 = 2;

/// Cooldown span (ms ≈ cycles) block-and-hold keeps substituting after an
/// alarm — mirrors `DetectorConfig::default().hold_cooldown_cycles`.
const HOLD_COOLDOWN_MS: u64 = 50;

/// The paper's hard motion limit (mm per 1–2 ms window).
const MOTION_LIMIT_MM: f64 = 1.0;

/// One oracle's judgment of one run.
#[derive(Debug, Clone, Serialize)]
pub struct OracleVerdict {
    /// Oracle name.
    pub oracle: &'static str,
    /// Did the invariant hold?
    pub passed: bool,
    /// Human-readable evidence (the failure reason, or a short summary).
    pub detail: String,
}

impl OracleVerdict {
    fn pass(oracle: &'static str, detail: impl Into<String>) -> Self {
        OracleVerdict { oracle, passed: true, detail: detail.into() }
    }

    fn fail(oracle: &'static str, detail: impl Into<String>) -> Self {
        OracleVerdict { oracle, passed: false, detail: detail.into() }
    }
}

/// The full oracle suite's judgment of one run.
#[derive(Debug, Clone, Serialize)]
pub struct OracleReport {
    /// Spec name + seed of the judged run.
    pub run: String,
    /// One verdict per oracle, in suite order.
    pub verdicts: Vec<OracleVerdict>,
}

impl OracleReport {
    /// `true` when every oracle passed.
    pub fn passed(&self) -> bool {
        self.verdicts.iter().all(|v| v.passed)
    }

    /// The failing verdicts.
    pub fn failures(&self) -> Vec<&OracleVerdict> {
        self.verdicts.iter().filter(|v| !v.passed).collect()
    }

    /// A one-line-per-failure summary (empty string when passing).
    pub fn failure_summary(&self) -> String {
        self.failures()
            .iter()
            .map(|v| format!("[{}] {}", v.oracle, v.detail))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Per-scenario outcome expectations, judged alongside the invariant
/// oracles (all default to "not required").
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Expectations {
    /// Boot must reach Pedal Up.
    pub must_boot: bool,
    /// The dynamic-model detector must raise at least one alarm.
    pub must_detect: bool,
    /// The detector must raise *no* alarm (clean, chaos-free runs).
    pub no_false_alarms: bool,
    /// The run must not be adverse (>1 mm within 1–2 ms, session-wide).
    pub must_not_be_adverse: bool,
    /// The PLC E-STOP must latch by session end.
    pub must_estop: bool,
    /// The PLC E-STOP must *not* latch (availability-preserving runs).
    pub must_not_estop: bool,
    /// Blocked commands must exceed alarms (the hold cooldown tail).
    pub blocked_exceeds_alarms: bool,
}

/// Events of one kind, oldest first.
fn events_of<'r>(report: &'r SessionArtifact, kind: &str) -> Vec<&'r Event> {
    report.events.iter().filter(|e| e.kind == kind).collect()
}

/// The first event of one kind, if any.
fn first_event<'r>(report: &'r SessionArtifact, kind: &str) -> Option<&'r Event> {
    report.events.iter().find(|e| e.kind == kind)
}

/// Reads an event field as `u64`, if present.
fn field_u64(event: &Event, key: &str) -> Option<u64> {
    match event.field(key)? {
        FieldValue::U64(v) => Some(*v),
        FieldValue::I64(v) => u64::try_from(*v).ok(),
        FieldValue::Bool(_) | FieldValue::F64(_) | FieldValue::Str(_) => None,
    }
}

/// Reads an event field as `f64`, if present.
fn field_f64(event: &Event, key: &str) -> Option<f64> {
    match event.field(key)? {
        FieldValue::F64(v) => Some(*v),
        FieldValue::U64(v) => Some(*v as f64),
        FieldValue::I64(v) => Some(*v as f64),
        FieldValue::Bool(_) | FieldValue::Str(_) => None,
    }
}

/// Reads an event field as `bool`, if present.
fn field_bool(event: &Event, key: &str) -> Option<bool> {
    match event.field(key)? {
        FieldValue::Bool(v) => Some(*v),
        FieldValue::U64(_) | FieldValue::I64(_) | FieldValue::F64(_) | FieldValue::Str(_) => None,
    }
}

/// Reads an event field as a string, if present.
fn field_str<'e>(event: &'e Event, key: &str) -> Option<&'e str> {
    match event.field(key)? {
        FieldValue::Str(v) => Some(v.as_str()),
        FieldValue::Bool(_) | FieldValue::U64(_) | FieldValue::I64(_) | FieldValue::F64(_) => None,
    }
}

/// End-effector positions (mm) per 1 ms sample, from the signal trace.
fn ee_track(report: &SessionArtifact) -> Result<Vec<(SimTime, [f64; 3])>, String> {
    let get = |name: &str| {
        report.signals.get(name).ok_or_else(|| format!("signal {name} missing from trace"))
    };
    let (xs, ys, zs) = (get(channels::EE_X_MM)?, get(channels::EE_Y_MM)?, get(channels::EE_Z_MM)?);
    if xs.len() != ys.len() || xs.len() != zs.len() {
        return Err(format!(
            "ee signal lengths diverge: x={} y={} z={}",
            xs.len(),
            ys.len(),
            zs.len()
        ));
    }
    Ok(xs.iter().zip(ys).zip(zs).map(|((x, y), z)| (x.time, [x.value, y.value, z.value])).collect())
}

fn dist(a: [f64; 3], b: [f64; 3]) -> f64 {
    let d = [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
    (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt()
}

/// Largest displacement (mm) across any `span`-sample window whose *end*
/// sample lies in `[from, until]`.
fn max_step_in(track: &[(SimTime, [f64; 3])], from: SimTime, until: SimTime, span: usize) -> f64 {
    let mut max = 0.0f64;
    for w in track.windows(span + 1) {
        let (t_end, p_end) = w[span];
        if t_end < from || t_end > until {
            continue;
        }
        max = max.max(dist(w[0].1, p_end));
    }
    max
}

/// Oracle: the event ring never overflowed (counting oracles are sound).
fn event_ring_intact(report: &SessionArtifact) -> OracleVerdict {
    const NAME: &str = "event-ring-intact";
    if report.events_dropped == 0 {
        OracleVerdict::pass(NAME, format!("{} events, none dropped", report.events.len()))
    } else {
        OracleVerdict::fail(NAME, format!("{} events evicted from the ring", report.events_dropped))
    }
}

/// Oracle: ≤1 mm end-effector motion within 1–2 ms while mitigation is
/// active.
fn motion_bound(report: &SessionArtifact) -> OracleVerdict {
    const NAME: &str = "motion-bound";
    let window = match report.mitigation {
        None | Some(Mitigation::Observe) => None,
        Some(Mitigation::EStop) => {
            first_event(report, KIND_ESTOP_LATCHED).map(|e| (e.time, SimTime::from_nanos(u64::MAX)))
        }
        Some(Mitigation::BlockAndHold) => {
            let verdicts = events_of(report, KIND_VERDICT);
            match (verdicts.first(), verdicts.last()) {
                (Some(first), Some(last)) => Some((
                    first.time,
                    last.time + simbus::SimDuration::from_millis(HOLD_COOLDOWN_MS),
                )),
                _ => None,
            }
        }
    };
    let Some((engaged, until)) = window else {
        return OracleVerdict::pass(NAME, "mitigation never engaged (vacuous)");
    };
    let track = match ee_track(report) {
        Ok(t) => t,
        Err(e) => return OracleVerdict::fail(NAME, e),
    };
    let from = engaged + simbus::SimDuration::from_millis(SETTLE_MS);
    let step1 = max_step_in(&track, from, until, 1);
    let step2 = max_step_in(&track, from, until, 2);
    if step1 <= MOTION_LIMIT_MM && step2 <= MOTION_LIMIT_MM {
        OracleVerdict::pass(
            NAME,
            format!("max step under mitigation: {step1:.4} mm/1ms, {step2:.4} mm/2ms"),
        )
    } else {
        OracleVerdict::fail(
            NAME,
            format!(
                "end-effector moved {step1:.4} mm/1ms, {step2:.4} mm/2ms while mitigation active \
                 (limit {MOTION_LIMIT_MM} mm)"
            ),
        )
    }
}

/// Oracle: E-STOP latches within the one-cycle lookahead (≤ 2 ms) of the
/// first unsafe verdict.
fn estop_lookahead(report: &SessionArtifact) -> OracleVerdict {
    const NAME: &str = "estop-lookahead";
    if report.mitigation != Some(Mitigation::EStop) {
        return OracleVerdict::pass(NAME, "not in E-STOP mitigation (vacuous)");
    }
    let first_drop = events_of(report, KIND_VERDICT)
        .into_iter()
        .find(|e| field_str(e, "action") == Some("drop"));
    let Some(drop) = first_drop else {
        return OracleVerdict::pass(NAME, "no unsafe verdict raised (vacuous)");
    };
    let Some(latch) = first_event(report, KIND_ESTOP_LATCHED) else {
        return OracleVerdict::fail(
            NAME,
            format!("unsafe verdict at {} but the E-STOP never latched", drop.time),
        );
    };
    let deadline = drop.time + simbus::SimDuration::from_millis(2);
    if latch.time <= deadline {
        OracleVerdict::pass(
            NAME,
            format!("verdict at {}, latch at {} (≤ 2 ms)", drop.time, latch.time),
        )
    } else {
        OracleVerdict::fail(
            NAME,
            format!(
                "first unsafe verdict at {} but E-STOP latched at {} (> 2 ms lookahead)",
                drop.time, latch.time
            ),
        )
    }
}

/// Oracle: verdict bookkeeping is monotone and consistent with the
/// session summary.
fn verdict_monotonicity(report: &SessionArtifact) -> OracleVerdict {
    const NAME: &str = "verdict-monotonicity";
    let verdicts = events_of(report, KIND_VERDICT);
    let mut prev: Option<u64> = None;
    for v in &verdicts {
        let Some(idx) = field_u64(v, "assessment") else {
            return OracleVerdict::fail(NAME, format!("verdict at {} lacks assessment", v.time));
        };
        if let Some(p) = prev {
            if idx <= p {
                return OracleVerdict::fail(
                    NAME,
                    format!("assessment indices not strictly increasing: {p} then {idx}"),
                );
            }
        }
        prev = Some(idx);
    }
    let alarms = report.metrics.counter(names::DETECTOR_ALARMS);
    if alarms != verdicts.len() as u64 {
        return OracleVerdict::fail(
            NAME,
            format!("alarm counter {} != verdict events {}", alarms, verdicts.len()),
        );
    }
    if let Some(first) = verdicts.first() {
        let gauge = report.metrics.gauge(names::DETECTOR_FIRST_ALARM_ASSESSMENT);
        let event_first = field_u64(first, "assessment").unwrap_or(0);
        match gauge {
            None => {
                return OracleVerdict::fail(
                    NAME,
                    "verdicts exist but the first-alarm gauge was never set".to_string(),
                )
            }
            Some(g) if g != event_first as f64 => {
                return OracleVerdict::fail(
                    NAME,
                    format!("first-alarm gauge {g} != first verdict assessment {event_first}"),
                )
            }
            Some(_) => {}
        }
    }
    if report.booted && report.outcome.model_detected == verdicts.is_empty() {
        return OracleVerdict::fail(
            NAME,
            format!(
                "model_detected={} but {} verdict events were emitted",
                report.outcome.model_detected,
                verdicts.len()
            ),
        );
    }
    OracleVerdict::pass(NAME, format!("{} verdicts, consistent bookkeeping", verdicts.len()))
}

/// Oracle: every verdict's fields are internally consistent and its
/// action matches the mitigation policy.
fn verdict_consistency(report: &SessionArtifact) -> OracleVerdict {
    const NAME: &str = "verdict-consistency";
    for v in events_of(report, KIND_VERDICT) {
        let threshold = field_bool(v, "threshold_alarm").unwrap_or(false);
        let ee = field_bool(v, "ee_alarm").unwrap_or(false);
        if !threshold && !ee {
            return OracleVerdict::fail(
                NAME,
                format!("verdict at {} raised with no alarm flag set", v.time),
            );
        }
        if let Some(step_mm) = field_f64(v, "ee_step_mm") {
            // Skip the knife's edge: the limit itself is a float compare.
            if (step_mm - MOTION_LIMIT_MM).abs() > 1e-6 && ee != (step_mm > MOTION_LIMIT_MM) {
                return OracleVerdict::fail(
                    NAME,
                    format!(
                        "verdict at {}: ee_alarm={} inconsistent with ee_step {:.4} mm \
                         (limit {MOTION_LIMIT_MM} mm)",
                        v.time, ee, step_mm
                    ),
                );
            }
        }
        let action = field_str(v, "action").unwrap_or("");
        let ok = match report.mitigation {
            Some(Mitigation::EStop) => action == "drop",
            Some(Mitigation::Observe) => action == "observe",
            Some(Mitigation::BlockAndHold) => action == "hold" || action == "drop",
            None => false,
        };
        if !ok {
            return OracleVerdict::fail(
                NAME,
                format!(
                    "verdict at {}: action '{}' inconsistent with {:?} mitigation",
                    v.time, action, report.mitigation
                ),
            );
        }
    }
    OracleVerdict::pass(NAME, "all verdict fields consistent")
}

/// Oracle: chaos faults are fully attributed — counted, logged, bounded
/// by the schedule, and absent when chaos is off.
fn chaos_attribution(report: &SessionArtifact) -> OracleVerdict {
    const NAME: &str = "chaos-attribution";
    let counter = report.metrics.counter(names::CHAOS_INJECTIONS);
    let events = events_of(report, KIND_CHAOS_INJECTED).len() as u64;
    if report.chaos_scheduled == 0 {
        return if counter == 0 && events == 0 {
            OracleVerdict::pass(NAME, "chaos off: zero injections, zero events")
        } else {
            OracleVerdict::fail(NAME, format!("chaos off but counter={counter}, events={events}"))
        };
    }
    if counter != events {
        return OracleVerdict::fail(
            NAME,
            format!("chaos counter {counter} != chaos.injected events {events}"),
        );
    }
    if counter > report.chaos_scheduled as u64 {
        return OracleVerdict::fail(
            NAME,
            format!("applied {counter} faults but only {} were scheduled", report.chaos_scheduled),
        );
    }
    OracleVerdict::pass(
        NAME,
        format!("{counter} of {} scheduled faults applied and attributed", report.chaos_scheduled),
    )
}

/// Builds the forensic export of a completed run: one chained record
/// per event in the ring, a closing `run.outcome` record, and a seal.
///
/// This is the in-memory analogue of the `IncidentSink` ledger the CLI
/// writes — the oracle suite uses it to prove, for every chaos run,
/// that the honest export verifies and that tampering is detected.
pub fn run_ledger(report: &SessionArtifact) -> raven_ledger::Ledger {
    let mut ledger = raven_ledger::Ledger::new();
    for event in &report.events {
        let payload = serde_json::to_string(event).expect("event serializes");
        ledger.append(event.time.as_nanos(), &event.kind, &payload);
    }
    let outcome = serde_json::to_string(&report.outcome).expect("outcome serializes");
    let end = ledger.head_time_ns();
    ledger.append(end, "run.outcome", &outcome);
    ledger.seal(end);
    ledger
}

/// Oracle: the run's forensic export is a valid sealed chain, and every
/// tamper class is rejected with the correct first-bad-seq diagnosis.
fn ledger_integrity(report: &SessionArtifact) -> OracleVerdict {
    const NAME: &str = "ledger-integrity";
    use raven_ledger::{verify_sealed, LedgerRecord, TamperKind};

    let ledger = run_ledger(report);
    let text = ledger.to_jsonl();
    if let Err(e) = verify_sealed(&text) {
        return OracleVerdict::fail(NAME, format!("honest export rejected: {e}"));
    }

    let lines: Vec<&str> = text.lines().collect();
    let total = lines.len() as u64; // content records + seal
    let content = total - 1;
    let mid = content / 2;

    // Flipped byte: payload of the middle record changes, stored hash
    // kept — must be a hash mismatch at exactly that seq.
    let mut rec: LedgerRecord = serde_json::from_str(lines[mid as usize]).expect("line parses");
    rec.payload.push(' ');
    let mut flipped: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    flipped[mid as usize] = rec.to_line();
    match verify_sealed(&format!("{}\n", flipped.join("\n"))) {
        Err(e) if e.kind == TamperKind::HashMismatch && e.first_bad_seq == mid => {}
        other => {
            return OracleVerdict::fail(
                NAME,
                format!("flipped byte at seq {mid} misdiagnosed: {other:?}"),
            )
        }
    }

    // Dropped record: the middle record disappears — must name it.
    let dropped: Vec<&str> =
        lines.iter().enumerate().filter(|(i, _)| *i as u64 != mid).map(|(_, l)| *l).collect();
    match verify_sealed(&format!("{}\n", dropped.join("\n"))) {
        Err(e) if e.kind == TamperKind::MissingRecord && e.first_bad_seq == mid => {}
        other => {
            return OracleVerdict::fail(
                NAME,
                format!("dropped record at seq {mid} misdiagnosed: {other:?}"),
            )
        }
    }

    // Reordered pair: the first two records swap — must flag the
    // earlier seq.
    let mut swapped: Vec<&str> = lines.clone();
    swapped.swap(0, 1);
    match verify_sealed(&format!("{}\n", swapped.join("\n"))) {
        Err(e) if e.kind == TamperKind::OutOfOrder && e.first_bad_seq == 0 => {}
        other => {
            return OracleVerdict::fail(NAME, format!("reordered pair misdiagnosed: {other:?}"))
        }
    }

    // Truncated tail: the seal is cut — must report truncation at the
    // first missing seq.
    let truncated: String = lines[..lines.len() - 1].iter().map(|l| format!("{l}\n")).collect();
    match verify_sealed(&truncated) {
        Err(e) if e.kind == TamperKind::Truncated && e.first_bad_seq == content => {}
        other => {
            return OracleVerdict::fail(NAME, format!("truncated tail misdiagnosed: {other:?}"))
        }
    }

    OracleVerdict::pass(
        NAME,
        format!("{content} records + seal verify; all four tamper classes diagnosed"),
    )
}

/// Oracle: per-scenario outcome expectations.
fn expectations_hold(report: &SessionArtifact, exp: &Expectations) -> OracleVerdict {
    const NAME: &str = "expectations";
    let mut failures = Vec::new();
    if exp.must_boot && !report.booted {
        failures.push("run failed to boot".to_string());
    }
    if exp.must_detect && !report.outcome.model_detected {
        failures.push("detector raised no alarm".to_string());
    }
    if exp.no_false_alarms {
        let alarms = report.metrics.counter(names::DETECTOR_ALARMS);
        if alarms > 0 || report.outcome.model_detected {
            failures.push(format!("{alarms} false alarm(s) on a clean run"));
        }
    }
    if exp.must_not_be_adverse && report.outcome.adverse {
        failures.push(format!(
            "adverse outcome: {:.4} mm within 1 ms",
            report.outcome.max_ee_step_1ms * 1e3
        ));
    }
    if exp.must_estop && report.outcome.estop.is_none() {
        failures.push("E-STOP never latched".to_string());
    }
    if exp.must_not_estop {
        if let Some(cause) = &report.outcome.estop {
            failures.push(format!("unexpected E-STOP ({cause})"));
        }
    }
    if exp.blocked_exceeds_alarms {
        let blocked = report.metrics.counter(names::DETECTOR_BLOCKED_COMMANDS);
        let alarms = report.metrics.counter(names::DETECTOR_ALARMS);
        if blocked <= alarms {
            failures.push(format!(
                "expected cooldown tail: blocked {blocked} must exceed alarms {alarms}"
            ));
        }
    }
    if failures.is_empty() {
        OracleVerdict::pass(NAME, "all scenario expectations hold")
    } else {
        OracleVerdict::fail(NAME, failures.join("; "))
    }
}

/// Oracle: two runs of the same spec serialize byte-identically.
pub fn replay_determinism(a: &SessionArtifact, b: &SessionArtifact) -> OracleVerdict {
    const NAME: &str = "replay-determinism";
    let (ja, jb) = (a.to_json(), b.to_json());
    if ja == jb {
        OracleVerdict::pass(NAME, format!("{} bytes, identical", ja.len()))
    } else {
        let at = ja
            .bytes()
            .zip(jb.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| ja.len().min(jb.len()));
        OracleVerdict::fail(
            NAME,
            format!("replays diverge at byte {at} ({} vs {} bytes)", ja.len(), jb.len()),
        )
    }
}

/// **fleet-isolation**: a session's artifact from a fleet run must be
/// byte-identical to the standalone run of the same spec — sharing the
/// scheduler with arbitrary neighbors (attacked, chaos-faulted, or
/// clean) is invisible to it. Judged on the serialized artifacts so the
/// comparison covers the verdict sequence, alarm/E-STOP timing, event
/// log, metrics, and incident report at once; reports the first
/// divergent byte like [`replay_determinism`].
pub fn fleet_isolation(standalone_json: &str, fleet_json: &str) -> OracleVerdict {
    const NAME: &str = "fleet-isolation";
    if standalone_json == fleet_json {
        OracleVerdict::pass(NAME, format!("{} bytes, identical", standalone_json.len()))
    } else {
        let at = standalone_json
            .bytes()
            .zip(fleet_json.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| standalone_json.len().min(fleet_json.len()));
        OracleVerdict::fail(
            NAME,
            format!(
                "fleet artifact diverges from standalone at byte {at} ({} vs {} bytes)",
                standalone_json.len(),
                fleet_json.len()
            ),
        )
    }
}

/// Runs the full oracle suite over one report.
pub fn run_oracles(report: &SessionArtifact, exp: &Expectations) -> OracleReport {
    OracleReport {
        run: format!("{}-seed{}", report.name, report.seed),
        verdicts: vec![
            event_ring_intact(report),
            motion_bound(report),
            estop_lookahead(report),
            verdict_monotonicity(report),
            verdict_consistency(report),
            chaos_attribution(report),
            ledger_integrity(report),
            expectations_hold(report, exp),
        ],
    }
}
