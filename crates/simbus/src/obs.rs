//! Observability: structured events, metrics, and the sidecar timing schema.
//!
//! The paper's argument hinges on *when* things happen inside one 1 ms
//! control cycle — the TOCTOU gap between the software safety checks and the
//! `write` to the USB board (§III.B), and the detector acting one control
//! step ahead of the command it assesses (§IV, Fig. 7). Scalar traces
//! ([`crate::trace::TraceRecorder`]) show *what* the signals did; this module
//! records *why*: a causal, structured record of state transitions,
//! injections, detector verdicts, and E-stops.
//!
//! Two instruments, both deterministic:
//!
//! * [`EventLog`] — a bounded ring of structured [`Event`]s stamped with
//!   **virtual** time only. Serialized event logs are part of a run's
//!   deterministic artifact: identical seeds produce byte-identical logs.
//! * [`Metrics`] — a registry of named counters, gauges, and fixed-bucket
//!   [`Histogram`]s. Also purely virtual-time/count-based, so sweep-level
//!   merges (in run order) are bit-identical for any worker count.
//!
//! Wall-clock timing lives in [`crate::span`]; this module only defines
//! the [`StageStats`] row its profiles are written in. Wall time is
//! nondeterministic, so those rows never enter an [`EventLog`] or
//! [`Metrics`].
//!
//! The [`log`] submodule is the human-facing side: a leveled stderr filter
//! controlled by the `RAVEN_LOG` environment variable (silent below `warn`
//! by default, so `cargo test` stays quiet).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// How loud an event is; also the unit of the `RAVEN_LOG` filter.
///
/// Ordered: `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// High-volume diagnostics (per-cycle detail).
    Debug,
    /// Normal lifecycle (state transitions, progress).
    Info,
    /// Suspicious but non-fatal (injections observed, alarms raised).
    Warn,
    /// Safety-relevant failures (faults latched, E-stops).
    Error,
}

impl Severity {
    fn rank(self) -> u8 {
        match self {
            Severity::Debug => 0,
            Severity::Info => 1,
            Severity::Warn => 2,
            Severity::Error => 3,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        };
        f.write_str(s)
    }
}

/// A typed event field value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer (counts, sequence numbers).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (positions, thresholds). Must be finite: the JSON
    /// stub serializes non-finite floats as `null`, which would break the
    /// round-trip.
    F64(f64),
    /// Free-form text (names, causes).
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => f.write_str(v),
        }
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(if v.is_finite() { v } else { 0.0 })
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// The closed set of event kinds the workspace may emit.
///
/// This enum — together with [`names`] — is the observability registry:
/// `tests/registry_docs.rs` checks [`EventKind::ALL`]'s names against the
/// kind tables in `docs/OBSERVABILITY.md`, both directions, so the
/// taxonomy cannot drift from its documentation. Emit sites must go
/// through these variants rather than raw string literals (checked by the
/// tier-1 `tests/lint_audit.rs`): a rename then touches exactly one
/// `match` arm and one doc row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventKind {
    /// `install_attack` armed a malicious interceptor on a channel.
    AttackInstalled,
    /// The software state machine changed state.
    StateTransition,
    /// The fault latch engaged with a new reason.
    ControlFault,
    /// Malware mutated packets this cycle (USB wrapper or ITP MITM).
    AttackInjection,
    /// The armed guard raised an alarm on a Pedal-Down command.
    DetectorVerdict,
    /// The PLC E-STOP latch engaged.
    EstopLatched,
    /// The start button released the E-STOP latch.
    EstopCleared,
    /// A scheduled chaos fault was applied (link or hardware level).
    ChaosInjected,
    /// An incident report was appended to the tamper-evident ledger
    /// (emitted by the forensics sink, never by the simulation itself).
    LedgerAppended,
}

impl EventKind {
    /// Every kind, for exhaustive iteration in tests and tooling.
    pub const ALL: [EventKind; 9] = [
        EventKind::AttackInstalled,
        EventKind::StateTransition,
        EventKind::ControlFault,
        EventKind::AttackInjection,
        EventKind::DetectorVerdict,
        EventKind::EstopLatched,
        EventKind::EstopCleared,
        EventKind::ChaosInjected,
        EventKind::LedgerAppended,
    ];

    /// The stable dotted identifier serialized into event logs.
    pub const fn as_str(self) -> &'static str {
        match self {
            EventKind::AttackInstalled => "attack.installed",
            EventKind::StateTransition => "state.transition",
            EventKind::ControlFault => "control.fault",
            EventKind::AttackInjection => "attack.injection",
            EventKind::DetectorVerdict => "detector.verdict",
            EventKind::EstopLatched => "estop.latched",
            EventKind::EstopCleared => "estop.cleared",
            EventKind::ChaosInjected => "chaos.injected",
            EventKind::LedgerAppended => "ledger.appended",
        }
    }
}

impl From<EventKind> for String {
    fn from(k: EventKind) -> Self {
        k.as_str().to_string()
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Declares a registry's constants and the array that lists them from one
/// list, so no constant can exist outside its array (the registry tests
/// read the arrays). Each entry keeps its doc comment;
/// the array lists the constants in declaration order.
macro_rules! registry {
    (
        $(#[$array_doc:meta])*
        $array:ident: $ty:ty {
            $($(#[$doc:meta])* $name:ident = $value:expr,)*
        }
    ) => {
        $($(#[$doc])* pub const $name: $ty = $value;)*

        $(#[$array_doc])*
        pub const $array: [$ty; [$(stringify!($name)),*].len()] = [$($name),*];
    };
}

/// The metric-name registry: every counter/gauge/histogram name the
/// workspace emits, as constants.
///
/// Like [`EventKind`], [`names::ALL`] and [`names::FAMILIES`] are checked
/// against `docs/OBSERVABILITY.md` by `tests/registry_docs.rs`, and read
/// by `tests/lint_audit.rs` to reject raw literals. `*_PREFIX` constants
/// declare metric *families* — names completed with a slug at runtime
/// (e.g. `fault.count.dac_limit`); use [`fault_count`]/[`estop_count`]
/// to build them.
///
/// [`fault_count`]: names::fault_count
/// [`estop_count`]: names::estop_count
pub mod names {
    registry! {
        /// Every exact (non-family) metric name.
        ALL: &str {
            /// Armed per-packet assessments performed by the guard (counter).
            DETECTOR_ASSESSMENTS = "detector.assessments",
            /// Alarm edges raised by the guard (counter).
            DETECTOR_ALARMS = "detector.alarms",
            /// Commands dropped or substituted by the mitigation policy (counter).
            DETECTOR_BLOCKED_COMMANDS = "detector.blocked_commands",
            /// Assessment index of the first alarm (gauge).
            DETECTOR_FIRST_ALARM_ASSESSMENT = "detector.first_alarm_assessment",
            /// Armed assessments between injection onset and first alarm
            /// (histogram).
            DETECTOR_DETECTION_LATENCY_CYCLES = "detector.detection_latency_cycles",
            /// Packets actually mutated — USB wrapper + ITP MITM (counter).
            ATTACK_INJECTIONS = "attack.injections",
            /// ITP link losses (counter).
            NET_PACKETS_DROPPED = "net.packets_dropped",
            /// Software state-machine transitions (counter).
            CONTROL_TRANSITIONS = "control.transitions",
            /// Chaos faults applied by the schedule (counter).
            CHAOS_INJECTIONS = "chaos.injections",
            /// Incident records appended to the tamper-evident ledger (counter,
            /// kept in the forensics sink's registry — never the simulation's,
            /// so deterministic artifacts stay byte-identical).
            LEDGER_RECORDS = "ledger.records",
        }
    }

    registry! {
        /// Every family prefix.
        FAMILIES: &str {
            /// Family: fault latches by `FaultReason` slug.
            FAULT_COUNT_PREFIX = "fault.count.",
            /// Family: PLC E-STOP latches by `EStopCause` slug.
            ESTOP_COUNT_PREFIX = "estop.count.",
        }
    }

    /// `fault.count.<slug>` for a `FaultReason` slug.
    pub fn fault_count(slug: &str) -> String {
        format!("{FAULT_COUNT_PREFIX}{slug}")
    }

    /// `estop.count.<slug>` for an `EStopCause` slug.
    pub fn estop_count(slug: &str) -> String {
        format!("{ESTOP_COUNT_PREFIX}{slug}")
    }
}

/// The span-name registry: every hierarchical tracing span the workspace
/// may open, as constants.
///
/// Span names key the [`crate::span::SpanRecorder`] tree and the Chrome
/// Trace / profile exports built from it. Like [`names`] and
/// [`channels`], this module's `ALL` is checked against the span table
/// in `docs/OBSERVABILITY.md` by `tests/registry_docs.rs`;
/// production begin sites must go through these constants, never raw
/// string literals.
pub mod spans {
    registry! {
        /// Every registered span name.
        ALL: &str {
            /// One full `Simulation::step` control cycle.
            CYCLE = "span.cycle",
            /// Pipeline stage: console emit + ITP encode + MITM + send.
            STAGE_CONSOLE = "span.stage.console",
            /// Pipeline stage: ITP link poll + decode.
            STAGE_LINK = "span.stage.link",
            /// Pipeline stage: feedback read + detector measurement sync.
            STAGE_FEEDBACK = "span.stage.feedback",
            /// Pipeline stage: controller cycle + telemetry.
            STAGE_CONTROLLER = "span.stage.controller",
            /// Pipeline stage: interceptor-chain command delivery.
            STAGE_INTERCEPTORS = "span.stage.interceptors",
            /// Pipeline stage: guard-driven E-STOP check.
            STAGE_DETECTOR = "span.stage.detector",
            /// Pipeline stage: plant step + trace recording.
            STAGE_PLANT = "span.stage.plant",
            /// ITP packet encode (console side).
            TELEOP_ENCODE = "span.teleop.encode",
            /// ITP packet decode (control side).
            TELEOP_DECODE = "span.teleop.decode",
            /// One armed (or learning) detector assessment.
            DETECTOR_VERDICT = "span.detector.verdict",
            /// Open from the first alarm edge until the session ends (the window
            /// in which the mitigation policy is active).
            MITIGATION_WINDOW = "span.mitigation.window",
            /// Flight-recorder incident capture (event ring + trace window).
            FLIGHT_RECORDER_CAPTURE = "span.flight_recorder.capture",
            /// Boot sequence: idle cycles, start press, homing to Pedal Up.
            SESSION_BOOT = "span.session.boot",
            /// The teleoperation session proper (Pedal-Down cycles).
            SESSION_RUN = "span.session.run",
            /// USB board + PLC + plant hardware cycle inside the plant stage.
            HW_BOARD_CYCLE = "span.hw.board_cycle",
            /// Executor: one whole sweep on the campaign executor.
            EXEC_SWEEP = "span.exec.sweep",
            /// Executor: a run waiting for a worker slot.
            EXEC_QUEUED = "span.exec.queued",
            /// Executor: a run executing on its worker.
            EXEC_RUN = "span.exec.run",
            /// Executor: the run-order merge of worker results.
            EXEC_MERGE = "span.exec.merge",
            /// Fleet: one monitor-plane run (the pipeline bench's span around
            /// `FleetMonitor::run`).
            FLEET_ROUND = "span.fleet.round",
        }
    }
}

/// The flight-recorder channel registry: every trace-signal name the
/// simulation records, as constants.
///
/// Channel names key the `signals` map of an incident report and the
/// in-memory trace buffer. Like [`names`], this module's `ALL` is checked
/// by `tests/registry_docs.rs` against the channel table in
/// `docs/OBSERVABILITY.md`; production record/read sites must go through
/// these constants, never raw string literals.
pub mod channels {
    registry! {
        /// Every registered channel name.
        ALL: &str {
            /// End-effector X position (millimetres).
            EE_X_MM = "ee_x_mm",
            /// End-effector Y position (millimetres).
            EE_Y_MM = "ee_y_mm",
            /// End-effector Z position (millimetres).
            EE_Z_MM = "ee_z_mm",
            /// Joint 1 (shoulder) position (radians).
            JPOS1 = "jpos1",
            /// Joint 2 (elbow) position (radians).
            JPOS2 = "jpos2",
            /// Joint 3 (insertion) position (metres).
            JPOS3 = "jpos3",
        }
    }
}

/// The RNG-stream registry: every label passed to
/// [`crate::rng::derive_seed`] / [`crate::rng::stream_rng`].
///
/// Stream labels are part of the determinism contract: two call sites
/// using the same label draw *identical* sequences, so an accidental
/// collision silently correlates components that the reproduction treats
/// as independent. The seed functions take a [`streams::Stream`], which
/// only this module can construct: an exact label is a `Stream` constant,
/// and a [`streams::Family`] yields the stream of one instance
/// (`fig6-<run>`, `t4-run-<scenario>-<i>`, …) for a given suffix. A raw
/// string label does not compile. `tests/registry_docs.rs` checks
/// [`streams::ALL`] and [`streams::FAMILIES`] against the stream table in
/// `docs/OBSERVABILITY.md`, both directions, and that no label or prefix
/// is registered twice.
pub mod streams {
    use std::fmt;

    /// A registered RNG stream: a registered prefix (an exact label, or a
    /// [`Family`]'s prefix) followed by a suffix (empty for an exact
    /// label). Its label is the two concatenated.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Stream<'a> {
        prefix: &'static str,
        suffix: &'a str,
    }

    impl<'a> Stream<'a> {
        /// The label as (registered prefix, suffix); the seed hash reads
        /// the prefix's bytes and then the suffix's.
        pub(crate) fn parts(self) -> (&'static str, &'a str) {
            (self.prefix, self.suffix)
        }
    }

    impl fmt::Display for Stream<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(self.prefix)?;
            f.write_str(self.suffix)
        }
    }

    /// A registered family of per-instance streams sharing one prefix.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Family {
        prefix: &'static str,
    }

    impl Family {
        /// The stream of one instance: `<prefix><suffix>`.
        pub fn at(self, suffix: &str) -> Stream<'_> {
            Stream { prefix: self.prefix, suffix }
        }

        /// The family's registered prefix.
        pub const fn prefix(self) -> &'static str {
            self.prefix
        }
    }

    const fn exact(label: &'static str) -> Stream<'static> {
        Stream { prefix: label, suffix: "" }
    }

    const fn family(prefix: &'static str) -> Family {
        Family { prefix }
    }

    registry! {
        /// Every registered exact stream (families excluded).
        ALL: Stream<'static> {
            /// Operator-hand tremor noise on the console trajectory.
            TREMOR = exact("tremor"),
            /// The ITP network link fault model (loss/delay/jitter draws).
            SIMLINK = exact("simlink"),
            /// The dedicated green-arm link in the dual-arm configuration.
            GREEN_ARM = exact("green-arm"),
            /// Workload selection and surgeme phase offsets.
            WORKLOAD = exact("workload"),
            /// Key material for the bump-in-the-wire packet MAC.
            BITW_KEY = exact("bitw-key"),
            /// Plant-model parameter perturbation (model-mismatch studies).
            MODEL = exact("model"),
            /// The in-band teleoperation link instance owned by the simulation.
            ITP_LINK = exact("itp-link"),
            /// Root of the chaos schedule (per-class streams derive from it).
            CHAOS_ROOT = exact("chaos"),
            /// Chaos class: ITP packet reordering.
            CHAOS_REORDER = exact("chaos.reorder"),
            /// Chaos class: ITP packet duplication.
            CHAOS_DUPLICATE = exact("chaos.duplicate"),
            /// Chaos class: ITP packet corruption.
            CHAOS_CORRUPT = exact("chaos.corrupt"),
            /// Chaos class: bursty packet loss.
            CHAOS_BURST_LOSS = exact("chaos.burst_loss"),
            /// Chaos class: encoder stuck-at fault.
            CHAOS_STUCK_ENCODER = exact("chaos.stuck_encoder"),
            /// Chaos class: encoder single-bit flip.
            CHAOS_ENCODER_BITFLIP = exact("chaos.encoder_bitflip"),
            /// Chaos class: dropped USB frames.
            CHAOS_USB_FRAME_DROP = exact("chaos.usb_frame_drop"),
            /// Chaos class: USB board silence window.
            CHAOS_BOARD_SILENCE = exact("chaos.board_silence"),
            /// Plant perturbation inside the Fig. 8 robustness sweep.
            FIG8_MODEL = exact("fig8-model"),
            /// Network study: ideal link.
            NET_IDEAL = exact("ideal"),
            /// Network study: LAN link.
            NET_LAN = exact("lan"),
            /// Network study: LAN link with 10% packet loss.
            NET_LOSS_10 = exact("loss-10%"),
            /// Network study: LAN link with 50% packet loss.
            NET_LOSS_50 = exact("loss-50%"),
            /// Network study: 100 ms one-way delay.
            NET_DELAY_100MS = exact("delay-100ms"),
            /// Network study: LAN link plus the host-level scenario-B injection.
            NET_HOST_INJECTION = exact("host-injection"),
            /// Hardened-board ablation: the scenario-B session.
            HARDENED_B = exact("hardened-b"),
            /// Hardened-board ablation: the scenario-A session.
            HARDENED_A = exact("hardened-a"),
        }
    }

    registry! {
        /// Every registered family.
        FAMILIES: Family {
            /// Family: per-run seeds of the detector training sweep.
            TRAIN = family("train-"),
            /// Family: Table I scenario runs (`table1-<id>`).
            TABLE1 = family("table1-"),
            /// Family: Table IV scenario draws (`t4-<scenario>-<run>`).
            T4_PICK = family("t4-"),
            /// Family: Table IV run seeds (`t4-run-<scenario>-<i>`).
            T4_RUN = family("t4-run-"),
            /// Family: Fig. 6 ROC repetition seeds (`fig6-<run>`).
            FIG6 = family("fig6-"),
            /// Family: Fig. 8 robustness repetition seeds (`fig8-<run>`).
            FIG8 = family("fig8-"),
            /// Family: Fig. 9 injection-sweep seeds (`fig9-<value>-<ms>-<rep>`).
            FIG9 = family("fig9-"),
            /// Family: chaos-study repetition seeds (`chaos-study.<label>.<i>`).
            CHAOS_STUDY = family("chaos-study."),
            /// Family: fusion-rule ablation seeds (`fusion-<label>-<i>`).
            FUSION = family("fusion-"),
            /// Family: mitigation-policy ablation seeds (`mitigation-<i>`).
            MITIGATION = family("mitigation-"),
            /// Family: detector look-ahead ablation seeds (`lookahead-<i>`).
            LOOKAHEAD = family("lookahead-"),
            /// Family: hardened-board reconnaissance seeds (`bitw-recon-<label>`).
            BITW_RECON = family("bitw-recon-"),
            /// Family: hardened-board attack seeds (`bitw-attack-<label>`).
            BITW_ATTACK = family("bitw-attack-"),
        }
    }
}

/// One structured event: something that happened at a virtual instant.
///
/// `kind` is a stable dotted identifier (`state.transition`,
/// `attack.injection`, `detector.verdict`, `estop.latched`, …); see
/// `docs/OBSERVABILITY.md` for the full taxonomy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Virtual timestamp (never wall clock).
    pub time: SimTime,
    /// Emitting component (`control`, `detector`, `hw`, `attack`, `net`, …).
    pub component: String,
    /// Severity, also used by the `RAVEN_LOG` stream filter.
    pub severity: Severity,
    /// Stable dotted event identifier.
    pub kind: String,
    /// Ordered key/value payload (insertion order is part of the artifact).
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Creates an event with no fields.
    pub fn new(
        time: SimTime,
        component: impl Into<String>,
        severity: Severity,
        kind: impl Into<String>,
    ) -> Self {
        Self { time, component: component.into(), severity, kind: kind.into(), fields: Vec::new() }
    }

    /// Appends a field (builder style).
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.time, self.kind)?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// Bounded ring of [`Event`]s: the black-box recorder's memory.
///
/// When full, the oldest event is evicted and counted in [`dropped`].
/// Everything in here is derived from virtual time and deterministic state,
/// so serializing the log is reproducible bit-for-bit given the same seed.
///
/// [`dropped`]: EventLog::dropped
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl EventLog {
    /// Default ring capacity used by the simulation.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates an empty ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), events: VecDeque::new(), dropped: 0 }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// The most recent event, if any.
    pub fn last(&self) -> Option<&Event> {
        self.events.back()
    }

    /// Counts retained events of one kind.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Clones the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.iter().cloned().collect()
    }

    /// Drops all retained events (capacity and drop count are kept).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

/// Default histogram buckets: upper bounds in the unit of the observed
/// value (cycles for detection latency, packets for bursts, …).
pub const DEFAULT_BUCKETS: [f64; 10] =
    [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0];

/// Fixed-bucket histogram with count/sum/min/max.
///
/// `counts[i]` holds observations `v <= bounds[i]` (and `> bounds[i-1]`);
/// `counts[bounds.len()]` is the overflow bucket. Bounds are fixed at
/// creation so sweep-level merges are well-defined.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Inclusive upper bucket bounds, strictly increasing.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one extra trailing overflow bucket.
    pub counts: Vec<u64>,
    /// Total finite observations.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Non-finite observations, excluded from every other field.
    pub nonfinite: u64,
}

impl Histogram {
    /// Creates an empty histogram over the given bucket bounds.
    pub fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            nonfinite: 0,
        }
    }

    /// Records one observation. Non-finite values are tallied separately
    /// (they would serialize as JSON `null` and break round-trips).
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            self.nonfinite += 1;
            return;
        }
        let bucket = self.bounds.iter().position(|b| v <= *b).unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Mean of the finite observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merges another histogram with identical bounds into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram merge requires identical bounds");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.nonfinite += other.nonfinite;
    }
}

/// Registry of named counters, gauges, and histograms.
///
/// Names are stable dotted identifiers (`detector.assessments`,
/// `net.packets_dropped`, `estop.count.watchdog_timeout`, …); the full list
/// lives in `docs/OBSERVABILITY.md`. `BTreeMap` storage keeps serialization
/// order independent of insertion order. A write allocates a key only the
/// first time it meets a name, so steady-state writes do not allocate.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins values.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket distributions.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments a counter by 1.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increments a counter by `n`.
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(count) = self.counters.get_mut(name) {
            *count += n;
        } else {
            insert_new(&mut self.counters, name, n);
        }
    }

    /// Current counter value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge. Non-finite values are clamped to 0 (JSON-safety).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        let v = if v.is_finite() { v } else { 0.0 };
        if let Some(gauge) = self.gauges.get_mut(name) {
            *gauge = v;
        } else {
            insert_new(&mut self.gauges, name, v);
        }
    }

    /// Current gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records an observation into a histogram with [`DEFAULT_BUCKETS`].
    pub fn observe(&mut self, name: &str, v: f64) {
        self.observe_with(name, &DEFAULT_BUCKETS, v);
    }

    /// Records an observation into a histogram, creating it with the given
    /// bounds on first use (later observations reuse the existing bounds).
    pub fn observe_with(&mut self, name: &str, bounds: &[f64], v: f64) {
        if let Some(histogram) = self.histograms.get_mut(name) {
            histogram.observe(v);
        } else {
            let mut histogram = Histogram::new(bounds);
            histogram.observe(v);
            insert_new(&mut self.histograms, name, histogram);
        }
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges another registry into this one: counters add, gauges
    /// last-write-wins (other overwrites), histograms merge per name.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Renders the registry as an OpenMetrics/Prometheus text snapshot.
    ///
    /// Dotted names become underscore names (`detector.alarms` →
    /// `detector_alarms`); counters get the `_total` sample suffix,
    /// histograms expand to `_bucket{le=…}`/`_sum`/`_count` series, and
    /// the exposition ends with the mandatory `# EOF` terminator.
    /// `BTreeMap` storage makes the snapshot deterministic.
    pub fn to_openmetrics(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n}_total {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds.iter().zip(&h.counts) {
                cumulative += count;
                out.push_str(&format!("{n}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n", h.sum));
            out.push_str(&format!("{n}_count {}\n", h.count));
        }
        out.push_str("# EOF\n");
        out
    }
}

/// Inserts a metric under a newly allocated key: the one allocation a
/// metric write makes, on the first write to its name only.
fn insert_new<V>(map: &mut BTreeMap<String, V>, name: &str, value: V) {
    map.insert(name.to_string(), value);
}

/// A [`Metrics`] registry pre-populated with every exact name in
/// [`names::ALL`] at zero, typed per the catalogue in
/// `docs/OBSERVABILITY.md` (the two `<slug>` families are instantiated
/// lazily at runtime and stay absent here).
///
/// `raven-sim metrics export` merges a run's registry over this template
/// so the OpenMetrics snapshot covers every registered metric even when a
/// run never touched some of them.
pub fn registry_template() -> Metrics {
    let mut m = Metrics::new();
    for name in names::ALL {
        match name {
            names::DETECTOR_FIRST_ALARM_ASSESSMENT => m.set_gauge(name, 0.0),
            names::DETECTOR_DETECTION_LATENCY_CYCLES => {
                m.histograms.insert(name.to_string(), Histogram::new(&DEFAULT_BUCKETS));
            }
            _ => m.add(name, 0),
        }
    }
    m
}

/// Nearest-rank percentile over an ascending-sorted sample window: the
/// smallest sample with at least `q·N` of the window at or below it
/// (`rank = ceil(q·N)`). Rounding the rank down instead would
/// under-report on small windows. Returns 0 for an empty window.
///
/// The one percentile implementation in the workspace — every
/// [`StageStats`] row goes through it.
pub fn percentile_nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The event ring and metric registry one simulation writes into. The
/// simulation owns it and lends `&mut` to each instrumented component for
/// the length of a call.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    /// Structured event ring.
    pub events: EventLog,
    /// Metric registry.
    pub metrics: Metrics,
}

impl Observer {
    /// Creates an observer with the given event-ring capacity.
    pub fn new(event_capacity: usize) -> Self {
        Self { events: EventLog::new(event_capacity), metrics: Metrics::new() }
    }

    /// Records an event, streaming it to stderr when `RAVEN_LOG=debug`.
    pub fn event(&mut self, event: Event) {
        if log::enabled(Severity::Debug) {
            log::emit(event.severity, &event.component, &event.to_string());
        }
        self.events.push(event);
    }
}

/// Wall-clock statistics of one timed region, in microseconds: the one
/// sidecar row schema (`--profile-json`, `results/profile_*.json`) for
/// span paths and executor segments alike.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageStats {
    /// Region name (a slash-joined span path, or `exec/<label>`).
    pub name: String,
    /// Number of recorded executions.
    pub count: u64,
    /// Mean execution time.
    pub mean_us: f64,
    /// Fastest execution.
    pub min_us: f64,
    /// Slowest execution.
    pub max_us: f64,
    /// Nearest-rank median.
    pub p50_us: f64,
    /// Nearest-rank 99th percentile.
    pub p99_us: f64,
}

impl StageStats {
    /// Summarizes wall durations in nanoseconds (sorted in place); every
    /// field is 0 for an empty set.
    pub fn from_samples_ns(name: String, samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        let us = |ns: u64| ns as f64 / 1_000.0;
        let count = samples.len() as u64;
        let sum: u64 = samples.iter().sum();
        Self {
            name,
            count,
            mean_us: if count == 0 { 0.0 } else { us(sum) / count as f64 },
            min_us: us(samples.first().copied().unwrap_or(0)),
            max_us: us(samples.last().copied().unwrap_or(0)),
            p50_us: us(percentile_nearest_rank(samples, 0.50)),
            p99_us: us(percentile_nearest_rank(samples, 0.99)),
        }
    }
}

/// Leveled stderr logging filtered by the `RAVEN_LOG` environment variable.
///
/// Levels: `debug` (alias `trace`), `info`, `warn` (alias `warning`),
/// `error`, `off` (alias `none`). When the variable is unset or unparsable,
/// a process-wide default applies — `warn` unless a front end raises it via
/// [`log::set_default_level`] (the `raven-sim` CLI defaults to `info` so sweep
/// progress stays visible). `cargo test` therefore runs silent: nothing in
/// the library logs above `warn` on the happy path.
pub mod log {
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::OnceLock;

    use super::Severity;

    /// Environment variable holding the level filter.
    pub const LOG_ENV: &str = "RAVEN_LOG";

    const OFF: u8 = 4;
    static DEFAULT_THRESHOLD: AtomicU8 = AtomicU8::new(2); // warn
    static ENV_THRESHOLD: OnceLock<Option<u8>> = OnceLock::new();

    fn parse_threshold(s: &str) -> Option<u8> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" | "trace" => Some(0),
            "info" => Some(1),
            "warn" | "warning" => Some(2),
            "error" => Some(3),
            "off" | "none" => Some(OFF),
            _ => None,
        }
    }

    /// Parses a level name (`debug`/`info`/`warn`/`error`); `None` for
    /// `off`, `none`, or anything unrecognized.
    pub fn parse_level(s: &str) -> Option<Severity> {
        match parse_threshold(s) {
            Some(0) => Some(Severity::Debug),
            Some(1) => Some(Severity::Info),
            Some(2) => Some(Severity::Warn),
            Some(3) => Some(Severity::Error),
            _ => None,
        }
    }

    fn threshold() -> u8 {
        let env = *ENV_THRESHOLD
            .get_or_init(|| std::env::var(LOG_ENV).ok().and_then(|v| parse_threshold(&v)));
        env.unwrap_or_else(|| DEFAULT_THRESHOLD.load(Ordering::Relaxed))
    }

    /// Sets the process-wide default level used when `RAVEN_LOG` is unset.
    pub fn set_default_level(level: Severity) {
        DEFAULT_THRESHOLD.store(level.rank(), Ordering::Relaxed);
    }

    /// `true` when a message at this severity would be printed.
    pub fn enabled(severity: Severity) -> bool {
        severity.rank() >= threshold()
    }

    /// Prints `[level] component: message` to stderr when enabled.
    pub fn emit(severity: Severity, component: &str, message: &str) {
        if enabled(severity) {
            eprintln!("[{severity:>5}] {component}: {message}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn event_builder_and_lookup() {
        let e = Event::new(t(5), "detector", Severity::Warn, "detector.verdict")
            .with("alarm", true)
            .with("ee_step_mm", 2.5)
            .with("cause", "threshold");
        assert_eq!(e.field("alarm"), Some(&FieldValue::Bool(true)));
        assert_eq!(e.field("missing"), None);
        let s = e.to_string();
        assert!(s.contains("detector.verdict"), "display lists the kind: {s}");
        assert!(s.contains("ee_step_mm=2.5"), "display lists fields: {s}");
    }

    #[test]
    fn event_log_ring_evicts_oldest() {
        let mut log = EventLog::new(3);
        for i in 0..5u64 {
            log.push(Event::new(t(i), "c", Severity::Info, format!("k{i}")));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let kinds: Vec<&str> = log.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["k2", "k3", "k4"]);
        assert_eq!(log.last().map(|e| e.kind.as_str()), Some("k4"));
        assert_eq!(log.count_kind("k3"), 1);
    }

    #[test]
    fn event_log_round_trips_through_json() {
        let mut log = EventLog::new(8);
        log.push(
            Event::new(t(1), "hw", Severity::Error, "estop.latched")
                .with("cause", "watchdog_timeout")
                .with("seq", 42u64),
        );
        let json = serde_json::to_string(&log).expect("serialize event log");
        let back: EventLog = serde_json::from_str(&json).expect("deserialize event log");
        assert_eq!(back, log);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 3.0, 7.0, 100.0] {
            h.observe(v);
        }
        h.observe(f64::NAN);
        assert_eq!(h.counts, vec![1, 2, 1]);
        assert_eq!(h.count, 4);
        assert_eq!(h.nonfinite, 1);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 100.0);
        assert!((h.mean() - 27.625).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_combines_and_checks_bounds() {
        let mut a = Histogram::new(&[1.0, 10.0]);
        a.observe(0.5);
        let mut b = Histogram::new(&[1.0, 10.0]);
        b.observe(5.0);
        b.observe(50.0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.counts, vec![1, 1, 1]);
        assert_eq!(a.min, 0.5);
        assert_eq!(a.max, 50.0);
    }

    #[test]
    #[should_panic(expected = "identical bounds")]
    fn histogram_merge_rejects_different_bounds() {
        let mut a = Histogram::new(&[1.0]);
        a.merge(&Histogram::new(&[2.0]));
    }

    #[test]
    fn metrics_counters_gauges_histograms() {
        let mut m = Metrics::new();
        m.inc("detector.assessments");
        m.add("detector.assessments", 2);
        m.set_gauge("detector.threshold_mm", 1.25);
        m.set_gauge("bad", f64::INFINITY);
        m.observe("detector.detection_latency_cycles", 3.0);
        assert_eq!(m.counter("detector.assessments"), 3);
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.gauge("detector.threshold_mm"), Some(1.25));
        assert_eq!(m.gauge("bad"), Some(0.0));
        assert_eq!(m.histogram("detector.detection_latency_cycles").unwrap().count, 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn metrics_merge_is_order_sensitive_only_for_gauges() {
        let mut a = Metrics::new();
        a.inc("c");
        a.set_gauge("g", 1.0);
        a.observe("h", 2.0);
        let mut b = Metrics::new();
        b.add("c", 4);
        b.set_gauge("g", 9.0);
        b.observe("h", 700.0);
        b.observe("h2", 1.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.gauge("g"), Some(9.0));
        assert_eq!(a.histogram("h").unwrap().count, 2);
        assert_eq!(a.histogram("h2").unwrap().count, 1);
    }

    #[test]
    fn metrics_serialization_is_insertion_order_independent() {
        let mut a = Metrics::new();
        a.inc("z");
        a.inc("a");
        let mut b = Metrics::new();
        b.inc("a");
        b.inc("z");
        let ja = serde_json::to_string(&a).expect("serialize a");
        let jb = serde_json::to_string(&b).expect("serialize b");
        assert_eq!(ja, jb);
    }

    #[test]
    fn percentile_helper_small_sample_regressions() {
        // Empty window: defined as 0.
        assert_eq!(percentile_nearest_rank(&[], 0.99), 0);
        // Single sample is every percentile of itself.
        assert_eq!(percentile_nearest_rank(&[5], 0.5), 5);
        assert_eq!(percentile_nearest_rank(&[5], 0.99), 5);
        // p50 of an even window is the lower-middle nearest rank.
        assert_eq!(percentile_nearest_rank(&[1, 2, 3, 4], 0.5), 2);
        // p50 of an odd window is the exact median.
        assert_eq!(percentile_nearest_rank(&[1, 2, 3, 4, 5], 0.5), 3);
        // 10-sample p99: rank ceil(9.9) = 10, the maximum.
        assert_eq!(percentile_nearest_rank(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 100], 0.99), 100);
        // 67-sample p99: rank ceil(66.33) = 67, the maximum.
        let window: Vec<u64> = (1..=67).collect();
        assert_eq!(percentile_nearest_rank(&window, 0.99), 67);
        // 200-sample p99 no longer degenerates to the max: rank 198.
        let large: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile_nearest_rank(&large, 0.99), 198);
    }

    #[test]
    fn registry_template_covers_every_registered_name() {
        let m = registry_template();
        for name in names::ALL {
            let present = m.counters.contains_key(name)
                || m.gauges.contains_key(name)
                || m.histograms.contains_key(name);
            assert!(present, "template missing {name}");
        }
        assert_eq!(m.counter(names::DETECTOR_ALARMS), 0);
        assert_eq!(m.gauge(names::DETECTOR_FIRST_ALARM_ASSESSMENT), Some(0.0));
        assert_eq!(m.histogram(names::DETECTOR_DETECTION_LATENCY_CYCLES).unwrap().count, 0);
    }

    #[test]
    fn openmetrics_snapshot_shape() {
        let mut m = Metrics::new();
        m.add("detector.alarms", 3);
        m.set_gauge("detector.first_alarm_assessment", 42.0);
        m.observe_with("detector.detection_latency_cycles", &[1.0, 10.0], 0.5);
        m.observe_with("detector.detection_latency_cycles", &[1.0, 10.0], 7.0);
        let text = m.to_openmetrics();
        assert!(text.contains("# TYPE detector_alarms counter\ndetector_alarms_total 3\n"));
        assert!(text.contains(
            "# TYPE detector_first_alarm_assessment gauge\ndetector_first_alarm_assessment 42\n"
        ));
        // Bucket counts are cumulative; +Inf equals the total count.
        assert!(text.contains("detector_detection_latency_cycles_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("detector_detection_latency_cycles_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("detector_detection_latency_cycles_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("detector_detection_latency_cycles_sum 7.5\n"));
        assert!(text.contains("detector_detection_latency_cycles_count 2\n"));
        assert!(text.ends_with("# EOF\n"));
        // Deterministic: same registry, same snapshot.
        assert_eq!(text, m.to_openmetrics());
    }

    #[test]
    fn log_level_parsing() {
        assert_eq!(log::parse_level("debug"), Some(Severity::Debug));
        assert_eq!(log::parse_level("TRACE"), Some(Severity::Debug));
        assert_eq!(log::parse_level(" info "), Some(Severity::Info));
        assert_eq!(log::parse_level("warning"), Some(Severity::Warn));
        assert_eq!(log::parse_level("error"), Some(Severity::Error));
        assert_eq!(log::parse_level("off"), None);
        assert_eq!(log::parse_level("bogus"), None);
    }

    #[test]
    fn severity_orders_debug_to_error() {
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn observer_collects_events_and_metrics() {
        let mut o = Observer::new(16);
        o.event(Event::new(t(0), "test", Severity::Info, "unit.test"));
        o.metrics.inc("unit.count");
        assert_eq!(o.events.len(), 1);
        assert_eq!(o.metrics.counter("unit.count"), 1);
    }
}
