//! One teleoperation session: its recipe, its runner, and its record.
//!
//! A [`SessionSpec`] is everything needed to reconstruct one session
//! deterministically: the full [`SimConfig`] plus the attack and chaos
//! schedules installed before boot. [`run_spec`], the only way the crate
//! starts a session, runs a spec; [`run_standalone`] runs one and
//! snapshots a [`SessionArtifact`].
//! Every experiment run is a spec, a rig-plane fleet
//! (`raven_fleet::run_fleet`) is a sweep of specs, and the `raven-verify`
//! safety oracles judge their artifacts.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use raven_detect::{DetectionThresholds, Mitigation};
use serde::Serialize;
use simbus::obs::{Event, Metrics};
use simbus::ChaosConfig;

use crate::scenario::AttackSetup;
use crate::sim::{
    cycle_signals, DetectorSetup, IncidentReport, Sample, SessionOutcome, SimConfig, Simulation,
};
use crate::training::{train_thresholds, TrainingConfig};

/// One session: the complete deterministic recipe.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Scenario name (recorded in the artifact).
    pub name: String,
    /// Full session configuration (seed, workload, detector, horizon).
    pub config: SimConfig,
    /// Attack installed before boot (`None` for clean sessions).
    pub attack: AttackSetup,
    /// Chaos schedule installed before boot (off ⇒ nothing scheduled).
    pub chaos: ChaosConfig,
}

impl SessionSpec {
    /// A session on `config` with no attack and no chaos, named
    /// `"session"`.
    pub fn new(config: SimConfig) -> Self {
        SessionSpec {
            name: "session".into(),
            config,
            attack: AttackSetup::None,
            chaos: ChaosConfig::off(),
        }
    }

    /// A clean undefended session.
    pub fn clean(seed: u64) -> Self {
        let mut spec =
            SessionSpec::new(SimConfig { session_ms: 1_200, ..SimConfig::standard(seed) });
        spec.name = "clean".into();
        spec
    }

    /// A clean session guarded by the armed detector.
    pub fn guarded(seed: u64) -> Self {
        let mut spec = SessionSpec::clean(seed);
        spec.name = "guarded".into();
        spec.config.detector =
            Some(DetectorSetup::new(Mitigation::EStop, Some(session_thresholds())));
        spec
    }

    /// The paper's hot Scenario-B injection on an undefended robot.
    pub fn attacked(seed: u64) -> Self {
        let mut spec = SessionSpec::clean(seed);
        spec.name = "attacked".into();
        spec.attack = hot_attack();
        spec.config.session_ms = 1_600;
        spec
    }

    /// The hot injection against the armed guard (E-STOP mitigation).
    pub fn defended(seed: u64) -> Self {
        let mut spec = SessionSpec::attacked(seed);
        spec.name = "defended".into();
        spec.config.detector =
            Some(DetectorSetup::new(Mitigation::EStop, Some(session_thresholds())));
        spec
    }

    /// The hot injection against block-and-hold mitigation.
    pub fn held(seed: u64) -> Self {
        let mut spec = SessionSpec::attacked(seed);
        spec.name = "held".into();
        spec.config.detector =
            Some(DetectorSetup::new(Mitigation::BlockAndHold, Some(session_thresholds())));
        spec
    }

    /// Replaces the teleoperation horizon (builder style).
    #[must_use]
    pub fn with_session_ms(mut self, session_ms: u64) -> Self {
        self.config.session_ms = session_ms;
        self
    }

    /// Replaces the chaos schedule (builder style).
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Replaces the attack (builder style).
    #[must_use]
    pub fn with_attack(mut self, attack: AttackSetup) -> Self {
        self.attack = attack;
        self
    }
}

/// The paper's standard hot torque injection (Scenario B, 30 000 DAC
/// counts on the shoulder channel).
pub fn hot_attack() -> AttackSetup {
    AttackSetup::ScenarioB {
        dac_delta: 30_000,
        channel: 0,
        delay_packets: 400,
        duration_packets: 256,
    }
}

/// Thresholds shared by every guarded session spec, trained once per
/// process with the reduced fault-free protocol (fixed seed, so every
/// fleet and every verification suite arms the detector identically).
///
/// The reduced protocol (8 runs instead of the paper's 60) leaves the
/// extreme percentiles noisy, so the learned thresholds get a 25 %
/// safety margin: enough to keep multi-second clean sessions silent,
/// while the hot-injection features sit orders of magnitude above
/// either value.
pub fn session_thresholds() -> DetectionThresholds {
    static THRESHOLDS: OnceLock<DetectionThresholds> = OnceLock::new();
    *THRESHOLDS.get_or_init(|| {
        train_thresholds(&TrainingConfig { runs: 8, ..TrainingConfig::quick(7) })
            .thresholds
            .scaled(1.25)
    })
}

/// Everything one session produced — serializable so equivalence and
/// replay are byte comparisons. Built only by [`SessionRun::artifact`].
#[derive(Debug, Clone, Serialize)]
pub struct SessionArtifact {
    /// Session id (spec order in a fleet).
    pub id: u64,
    /// Spec name.
    pub name: String,
    /// Root seed.
    pub seed: u64,
    /// Whether boot reached Pedal Up.
    pub booted: bool,
    /// Session ground truth (`ticks` counts teleoperation cycles).
    pub outcome: SessionOutcome,
    /// The session's event ring at end, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring.
    pub events_dropped: u64,
    /// The session's metrics registry at end.
    pub metrics: Metrics,
    /// The flight recorder's dump, if it tripped.
    pub incident: Option<IncidentReport>,
    /// Faults the chaos schedule planned (0 when chaos is off).
    pub chaos_scheduled: usize,
    /// The detector's mitigation policy (`None` when undefended).
    pub mitigation: Option<Mitigation>,
    /// [`cycle_signals`] of the whole cycle log (1 ms samples; empty
    /// unless the config sets `record_cycles`).
    pub signals: BTreeMap<String, Vec<Sample>>,
}

impl SessionArtifact {
    /// Serializes the artifact (the byte-compare equivalence record).
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (all field types are
    /// serializable, so this indicates a bug).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifact serializes")
    }
}

/// What [`run_spec`] hands back.
pub struct SessionRun {
    /// The simulation at session end.
    pub sim: Simulation,
    /// Session ground truth.
    pub outcome: SessionOutcome,
    /// Whether boot reached Pedal Up.
    pub booted: bool,
    /// Faults the chaos schedule planned (0 when chaos is off).
    pub chaos_scheduled: usize,
}

impl SessionRun {
    /// The run itself, for a caller whose session must boot clean.
    ///
    /// # Panics
    ///
    /// Panics if boot did not reach Pedal Up.
    #[must_use]
    pub fn expect_booted(self) -> Self {
        assert!(self.booted, "clean boot failed: {:?}", self.outcome);
        self
    }

    /// Snapshots the run of `spec` as artifact `id`.
    pub fn artifact(&self, spec: &SessionSpec, id: u64) -> SessionArtifact {
        let events = &self.sim.observer().events;
        SessionArtifact {
            id,
            name: spec.name.clone(),
            seed: spec.config.seed,
            booted: self.booted,
            outcome: self.outcome.clone(),
            events: events.snapshot(),
            events_dropped: events.dropped(),
            metrics: self.sim.metrics(),
            incident: self.sim.incident().cloned(),
            chaos_scheduled: self.chaos_scheduled,
            mitigation: spec.config.detector.as_ref().map(|d| d.config.mitigation),
            signals: cycle_signals(self.sim.cycle_log()),
        }
    }
}

/// Runs one spec: construct (the plant replays the process's shared boot,
/// see [`Simulation::new`]), install the attack and the chaos schedule,
/// apply `prepare` (a pre-boot hook: an interceptor, a board swap, span
/// recording, a detector mutant), boot, and run the session.
pub fn run_spec(spec: &SessionSpec, prepare: impl FnOnce(&mut Simulation)) -> SessionRun {
    let mut sim = Simulation::new(spec.config.clone());
    if spec.attack.is_attack() {
        sim.install_attack(&spec.attack);
    }
    let chaos_scheduled = if spec.chaos.is_off() { 0 } else { sim.install_chaos(&spec.chaos) };
    prepare(&mut sim);
    let booted = sim.boot_expecting_failure();
    let outcome = sim.run_session();
    SessionRun { sim, outcome, booted, chaos_scheduled }
}

/// Runs one spec and snapshots the result as artifact `id` (see
/// [`run_spec`] for `prepare`).
pub fn run_standalone(
    spec: &SessionSpec,
    id: u64,
    prepare: impl FnOnce(&mut Simulation),
) -> SessionArtifact {
    run_spec(spec, prepare).artifact(spec, id)
}
