//! A plant trajectory shared by every session of the process.
//!
//! Every session powers up the same robot in the same pose, homes it, and
//! holds it on the brakes until the operator's pedal press; nothing
//! seed-dependent reaches the plant before then. The first plant to reach
//! a control period records the bits that decide that period's 12-dim ODE
//! step — the brake flag and the three effective shaft torques — together
//! with the state the step produced. A later plant that starts the period
//! in the same state with the same inputs copies that state instead of
//! running RK4.
//!
//! The copy is exact by construction: the step is a pure function of its
//! start state and those inputs (plus the parameters, substeps and period
//! length the origin check pins). A plant that meets any other state or
//! input detaches for good and integrates as usual; so does a plant that
//! reaches the cap. A first plant that diverged (a boot-breaking attack)
//! records its own periods; later plants replay the periods before its
//! divergence and integrate the rest, byte for byte as if alone.
//!
//! The process holds one prefix, for the origin and cap of the first
//! plant that attaches; a plant of any other origin or cap runs detached.
//! Each entry is written once, so a replay reads without a lock.

use std::sync::OnceLock;

use raven_kinematics::NUM_AXES;
use serde::{Content, Serialize};

use crate::params::PlantParams;
use crate::state::ODE_DIM;

/// The process's prefix [`RavenPlant::attach_shared_prefix`] attaches to.
/// Its memory is bounded by `cap × 136 B`.
///
/// [`RavenPlant::attach_shared_prefix`]: crate::RavenPlant::attach_shared_prefix
pub(super) static SHARED: OnceLock<PlantPrefix> = OnceLock::new();

/// What a plant must match to attach: the same parameters, initial ODE
/// state and substeps, all bit-equal. (The period length is pinned per
/// step: only [`RavenPlant::CONTROL_PERIOD`](crate::RavenPlant::CONTROL_PERIOD)
/// steps are shared.)
#[derive(Debug, Clone, Copy)]
pub(super) struct Origin {
    pub(super) params: PlantParams,
    pub(super) x0: [f64; ODE_DIM],
    pub(super) substeps: u32,
}

impl Origin {
    fn matches(&self, other: &Origin) -> bool {
        self.substeps == other.substeps
            && same_bits(&self.x0, &other.x0)
            && same_content(&self.params.to_content(), &other.params.to_content())
    }
}

/// Structural equality with floats compared by their bits (so `-0.0`
/// and `0.0` differ). Walking the serialized form covers every field of
/// [`PlantParams`], including any added later.
fn same_content(a: &Content, b: &Content) -> bool {
    match (a, b) {
        (Content::F64(x), Content::F64(y)) => x.to_bits() == y.to_bits(),
        (Content::Seq(x), Content::Seq(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same_content(x, y))
        }
        (Content::Map(x), Content::Map(y)) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|((kx, x), (ky, y))| kx == ky && same_content(x, y))
        }
        _ => a == b,
    }
}

pub(super) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The inputs of one control period's ODE step besides its start state:
/// the brake flag and the effective shaft torques (zero while braked), as
/// bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct PeriodInputs {
    braked: bool,
    tau: [u64; NUM_AXES],
}

impl PeriodInputs {
    pub(super) fn new(braked: bool, tau: &[f64; NUM_AXES]) -> Self {
        PeriodInputs { braked, tau: tau.map(f64::to_bits) }
    }

    pub(super) fn braked(&self) -> bool {
        self.braked
    }
}

/// One recorded period: 128 B, 136 B in its `OnceLock`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    inputs: PeriodInputs,
    out: [f64; ODE_DIM],
}

/// What the table holds for a plant's next period.
#[derive(Debug, Clone, Copy)]
pub(super) enum Lookup {
    /// Recorded with the same inputs: the state the step produces.
    Hit([f64; ODE_DIM]),
    /// Not recorded yet: integrate, then offer the result.
    Frontier,
    /// Recorded with other inputs, past the cap, or not on the shared
    /// trajectory: integrate and detach.
    Miss,
}

/// A capped record of the control periods every plant of one origin
/// integrates identically. Entries are written once, in period order, so
/// the recorded periods always form a prefix of the table.
pub(super) struct PlantPrefix {
    origin: Origin,
    entries: Box<[OnceLock<Entry>]>,
}

impl PlantPrefix {
    /// An empty prefix for `origin` that records at most `cap` control
    /// periods; its storage is allocated here, so stepping never
    /// allocates.
    pub(super) fn new(origin: Origin, cap: usize) -> Self {
        PlantPrefix { origin, entries: (0..cap).map(|_| OnceLock::new()).collect() }
    }

    /// The prefix in `slot`, created for `origin` and `cap` if the slot
    /// is empty; `None` if it holds another origin or cap.
    pub(super) fn claim(
        slot: &'static OnceLock<PlantPrefix>,
        origin: &Origin,
        cap: usize,
    ) -> Option<&'static PlantPrefix> {
        let prefix = slot.get_or_init(|| PlantPrefix::new(*origin, cap));
        (prefix.cap() == cap && prefix.origin.matches(origin)).then_some(prefix)
    }

    /// The most control periods the prefix records.
    pub(super) fn cap(&self) -> usize {
        self.entries.len()
    }

    /// Control periods recorded so far (never more than [`cap`]).
    ///
    /// [`cap`]: PlantPrefix::cap
    pub(super) fn recorded_periods(&self) -> usize {
        self.entries.partition_point(|entry| entry.get().is_some())
    }

    /// The table's answer for `period` under `inputs`. The caller has
    /// already checked that it starts the period on the shared trajectory,
    /// so every earlier period is recorded.
    pub(super) fn replay_period(&self, period: usize, inputs: &PeriodInputs) -> Lookup {
        match self.entries.get(period).map(OnceLock::get) {
            Some(None) => Lookup::Frontier,
            Some(Some(entry)) if entry.inputs == *inputs => Lookup::Hit(entry.out),
            _ => Lookup::Miss,
        }
    }

    /// Offers the state a plant integrated for a frontier `period`.
    /// Returns whether the plant is still on the shared trajectory: it
    /// recorded the period, or a sibling recorded the same step first.
    pub(super) fn record_period(
        &self,
        period: usize,
        inputs: &PeriodInputs,
        out: &[f64; ODE_DIM],
    ) -> bool {
        let in_order =
            period == 0 || self.entries.get(period - 1).is_some_and(|e| e.get().is_some());
        let Some(slot) = self.entries.get(period).filter(|_| in_order) else { return false };
        let entry = slot.get_or_init(|| Entry { inputs: *inputs, out: *out });
        entry.inputs == *inputs && same_bits(&entry.out, out)
    }
}

impl std::fmt::Debug for PlantPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlantPrefix")
            .field("cap", &self.cap())
            .field("recorded_periods", &self.recorded_periods())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;
    use crate::RavenPlant;

    const CAP: usize = 300;

    /// Torques of period `k` of a boot-like schedule: braked for the first
    /// 40 periods, then a smooth drive.
    fn torques(k: usize) -> [f64; NUM_AXES] {
        let t = k as f64 * 1e-3;
        [0.03 * (7.0 * t).sin(), -0.02 * (5.0 * t).cos(), 0.01 * (3.0 * t).sin()]
    }

    /// [`torques`] with one bit flipped from period 90 on.
    fn diverged(k: usize) -> [f64; NUM_AXES] {
        let mut tau = torques(k);
        if k >= 90 {
            tau[1] = f64::from_bits(tau[1].to_bits() ^ 1);
        }
        tau
    }

    /// One rig-like period: brake actuation, wrist targets, the step.
    fn drive(plant: &mut RavenPlant, k: usize, tau: [f64; NUM_AXES]) {
        if k < 40 {
            plant.engage_brakes();
        } else {
            plant.release_brakes();
        }
        plant.set_wrist_targets([0.1, -0.05, 0.0, 0.2]);
        plant.step_control_period(&tau);
    }

    /// A slot of its own, so no other test shares its prefix.
    fn slot() -> &'static OnceLock<PlantPrefix> {
        Box::leak(Box::new(OnceLock::new()))
    }

    fn attached(slot: &'static OnceLock<PlantPrefix>, cap: usize) -> RavenPlant {
        let mut plant = RavenPlant::new(PlantParams::raven_ii());
        assert!(plant.attach_to(slot, cap));
        plant
    }

    fn prefix(slot: &'static OnceLock<PlantPrefix>) -> &'static PlantPrefix {
        slot.get().expect("a plant created the prefix")
    }

    fn assert_bit_identical(a: &RavenPlant, b: &RavenPlant, k: usize) {
        assert!(
            same_bits(&a.state().x, &b.state().x)
                && same_bits(&a.state().wrist, &b.state().wrist)
                && a.time().to_bits() == b.time().to_bits(),
            "period {k}: {:?} vs {:?}",
            a.state(),
            b.state()
        );
    }

    /// Drives `plant` and a detached reference through `periods` periods
    /// of `schedule`, asserting bit identity after each.
    fn drive_against_reference(
        plant: &mut RavenPlant,
        periods: usize,
        schedule: fn(usize) -> [f64; NUM_AXES],
    ) {
        let mut reference = RavenPlant::new(PlantParams::raven_ii());
        for k in 0..periods {
            drive(plant, k, schedule(k));
            drive(&mut reference, k, schedule(k));
            assert_bit_identical(plant, &reference, k);
        }
    }

    #[test]
    fn sharing_plants_stay_bit_identical_to_a_detached_plant() {
        let slot = slot();
        let mut reference = RavenPlant::new(PlantParams::raven_ii());
        // Two plants in lockstep: the first records each period, the
        // second replays it at once. A third starts once the table is
        // complete and replays all of it.
        let mut lockstep = [attached(slot, CAP), attached(slot, CAP)];
        for k in 0..CAP + 20 {
            drive(&mut reference, k, torques(k));
            for plant in &mut lockstep {
                drive(plant, k, torques(k));
                assert_bit_identical(plant, &reference, k);
            }
        }
        assert_eq!(prefix(slot).recorded_periods(), CAP);
        assert_eq!(lockstep.map(|p| p.replayed_periods()), [0, CAP]);

        let mut late = attached(slot, CAP);
        drive_against_reference(&mut late, CAP + 20, torques);
        assert_eq!(late.replayed_periods(), CAP);
        assert!(late.prefix.is_none(), "a plant detaches at the cap");
    }

    #[test]
    fn a_frontier_race_keeps_only_an_identical_step_on_the_path() {
        // Two plants that both integrated the frontier period: the second
        // to offer it stays attached only if it produced the same step.
        let origin = RavenPlant::new(PlantParams::raven_ii()).origin();
        let prefix = PlantPrefix::new(origin, CAP);
        let inputs = PeriodInputs::new(false, &torques(0));
        let out = [0.5; ODE_DIM];
        assert!(matches!(prefix.replay_period(0, &inputs), Lookup::Frontier));
        assert!(matches!(prefix.replay_period(0, &inputs), Lookup::Frontier));
        assert!(prefix.record_period(0, &inputs, &out));
        assert!(prefix.record_period(0, &inputs, &out));
        assert!(!prefix.record_period(0, &PeriodInputs::new(true, &[0.0; 3]), &out));
        let mut other = out;
        other[11] = -0.0;
        assert!(!prefix.record_period(0, &inputs, &other));
        assert!(!prefix.record_period(2, &inputs, &out), "periods are recorded in order");
        assert_eq!(prefix.recorded_periods(), 1);
        assert!(matches!(prefix.replay_period(0, &inputs), Lookup::Hit(x) if same_bits(&x, &out)));
        assert!(matches!(prefix.replay_period(CAP, &inputs), Lookup::Miss), "past the cap");
    }

    #[test]
    fn two_threads_racing_on_the_frontier_stay_bit_identical() {
        // Both threads reach every period together, so each frontier is
        // integrated twice and offered twice. One thread diverges at
        // period 90: whichever records a period first, both match their
        // detached references, and a late clean plant still does.
        for second in [torques, diverged] {
            let slot = slot();
            let barrier = Barrier::new(2);
            let replayed = std::thread::scope(|scope| {
                let racers = [torques, second].map(|schedule| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut plant = attached(slot, CAP);
                        let mut reference = RavenPlant::new(PlantParams::raven_ii());
                        for k in 0..CAP + 20 {
                            barrier.wait();
                            drive(&mut plant, k, schedule(k));
                            drive(&mut reference, k, schedule(k));
                            assert_bit_identical(&plant, &reference, k);
                        }
                        plant.replayed_periods()
                    })
                });
                racers.map(|racer| racer.join().expect("racer finished"))
            });
            assert!(replayed.iter().all(|&n| n <= CAP), "{replayed:?}");
            assert_eq!(prefix(slot).recorded_periods(), CAP);

            let mut late = attached(slot, CAP);
            drive_against_reference(&mut late, CAP + 20, torques);
        }
    }

    #[test]
    fn diverging_torques_detach_and_match_a_detached_plant() {
        let slot = slot();
        let mut recorder = attached(slot, CAP);
        for k in 0..CAP {
            drive(&mut recorder, k, torques(k));
        }
        let mut plant = attached(slot, CAP);
        drive_against_reference(&mut plant, CAP + 20, diverged);
        assert!(plant.prefix.is_none(), "a diverged plant stays detached");
        assert_eq!(plant.replayed_periods(), 90, "it replays every period before the divergence");
        assert_eq!(prefix(slot).recorded_periods(), CAP);
    }

    #[test]
    fn a_diverged_first_plant_costs_later_plants_only_their_sharing() {
        // The first plant records a trajectory that leaves the clean one
        // at period 90; clean plants after it replay up to there and
        // integrate the rest as if alone.
        let slot = slot();
        let mut poisoner = attached(slot, CAP);
        drive_against_reference(&mut poisoner, CAP, diverged);
        for _ in 0..2 {
            let mut plant = attached(slot, CAP);
            drive_against_reference(&mut plant, CAP + 20, torques);
            assert_eq!(plant.replayed_periods(), 90);
        }
    }

    #[test]
    fn only_the_first_origin_and_cap_attach() {
        let params = PlantParams::raven_ii();
        let slot = slot();
        assert!(attached(slot, CAP).prefix.is_some());

        // Any other origin or cap runs detached, down to one bit.
        let mut tiny = params;
        tiny.links.gravity = f64::from_bits(tiny.links.gravity.to_bits() + 1);
        assert!(!RavenPlant::new(tiny).attach_to(slot, CAP));
        let mut moved = *RavenPlant::new(params).state();
        moved.x[7] += 1e-9;
        assert!(!RavenPlant::with_state(params, moved).attach_to(slot, CAP));
        assert!(!RavenPlant::new(params).attach_to(slot, CAP + 1));
        let mut coarse = RavenPlant::new(params);
        coarse.set_substeps(5);
        assert!(!coarse.attach_to(slot, CAP));

        // The first origin still attaches, to the one prefix.
        assert!(std::ptr::eq(prefix(slot), attached(slot, CAP).prefix.unwrap().prefix));
        assert_eq!(prefix(slot).cap(), CAP);
    }

    #[test]
    fn set_substeps_detaches() {
        let slot = slot();
        let mut plant = attached(slot, CAP);
        plant.set_substeps(RavenPlant::DEFAULT_SUBSTEPS);
        assert!(plant.prefix.is_none());
    }

    #[test]
    fn an_engage_brakes_write_between_steps_is_caught() {
        let slot = slot();
        let mut recorder = attached(slot, CAP);
        for k in 0..CAP {
            drive(&mut recorder, k, torques(k));
        }
        // Stopping the shafts between two released periods changes the
        // state the next period starts from, though not its inputs.
        let mut plant = attached(slot, CAP);
        let mut reference = RavenPlant::new(PlantParams::raven_ii());
        for k in 0..CAP {
            if k == 120 {
                for p in [&mut plant, &mut reference] {
                    p.engage_brakes();
                    p.release_brakes();
                }
            }
            drive(&mut plant, k, torques(k));
            drive(&mut reference, k, torques(k));
            assert_bit_identical(&plant, &reference, k);
        }
        assert!(plant.prefix.is_none());
        assert_eq!(plant.replayed_periods(), 120);
    }

    #[test]
    fn the_table_never_exceeds_its_cap() {
        for cap in [0, 1, 64, CAP] {
            let slot = slot();
            for run in 0..2 {
                let mut plant = attached(slot, cap);
                for k in 0..CAP + 50 {
                    drive(&mut plant, k, torques(k));
                    assert!(prefix(slot).recorded_periods() <= cap);
                }
                assert!(plant.prefix.is_none(), "a plant detaches at the cap");
                assert_eq!(plant.replayed_periods(), run * cap);
            }
            assert_eq!(prefix(slot).recorded_periods(), cap);
            assert_eq!(prefix(slot).cap(), cap);
        }
    }
}
