//! A plant trajectory shared by the runs of one sweep.
//!
//! Every run of a Monte-Carlo sweep powers up the same robot in the same
//! pose, homes it, and holds it on the brakes until the operator's pedal
//! press; nothing seed-dependent reaches the plant before then. The first
//! plant to reach a control period records the bits that decide that
//! period's 12-dim ODE step — the brake flag and the three effective shaft
//! torques — together with the state the step produced. A later plant that
//! starts the period in the same state with the same inputs copies that
//! state instead of running RK4.
//!
//! The copy is exact by construction: the step is a pure function of its
//! start state and those inputs (plus the parameters, substeps and period
//! length the origin check pins). A plant that meets any other state or
//! input detaches for good and integrates as usual; so does a plant that
//! reaches the cap.

#![expect(
    clippy::disallowed_types,
    reason = "leaf lock: the table's Mutex is a private field, and whoever holds it only reads or writes Table entries and compares their bits, which lock nothing"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;
use raven_kinematics::NUM_AXES;
use serde::{Content, Serialize};

use crate::params::PlantParams;
use crate::state::ODE_DIM;

/// Entries per storage chunk: 256 × 128 B = 32 KiB, below glibc's mmap
/// threshold, so a prefix never maps (and returns) a fresh region of its
/// own.
const CHUNK: usize = 256;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// One recorded period: 128 B.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    inputs: PeriodInputs,
    out: [f64; ODE_DIM],
}

/// The recorded periods, in preallocated chunks.
struct Table {
    chunks: Vec<Box<[Entry]>>,
    len: usize,
}

impl Table {
    fn slot(&self, period: usize) -> Option<&Entry> {
        self.chunks.get(period / CHUNK)?.get(period % CHUNK)
    }

    fn slot_mut(&mut self, period: usize) -> Option<&mut Entry> {
        self.chunks.get_mut(period / CHUNK)?.get_mut(period % CHUNK)
    }
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

/// A capped, append-only record of the control periods every run of a
/// sweep integrates identically, shared through an `Arc`.
///
/// Attach it with [`RavenPlant::share_prefix`](crate::RavenPlant::share_prefix)
/// before the first step. Storage (`cap` × 128 B) is allocated here, up
/// front; stepping never allocates, and the lock is held only to copy one
/// entry in or out, never while integrating.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use raven_dynamics::plant::PlantPrefix;
/// use raven_dynamics::{PlantParams, RavenPlant};
///
/// let prefix = Arc::new(PlantPrefix::new(100));
/// let run = || {
///     let mut plant = RavenPlant::new(PlantParams::raven_ii());
///     assert!(plant.share_prefix(Arc::clone(&prefix)));
///     for _ in 0..100 {
///         plant.step_control_period(&[0.0; 3]);
///     }
///     *plant.state()
/// };
/// let recorded = run();
/// assert_eq!(run(), recorded);
/// assert_eq!(prefix.full_replays(), 1);
/// ```
pub struct PlantPrefix {
    cap: usize,
    origin: OnceLock<Origin>,
    table: Mutex<Table>,
    full_replays: AtomicU64,
}

impl PlantPrefix {
    /// An empty prefix that records at most `cap` control periods. The
    /// first plant to attach fixes its origin.
    pub fn new(cap: usize) -> Self {
        let chunks = (0..cap.div_ceil(CHUNK))
            .map(|i| vec![Entry::default(); CHUNK.min(cap - i * CHUNK)].into_boxed_slice())
            .collect();
        PlantPrefix {
            cap,
            origin: OnceLock::new(),
            table: Mutex::new(Table { chunks, len: 0 }),
            full_replays: AtomicU64::new(0),
        }
    }

    /// The most control periods the prefix records.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Control periods recorded so far (never more than [`cap`]).
    ///
    /// [`cap`]: PlantPrefix::cap
    pub fn recorded_periods(&self) -> usize {
        self.table.lock().len
    }

    /// Plants that reached the cap having replayed every period, none
    /// integrated: the runs the prefix saved a full boot for.
    pub fn full_replays(&self) -> u64 {
        self.full_replays.load(Ordering::Relaxed)
    }

    /// Whether a plant starting from `origin` may attach: the first
    /// origin offered wins, later ones must be bit-equal to it.
    pub(super) fn admits(&self, origin: &Origin) -> bool {
        self.origin.get_or_init(|| *origin).matches(origin)
    }

    /// The table's answer for `period` under `inputs`. The caller has
    /// already checked that it starts the period on the shared trajectory.
    pub(super) fn replay_period(&self, period: usize, inputs: &PeriodInputs) -> Lookup {
        let table = self.table.lock();
        if period >= self.cap {
            return Lookup::Miss;
        }
        if period == table.len {
            return Lookup::Frontier;
        }
        match table.slot(period) {
            Some(entry) if period < table.len && entry.inputs == *inputs => Lookup::Hit(entry.out),
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
        let mut table = self.table.lock();
        if period < table.len {
            return table
                .slot(period)
                .is_some_and(|entry| entry.inputs == *inputs && same_bits(&entry.out, out));
        }
        if period != table.len {
            return false;
        }
        match table.slot_mut(period) {
            Some(entry) => {
                *entry = Entry { inputs: *inputs, out: *out };
                table.len += 1;
                true
            }
            None => false,
        }
    }

    /// Counts a plant that reached the cap without integrating a period.
    pub(super) fn note_full_replay(&self) {
        self.full_replays.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for PlantPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlantPrefix")
            .field("cap", &self.cap)
            .field("full_replays", &self.full_replays())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::RavenPlant;

    /// Spans two storage chunks.
    const CAP: usize = CHUNK + 44;

    /// Torques of period `k` of a boot-like schedule: braked for the first
    /// 40 periods, then a smooth drive.
    fn torques(k: usize) -> [f64; NUM_AXES] {
        let t = k as f64 * 1e-3;
        [0.03 * (7.0 * t).sin(), -0.02 * (5.0 * t).cos(), 0.01 * (3.0 * t).sin()]
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

    fn attached(prefix: &Arc<PlantPrefix>) -> RavenPlant {
        let mut plant = RavenPlant::new(PlantParams::raven_ii());
        assert!(plant.share_prefix(Arc::clone(prefix)));
        plant
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

    #[test]
    fn sharing_plants_stay_bit_identical_to_a_detached_plant() {
        let prefix = Arc::new(PlantPrefix::new(CAP));
        let mut reference = RavenPlant::new(PlantParams::raven_ii());
        // Two plants in lockstep: the first records each period, the
        // second replays it at once. A third starts once the table is
        // complete and replays all of it.
        let mut lockstep = [attached(&prefix), attached(&prefix)];
        for k in 0..CAP + 20 {
            drive(&mut reference, k, torques(k));
            for plant in &mut lockstep {
                drive(plant, k, torques(k));
                assert_bit_identical(plant, &reference, k);
            }
        }
        assert_eq!(prefix.recorded_periods(), CAP);
        assert_eq!(prefix.full_replays(), 1);

        let mut late = attached(&prefix);
        let mut reference = RavenPlant::new(PlantParams::raven_ii());
        for k in 0..CAP + 20 {
            drive(&mut reference, k, torques(k));
            drive(&mut late, k, torques(k));
            assert_bit_identical(&late, &reference, k);
        }
        assert_eq!(prefix.full_replays(), 2);
    }

    #[test]
    fn a_frontier_race_keeps_only_an_identical_step_on_the_path() {
        // Two plants that both integrated the frontier period: the second
        // to offer it stays attached only if it produced the same step.
        let prefix = PlantPrefix::new(CAP);
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
    }

    #[test]
    fn diverging_torques_detach_and_match_a_detached_plant() {
        let prefix = Arc::new(PlantPrefix::new(CAP));
        let mut recorder = attached(&prefix);
        for k in 0..CAP {
            drive(&mut recorder, k, torques(k));
        }
        let diverged = |k: usize| {
            let mut tau = torques(k);
            if k >= 90 {
                tau[1] = f64::from_bits(tau[1].to_bits() ^ 1);
            }
            tau
        };
        let mut plant = attached(&prefix);
        let mut reference = RavenPlant::new(PlantParams::raven_ii());
        for k in 0..CAP + 20 {
            drive(&mut plant, k, diverged(k));
            drive(&mut reference, k, diverged(k));
            assert_bit_identical(&plant, &reference, k);
        }
        assert!(plant.prefix.is_none(), "a diverged plant stays detached");
        assert_eq!(prefix.full_replays(), 0);
        assert_eq!(prefix.recorded_periods(), CAP);
    }

    #[test]
    fn a_different_origin_never_attaches() {
        let params = PlantParams::raven_ii();
        let prefix = Arc::new(PlantPrefix::new(CAP));
        assert!(RavenPlant::new(params).share_prefix(Arc::clone(&prefix)));

        let mut perturbed = RavenPlant::new(params.perturbed(3, 0.02));
        assert!(!perturbed.share_prefix(Arc::clone(&prefix)));
        let mut tiny = params;
        tiny.links.gravity = f64::from_bits(tiny.links.gravity.to_bits() + 1);
        assert!(!RavenPlant::new(tiny).share_prefix(Arc::clone(&prefix)));

        let mut moved = *RavenPlant::new(params).state();
        moved.x[7] += 1e-9;
        assert!(!RavenPlant::with_state(params, moved).share_prefix(Arc::clone(&prefix)));

        let mut coarse = RavenPlant::new(params);
        coarse.set_substeps(5);
        assert!(!coarse.share_prefix(Arc::clone(&prefix)));

        // The same origin still attaches.
        assert!(RavenPlant::new(params).share_prefix(prefix));
    }

    #[test]
    fn an_engage_brakes_write_between_steps_is_caught() {
        let prefix = Arc::new(PlantPrefix::new(CAP));
        let mut recorder = attached(&prefix);
        for k in 0..CAP {
            drive(&mut recorder, k, torques(k));
        }
        // Stopping the shafts between two released periods changes the
        // state the next period starts from, though not its inputs.
        let mut plant = attached(&prefix);
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
        assert_eq!(prefix.full_replays(), 0);
    }

    #[test]
    fn the_table_never_exceeds_its_cap() {
        for cap in [0, 1, 64, CAP] {
            let prefix = Arc::new(PlantPrefix::new(cap));
            for _ in 0..2 {
                let mut plant = attached(&prefix);
                for k in 0..CAP + 50 {
                    drive(&mut plant, k, torques(k));
                    assert!(prefix.recorded_periods() <= cap);
                }
                assert!(plant.prefix.is_none(), "a plant detaches at the cap");
            }
            assert_eq!(prefix.recorded_periods(), cap);
            let storage: usize = prefix.table.lock().chunks.iter().map(|c| c.len()).sum();
            assert_eq!(storage, cap);
            assert_eq!(prefix.full_replays(), u64::from(cap > 0));
        }
    }
}
