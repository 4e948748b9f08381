//! The steady-state control cycle never touches the heap.
//!
//! A counting global allocator tallies every allocation made on the
//! current thread. Each input boots, runs a warm-up so every reusable
//! buffer has reached its working size, and must then run 1 000 cycles
//! without a single allocation. The inputs cover the stock robot, an
//! armed Observe guard after a scenario-B attack has run its course, a
//! motion-gated attacker that keeps watching the encoders after its
//! window has closed, and both BITW placements.

#![expect(
    unsafe_code,
    reason = "`GlobalAlloc` is an unsafe trait; the counting allocator only delegates to `System`, and each unsafe item carries a SAFETY comment"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use raven_attack::{motion_gated_attack, ActivationWindow, Corruption, GatedInjection};
use raven_core::training::{train_thresholds_with, TrainingConfig};
use raven_core::{AttackSetup, DetectorSetup, ExecutorConfig, SimConfig, Simulation};
use raven_detect::{DetectorConfig, Mitigation};
use raven_hw::BitwPlacement;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: both methods forward their arguments to `System` unchanged, so
// this allocator keeps `System`'s contract; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's `GlobalAlloc::alloc` contract is `System`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System.alloc` above, with this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const SEED: u64 = 42;
const WARM_UP_CYCLES: u64 = 2_000;
const MEASURED_CYCLES: u64 = 1_000;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn inputs() -> Vec<(&'static str, Simulation)> {
    let undefended = Simulation::new(SimConfig::standard(SEED));

    // Scenario B injects from pedal-down packet 400 for 256 packets; the
    // warm-up carries the session well past that window.
    let training = TrainingConfig { runs: 8, ..TrainingConfig::quick(SEED) };
    let thresholds =
        train_thresholds_with(&training, &ExecutorConfig::serial()).thresholds.scaled(1.25);
    let mut guarded = Simulation::new(SimConfig {
        detector: Some(DetectorSetup {
            config: DetectorConfig { mitigation: Mitigation::Observe, ..DetectorConfig::default() },
            model_perturbation: 0.02,
            thresholds: Some(thresholds),
        }),
        ..SimConfig::standard(SEED)
    });
    guarded.install_attack(&AttackSetup::ScenarioB {
        dac_delta: 14_000,
        channel: 0,
        delay_packets: 400,
        duration_packets: 256,
    });

    // The gate opens on the first moving Pedal-Down packets of the warm-up
    // and spends its 64-packet window there; its read hook then keeps
    // tracking encoder activity through the measured cycles.
    let mut gated = Simulation::new(SimConfig::standard(SEED));
    gated.rig_mut().channel.install_first(motion_gated_attack(
        Corruption::AddDacWord { channel: 0, delta: 2_000 },
        ActivationWindow::delayed(0, 64),
        1.0,
    ));

    let bitw = |placement| {
        Simulation::new(SimConfig { bitw: Some(placement), ..SimConfig::standard(SEED) })
    };
    vec![
        ("undefended", undefended),
        ("armed Observe guard", guarded),
        ("motion-gated attacker", gated),
        ("BITW Host", bitw(BitwPlacement::Host)),
        ("BITW Wire", bitw(BitwPlacement::Wire)),
    ]
}

#[test]
fn steady_state_cycles_never_allocate() {
    for (name, mut sim) in inputs() {
        sim.boot();
        assert_eq!(sim.run_session_burst(WARM_UP_CYCLES), WARM_UP_CYCLES, "{name}: halted");
        let before = allocations();
        let ran = sim.run_session_burst(MEASURED_CYCLES);
        let allocated = allocations() - before;
        assert_eq!(ran, MEASURED_CYCLES, "{name}: halted");
        assert_eq!(allocated, 0, "{name}: {allocated} allocations over {ran} cycles");
        if let Some(gate) = sim.rig().channel.interceptor::<GatedInjection>() {
            assert!(gate.injections() > 0, "{name}: the gate never opened");
        }
    }
}
