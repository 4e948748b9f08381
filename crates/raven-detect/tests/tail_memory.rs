//! Paper-scale threshold training fits in a bounded amount of memory.
//!
//! A counting global allocator tracks the live heap bytes of the process
//! and their peak. The test folds 600 synthetic runs of 1 094 Pedal-Down
//! cycles (the paper's run count, and the sample count of one paper-scale
//! Table IV training run) into [`ThresholdTails`] sized for 600 runs of
//! 2 000 cycles, building each run's learner just before it is folded and
//! dropping it after, as the campaign executor does. The peak must stay
//! under 2 MiB: a learner that kept every sample would hold
//! 9 × 656 400 values, ~47 MiB, before sorting a copy of each feature.
//! This file holds one test, so nothing else allocates while it runs.

#![expect(
    unsafe_code,
    reason = "`GlobalAlloc` is an unsafe trait; the counting allocator only delegates to `System`, and each unsafe item carries a SAFETY comment"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use raven_detect::{InstantFeatures, ThresholdLearner, ThresholdTails};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: both methods forward their arguments to `System` unchanged, so
// this allocator keeps `System`'s contract; counting touches only two
// atomics, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's `GlobalAlloc::alloc` contract is `System`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    // SAFETY: `ptr` came from `System.alloc` above, with this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const RUNS: u64 = 600;
const CYCLES_PER_RUN: u64 = 1_094;
const SESSION_MS: usize = 2_000;
const PEAK_BOUND: usize = 2 << 20;

/// Run `run`'s learner: `CYCLES_PER_RUN` cycles of pseudo-random feature
/// magnitudes.
fn learner(run: u64) -> ThresholdLearner {
    let mut learner = ThresholdLearner::new();
    for cycle in 0..CYCLES_PER_RUN {
        let mut word = simbus::rng::splitmix64(run << 32 | cycle);
        let mut next = || {
            word = simbus::rng::splitmix64(word);
            (word >> 11) as f64 / (1u64 << 53) as f64
        };
        learner.observe(&InstantFeatures {
            motor_accel: [next() * 400.0, next() * 900.0, next() * 1_200.0],
            motor_vel: [next() * 5.5, next() * 5.4, next() * 4.6],
            joint_vel: [next() * 0.07, next() * 0.05, next() * 0.02],
            ee_step: 0.0,
        });
    }
    learner.end_run();
    learner
}

#[test]
fn paper_scale_training_peaks_under_two_mib() {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);

    let mut tails = ThresholdTails::new((99.8, 99.9), RUNS as usize * SESSION_MS);
    for run in 0..RUNS {
        tails.fold(&learner(run));
    }
    let thresholds = tails.learn().expect("samples were folded");

    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(tails.samples(), RUNS * CYCLES_PER_RUN);
    assert!(thresholds.motor_accel[0] > 390.0 && thresholds.motor_accel[0] < 400.0);
    assert!(
        peak <= PEAK_BOUND,
        "folding {RUNS} runs peaked at {peak} live heap bytes (bound {PEAK_BOUND})"
    );
    eprintln!("peak live heap bytes: {peak}");
}
