//! Integration tests for the parallel campaign executor: the merged output
//! of every ported sweep must be **byte-identical** (after JSON
//! serialization) to a serial execution, for any worker count, and a
//! panicking run must never take its neighbours down with it.

use proptest::prelude::*;
use raven_core::experiments::{run_fig9_with, run_table4_with, Fig9Config, Table4Config};
use raven_core::training::TrainingConfig;
use raven_core::{run_sweep, ExecutorConfig};
use simbus::rng::splitmix64;

/// A reduced-but-real Table IV protocol: small enough for CI, large enough
/// that several workers actually interleave.
fn tiny_table4(seed: u64) -> Table4Config {
    Table4Config {
        scenario_a_runs: 10,
        scenario_b_runs: 10,
        session_ms: 1_500,
        training: TrainingConfig { runs: 4, ..TrainingConfig::quick(seed) },
        ..Table4Config::quick(seed)
    }
}

fn tiny_fig9(seed: u64) -> Fig9Config {
    Fig9Config {
        values: vec![2_000, 30_000],
        durations_ms: vec![4, 128],
        repetitions: 3,
        session_ms: 1_500,
        training: TrainingConfig { runs: 4, ..TrainingConfig::quick(seed) },
        seed,
    }
}

#[test]
fn table4_parallel_is_byte_identical_to_serial() {
    let config = tiny_table4(7);
    let serial = serde_json::to_string(&run_table4_with(&config, &ExecutorConfig::serial()))
        .expect("serialize serial table4");
    for workers in [2, 5] {
        let parallel = serde_json::to_string(&run_table4_with(
            &config,
            &ExecutorConfig::with_workers(workers),
        ))
        .expect("serialize parallel table4");
        assert_eq!(parallel, serial, "table4 diverged at workers={workers}");
    }
}

#[test]
fn fig9_parallel_is_byte_identical_to_serial() {
    let config = tiny_fig9(11);
    let serial = serde_json::to_string(&run_fig9_with(&config, &ExecutorConfig::serial()))
        .expect("serialize serial fig9");
    for workers in [3, 8] {
        let parallel =
            serde_json::to_string(&run_fig9_with(&config, &ExecutorConfig::with_workers(workers)))
                .expect("serialize parallel fig9");
        assert_eq!(parallel, serial, "fig9 diverged at workers={workers}");
    }
}

#[test]
fn poisoned_seed_yields_one_error_and_full_results_elsewhere() {
    // Jobs heavy enough that workers genuinely interleave with the panic.
    let seed_of = |i: usize| splitmix64(3 ^ i as u64);
    let poisoned = seed_of(7);
    let mut ok = Vec::new();
    let swept = run_sweep(
        "poison",
        24,
        &ExecutorConfig::with_workers(4),
        seed_of,
        |i, seed, _metrics| {
            let mut acc = seed;
            for _ in 0..10_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            assert!(seed != poisoned, "seed {seed:#x} is poisoned");
            (i, acc)
        },
        |_, run| ok.push(run),
    );
    assert_eq!(swept.stats.runs, 24);
    assert_eq!(swept.stats.errors, 1);
    let errors = swept.errors;
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].index, 7);
    assert_eq!(errors[0].seed, poisoned);
    assert!(errors[0].message.contains("poisoned"));
    assert_eq!(ok.len(), 23);
    let expected_indices: Vec<usize> = (0..24).filter(|i| *i != 7).collect();
    let got_indices: Vec<usize> = ok.iter().map(|(i, _)| *i).collect();
    assert_eq!(got_indices, expected_indices);
}

proptest! {
    /// For arbitrary worker counts and sweep sizes, the fold's `i`-th value
    /// is always run `i`'s result under run `i`'s seed — scheduling is
    /// unobservable.
    #[test]
    fn sweep_order_matches_seed_order(workers in 1usize..12, n in 0usize..48, root in any::<u64>()) {
        let seed_of = |i: usize| splitmix64(root ^ i as u64);
        let mut folded = Vec::new();
        let swept = run_sweep(
            "prop",
            n,
            &ExecutorConfig::with_workers(workers),
            seed_of,
            |i, seed, _metrics| (i, seed, seed.rotate_left((i % 64) as u32)),
            |_, run| folded.push(run),
        );
        prop_assert_eq!(swept.stats.runs, n);
        prop_assert_eq!(swept.stats.errors, 0);
        prop_assert_eq!(folded.len(), n);
        for (i, (idx, seed, derived)) in folded.iter().enumerate() {
            let expected_seed = seed_of(i);
            prop_assert_eq!(*idx, i);
            prop_assert_eq!(*seed, expected_seed);
            prop_assert_eq!(*derived, expected_seed.rotate_left((i % 64) as u32));
        }
    }
}

// ---------------------------------------------------------------------------
// Minimizer fixture: a failing sweep property shrinks to the smallest
// sweep that still trips it, scheduled on a single worker.

#[test]
fn minimizer_pins_the_smallest_failing_sweep() {
    use proptest::test_runner::run_reporting;
    let cfg = ProptestConfig::with_cases(64);
    let strat = (1usize..12, 0usize..48);
    let failure = run_reporting("campaign_minimizer_fixture", &cfg, &strat, |(workers, n)| {
        let swept = run_sweep(
            "fixture",
            n,
            &ExecutorConfig::with_workers(workers),
            |i| splitmix64(5 ^ i as u64),
            |i, seed, _metrics| (i, seed),
            |_, _| {},
        );
        if swept.stats.runs >= 10 {
            Err(TestCaseError::fail("sweep large enough to trip the fixture"))
        } else {
            Ok(())
        }
    })
    .expect_err("property was constructed to fail");
    let (workers, n) = failure.minimized;
    assert_eq!(workers, 1, "worker count shrinks to the range start");
    assert_eq!(n, 10, "sweep size lands exactly on the threshold");
}
