//! Tier-1 chaos-harness invariants: seed-driven fault injection must be
//! replay-deterministic (same spec ⇒ byte-identical reports, regardless
//! of how many campaign workers run the jobs), and a disabled chaos
//! schedule must consume no randomness at all.

use raven_core::{run_standalone, run_sweep, ExecutorConfig, SessionSpec, SimConfig, Simulation};
use raven_verify::{for_oracles, observed, run_oracles, Expectations};
use simbus::ChaosConfig;

/// The short verification specs the worker-count sweep replays (sized
/// for debug-mode tier-1 runtime).
fn sweep_specs() -> Vec<SessionSpec> {
    vec![
        short_spec(SessionSpec::guarded(11), ChaosConfig::standard()),
        short_spec(SessionSpec::defended(12), ChaosConfig::link_only()),
        short_spec(observed(13), ChaosConfig::standard()),
        short_spec(SessionSpec::guarded(14), ChaosConfig::link_only()),
    ]
}

/// A verification session cut to 1.5 s under `chaos`.
fn short_spec(spec: SessionSpec, chaos: ChaosConfig) -> SessionSpec {
    for_oracles(spec).with_chaos(chaos).with_session_ms(1_500)
}

/// Runs every sweep spec through the campaign executor and returns the
/// concatenated serialized reports, in spec order.
fn sweep_reports(workers: usize) -> String {
    let specs = sweep_specs();
    let config =
        if workers == 1 { ExecutorConfig::serial() } else { ExecutorConfig::with_workers(workers) };
    let mut joined = String::new();
    run_sweep(
        "chaos-verify",
        specs.len(),
        &config,
        |i| specs[i].config.seed,
        |i, _seed, _metrics| run_standalone(&specs[i], i as u64, |_| {}).to_json(),
        |_, report| {
            joined.push_str(&report);
            joined.push('\n');
        },
    )
    .expect_all("chaos job must not panic");
    joined
}

/// Same (scenario, chaos seed) ⇒ byte-identical reports for any worker
/// count: the chaos schedule is derived from the root seed, never from
/// scheduling order.
#[test]
fn chaos_replay_is_byte_identical_across_worker_counts() {
    let serial = sweep_reports(1);
    for workers in [2, 4] {
        let parallel = sweep_reports(workers);
        assert_eq!(
            serial, parallel,
            "chaos reports must not depend on the worker count (workers={workers})"
        );
    }
}

/// The attacked spec in the sweep must still boot, detect, and E-STOP
/// under link chaos — a light oracle pass wired into tier-1.
#[test]
fn short_estop_spec_passes_light_oracles() {
    let spec = short_spec(SessionSpec::defended(12), ChaosConfig::link_only());
    let report = run_standalone(&spec, 0, |_| {});
    let oracles = run_oracles(
        &report,
        &Expectations {
            must_boot: true,
            must_detect: true,
            must_estop: true,
            ..Expectations::default()
        },
    );
    assert!(oracles.passed(), "oracle failures:\n{}", oracles.failure_summary());
}

/// A disabled chaos schedule consumes zero RNG: installing
/// `ChaosConfig::off()` leaves the run byte-identical to never calling
/// `install_chaos` at all.
#[test]
fn chaos_off_consumes_no_rng() {
    let run = |install_off: bool| {
        let mut sim = Simulation::new(SimConfig { session_ms: 1_200, ..SimConfig::standard(77) });
        if install_off {
            let scheduled = sim.install_chaos(&ChaosConfig::off());
            assert_eq!(scheduled, 0, "ChaosConfig::off() must schedule nothing");
        }
        sim.boot();
        let outcome = sim.run_session();
        let metrics = sim.metrics();
        format!(
            "{}\n{}",
            serde_json::to_string_pretty(&outcome).expect("outcome serializes"),
            serde_json::to_string_pretty(&metrics).expect("metrics serialize"),
        )
    };
    assert_eq!(run(false), run(true), "ChaosConfig::off() must not perturb the run");
}
