//! The rig plane: a fleet of full sessions is one campaign-executor
//! sweep of the session runner.
//!
//! Run `i` of the sweep is [`run_spec`]`(&specs[i], |_| {})`, snapshotted
//! as artifact `i`, and the executor merges results in run order for any
//! worker count. Each artifact is therefore the standalone artifact of its
//! spec — the contract `tests/fleet_equiv.rs` pins. Only the sessions in
//! flight (one per worker) are alive at a time.

use raven_core::{run_spec, run_sweep, ExecutorConfig, SessionArtifact, SessionSpec};

/// A deterministic mixed-scenario fleet: clean, guarded, attacked,
/// defended, and block-and-hold sessions with distinct seeds and
/// staggered horizons. Used by the `raven-sim fleet` CLI
/// and the equivalence/soak suites.
pub fn standard_mix(n: usize, base_seed: u64) -> Vec<SessionSpec> {
    (0..n)
        .map(|i| {
            // Plain arithmetic seed spread (no RNG stream involved):
            // distinct, deterministic, order independent.
            let seed = base_seed.wrapping_add(7919 * i as u64 + 1);
            let spec = match i % 5 {
                0 => SessionSpec::clean(seed),
                1 => SessionSpec::guarded(seed),
                2 => SessionSpec::attacked(seed),
                3 => SessionSpec::defended(seed),
                _ => SessionSpec::held(seed),
            };
            spec.with_session_ms(800 + 400 * (i % 3) as u64)
        })
        .collect()
}

/// Runs every spec to its horizon (or halt) on the campaign executor
/// and returns the artifacts in spec order; artifact `i` carries id `i`.
///
/// # Panics
///
/// Panics listing every session that panicked.
///
/// # Example
///
/// ```
/// use raven_core::{ExecutorConfig, SessionSpec};
/// use raven_fleet::run_fleet;
///
/// let specs = [
///     SessionSpec::clean(11).with_session_ms(40),
///     SessionSpec::clean(12).with_session_ms(40),
/// ];
/// let artifacts = run_fleet(&specs, &ExecutorConfig::serial());
/// assert_eq!(artifacts.len(), 2);
/// assert!(artifacts.iter().all(|a| a.booted));
/// ```
pub fn run_fleet(specs: &[SessionSpec], exec: &ExecutorConfig) -> Vec<SessionArtifact> {
    let mut artifacts = Vec::with_capacity(specs.len());
    run_sweep(
        "fleet",
        specs.len(),
        exec,
        |i| specs[i].config.seed,
        |i, _, _| run_spec(&specs[i], |_| {}).artifact(&specs[i], i as u64),
        |_, artifact| artifacts.push(artifact),
    )
    .expect_all("fleet");
    artifacts
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_core::run_standalone;

    #[test]
    fn fleet_of_one_matches_standalone() {
        let spec = SessionSpec::attacked(21).with_session_ms(600);
        let artifacts = run_fleet(std::slice::from_ref(&spec), &ExecutorConfig::serial());
        assert_eq!(artifacts.len(), 1);
        assert_eq!(artifacts[0].to_json(), run_standalone(&spec, 0, |_| {}).to_json());
    }
}
