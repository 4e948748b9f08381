//! The rig plane: a fleet of full sessions is one campaign-executor
//! sweep of standalone sessions.
//!
//! Run `i` of the sweep is [`run_standalone`]`(&specs[i], i)`, and the
//! executor merges results in run order for any worker count. Each
//! artifact is therefore the standalone artifact of its spec by
//! construction — the contract `tests/fleet_equiv.rs` pins. Only the
//! sessions in flight (one per worker) are alive at a time.

use raven_core::{run_sweep, ExecutorConfig};

use crate::session::{run_standalone, SessionArtifact, SessionSpec};

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
/// use raven_core::ExecutorConfig;
/// use raven_fleet::{run_fleet, SessionSpec};
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
    run_sweep(
        "fleet",
        specs.len(),
        exec,
        |i| specs[i].config.seed,
        |i, _| run_standalone(&specs[i], i as u64),
    )
    .expect_all("fleet")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_of_one_matches_standalone() {
        let spec = SessionSpec::attacked(21).with_session_ms(600);
        let artifacts = run_fleet(std::slice::from_ref(&spec), &ExecutorConfig::serial());
        assert_eq!(artifacts.len(), 1);
        assert_eq!(artifacts[0].to_json(), run_standalone(&spec, 0).to_json());
    }
}
