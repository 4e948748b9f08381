//! Network-degradation study — the related-work comparison of §V.A.
//!
//! The paper contrasts its host-level attacks with the network-level DoS and
//! MITM attacks of Bonaci et al. (its refs. 7 and 8): "causing the user input
//! packets to be delayed or get lost in transit to the robot might lead to
//! jerky motions of the robotic arms or difficulty in performing tasks",
//! while packet-content modification on the network "led the safety software
//! to detect the over-current commands … and prevent harm". This study
//! reproduces that contrast on our stack: loss/delay degrade tracking but
//! never jump the arm, and the host-level TOCTOU injection — the paper's
//! actual contribution — is strictly more harmful than anything the network
//! can do.

use serde::{Deserialize, Serialize};
use simbus::obs::channels;
use simbus::obs::streams::{self, Stream};
use simbus::rng::derive_seed;
use simbus::{LinkConfig, SimDuration};

use crate::scenario::AttackSetup;
use crate::session::{hot_attack, run_spec, SessionSpec};
use crate::sim::{SimConfig, Workload};

/// One network condition's measured effect.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkRow {
    /// Condition label.
    pub condition: String,
    /// Packet-loss probability.
    pub loss: f64,
    /// One-way delay (ms).
    pub delay_ms: f64,
    /// RMS tracking error of the end-effector against the commanded path
    /// over the session (mm).
    pub rms_tracking_error_mm: f64,
    /// Worst 2 ms end-effector step (mm) — the jerk metric.
    pub max_step_2ms_mm: f64,
    /// Adverse impact (>1 mm in 1–2 ms)?
    pub adverse: bool,
    /// Session completed in Pedal Down?
    pub completed: bool,
}

/// The network study result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkStudy {
    /// One row per condition, plus the host-level injection reference row.
    pub rows: Vec<NetworkRow>,
}

impl NetworkStudy {
    /// Renders as text.
    pub fn render(&self) -> String {
        let mut out =
            String::from("STUDY: network degradation vs host-level injection (paper §V.A)\n");
        out.push_str(&format!(
            "{:<22} {:>6} {:>9} {:>14} {:>14} {:>8} {:>10}\n",
            "condition",
            "loss",
            "delay ms",
            "rms err (mm)",
            "2ms step (mm)",
            "adverse",
            "completed"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<22} {:>6.2} {:>9.1} {:>14.3} {:>14.3} {:>8} {:>10}\n",
                r.condition,
                r.loss,
                r.delay_ms,
                r.rms_tracking_error_mm,
                r.max_step_2ms_mm,
                r.adverse,
                r.completed
            ));
        }
        out
    }

    /// Finds a row by label.
    pub fn row(&self, label: &str) -> Option<&NetworkRow> {
        self.rows.iter().find(|r| r.condition == label)
    }
}

fn run_condition(
    seed: u64,
    label: Stream<'static>,
    link: LinkConfig,
    attack: AttackSetup,
) -> NetworkRow {
    let spec = |link| {
        SessionSpec::new(SimConfig {
            workload: Workload::Circle,
            session_ms: 4_000,
            link,
            record_cycles: true,
            ..SimConfig::standard(derive_seed(seed, label))
        })
    };
    let run = run_spec(&spec(link).with_attack(attack), |_| {}).expect_booted();
    let out = &run.outcome;

    // RMS tracking error against an ideal-link replica of the same session.
    // (With no reference available in-band, compare against the clean
    // ideal-network run of the same seed and workload.)
    let reference = run_spec(&spec(LinkConfig::ideal()), |_| {}).expect_booted();

    let a = run.sim.trace();
    let b = reference.sim.trace();
    let mut sum_sq = 0.0;
    let mut n = 0u64;
    for (sa, sb) in a.samples(channels::EE_X_MM).iter().zip(b.samples(channels::EE_X_MM)) {
        let dy = a.samples(channels::EE_Y_MM)[n as usize].value
            - b.samples(channels::EE_Y_MM)[n as usize].value;
        let dz = a.samples(channels::EE_Z_MM)[n as usize].value
            - b.samples(channels::EE_Z_MM)[n as usize].value;
        let dx = sa.value - sb.value;
        sum_sq += dx * dx + dy * dy + dz * dz;
        n += 1;
    }
    let rms = if n > 0 { (sum_sq / n as f64).sqrt() } else { 0.0 };

    NetworkRow {
        condition: label.to_string(),
        loss: link.loss_probability,
        delay_ms: link.delay.as_millis_f64(),
        rms_tracking_error_mm: rms,
        max_step_2ms_mm: out.max_ee_step_2ms * 1e3,
        adverse: out.adverse,
        completed: out.final_state == "Pedal Down",
    }
}

/// Runs the network study: ideal / LAN / lossy / very lossy / high-latency
/// conditions, plus the host-level scenario-B injection as the reference.
pub fn run_network_study(seed: u64) -> NetworkStudy {
    let lossy = |p: f64| LinkConfig { loss_probability: p, ..LinkConfig::lan() };
    let delayed = |ms: u64| LinkConfig {
        delay: SimDuration::from_millis(ms),
        jitter: SimDuration::from_millis(ms / 4),
        loss_probability: 0.0,
    };
    let clean = |label, link| run_condition(seed, label, link, AttackSetup::None);
    let rows = vec![
        clean(streams::NET_IDEAL, LinkConfig::ideal()),
        clean(streams::NET_LAN, LinkConfig::lan()),
        clean(streams::NET_LOSS_10, lossy(0.10)),
        clean(streams::NET_LOSS_50, lossy(0.50)),
        clean(streams::NET_DELAY_100MS, delayed(100)),
        run_condition(seed, streams::NET_HOST_INJECTION, LinkConfig::lan(), hot_attack()),
    ];
    NetworkStudy { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_faults_degrade_but_do_not_jump_host_injection_does() {
        let s = run_network_study(53);
        let ideal = s.row("ideal").unwrap();
        let heavy = s.row("loss-50%").unwrap();
        let injected = s.row("host-injection").unwrap();

        // Packet loss worsens tracking…
        assert!(heavy.rms_tracking_error_mm >= ideal.rms_tracking_error_mm, "{}", s.render());
        // …but no network condition produces the abrupt jump…
        for r in &s.rows {
            if r.condition != "host-injection" {
                assert!(!r.adverse, "network fault jumped the arm?\n{}", s.render());
            }
        }
        // …which the host-level TOCTOU injection does (the paper's point).
        assert!(injected.adverse, "{}", s.render());
    }

    #[test]
    fn delay_keeps_the_session_alive() {
        let s = run_network_study(57);
        let delayed = s.row("delay-100ms").unwrap();
        // 100 ms latency is clinically bad but does not halt the robot
        // (input-timeout pedal drops only on >100 ms *silence*).
        assert!(!delayed.adverse);
    }
}
