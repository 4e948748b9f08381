//! Figure 6 — Byte 0 state patterns across nine different robot runs.
//!
//! The paper shows that across nine separately-captured sessions the state
//! staircase (E-STOP → Homing → Pedal Up ⇄ Pedal Down) is recoverable from
//! Byte 0 alone. This runner executes nine randomized sessions with
//! different pedal duty cycles, performs the offline analysis on each, and
//! checks the inferred segment sequence against the ground truth.

use raven_attack::{find_state_byte, infer_state_segments, LoggingWrapper};
use raven_hw::RobotState;
use serde::{Deserialize, Serialize};
use simbus::obs::streams;
use simbus::rng::derive_seed;

use crate::session::{run_spec, SessionSpec};
use crate::sim::{PedalPattern, SimConfig, Workload};

use super::fig5::eavesdrop;

/// One run's inference outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunInference {
    /// Run index (0–8).
    pub run: usize,
    /// Packets captured.
    pub packets: usize,
    /// Inferred state-nibble staircase (deduplicated segment values).
    pub inferred_states: Vec<u8>,
    /// The trigger values the attacker would derive.
    pub trigger_values: Vec<u8>,
    /// Whether the inferred staircase matches the ground-truth session
    /// structure (starts E-STOP→Init→PedalUp and alternates correctly).
    pub matches_ground_truth: bool,
}

/// The Fig. 6 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Per-run inferences (nine runs, as in the paper).
    pub runs: Vec<RunInference>,
}

impl Fig6Result {
    /// Number of runs whose state machine was correctly recovered.
    pub fn correct_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.matches_ground_truth).count()
    }

    /// Renders the figure's findings as text.
    pub fn render(&self) -> String {
        let mut out = String::from("FIGURE 6 (reproduced): Byte 0 across nine runs\n");
        for r in &self.runs {
            out.push_str(&format!(
                "run {}: {} packets, states {:02X?}, trigger {:02X?}, ground truth {}\n",
                r.run,
                r.packets,
                r.inferred_states,
                r.trigger_values,
                if r.matches_ground_truth { "recovered" } else { "MISMATCH" }
            ));
        }
        out.push_str(&format!("{}/{} runs recovered\n", self.correct_runs(), self.runs.len()));
        out
    }
}

/// Runs nine randomized sessions and infers the state machine from each.
pub fn run_fig6(seed: u64) -> Fig6Result {
    let mut runs = Vec::new();
    for run in 0..9 {
        let run_seed = derive_seed(seed, streams::FIG6.at(&run.to_string()));
        // Vary session structure run to run, as the paper's nine captures do.
        let cycles = 2 + (run % 3) as u32;
        let work_ms = 600 + 150 * (run as u64 % 4);
        let workload = if run % 2 == 0 { Workload::Circle } else { Workload::Suturing };
        let spec = SessionSpec::new(SimConfig {
            workload,
            session_ms: (work_ms + 250) * u64::from(cycles) + 1_800,
            pedal: PedalPattern::DutyCycle { work_ms, rest_ms: 250, cycles },
            ..SimConfig::standard(run_seed)
        });
        let session = run_spec(&spec, eavesdrop).expect_booted();

        let capture =
            session.sim.rig().channel.interceptor::<LoggingWrapper>().expect("installed").capture();
        let (inferred_states, trigger_values) = match find_state_byte(capture) {
            Ok(h) => {
                let segments = infer_state_segments(capture, &h);
                // Ignore micro-segments (single stray packets).
                let staircase: Vec<u8> =
                    segments.iter().filter(|s| s.packets >= 3).map(|s| s.value).collect();
                (dedup_adjacent(&staircase), h.trigger_values())
            }
            Err(_) => (Vec::new(), Vec::new()),
        };
        let matches_ground_truth = check_ground_truth(&inferred_states, cycles);
        runs.push(RunInference {
            run,
            packets: capture.len(),
            inferred_states,
            trigger_values,
            matches_ground_truth,
        });
    }
    Fig6Result { runs }
}

fn dedup_adjacent(values: &[u8]) -> Vec<u8> {
    let mut out: Vec<u8> = Vec::new();
    for &v in values {
        if out.last() != Some(&v) {
            out.push(v);
        }
    }
    out
}

/// Ground truth: E-STOP → Init → (Pedal Up → Pedal Down)×cycles, possibly
/// ending in Pedal Up.
fn check_ground_truth(staircase: &[u8], cycles: u32) -> bool {
    let estop = RobotState::EStop.nibble();
    let init = RobotState::Init.nibble();
    let up = RobotState::PedalUp.nibble();
    let down = RobotState::PedalDown.nibble();
    let mut expect = vec![estop, init];
    for _ in 0..cycles {
        expect.push(up);
        expect.push(down);
    }
    // Session may end with a final Pedal Up segment.
    staircase == expect.as_slice()
        || {
            let mut with_tail = expect.clone();
            with_tail.push(up);
            staircase == with_tail.as_slice()
        }
        || {
            // Or the capture may start after the E-STOP idle (no packets until
            // the software starts writing).
            staircase.len() >= 2 && staircase[0] == init && {
                let mut no_estop = expect[1..].to_vec();
                let matched = staircase == no_estop.as_slice();
                no_estop.push(up);
                matched || staircase == no_estop.as_slice()
            }
        }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nine_runs_recover_the_state_machine() {
        let r = run_fig6(5);
        assert_eq!(r.runs.len(), 9);
        assert_eq!(r.correct_runs(), 9, "state inference failed on some runs:\n{}", r.render());
        // Every run derives the paper's trigger values.
        for run in &r.runs {
            let mut t = run.trigger_values.clone();
            t.sort_unstable();
            assert_eq!(t, vec![0x0F, 0x1F], "run {} trigger {:02X?}", run.run, t);
        }
    }

    #[test]
    fn dedup_adjacent_collapses() {
        assert_eq!(dedup_adjacent(&[1, 1, 2, 2, 1]), vec![1, 2, 1]);
        assert!(dedup_adjacent(&[]).is_empty());
    }
}
