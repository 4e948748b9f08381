//! Figure 8 — validation of the dynamic model against the (simulated)
//! physical robot.
//!
//! The paper runs the model in parallel with the robot — both receiving the
//! same DAC commands — and reports, for the 4th-order Runge–Kutta and Euler
//! integrators at a 1 ms step: the average wall-clock time per step and the
//! average motor/joint position errors for the first three joints, over 10
//! different runs. The reproduction follows the same protocol: record the
//! executed DAC stream and ground-truth trajectory from clean full-system
//! sessions, then replay the DAC stream open-loop through the real-time
//! model with each integrator. The errors form the deterministic
//! [`Fig8Result`]; the step times are host readings, returned beside it as
//! [`StepTime`]s.

#![expect(
    clippy::disallowed_methods,
    reason = "the wall clock times the model replay for the StepTime readings, which go only to the unsealed profile sidecar; the Fig8Result record is virtual-time-derived"
)]

use std::time::Instant;

use raven_dynamics::estimator::RtModelConfig;
use raven_dynamics::RtModel;
use raven_math::angles::rad_to_deg;
use raven_math::ode::Method;
use serde::{Deserialize, Serialize};
use simbus::obs::streams;
use simbus::rng::derive_seed;

use crate::session::{run_spec, SessionSpec};
use crate::sim::{SimConfig, Simulation, Workload};

/// Per-joint average absolute error of one integrator.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct JointError {
    /// Mean absolute motor-position error (degrees for all axes — motor
    /// shafts are rotational everywhere).
    pub mpos_err_deg: f64,
    /// Motor error as a percentage of the motor's motion range in the run.
    pub mpos_err_pct: f64,
    /// Mean absolute joint-position error (degrees for joints 1–2, mm for
    /// joint 3).
    pub jpos_err: f64,
    /// Joint error as a percentage of the joint's motion range.
    pub jpos_err_pct: f64,
}

/// One integrator's row of Fig. 8's table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodRow {
    /// Integration method.
    pub method: String,
    /// Per-joint errors (shoulder, elbow, insertion).
    pub joints: [JointError; 3],
}

/// One integrator's step time: the wall-clock half of Fig. 8's table,
/// kept out of the [`Fig8Result`] record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepTime {
    /// Integration method, as in [`MethodRow::method`].
    pub method: String,
    /// Average wall-clock time per model step (milliseconds).
    pub avg_time_ms_per_step: f64,
}

/// The step time of the first method whose name contains `fragment`.
pub fn ms_per_step(times: &[StepTime], fragment: &str) -> Option<f64> {
    times.iter().find(|t| t.method.contains(fragment)).map(|t| t.avg_time_ms_per_step)
}

/// One downsampled point of the model-vs-robot trajectory overlay (the
/// plotted half of Fig. 8).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OverlayPoint {
    /// Time since tracking start (ms).
    pub t_ms: f64,
    /// Ground-truth joint positions.
    pub truth_jpos: [f64; 3],
    /// Euler-model joint estimates.
    pub model_jpos: [f64; 3],
}

/// The Fig. 8 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Result {
    /// RK4 and Euler rows.
    pub methods: Vec<MethodRow>,
    /// Paired runs executed.
    pub runs: u32,
    /// Total model steps evaluated per method.
    pub steps: u64,
    /// Trajectory overlay from the first run (every 10th ms), for plotting.
    pub overlay: Vec<OverlayPoint>,
}

impl Fig8Result {
    /// Renders the table in the paper's layout, each row with its method's
    /// step time from `times`.
    pub fn render(&self, times: &[StepTime]) -> String {
        let mut out = String::from("FIGURE 8 (reproduced): dynamic model validation\n");
        out.push_str(&format!(
            "{:<26} {:>12} | {:>9} {:>9} | {:>9} {:>9} | {:>10} {:>9}\n",
            "Integration (1 ms step)",
            "ms/step",
            "J1 mpos°",
            "J1 jpos°",
            "J2 mpos°",
            "J2 jpos°",
            "J3 mpos°",
            "J3 jpos mm"
        ));
        for m in &self.methods {
            out.push_str(&format!(
                "{:<26} {:>12.6} | {:>9.2} {:>9.3} | {:>9.2} {:>9.3} | {:>10.2} {:>9.3}\n",
                m.method,
                ms_per_step(times, &m.method).unwrap_or(f64::NAN),
                m.joints[0].mpos_err_deg,
                m.joints[0].jpos_err,
                m.joints[1].mpos_err_deg,
                m.joints[1].jpos_err,
                m.joints[2].mpos_err_deg,
                m.joints[2].jpos_err,
            ));
        }
        out.push_str(&format!("(averaged over {} runs, {} steps/method)\n", self.runs, self.steps));
        out
    }

    /// Row lookup by method display name fragment.
    pub fn row(&self, fragment: &str) -> Option<&MethodRow> {
        self.methods.iter().find(|m| m.method.contains(fragment))
    }
}

/// Runs the Fig. 8 protocol: `runs` paired model/robot runs per integrator.
/// Returns the record and, beside it, each integrator's step time.
///
/// `model_perturbation` reproduces the hand-tuned-model mismatch (0.02 is
/// the repository default; 0.0 gives the idealized perfectly-known model).
///
/// # Panics
///
/// Panics if `runs` is zero.
pub fn run_fig8(
    seed: u64,
    runs: u32,
    session_ms: u64,
    model_perturbation: f64,
) -> (Fig8Result, Vec<StepTime>) {
    assert!(runs > 0, "need at least one run");
    // Accumulators per method per joint: (sum |mpos err| deg, sum |jpos err|,
    // count), plus motion ranges for percentages and step timings.
    let methods = Method::all();
    let mut err_mpos = [[0.0f64; 3]; 2];
    let mut err_jpos = [[0.0f64; 3]; 2];
    let mut range_mpos = [[0.0f64; 3]; 2];
    let mut range_jpos = [[0.0f64; 3]; 2];
    let mut steps_total = [0u64; 2];
    let mut time_total = [0.0f64; 2];
    let mut overlay: Vec<OverlayPoint> = Vec::new();

    for run in 0..runs {
        let run_seed = derive_seed(seed, streams::FIG8.at(&run.to_string()));
        let workload = Workload::training_pair()[(run % 2) as usize];
        let spec = SessionSpec::new(SimConfig {
            workload,
            session_ms,
            record_cycles: true,
            ..SimConfig::standard(run_seed)
        });
        let sim = run_spec(&spec, |_| {}).expect_booted().sim;
        let log = sim.cycle_log();

        // Replay only the engaged (Pedal Down) portion: the model estimates
        // motion, and the brakes hold everything elsewhere.
        let engaged: Vec<_> = log.iter().filter(|c| c.engaged).collect();
        if engaged.len() < 100 {
            continue;
        }
        let model_params = sim_plant_params(&sim, run_seed, model_perturbation);

        for (mi, method) in methods.iter().enumerate() {
            let mut model = RtModel::with_config(
                model_params,
                RtModelConfig { method: *method, step_size: 1e-3 },
            );
            model.reset_tracking(engaged[0].state);
            // Motion ranges for percentage normalization.
            let mut min_m = [f64::INFINITY; 3];
            let mut max_m = [f64::NEG_INFINITY; 3];
            let mut min_j = [f64::INFINITY; 3];
            let mut max_j = [f64::NEG_INFINITY; 3];
            let started = Instant::now();
            for (step, window) in engaged.windows(2).enumerate() {
                let (prev, truth) = (window[0], window[1]);
                let predicted = model.track_step(&prev.dac);
                let pm = predicted.motor_pos().to_array();
                let pj = predicted.joint_pos().to_array();
                let tm = truth.state.motor_pos().to_array();
                let tj = truth.state.joint_pos().to_array();
                // Overlay: first run, Euler row, every 10th step.
                if run == 0 && *method == Method::Euler && step % 10 == 0 {
                    overlay.push(OverlayPoint {
                        t_ms: step as f64,
                        truth_jpos: tj,
                        model_jpos: pj,
                    });
                }
                for i in 0..3 {
                    err_mpos[mi][i] += rad_to_deg((pm[i] - tm[i]).abs());
                    let je = (pj[i] - tj[i]).abs();
                    err_jpos[mi][i] += if i == 2 { je * 1000.0 } else { rad_to_deg(je) };
                    min_m[i] = min_m[i].min(tm[i]);
                    max_m[i] = max_m[i].max(tm[i]);
                    min_j[i] = min_j[i].min(tj[i]);
                    max_j[i] = max_j[i].max(tj[i]);
                }
                steps_total[mi] += 1;
            }
            time_total[mi] += started.elapsed().as_secs_f64();
            for i in 0..3 {
                let rm = (max_m[i] - min_m[i]).max(1e-9);
                let rj = (max_j[i] - min_j[i]).max(1e-9);
                range_mpos[mi][i] += rad_to_deg(rm);
                range_jpos[mi][i] += if i == 2 { rj * 1000.0 } else { rad_to_deg(rj) };
            }
        }
    }

    let mut rows = Vec::new();
    let mut times = Vec::new();
    for (mi, method) in methods.iter().enumerate() {
        let n = steps_total[mi].max(1) as f64;
        let runs_f = f64::from(runs);
        let mut joints =
            [JointError { mpos_err_deg: 0.0, mpos_err_pct: 0.0, jpos_err: 0.0, jpos_err_pct: 0.0 };
                3];
        for i in 0..3 {
            let me = err_mpos[mi][i] / n;
            let je = err_jpos[mi][i] / n;
            let rm = range_mpos[mi][i] / runs_f;
            let rj = range_jpos[mi][i] / runs_f;
            joints[i] = JointError {
                mpos_err_deg: me,
                mpos_err_pct: 100.0 * me / rm.max(1e-9),
                jpos_err: je,
                jpos_err_pct: 100.0 * je / rj.max(1e-9),
            };
        }
        rows.push(MethodRow { method: method.to_string(), joints });
        times.push(StepTime {
            method: method.to_string(),
            avg_time_ms_per_step: 1e3 * time_total[mi] / n,
        });
    }
    (Fig8Result { methods: rows, runs, steps: steps_total[0], overlay }, times)
}

fn sim_plant_params(
    sim: &Simulation,
    run_seed: u64,
    perturbation: f64,
) -> raven_dynamics::PlantParams {
    let plant = *sim.rig_params();
    if perturbation > 0.0 {
        plant.perturbed(derive_seed(run_seed, streams::FIG8_MODEL), perturbation)
    } else {
        plant
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euler_is_faster_with_comparable_error() {
        // Reduced protocol for test speed; `raven-sim artifacts` runs the 10-run
        // paper-scale version.
        let (r, times) = run_fig8(4, 2, 2_000, 0.02);
        assert_eq!(r.methods.len(), 2);
        let rk4 = r.row("Runge").expect("rk4 row");
        let euler = r.row("Euler").expect("euler row");
        let (euler_ms, rk4_ms) = (ms_per_step(&times, "Euler"), ms_per_step(&times, "Runge"));
        // Fig. 8's headline: Euler is markedly cheaper per step…
        assert!(
            euler_ms.zip(rk4_ms).is_some_and(|(e, r)| e < r),
            "euler {euler_ms:?} ms vs rk4 {rk4_ms:?} ms"
        );
        // …and both stay inside the 1 ms control budget.
        assert!(rk4_ms.is_some_and(|t| t < 1.0));
        // …with errors of the same order (within 3× of each other).
        for i in 0..3 {
            let a = euler.joints[i].jpos_err.max(1e-6);
            let b = rk4.joints[i].jpos_err.max(1e-6);
            assert!(a / b < 3.0 && b / a < 3.0, "joint {i}: euler {a} vs rk4 {b}");
        }
        // The model tracks the robot: joint errors are small relative to
        // motion (the paper reports ~1–2%; we accept < 30% for the reduced
        // protocol).
        for i in 0..3 {
            assert!(
                euler.joints[i].jpos_err_pct < 30.0,
                "joint {i} error {}% too large\n{}",
                euler.joints[i].jpos_err_pct,
                r.render(&times)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_panics() {
        let _ = run_fig8(1, 0, 100, 0.0);
    }
}
