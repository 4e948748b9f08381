//! Criterion micro-benchmarks of the real-time kernels whose cost the paper
//! reports or depends on:
//!
//! * one dynamic-model step, Euler and RK4 (Fig. 8: 0.011 / 0.032 ms on the
//!   authors' testbed);
//! * one bare/logged/injected channel write (Table II);
//! * forward kinematics with and without the tool frame, and an FK + IK
//!   round (the kinematic chain of Fig. 2);
//! * one full plant control-period step (the simulation's hot loop);
//! * the scalar-vs-batched estimator+detector kernel at M ∈ {1, 8, 64, 256}
//!   sessions (the SoA fleet kernel in `raven_dynamics::batch` /
//!   `raven_detect::batch`), published as `BENCH_kernels.json` at the
//!   workspace root.
//!
//! ```sh
//! cargo bench -p bench --bench micro_kernels
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "benches measure wall time by definition; bench JSON is a sidecar artifact, never merged into results byte-identity checks"
)]

use criterion::{criterion_group, Criterion};
use raven_attack::{ActivationWindow, Corruption, InjectionWrapper, LoggingWrapper};
use raven_detect::{BatchDetector, DetectorConfig, DynamicDetector, Mitigation};
use raven_dynamics::estimator::RtModelConfig;
use raven_dynamics::{PlantParams, RavenPlant, RtModel};
use raven_hw::{RobotState, UsbChannel, UsbCommandPacket};
use raven_kinematics::{ArmConfig, JointState, MotorState};
use raven_math::ode::Method;
use serde::Serialize;
use simbus::{Observer, SimTime};
use std::hint::black_box;
use std::time::Instant;

fn bench_model_step(c: &mut Criterion) {
    let params = PlantParams::raven_ii();
    let state = params.rest_state(JointState::new(0.2, 1.3, 0.3));
    let mut group = c.benchmark_group("model_step");
    for (name, method) in [("euler", Method::Euler), ("rk4", Method::Rk4)] {
        let model = RtModel::with_config(params, RtModelConfig { method, step_size: 1e-3 });
        group.bench_function(name, |b| {
            b.iter(|| black_box(model.predict(black_box(&state), &[1200, -800, 400])))
        });
    }
    group.finish();
}

fn bench_channel_write(c: &mut Criterion) {
    let pkt = UsbCommandPacket {
        state: RobotState::PedalDown,
        watchdog: true,
        dac: [1200, -800, 400, 0, 0, 0, 0, 0],
    };
    let bytes = pkt.encode().to_vec();
    let mut group = c.benchmark_group("channel_write");
    let mut obs = Observer::default();

    let mut bare = UsbChannel::new();
    group.bench_function("baseline", |b| {
        b.iter(|| black_box(bare.write(&mut bytes.clone(), SimTime::ZERO, None, &mut obs)))
    });

    let mut logged = UsbChannel::new();
    logged.install(LoggingWrapper::new());
    group.bench_function("logging_wrapper", |b| {
        b.iter(|| black_box(logged.write(&mut bytes.clone(), SimTime::ZERO, None, &mut obs)))
    });

    let mut injected = UsbChannel::new();
    injected.install(InjectionWrapper::pedal_down_trigger(
        Corruption::AddDacWord { channel: 0, delta: 50 },
        ActivationWindow::immediate_persistent(),
    ));
    group.bench_function("injection_wrapper", |b| {
        b.iter(|| black_box(injected.write(&mut bytes.clone(), SimTime::ZERO, None, &mut obs)))
    });
    group.finish();
}

fn bench_kinematics(c: &mut Criterion) {
    let arm = ArmConfig::raven_ii_left();
    let joints = JointState::new(0.3, 1.4, 0.28);
    let pos = arm.position(&joints);
    let mut group = c.benchmark_group("kinematics");
    group.bench_function("fk_ik_round", |b| {
        b.iter(|| {
            let fk = arm.forward(black_box(&joints));
            let ik = arm.inverse(black_box(pos)).expect("reachable");
            black_box((fk, ik))
        })
    });
    // The full pose beside the per-cycle form, which builds no tool frame.
    group.bench_function("forward", |b| b.iter(|| black_box(arm.forward(black_box(&joints)))));
    group.bench_function("position", |b| b.iter(|| black_box(arm.position(black_box(&joints)))));
    group.finish();
}

fn bench_guard_assess(c: &mut Criterion) {
    // The full guard decision — measurement sync + one-step prediction +
    // feature extraction + threshold fusion — must fit far inside the 1 ms
    // control budget (the paper's §IV real-time requirement).
    let params = PlantParams::raven_ii();
    let arm = ArmConfig::builder().coupling(params.coupling()).build();
    let model = RtModel::new(params.perturbed(1, 0.02));
    let mut det = DynamicDetector::new(
        arm,
        model,
        DetectorConfig { mitigation: Mitigation::Observe, ..DetectorConfig::default() },
    );
    // Train on synthetic gentle motion, then arm.
    let coupling = params.coupling();
    for k in 0..2_000u64 {
        let t = k as f64 * 1e-3;
        let j = JointState::new(0.1 * (2.0 * t).sin(), 1.4 + 0.08 * t.cos(), 0.25);
        det.sync_measurement(coupling.joints_to_motors(&j));
        det.assess(&[200, 150, -100]);
    }
    det.arm().expect("bench warm-up fed fault-free samples");
    let mpos = coupling.joints_to_motors(&JointState::new(0.05, 1.38, 0.26));
    c.bench_function("guard_sync_and_assess", |b| {
        b.iter(|| {
            det.sync_measurement(black_box(mpos));
            black_box(det.assess(black_box(&[1200, -800, 400])))
        })
    });
}

fn bench_plant_step(c: &mut Criterion) {
    let params = PlantParams::raven_ii();
    let mut plant = RavenPlant::new(params);
    plant.release_brakes();
    c.bench_function("plant_control_period", |b| {
        b.iter(|| {
            plant.step_control_period(black_box(&[0.02, -0.01, 0.005]));
            black_box(plant.state().joint_pos())
        })
    });
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(30);
    targets = bench_model_step, bench_channel_write, bench_kinematics, bench_guard_assess, bench_plant_step
);

// ---------------------------------------------------------------------------
// Scalar vs batched estimator+detector kernel at fleet widths.

/// One (M, scalar, batch) comparison point. Costs are median wall-clock
/// nanoseconds per session-cycle (sync + assess, lookahead included).
#[derive(Serialize)]
struct ScalingPoint {
    sessions: usize,
    scalar_ns_per_session: f64,
    batch_ns_per_session: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct KernelsBench {
    header: bench::BenchHeader,
    cycles_per_repeat: usize,
    repeats: usize,
    lookahead_steps: u32,
    points: Vec<ScalingPoint>,
    note: String,
}

/// Builds M detector sessions (perturbed per-lane models, shared learned
/// thresholds) plus a measurement trajectory exercising the armed path.
fn fleet(m: usize) -> (Vec<DynamicDetector>, BatchDetector, Vec<Vec<MotorState>>, [i16; 3]) {
    let base = PlantParams::raven_ii();
    let coupling = base.coupling();
    let config = DetectorConfig { mitigation: Mitigation::Observe, ..DetectorConfig::default() };

    // Train once on lane 0's model; every session arms with the same
    // thresholds (the batch never learns — training is a scalar campaign).
    let arm0 = ArmConfig::builder().coupling(base.coupling()).build();
    let mut trainer = DynamicDetector::new(arm0, RtModel::new(base.perturbed(1, 0.02)), config);
    for k in 0..2_000u64 {
        let t = k as f64 * 1e-3;
        let j = JointState::new(0.1 * (2.0 * t).sin(), 1.4 + 0.08 * t.cos(), 0.25);
        trainer.sync_measurement(coupling.joints_to_motors(&j));
        trainer.assess(&[200, 150, -100]);
    }
    trainer.arm().expect("bench warm-up fed fault-free samples");
    let thresholds = *trainer.thresholds().expect("armed");

    let arms: Vec<ArmConfig> =
        (0..m).map(|_| ArmConfig::builder().coupling(base.coupling()).build()).collect();
    let models: Vec<RtModel> =
        (0..m).map(|l| RtModel::new(base.perturbed(l as u64 + 1, 0.02))).collect();
    let mut scalars: Vec<DynamicDetector> = arms
        .iter()
        .zip(&models)
        .map(|(a, mo)| DynamicDetector::new(a.clone(), mo.clone(), config))
        .collect();
    let mut batch = BatchDetector::from_models(&arms, &models, config);
    for (l, s) in scalars.iter_mut().enumerate() {
        s.arm_with(thresholds);
        batch.arm_lane(l, thresholds);
    }

    // A short per-lane measurement trajectory, cycled during timing.
    let traj: Vec<Vec<MotorState>> = (0..m)
        .map(|l| {
            (0..16u64)
                .map(|k| {
                    let t = k as f64 * 1e-3;
                    let j = JointState::new(
                        0.1 * (2.0 * t).sin() + 0.005 * l as f64,
                        1.4 + 0.05 * (1.5 * t).cos(),
                        0.25,
                    );
                    coupling.joints_to_motors(&j)
                })
                .collect()
        })
        .collect();
    (scalars, batch, traj, [1200, -800, 400])
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    samples[samples.len() / 2]
}

fn bench_batch_scaling() {
    let quick = bench::quick_mode();
    let cycles = if quick { 64 } else { 512 };
    let repeats = if quick { 3 } else { 7 };
    let widths = [1usize, 8, 64, 256];
    let lookahead = DetectorConfig::default().lookahead_steps;

    println!("\n== estimator+detector kernel: scalar vs batched (SoA) ==");
    println!(
        "{:>8} {:>22} {:>22} {:>9}",
        "sessions", "scalar ns/session", "batch ns/session", "speedup"
    );

    let mut points = Vec::new();
    for &m in &widths {
        let (mut scalars, mut batch, traj, dac) = fleet(m);
        let dacs: Vec<[i16; 3]> = vec![dac; m];

        // Warm-up: touch every code path and let buffers reach steady state.
        for k in 0..8 {
            for (l, s) in scalars.iter_mut().enumerate() {
                s.sync_measurement(traj[l][k % traj[l].len()]);
                black_box(s.assess(&dac));
            }
            for l in 0..m {
                batch.sync_lane(l, traj[l][k % traj[l].len()]);
            }
            black_box(batch.assess_lanes(&dacs));
        }

        let mut scalar_ns = Vec::new();
        let mut batch_ns = Vec::new();
        for _ in 0..repeats {
            let t0 = Instant::now();
            for k in 0..cycles {
                for (l, s) in scalars.iter_mut().enumerate() {
                    s.sync_measurement(traj[l][k % 16]);
                    black_box(s.assess(&dac));
                }
            }
            scalar_ns.push(t0.elapsed().as_nanos() as f64 / (cycles * m) as f64);

            let t0 = Instant::now();
            for k in 0..cycles {
                for (l, lane_traj) in traj.iter().enumerate() {
                    batch.sync_lane(l, lane_traj[k % 16]);
                }
                black_box(batch.assess_lanes(&dacs));
            }
            batch_ns.push(t0.elapsed().as_nanos() as f64 / (cycles * m) as f64);
        }
        let scalar = median(&mut scalar_ns);
        let batched = median(&mut batch_ns);
        println!("{m:>8} {scalar:>22.1} {batched:>22.1} {:>8.2}x", scalar / batched);
        points.push(ScalingPoint {
            sessions: m,
            scalar_ns_per_session: scalar,
            batch_ns_per_session: batched,
            speedup: scalar / batched,
        });
    }

    // The tentpole's gate: amortizing M sessions over one SoA kernel must
    // beat the single-session scalar path per session-cycle.
    let scalar_m1 = points[0].scalar_ns_per_session;
    let batch_m64 = points.iter().find(|p| p.sessions == 64).expect("M=64 point");
    assert!(
        batch_m64.batch_ns_per_session < scalar_m1,
        "batched M=64 per-session cost ({:.1} ns) must be strictly below scalar M=1 ({:.1} ns)",
        batch_m64.batch_ns_per_session,
        scalar_m1
    );

    let record = KernelsBench {
        header: bench::BenchHeader::current(),
        cycles_per_repeat: cycles,
        repeats,
        lookahead_steps: lookahead,
        points,
        note: "per-session-cycle cost of measurement sync + armed assessment (lookahead \
               rollout included); batch lanes share one SoA integrator dispatch"
            .to_string(),
    };
    // Workspace root ONLY: results/ holds the manifest-pinned deterministic
    // artifacts, and wall-clock timings must never enter that set.
    let root = {
        let mut d = bench::results_dir();
        d.pop();
        d
    };
    let path = root.join("BENCH_kernels.json");
    std::fs::write(&path, serde_json::to_string_pretty(&record).expect("serialize record"))
        .expect("write BENCH_kernels.json");
    println!("[saved {}]", path.display());
}

fn main() {
    kernels();
    bench_batch_scaling();
}
