//! Criterion micro-benchmarks of the real-time kernels whose cost the paper
//! reports or depends on:
//!
//! * one dynamic-model step, Euler and RK4 (Fig. 8: 0.011 / 0.032 ms on the
//!   authors' testbed);
//! * one bare/logged/injected channel write (Table II);
//! * forward kinematics to the tip, and an FK + IK round (the kinematic
//!   chain of Fig. 2);
//! * one full plant control-period step (the simulation's hot loop);
//! * compact JSON of a 10 000-session fleet-monitor report (the largest
//!   artifact a benchmark workload serializes);
//! * the scalar-vs-batched estimator+detector kernel at M ∈ {1, 8, 64, 256}
//!   sessions (the SoA fleet kernel in `raven_dynamics::batch` /
//!   `raven_detect::batch`), published as `BENCH_kernels.json` at the
//!   workspace root beside the fastest-batch ns of the plant period, the
//!   model steps and one 64-lane verdict round, each also read against a
//!   call-free calibration loop timed between its batches, and the
//!   previous record's numbers.
//!
//! ```sh
//! cargo bench -p bench --bench micro_kernels
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![expect(
    clippy::disallowed_methods,
    reason = "benches measure wall time by definition; bench JSON is a sidecar artifact, never merged into results byte-identity checks"
)]

use criterion::{criterion_group, Criterion};
use raven_attack::{ActivationWindow, Corruption, InjectionWrapper, LoggingWrapper};
use raven_detect::{BatchDetector, DetectorConfig, DynamicDetector, Mitigation};
use raven_dynamics::estimator::RtModelConfig;
use raven_dynamics::{PlantParams, RavenPlant, RtModel};
use raven_fleet::{MonitorReport, SessionTotals};
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
            let fk = arm.position(black_box(&joints));
            let ik = arm.inverse(black_box(pos)).expect("reachable");
            black_box((fk, ik))
        })
    });
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

/// One single-kernel timing: the fastest of `repeats` batches, in
/// nanoseconds per call.
#[derive(Serialize)]
struct KernelPoint {
    name: &'static str,
    min_ns: f64,
    /// The median over batches of (ns per call) / (ns per calibration
    /// step), each batch read against the calibration batch timed just
    /// before it: the call's cost in steps of the reference loop, which
    /// a slower or busier host stretches as much as the kernel.
    per_ref: f64,
    /// Bytes one call writes, for the serializer point.
    bytes_out: Option<usize>,
}

#[derive(Serialize)]
struct KernelsBench {
    header: bench::BenchHeader,
    cycles_per_repeat: usize,
    repeats: usize,
    lookahead_steps: u32,
    points: Vec<ScalingPoint>,
    kernels: Vec<KernelPoint>,
    /// The `header`, `points` and `kernels` of the record this one
    /// replaced, so a committed file shows a kernel change's before and
    /// after numbers.
    previous: serde_json::Value,
    note: String,
}

/// Steps of the calibration loop per calibration batch.
const CALIBRATION_STEPS: u64 = 20_000;

/// The calibration batch: a fixed chain of dependent floating-point
/// multiply-adds with no call and no memory traffic, so its time tracks
/// only how fast the host runs this thread at that moment.
fn calibration_batch() {
    let mut y = black_box(0.5f64);
    let (a, b) = black_box((0.999_999_9f64, 1e-9f64));
    for _ in 0..CALIBRATION_STEPS {
        y = y * a + b;
    }
    black_box(y);
}

/// Times `repeats` batches of `calls` calls to `batch`, each right after
/// a calibration batch: the fastest batch in ns per call, and the median
/// per-batch ratio of ns per call to ns per calibration step.
fn time_kernel(repeats: usize, calls: usize, mut batch: impl FnMut()) -> (f64, f64) {
    let mut min_ns = f64::INFINITY;
    let mut ratios = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = Instant::now();
        calibration_batch();
        let step_ns = t0.elapsed().as_nanos() as f64 / CALIBRATION_STEPS as f64;
        let t1 = Instant::now();
        batch();
        let call_ns = t1.elapsed().as_nanos() as f64 / calls as f64;
        min_ns = min_ns.min(call_ns);
        ratios.push(call_ns / step_ns);
    }
    (min_ns, median(&mut ratios))
}

/// One plant control period and one dynamic-model step, Euler and RK4:
/// the kernels a plant-physics change moves. The plant steps from a
/// fresh release under a square-wave torque, so every batch integrates
/// the same trajectory.
fn kernel_points(quick: bool) -> Vec<KernelPoint> {
    // Many short batches: on a shared host the fastest of them is the
    // one least disturbed by other tenants.
    let repeats = if quick { 20 } else { 200 };
    let periods = if quick { 50 } else { 200 };
    let params = PlantParams::raven_ii();
    let mut released = RavenPlant::new(params);
    released.release_brakes();
    let (min_ns, per_ref) = time_kernel(repeats, periods, || {
        let mut plant = released.clone();
        for k in 0..periods {
            let sign = if (k / 50) % 2 == 0 { 1.0 } else { -1.0 };
            plant.step_control_period(black_box(&[0.02 * sign, -0.01 * sign, 0.005 * sign]));
        }
        black_box(plant.state().joint_pos());
    });
    let mut points =
        vec![KernelPoint { name: "plant_control_period", min_ns, per_ref, bytes_out: None }];
    let state = params.rest_state(JointState::new(0.2, 1.3, 0.3));
    for (name, method) in [("model_step/euler", Method::Euler), ("model_step/rk4", Method::Rk4)] {
        let model = RtModel::with_config(params, RtModelConfig { method, step_size: 1e-3 });
        let steps = 20 * periods;
        let (min_ns, per_ref) = time_kernel(repeats, steps, || {
            for _ in 0..steps {
                black_box(model.predict(black_box(&state), &[1200, -800, 400]));
            }
        });
        points.push(KernelPoint { name, min_ns, per_ref, bytes_out: None });
    }
    // One 64-lane verdict round (every lane synced and assessed), the
    // kernel the fleet monitor repeats.
    let (_, mut batch, traj, dac) = fleet(64);
    let dacs = vec![Some(dac); 64];
    let rounds = periods / 4;
    let (min_ns, per_ref) = time_kernel(repeats, rounds, || {
        black_box(time_batch(&mut batch, &traj, &dacs, rounds));
    });
    points.push(KernelPoint { name: "detect/assess_64", min_ns, per_ref, bytes_out: None });
    let report = fleet_report(10_000);
    let mut bytes_out = 0;
    let (min_ns, per_ref) = time_kernel(repeats, 1, || {
        let json = serde_json::to_string(black_box(&report)).expect("report serializes");
        bytes_out = json.len();
        black_box(json);
    });
    points.push(KernelPoint {
        name: "serde/report_10k",
        min_ns,
        per_ref,
        bytes_out: Some(bytes_out),
    });
    println!("\n== single kernels (fastest of {repeats} batches; per_ref in calibration steps) ==");
    for p in &points {
        println!("{:<24} {:>12.1} ns {:>12.2} steps", p.name, p.min_ns, p.per_ref);
    }
    points
}

/// A fleet-monitor report over `sessions` sessions, filled like the
/// pipeline bench's `fleet_monitor` population: every 100th session ran
/// 40 phases, the rest stayed idle.
fn fleet_report(sessions: u64) -> MonitorReport {
    let totals = (0..sessions)
        .map(|i| {
            if i % 100 == 0 {
                SessionTotals {
                    assessments: 19_960 + i % 41,
                    alarms: i % 3,
                    phases_run: 40,
                    deferrals: i % 5,
                }
            } else {
                SessionTotals::default()
            }
        })
        .collect();
    MonitorReport { totals, cycles: 81_234, peak_active: 64, deferrals: 1_717 }
}

/// The `header`, `points` and `kernels` of an earlier record at `path`,
/// or null.
fn previous_kernels(path: &std::path::Path) -> serde_json::Value {
    let Some(old) =
        std::fs::read_to_string(path).ok().and_then(|text| serde_json::value_from_str(&text).ok())
    else {
        return serde_json::Value::Null;
    };
    let field = |key| old.get(key).cloned().unwrap_or(serde_json::Value::Null);
    serde_json::Value::Map(vec![
        ("header".to_string(), field("header")),
        ("points".to_string(), field("points")),
        ("kernels".to_string(), field("kernels")),
    ])
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

/// Per-session-cycle cost (ns) of `cycles` scalar sync + assess rounds
/// over every session.
fn time_scalar(
    scalars: &mut [DynamicDetector],
    traj: &[Vec<MotorState>],
    dac: &[i16; 3],
    cycles: usize,
) -> f64 {
    let t0 = Instant::now();
    for k in 0..cycles {
        for (l, s) in scalars.iter_mut().enumerate() {
            s.sync_measurement(traj[l][k % 16]);
            black_box(s.assess(dac));
        }
    }
    t0.elapsed().as_nanos() as f64 / (cycles * scalars.len()) as f64
}

/// Per-session-cycle cost (ns) of `cycles` batched sync + assess rounds
/// over every lane.
fn time_batch(
    batch: &mut BatchDetector,
    traj: &[Vec<MotorState>],
    dacs: &[Option<[i16; 3]>],
    cycles: usize,
) -> f64 {
    let t0 = Instant::now();
    for k in 0..cycles {
        for (l, lane_traj) in traj.iter().enumerate() {
            batch.sync_lane(l, lane_traj[k % 16]);
        }
        black_box(batch.assess_lanes(dacs));
    }
    t0.elapsed().as_nanos() as f64 / (cycles * traj.len()) as f64
}

fn bench_batch_scaling() {
    let quick = bench::quick_mode();
    let cycles = if quick { 64 } else { 512 };
    let repeats = if quick { 3 } else { 7 };
    let widths = [1usize, 8, 64, 256];
    let lookahead = DetectorConfig::default().lookahead_steps;
    let kernels = kernel_points(quick);

    println!("\n== estimator+detector kernel: scalar vs batched (SoA) ==");
    println!(
        "{:>8} {:>22} {:>22} {:>9}",
        "sessions", "scalar ns/session", "batch ns/session", "speedup"
    );

    let mut points = Vec::new();
    for &m in &widths {
        let (mut scalars, mut batch, traj, dac) = fleet(m);
        let dacs: Vec<Option<[i16; 3]>> = vec![Some(dac); m];

        // Warm-up: touch every code path and let buffers reach steady state.
        time_scalar(&mut scalars, &traj, &dac, 8);
        time_batch(&mut batch, &traj, &dacs, 8);

        let mut scalar_ns = Vec::new();
        let mut batch_ns = Vec::new();
        for _ in 0..repeats {
            scalar_ns.push(time_scalar(&mut scalars, &traj, &dac, cycles));
            batch_ns.push(time_batch(&mut batch, &traj, &dacs, cycles));
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
    // beat the single-session scalar path per session-cycle. Its two
    // operands alternate in one loop, so host drift over the seconds the
    // table above takes cannot decide it.
    let (mut scalar_1, _, traj_1, dac_1) = fleet(1);
    let (_, mut batch_64, traj_64, dac_64) = fleet(64);
    let dacs_64 = vec![Some(dac_64); 64];
    time_scalar(&mut scalar_1, &traj_1, &dac_1, 8);
    time_batch(&mut batch_64, &traj_64, &dacs_64, 8);
    let (mut scalar_m1, mut batch_m64) = (Vec::new(), Vec::new());
    for _ in 0..repeats {
        scalar_m1.push(time_scalar(&mut scalar_1, &traj_1, &dac_1, cycles));
        batch_m64.push(time_batch(&mut batch_64, &traj_64, &dacs_64, cycles));
    }
    let (scalar_m1, batch_m64) = (median(&mut scalar_m1), median(&mut batch_m64));
    assert!(
        batch_m64 < scalar_m1,
        "batched M=64 per-session cost ({batch_m64:.1} ns) must be strictly below scalar M=1 \
         ({scalar_m1:.1} ns)"
    );

    let path = bench::workspace_root().join("BENCH_kernels.json");
    let record = KernelsBench {
        header: bench::BenchHeader::current(),
        cycles_per_repeat: cycles,
        repeats,
        lookahead_steps: lookahead,
        points,
        kernels,
        previous: previous_kernels(&path),
        note: "points: per-session-cycle cost of measurement sync + armed assessment \
               (lookahead rollout included), batch lanes sharing one SoA integrator \
               dispatch; kernels: ns per call, fastest of the timed batches, and \
               per_ref, the median per-batch cost of a call in steps of a call-free \
               calibration loop timed just before each batch"
            .to_string(),
    };
    std::fs::write(&path, serde_json::to_string_pretty(&record).expect("serialize record"))
        .expect("write BENCH_kernels.json");
    println!("[saved {}]", path.display());
}

fn main() {
    kernels();
    bench_batch_scaling();
}
