//! Closed-loop integration: RavenController driving the full HardwareRig.
//!
//! This is the clean (attack-free) system of the paper's Fig. 1(b): console
//! input → control software → USB → board → PLC/motors → plant → encoders →
//! control software.

use raven_control::{ControllerConfig, OperatorInput, RavenController};
use raven_dynamics::PlantParams;
use raven_hw::{HardwareRig, RobotState};
use raven_kinematics::ArmConfig;
use raven_math::Vec3;
use simbus::{Observer, SimClock};

/// One full control cycle: read feedback, run software, write command, step
/// physics.
fn run_cycle(
    ctl: &mut RavenController,
    rig: &mut HardwareRig,
    clock: &mut SimClock,
    input: Option<&OperatorInput>,
) {
    let now = clock.now();
    let obs = &mut Observer::default();
    let feedback = rig.read_feedback(now, obs);
    let pkt = ctl.cycle(input, &feedback);
    rig.deliver_command(&pkt, now, None, obs);
    rig.step(now, obs);
    clock.tick();
}

/// Boots the robot to Pedal Up: start button + homing.
fn boot(ctl: &mut RavenController, rig: &mut HardwareRig, clock: &mut SimClock) {
    rig.press_start(clock.now(), &mut Observer::default());
    ctl.press_start();
    for _ in 0..3000 {
        run_cycle(ctl, rig, clock, None);
        if ctl.state_machine().state() == RobotState::PedalUp {
            return;
        }
    }
    panic!("homing did not complete; state = {}", ctl.state_machine().state());
}

fn fresh_system() -> (RavenController, HardwareRig, SimClock) {
    let ctl = RavenController::new(ArmConfig::raven_ii_left(), ControllerConfig::raven_ii());
    let rig = HardwareRig::new(PlantParams::raven_ii());
    (ctl, rig, SimClock::new())
}

#[test]
fn boots_through_init_to_pedal_up() {
    let (mut ctl, mut rig, mut clock) = fresh_system();
    boot(&mut ctl, &mut rig, &mut clock);
    assert_eq!(ctl.state_machine().state(), RobotState::PedalUp);
    assert!(rig.estop().is_none(), "no E-STOP during a clean boot");
    assert!(rig.plant.brakes_engaged(), "brakes stay on in Pedal Up");
}

#[test]
fn pedal_down_releases_brakes_and_tracks_motion() {
    let (mut ctl, mut rig, mut clock) = fresh_system();
    boot(&mut ctl, &mut rig, &mut clock);

    let start_pos = {
        let t = ctl.telemetry().unwrap();
        t.pos
    };

    // Constant velocity along -Y at 50 mm/s for 2 s.
    let input =
        OperatorInput { pedal: true, delta_pos: Vec3::new(0.0, -5e-5, 0.0), wrist: [0.0; 4] };
    for _ in 0..2000 {
        run_cycle(&mut ctl, &mut rig, &mut clock, Some(&input));
        assert_ne!(ctl.state_machine().state(), RobotState::EStop, "clean run must not fault");
    }
    assert!(!rig.plant.brakes_engaged(), "brakes released in Pedal Down");

    // The physical end-effector followed the command.
    let arm = ArmConfig::raven_ii_left();
    let end_pos = arm.position(&rig.plant.true_joints());
    let commanded = start_pos + Vec3::new(0.0, -0.1, 0.0);
    let tracking_err = (end_pos - commanded).norm();
    assert!(
        tracking_err < 0.01,
        "tracking error {tracking_err} m after a 100 mm move (reached {end_pos}, wanted {commanded})"
    );
}

#[test]
fn pedal_release_stops_and_holds() {
    let (mut ctl, mut rig, mut clock) = fresh_system();
    boot(&mut ctl, &mut rig, &mut clock);

    let moving =
        OperatorInput { pedal: true, delta_pos: Vec3::new(5e-5, 0.0, 0.0), wrist: [0.0; 4] };
    for _ in 0..500 {
        run_cycle(&mut ctl, &mut rig, &mut clock, Some(&moving));
    }
    let released = OperatorInput { pedal: false, ..Default::default() };
    run_cycle(&mut ctl, &mut rig, &mut clock, Some(&released));
    assert_eq!(ctl.state_machine().state(), RobotState::PedalUp);
    // Two more cycles for the PLC to see the new state byte and brake.
    run_cycle(&mut ctl, &mut rig, &mut clock, Some(&released));
    let frozen = rig.plant.state().motor_pos();
    for _ in 0..200 {
        run_cycle(&mut ctl, &mut rig, &mut clock, Some(&released));
    }
    assert!(rig.plant.brakes_engaged());
    assert_eq!(rig.plant.state().motor_pos(), frozen, "brakes must hold position");
}

#[test]
fn smooth_circle_trajectory_runs_clean() {
    // A surgical-scale circular scan: radius 15 mm at 0.2 Hz.
    let (mut ctl, mut rig, mut clock) = fresh_system();
    boot(&mut ctl, &mut rig, &mut clock);

    let arm = ArmConfig::raven_ii_left();
    let mut last_target = Vec3::ZERO;
    let mut last_phys: Option<Vec3> = None;
    let mut max_step = 0.0_f64;
    for k in 0..5000u64 {
        let t = k as f64 * 1e-3;
        let w = 2.0 * std::f64::consts::PI * 0.2;
        let target = Vec3::new(0.015 * ((w * t).cos() - 1.0), 0.015 * (w * t).sin(), 0.0);
        let delta = target - last_target;
        last_target = target;
        let input = OperatorInput { pedal: true, delta_pos: delta, wrist: [0.0; 4] };
        run_cycle(&mut ctl, &mut rig, &mut clock, Some(&input));
        assert_ne!(ctl.state_machine().state(), RobotState::EStop);
        // A clean run must never jump ~1 mm in a millisecond — the paper's
        // attack-impact criterion would otherwise false-alarm constantly.
        let pos = arm.position(&rig.plant.true_joints());
        if let Some(prev) = last_phys {
            max_step = max_step.max((pos - prev).norm());
        }
        last_phys = Some(pos);
    }
    assert!(rig.estop().is_none());
    assert!(max_step < 5e-4, "clean trajectory moved {max_step} m in one cycle — too jumpy");
}

#[test]
fn estop_button_halts_everything() {
    let (mut ctl, mut rig, mut clock) = fresh_system();
    boot(&mut ctl, &mut rig, &mut clock);
    let input =
        OperatorInput { pedal: true, delta_pos: Vec3::new(5e-5, 0.0, 0.0), wrist: [0.0; 4] };
    for _ in 0..300 {
        run_cycle(&mut ctl, &mut rig, &mut clock, Some(&input));
    }
    rig.press_estop();
    ctl.press_estop();
    run_cycle(&mut ctl, &mut rig, &mut clock, Some(&input));
    assert_eq!(ctl.state_machine().state(), RobotState::EStop);
    let frozen = rig.plant.state().motor_pos();
    for _ in 0..100 {
        run_cycle(&mut ctl, &mut rig, &mut clock, Some(&input));
    }
    assert_eq!(rig.plant.state().motor_pos(), frozen);
}
