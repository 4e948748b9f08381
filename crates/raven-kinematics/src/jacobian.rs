//! The manipulator Jacobian: end-effector velocity from joint velocity.
//!
//! `ṗ = J(q) · q̇` with `q = [θ1, θ2, d3]`. For the spherical mechanism the
//! end-effector is `p = rc + u(θ1, θ2) · d3`, so
//!
//! ```text
//! J = [ d3 · ∂u/∂θ1 | d3 · ∂u/∂θ2 | u ]
//! ```
//!
//! The Jacobian is what links the detector's joint-space thresholds to the
//! paper's clinical 1 mm end-effector criterion: a joint-velocity bound maps
//! through `‖J‖` to a tool-tip speed bound.

use raven_math::{Mat3, Vec3};

use crate::config::{ArmConfig, LinkTrig};
use crate::joints::JointState;
use crate::spherical;

/// Columns of the analytic Jacobian at `joints`: end-effector velocity
/// (m/s) per unit shoulder rate, elbow rate (rad/s), and insertion rate
/// (m/s).
pub fn jacobian(config: &ArmConfig, joints: &JointState) -> Mat3 {
    let (s1, c1) = joints.shoulder.sin_cos();
    let (s2, c2) = joints.elbow.sin_cos();
    let LinkTrig { sa1, ca1, sa2, ca2 } = config.link_trig();

    // u = Rz(θ1) · v(θ2) with v as in `spherical::tool_direction`.
    let vx = sa2 * s2;
    let vy = -ca1 * sa2 * c2 - sa1 * ca2;
    let vz = -sa1 * sa2 * c2 + ca1 * ca2;
    // ∂v/∂θ2:
    let dvx = sa2 * c2;
    let dvy = ca1 * sa2 * s2;
    let dvz = sa1 * sa2 * s2;

    let u = Vec3::new(c1 * vx - s1 * vy, s1 * vx + c1 * vy, vz);
    // ∂u/∂θ1 = d(Rz)/dθ1 · v
    let du1 = Vec3::new(-s1 * vx - c1 * vy, c1 * vx - s1 * vy, 0.0);
    // ∂u/∂θ2 = Rz(θ1) · ∂v/∂θ2
    let du2 = Vec3::new(c1 * dvx - s1 * dvy, s1 * dvx + c1 * dvy, dvz);

    Mat3::from_columns(du1 * joints.insertion, du2 * joints.insertion, u)
}

/// End-effector velocity for joint rates `qd = [θ̇1, θ̇2, ḋ3]`.
pub fn ee_velocity(config: &ArmConfig, joints: &JointState, qd: [f64; 3]) -> Vec3 {
    jacobian(config, joints) * Vec3::from(qd)
}

/// The largest end-effector speed reachable with unit-norm joint rates —
/// the spectral norm of `J`, estimated by power iteration. Used to convert
/// joint-velocity thresholds into worst-case tool-tip speeds.
pub fn max_gain(config: &ArmConfig, joints: &JointState) -> f64 {
    let j = jacobian(config, joints);
    let jt = j.transpose();
    let mut v = Vec3::new(0.6, -0.53, 0.6); // arbitrary non-degenerate seed
    let mut gain = 0.0;
    for _ in 0..32 {
        let w = jt * (j * v);
        let n = w.norm();
        if n < 1e-15 {
            return 0.0;
        }
        gain = n.sqrt();
        v = w / n;
    }
    gain
}

/// Finite-difference Jacobian (for validation and as a fallback when the
/// geometry is customized beyond the analytic form).
pub fn jacobian_numeric(config: &ArmConfig, joints: &JointState, eps: f64) -> Mat3 {
    let f = |j: &JointState| spherical::position(config, j);
    let mut cols = [Vec3::ZERO; 3];
    for (axis, col) in cols.iter_mut().enumerate() {
        let mut plus = *joints;
        let mut minus = *joints;
        match axis {
            0 => {
                plus.shoulder += eps;
                minus.shoulder -= eps;
            }
            1 => {
                plus.elbow += eps;
                minus.elbow -= eps;
            }
            _ => {
                plus.insertion += eps;
                minus.insertion -= eps;
            }
        }
        *col = (f(&plus) - f(&minus)) / (2.0 * eps);
    }
    Mat3::from_columns(cols[0], cols[1], cols[2])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm() -> ArmConfig {
        ArmConfig::raven_ii_left()
    }

    fn mat_close(a: &Mat3, b: &Mat3, tol: f64) -> bool {
        (0..3).all(|i| (0..3).all(|j| (a.at(i, j) - b.at(i, j)).abs() < tol))
    }

    #[test]
    fn analytic_matches_finite_differences() {
        let a = arm();
        for sh in [-1.0, 0.0, 0.7] {
            for el in [0.4, 1.3, 2.2] {
                for d in [0.1, 0.3] {
                    let j = JointState::new(sh, el, d);
                    let analytic = jacobian(&a, &j);
                    let numeric = jacobian_numeric(&a, &j, 1e-6);
                    assert!(
                        mat_close(&analytic, &numeric, 1e-6),
                        "Jacobian mismatch at ({sh},{el},{d}):\n{analytic:?}\nvs\n{numeric:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn insertion_column_is_the_tool_axis() {
        let a = arm();
        let j = JointState::new(0.4, 1.2, 0.25);
        let jac = jacobian(&a, &j);
        let fk = a.forward(&j);
        assert!((jac.column(2) - fk.tool_axis).norm() < 1e-12);
    }

    #[test]
    fn rotational_columns_scale_with_insertion() {
        let a = arm();
        let shallow = jacobian(&a, &JointState::new(0.3, 1.3, 0.1));
        let deep = jacobian(&a, &JointState::new(0.3, 1.3, 0.3));
        // Same direction, 3× magnitude on the revolute columns.
        for col in 0..2 {
            let ratio = deep.column(col).norm() / shallow.column(col).norm();
            assert!((ratio - 3.0).abs() < 1e-9, "column {col} ratio {ratio}");
        }
        assert!((deep.column(2).norm() - shallow.column(2).norm()).abs() < 1e-12);
    }

    #[test]
    fn ee_velocity_consistency_with_fk_differencing() {
        let a = arm();
        let j = JointState::new(0.2, 1.5, 0.28);
        let qd = [0.3, -0.2, 0.05];
        let v = ee_velocity(&a, &j, qd);
        // Integrate FK over a tiny step and compare.
        let dt = 1e-7;
        let j2 = JointState::new(
            j.shoulder + qd[0] * dt,
            j.elbow + qd[1] * dt,
            j.insertion + qd[2] * dt,
        );
        let numeric = (a.forward(&j2).position - a.forward(&j).position) / dt;
        assert!((v - numeric).norm() < 1e-5, "v={v} numeric={numeric}");
    }

    #[test]
    fn max_gain_bounds_every_unit_rate() {
        let a = arm();
        let j = JointState::new(0.1, 1.4, 0.3);
        let gain = max_gain(&a, &j);
        assert!(gain > 0.0);
        // Sample unit joint rates; none may exceed the spectral norm.
        for k in 0..50 {
            let t = k as f64;
            let raw = Vec3::new((t * 0.7).sin(), (t * 1.3).cos(), (t * 0.4).sin());
            if let Some(dir) = raw.normalized() {
                let speed = ee_velocity(&a, &j, dir.to_array()).norm();
                assert!(speed <= gain + 1e-9, "speed {speed} exceeds gain {gain}");
            }
        }
    }

    #[test]
    fn gain_is_on_the_expected_physical_scale() {
        // The insertion column is always unit (direct drive), and at 0.3 m
        // insertion the revolute columns add at most ~0.3 m/rad — so the
        // spectral norm sits in [1.0, 1.3].
        let a = arm();
        let gain = max_gain(&a, &JointState::new(0.0, 1.4, 0.3));
        assert!((1.0..1.3).contains(&gain), "gain {gain}");
        // At shallow insertion the revolute lever shrinks; gain tends to 1.
        let shallow = max_gain(&a, &JointState::new(0.0, 1.4, 0.1));
        assert!(shallow <= gain + 1e-12, "shallow {shallow} vs deep {gain}");
    }
}
