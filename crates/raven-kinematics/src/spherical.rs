//! Forward and inverse kinematics of the RAVEN II spherical positioning
//! mechanism.
//!
//! The tool axis direction in the base frame is
//!
//! ```text
//! u(θ1, θ2) = Rz(θ1) · Rx(α1) · Rz(θ2) · Rx(α2) · ẑ
//! ```
//!
//! with fixed link arc angles `α1 = 75°`, `α2 = 52°` (ref. \[12\] of the
//! paper). The end-effector sits at `remote_center + u · d3` where `d3` is
//! the insertion depth. Both axes intersect at the remote center (the
//! surgical port), so FK/IK reduce to direction algebra with a closed-form
//! solution — fast enough to run inside the 1 ms control loop with room to
//! spare, which the paper's real-time constraint (§IV) demands.

use raven_math::Vec3;
use serde::{Deserialize, Serialize};

use crate::config::{ArmConfig, LinkTrig};
use crate::joints::JointState;

/// Why inverse kinematics failed.
///
/// The paper's Table I lists "Unwanted state (IK-fail)" as the observed
/// impact of drift injected into the math library — the RAVEN control
/// software transitions to a halt state when IK fails. This error is what
/// propagates up to trigger that transition in our reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IkError {
    /// The requested point is outside the reachable insertion range.
    InsertionOutOfRange {
        /// Requested insertion depth (meters).
        requested: f64,
    },
    /// The requested tool-axis direction cannot be reached by any elbow
    /// angle (outside the spherical workspace cone).
    DirectionUnreachable {
        /// The cosine that fell outside `[-1, 1]`.
        cos_elbow: f64,
    },
    /// The requested position is not finite.
    NonFiniteTarget,
}

impl std::fmt::Display for IkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IkError::InsertionOutOfRange { requested } => {
                write!(f, "insertion depth {requested:.4} m outside reachable range")
            }
            IkError::DirectionUnreachable { cos_elbow } => {
                write!(f, "tool direction unreachable (cos elbow = {cos_elbow:.4})")
            }
            IkError::NonFiniteTarget => f.write_str("inverse kinematics target is not finite"),
        }
    }
}

impl std::error::Error for IkError {}

/// Tool-axis direction for given shoulder/elbow angles, in the arm frame
/// (before the base transform).
pub(crate) fn tool_direction(config: &ArmConfig, shoulder: f64, elbow: f64) -> Vec3 {
    direction_from_sin_cos(config.link_trig(), shoulder.sin_cos(), elbow.sin_cos())
}

/// The call-free core of [`tool_direction`]: the tool axis from the
/// shoulder's and elbow's `(sin, cos)`. Every FK evaluation ends here, so
/// a caller that makes its own `sin_cos` calls (the batched verdict) gets
/// the same bits as [`ArmConfig::position`].
fn direction_from_sin_cos(trig: LinkTrig, (s1, c1): (f64, f64), (s2, c2): (f64, f64)) -> Vec3 {
    let LinkTrig { sa1, ca1, sa2, ca2 } = trig;

    // v = Rx(α1) · Rz(θ2) · Rx(α2) · ẑ, expanded by hand (cheaper than
    // building quaternions in the hot loop).
    let vx = sa2 * s2;
    let vy = -ca1 * sa2 * c2 - sa1 * ca2;
    let vz = -sa1 * sa2 * c2 + ca1 * ca2;

    // u = Rz(θ1) · v
    Vec3::new(c1 * vx - s1 * vy, s1 * vx + c1 * vy, vz)
}

/// The tip along tool axis `axis` at insertion depth `insertion`.
fn tip(config: &ArmConfig, axis: Vec3, insertion: f64) -> Vec3 {
    config.remote_center + axis * insertion
}

/// Forward kinematics: joints to end-effector position.
pub(crate) fn position(config: &ArmConfig, joints: &JointState) -> Vec3 {
    position_from_sin_cos(
        config,
        joints.shoulder.sin_cos(),
        joints.elbow.sin_cos(),
        joints.insertion,
    )
}

/// The call-free core of [`position`], from the shoulder's and elbow's
/// `(sin, cos)`.
pub(crate) fn position_from_sin_cos(
    config: &ArmConfig,
    shoulder: (f64, f64),
    elbow: (f64, f64),
    insertion: f64,
) -> Vec3 {
    tip(config, direction_from_sin_cos(config.link_trig(), shoulder, elbow), insertion)
}

/// Inverse kinematics: end-effector position to joints.
///
/// Uses the elbow-down branch (`θ2 ∈ [0, π]`), which matches the RAVEN
/// mechanical assembly; the two solutions differ by cable routing that the
/// real mechanism cannot reach.
pub(crate) fn inverse(config: &ArmConfig, position: Vec3) -> Result<JointState, IkError> {
    if !position.is_finite() {
        return Err(IkError::NonFiniteTarget);
    }
    let rel = position - config.remote_center;
    let d3 = rel.norm();
    // Zero insertion has undefined direction; also reject clearly absurd
    // depths so callers get a typed error instead of NaN joints. The limits
    // module applies the real mechanical range on top of this.
    if !(1e-9..=10.0).contains(&d3) {
        return Err(IkError::InsertionOutOfRange { requested: d3 });
    }
    let u = rel / d3;

    let LinkTrig { sa1, ca1, sa2, ca2 } = config.link_trig();

    // u_z = -sinα1 sinα2 cosθ2 + cosα1 cosα2  ⇒  cosθ2
    let cos_elbow = (ca1 * ca2 - u.z) / (sa1 * sa2);
    if !(-1.0..=1.0).contains(&cos_elbow) {
        // Tolerate tiny numerical overshoot at the workspace boundary.
        if cos_elbow.abs() <= 1.0 + 1e-9 {
            let elbow = if cos_elbow > 0.0 { 0.0 } else { std::f64::consts::PI };
            return solve_shoulder(config, u, elbow, d3);
        }
        return Err(IkError::DirectionUnreachable { cos_elbow });
    }
    let elbow = cos_elbow.acos(); // elbow-down branch: θ2 ∈ [0, π]
    solve_shoulder(config, u, elbow, d3)
}

fn solve_shoulder(config: &ArmConfig, u: Vec3, elbow: f64, d3: f64) -> Result<JointState, IkError> {
    // With θ2 known, v = Rx(α1)Rz(θ2)Rx(α2)ẑ is fixed; θ1 rotates v onto u
    // about Z, so compare azimuths.
    let v = tool_direction(config, 0.0, elbow);
    let az_u = u.y.atan2(u.x);
    let az_v = v.y.atan2(v.x);
    let shoulder = raven_math::angles::wrap_to_pi(az_u - az_v);
    Ok(JointState::new(shoulder, elbow, d3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArmConfig;

    fn arm() -> ArmConfig {
        ArmConfig::raven_ii_left()
    }

    #[test]
    fn tool_direction_is_unit() {
        let a = arm();
        for sh in [-1.0, 0.0, 0.7, 2.0] {
            for el in [0.2, 1.0, 2.5] {
                let u = tool_direction(&a, sh, el);
                assert!((u.norm() - 1.0).abs() < 1e-12, "|u|={} at ({sh},{el})", u.norm());
            }
        }
    }

    #[test]
    fn fk_position_at_insertion_depth() {
        let a = arm();
        let j = JointState::new(0.3, 1.2, 0.25);
        assert!((position(&a, &j).distance(a.remote_center) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ik_fk_roundtrip_across_workspace() {
        let a = arm();
        for sh in [-1.2, -0.4, 0.0, 0.5, 1.3] {
            for el in [0.3, 0.9, 1.6, 2.4] {
                for d in [0.1, 0.25, 0.4] {
                    let j = JointState::new(sh, el, d);
                    let back = inverse(&a, position(&a, &j)).unwrap();
                    assert!(
                        (back.shoulder - sh).abs() < 1e-9
                            && (back.elbow - el).abs() < 1e-9
                            && (back.insertion - d).abs() < 1e-9,
                        "roundtrip failed at ({sh},{el},{d}): got {back}"
                    );
                }
            }
        }
    }

    #[test]
    fn ik_rejects_remote_center() {
        let a = arm();
        assert!(matches!(inverse(&a, a.remote_center), Err(IkError::InsertionOutOfRange { .. })));
    }

    #[test]
    fn ik_rejects_unreachable_direction() {
        let a = arm();
        // Straight up along +Z is outside the cone of this mechanism
        // (u_z max = cos(α1-α2) < 1).
        let target = a.remote_center + Vec3::Z * 0.3;
        assert!(matches!(inverse(&a, target), Err(IkError::DirectionUnreachable { .. })));
    }

    #[test]
    fn ik_rejects_non_finite() {
        let a = arm();
        assert!(matches!(
            inverse(&a, Vec3::new(f64::NAN, 0.0, 0.0)),
            Err(IkError::NonFiniteTarget)
        ));
    }

    #[test]
    fn elbow_boundary_is_tolerated() {
        let a = arm();
        // Construct the exact boundary direction (elbow = 0).
        let u = tool_direction(&a, 0.7, 0.0);
        let target = a.remote_center + u * 0.3;
        let j = inverse(&a, target).unwrap();
        assert!(j.elbow.abs() < 1e-6);
    }

    #[test]
    fn ik_error_display() {
        let e = IkError::InsertionOutOfRange { requested: 1.0 };
        assert!(format!("{e}").contains("insertion"));
        let e = IkError::DirectionUnreachable { cos_elbow: 2.0 };
        assert!(format!("{e}").contains("unreachable"));
        assert!(format!("{}", IkError::NonFiniteTarget).contains("finite"));
    }
}
