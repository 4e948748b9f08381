//! Manipulator (link) dynamics for the three positioning joints.
//!
//! The inertia matrix is diagonal but configuration-dependent:
//!
//! * `M11(θ2, d3)` — shoulder inertia grows with the tool's lever arm about
//!   the vertical shoulder axis, `m_t · d3² · (1 − u_z²)` where `u_z(θ2)` is
//!   the vertical component of the tool axis;
//! * `M22(d3)` — elbow inertia grows with insertion depth, `m_t · d3²`;
//! * `M33` — translational tool mass.
//!
//! Off-diagonal inertia coupling is neglected (the cable transmission
//! dominates the coupling in practice); the velocity-product terms are the
//! energy-consistent Christoffel terms of this diagonal `M`, so the model
//! does not create energy. Gravity acts along `−Z` of the base frame.
//! Mechanical properties follow the scale of the RAVEN CAD models the paper
//! mentions ("link mass, inertia, and center of mass location were obtained
//! from the CAD models of the joints", §IV.A.1).

use serde::{Deserialize, Serialize};

/// Mechanical parameters of the manipulator links and tool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Base inertia of the shoulder assembly about its axis (kg·m²).
    pub shoulder_inertia: f64,
    /// Base inertia of the elbow assembly about its axis (kg·m²).
    pub elbow_inertia: f64,
    /// Mass of the tool/carriage sliding on the insertion axis (kg).
    pub tool_mass: f64,
    /// Viscous friction per joint (N·m·s/rad, N·m·s/rad, N·s/m).
    pub viscous: [f64; 3],
    /// Coulomb friction per joint (N·m, N·m, N).
    pub coulomb: [f64; 3],
    /// Gravitational acceleration (m/s²).
    pub gravity: f64,
    /// sin(α1)·sin(α2) of the spherical mechanism (for `u_z(θ2)`).
    pub sin_a1_sin_a2: f64,
    /// cos(α1)·cos(α2) of the spherical mechanism.
    pub cos_a1_cos_a2: f64,
}

impl LinkParams {
    /// RAVEN II-scale parameters with the 75°/52° link set.
    pub fn raven_ii() -> Self {
        let a1 = raven_math::angles::deg_to_rad(75.0);
        let a2 = raven_math::angles::deg_to_rad(52.0);
        LinkParams {
            shoulder_inertia: 0.035,
            elbow_inertia: 0.025,
            tool_mass: 0.35,
            viscous: [0.9, 0.7, 3.0],
            coulomb: [0.12, 0.10, 0.8],
            gravity: 9.81,
            sin_a1_sin_a2: a1.sin() * a2.sin(),
            cos_a1_cos_a2: a1.cos() * a2.cos(),
        }
    }

    /// Vertical component of the tool axis, from the elbow's cosine.
    #[inline]
    fn u_z(&self, cos_elbow: f64) -> f64 {
        -self.sin_a1_sin_a2 * cos_elbow + self.cos_a1_cos_a2
    }

    /// `∂u_z/∂θ2`, from the elbow's sine.
    #[inline]
    fn du_z(&self, sin_elbow: f64) -> f64 {
        self.sin_a1_sin_a2 * sin_elbow
    }

    /// Diagonal of the inertia matrix at tool-axis height `uz` and
    /// insertion `d3`.
    #[inline]
    fn inertia(&self, uz: f64, insertion: f64) -> [f64; 3] {
        let lever_sq = insertion * insertion * (1.0 - uz * uz).max(0.0);
        [
            self.shoulder_inertia + self.tool_mass * lever_sq,
            self.elbow_inertia + self.tool_mass * insertion * insertion,
            self.tool_mass,
        ]
    }

    /// Gravity load vector `G(q)` (N·m, N·m, N) from `u_z` and `∂u_z/∂θ2`.
    #[inline]
    fn gravity_load(&self, uz: f64, duz: f64, insertion: f64) -> [f64; 3] {
        let g = self.gravity * self.tool_mass;
        [
            0.0, // the shoulder axis is vertical: rotation does not change height
            g * insertion * duz,
            g * uz,
        ]
    }

    /// Joint friction opposing velocity `qd`, given each joint's smoothed
    /// Coulomb sign `tanh(q̇ / 0.02)`.
    #[inline]
    fn friction(&self, qd: &[f64; 3], sign: &[f64; 3]) -> [f64; 3] {
        let mut f = [0.0; 3];
        for i in 0..3 {
            f[i] = self.viscous[i] * qd[i] + self.coulomb[i] * sign[i];
        }
        f
    }

    /// Joint accelerations for applied joint torques `tau`, including the
    /// Christoffel velocity-product terms of the diagonal inertia, from
    /// the libm values at `(q, qd)`: the call-free core both right-hand
    /// sides share.
    #[inline]
    pub(crate) fn acceleration(
        &self,
        q: &[f64; 3],
        qd: &[f64; 3],
        tau: &[f64; 3],
        libm: &LinkLibm,
    ) -> [f64; 3] {
        let insertion = q[2];
        let uz = self.u_z(libm.cos_elbow);
        let duz = self.du_z(libm.sin_elbow);
        let m = self.inertia(uz, insertion);
        let grav = self.gravity_load(uz, duz, insertion);
        let fric = self.friction(qd, &libm.sign);

        // Partial derivatives of the inertia diagonal.
        let dm11_dq2 = -2.0 * self.tool_mass * insertion * insertion * uz * duz;
        let dm11_dq3 = 2.0 * self.tool_mass * insertion * (1.0 - uz * uz).max(0.0);
        let dm22_dq3 = 2.0 * self.tool_mass * insertion;

        // Energy-consistent velocity terms for a diagonal M(q):
        //   row i: M_ii q̈_i = τ_i − Σ_j (∂M_ii/∂q_j q̇_j) q̇_i
        //                     + ½ Σ_j (∂M_jj/∂q_i) q̇_j² − G_i − F_i
        let c1 = (dm11_dq2 * qd[1] + dm11_dq3 * qd[2]) * qd[0];
        let c2 = dm22_dq3 * qd[2] * qd[1] - 0.5 * dm11_dq2 * qd[0] * qd[0];
        let c3 = -0.5 * (dm11_dq3 * qd[0] * qd[0] + dm22_dq3 * qd[1] * qd[1]);

        [
            (tau[0] - c1 - grav[0] - fric[0]) / m[0],
            (tau[1] - c2 - grav[1] - fric[1]) / m[1],
            (tau[2] - c3 - grav[2] - fric[2]) / m[2],
        ]
    }
}

/// Every libm value one evaluation of the link dynamics reads: the elbow
/// angle's sine and cosine, and each joint's smoothed Coulomb sign
/// `tanh(q̇ / 0.02)`. Computing them before any arithmetic is what keeps
/// [`LinkParams::acceleration`] call-free (DESIGN.md §5).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkLibm {
    pub(crate) sin_elbow: f64,
    pub(crate) cos_elbow: f64,
    pub(crate) sign: [f64; 3],
}

impl LinkLibm {
    /// The libm values at elbow angle `elbow` and joint velocities `qd`.
    #[inline]
    pub(crate) fn at(elbow: f64, qd: &[f64; 3]) -> Self {
        LinkLibm { sin_elbow: elbow.sin(), cos_elbow: elbow.cos(), sign: qd.map(coulomb_sign) }
    }
}

/// The smoothed sign of joint velocity `qd` that scales the joint's
/// Coulomb friction: `tanh(q̇ / 0.02)`.
#[inline]
pub(crate) fn coulomb_sign(qd: f64) -> f64 {
    (qd / 0.02).tanh()
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams::raven_ii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inertia diagonal at configuration `(θ2, d3)`.
    fn inertia_at(p: &LinkParams, elbow: f64, insertion: f64) -> [f64; 3] {
        p.inertia(p.u_z(elbow.cos()), insertion)
    }

    /// Joint accelerations at `(q, qd)` under joint torques `tau`.
    fn acceleration_at(p: &LinkParams, q: &[f64; 3], qd: &[f64; 3], tau: &[f64; 3]) -> [f64; 3] {
        p.acceleration(q, qd, tau, &LinkLibm::at(q[1], qd))
    }

    /// The gravity load at configuration `(θ2, d3)`.
    fn gravity_at(p: &LinkParams, elbow: f64, insertion: f64) -> [f64; 3] {
        p.gravity_load(p.u_z(elbow.cos()), p.du_z(elbow.sin()), insertion)
    }

    #[test]
    fn inertia_is_positive_and_grows_with_insertion() {
        let p = LinkParams::raven_ii();
        let m_short = inertia_at(&p, 1.2, 0.1);
        let m_long = inertia_at(&p, 1.2, 0.4);
        for m in &m_short {
            assert!(*m > 0.0);
        }
        assert!(m_long[0] > m_short[0]);
        assert!(m_long[1] > m_short[1]);
        assert_eq!(m_long[2], m_short[2]);
    }

    #[test]
    fn gravity_vanishes_on_shoulder() {
        let p = LinkParams::raven_ii();
        let g = gravity_at(&p, 1.0, 0.3);
        assert_eq!(g[0], 0.0);
        assert!(g[1].abs() > 0.0);
    }

    #[test]
    fn gravity_insertion_sign_follows_tool_direction() {
        let p = LinkParams::raven_ii();
        // Small elbow angle: tool points downward (u_z < 0) -> gravity pulls
        // the tool further in (negative restoring force on insertion axis
        // means the load G3 is negative, i.e. assists insertion).
        let g_down = gravity_at(&p, 0.2, 0.3);
        assert!(p.u_z(0.2_f64.cos()) < 0.0);
        assert!(g_down[2] < 0.0);
        // Large elbow angle: tool points upward, gravity opposes insertion.
        let g_up = gravity_at(&p, 2.6, 0.3);
        assert!(p.u_z(2.6_f64.cos()) > 0.0);
        assert!(g_up[2] > 0.0);
    }

    #[test]
    fn friction_opposes_motion() {
        let p = LinkParams::raven_ii();
        let qd = [0.5, -0.5, 0.1];
        let f = p.friction(&qd, &qd.map(coulomb_sign));
        assert!(f[0] > 0.0 && f[1] < 0.0 && f[2] > 0.0);
        assert_eq!(p.friction(&[0.0; 3], &[0.0; 3].map(coulomb_sign)), [0.0; 3]);
    }

    #[test]
    fn acceleration_follows_torque_at_rest() {
        let p = LinkParams::raven_ii();
        let q = [0.0, 1.375, 0.25]; // near-horizontal tool: tiny gravity
        let qdd = acceleration_at(&p, &q, &[0.0; 3], &[1.0, 0.0, 0.0]);
        assert!(qdd[0] > 0.0);
        // Inertia scales it: qdd ≈ τ / M11.
        let m = inertia_at(&p, q[1], q[2]);
        assert!((qdd[0] - 1.0 / m[0]).abs() / (1.0 / m[0]) < 0.05);
    }

    #[test]
    fn passive_system_dissipates_energy() {
        // Integrate the unforced, gravity-free links from a moving start;
        // kinetic energy must decrease monotonically (friction only).
        let mut p = LinkParams::raven_ii();
        p.gravity = 0.0;
        let mut q = [0.3, 1.2, 0.25];
        let mut qd = [0.8, -0.6, 0.15];
        let dt = 1e-4;
        let energy = |q: &[f64; 3], qd: &[f64; 3]| {
            let m = inertia_at(&p, q[1], q[2]);
            0.5 * (m[0] * qd[0] * qd[0] + m[1] * qd[1] * qd[1] + m[2] * qd[2] * qd[2])
        };
        let mut last = energy(&q, &qd);
        for step in 0..5000 {
            let qdd = acceleration_at(&p, &q, &qd, &[0.0; 3]);
            for i in 0..3 {
                qd[i] += dt * qdd[i];
                q[i] += dt * qd[i];
            }
            if step % 500 == 0 {
                let e = energy(&q, &qd);
                assert!(e <= last + 1e-9, "energy rose from {last} to {e}");
                last = e;
            }
        }
        assert!(last < 0.01 * energy(&[0.3, 1.2, 0.25], &[0.8, -0.6, 0.15]) + 1e-6);
    }

    #[test]
    fn u_z_matches_kinematics_formula() {
        let p = LinkParams::raven_ii();
        // u_z at elbow=0 is cos(α1+α2) = cosα1cosα2 − sinα1sinα2.
        let expect = raven_math::angles::deg_to_rad(75.0 + 52.0).cos();
        assert!((p.u_z(0.0_f64.cos()) - expect).abs() < 1e-12);
        // And at elbow=π it is cos(α1−α2).
        let expect = raven_math::angles::deg_to_rad(75.0 - 52.0).cos();
        assert!((p.u_z(std::f64::consts::PI.cos()) - expect).abs() < 1e-12);
    }
}
