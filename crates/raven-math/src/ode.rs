//! Fixed-step integrators for ordinary differential equations.
//!
//! The paper (§IV.A.1) solves the robot's motor and link dynamics — two sets
//! of second-order ODEs rewritten in first-order form — with the explicit
//! Euler and classical 4th-order Runge–Kutta methods at a 1 ms step, and
//! reports their accuracy/time trade-off in Fig. 8. [`Method::Euler`] and
//! [`Method::Rk4`] are those two methods; [`Method::step`] advances a state
//! with either, which is how the Fig. 8 validation harness sweeps
//! integrators.
//!
//! States are fixed-size arrays `[f64; N]`; the derivative is any
//! `Fn(&[f64; N], f64) -> [f64; N]`.

use serde::{Deserialize, Serialize};

/// A fixed-step integration method, selected at runtime by the Fig. 8
/// model-validation sweep and by the real-time estimator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Method {
    /// The explicit (forward) Euler method. First-order accurate; the
    /// cheapest option and, per the paper's Fig. 8, the best time/accuracy
    /// trade-off for the RAVEN model at a 1 ms step (0.011 ms/step on
    /// their testbed). The paper's production choice.
    #[default]
    Euler,
    /// The classical 4th-order Runge–Kutta method. Fourth-order accurate at
    /// four derivative evaluations per step (paper: 0.032 ms/step).
    Rk4,
}

impl Method {
    /// Advances `state` from time `t` by `dt` under the derivative field
    /// `deriv`, returning the next state.
    ///
    /// # Example
    ///
    /// ```
    /// use raven_math::ode::Method;
    ///
    /// // Harmonic oscillator: x'' = -x, as first-order system [x, v].
    /// let f = |s: &[f64; 2], _t: f64| [s[1], -s[0]];
    /// let mut s = [1.0, 0.0];
    /// for _ in 0..1000 {
    ///     s = Method::Rk4.step(&s, 0.0, std::f64::consts::TAU / 1000.0, &f);
    /// }
    /// // One full period returns to the initial state.
    /// assert!((s[0] - 1.0).abs() < 1e-9 && s[1].abs() < 1e-9);
    /// ```
    pub fn step<const N: usize, F>(self, state: &[f64; N], t: f64, dt: f64, deriv: &F) -> [f64; N]
    where
        F: Fn(&[f64; N], f64) -> [f64; N],
    {
        match self {
            Method::Euler => {
                let d = deriv(state, t);
                let mut next = *state;
                for i in 0..N {
                    next[i] += dt * d[i];
                }
                next
            }
            Method::Rk4 => {
                let half = dt * 0.5;
                let k1 = deriv(state, t);
                let k2 = deriv(&offset(state, &k1, half), t + half);
                let k3 = deriv(&offset(state, &k2, half), t + half);
                let k4 = deriv(&offset(state, &k3, dt), t + dt);
                let mut next = *state;
                for i in 0..N {
                    next[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
                }
                next
            }
        }
    }

    /// Number of derivative evaluations per step.
    pub fn evals_per_step(self) -> usize {
        match self {
            Method::Euler => 1,
            Method::Rk4 => 4,
        }
    }

    /// All supported methods, in paper order (RK4 first, as in Fig. 8).
    pub fn all() -> [Method; 2] {
        [Method::Rk4, Method::Euler]
    }
}

/// Preallocated derivative/stage storage for [`Method::step_batch`].
///
/// All five slices must have the same length as the flattened state
/// (`dims * lanes`). `k2`–`k4` and `stage` are only touched by RK4, but
/// Euler callers still provide them so one scratch allocation serves
/// either method without branching at the call site. The slices are
/// borrowed, not owned, so hot paths can hand in storage allocated once
/// at construction (heap for many lanes, stack arrays for a single
/// lane) and the step itself never allocates.
#[derive(Debug)]
pub struct BatchScratch<'a> {
    /// First derivative evaluation (the only one Euler uses).
    pub k1: &'a mut [f64],
    /// Second RK4 stage derivative.
    pub k2: &'a mut [f64],
    /// Third RK4 stage derivative.
    pub k3: &'a mut [f64],
    /// Fourth RK4 stage derivative.
    pub k4: &'a mut [f64],
    /// Stage-state buffer (`state + h·k`) fed back into `deriv`.
    pub stage: &'a mut [f64],
}

impl Method {
    /// Advances a flattened batch of states by one step.
    ///
    /// `state` and `out` hold `dims * lanes` elements; the derivative
    /// callback receives the full flattened state and writes the full
    /// flattened derivative. The per-element arithmetic is *exactly*
    /// the scalar [`Method::step`] expressions (`x + dt·k₁` for Euler;
    /// `x + h·kᵢ` stages and `x + dt/6·(k₁ + 2k₂ + 2k₃ + k₄)` for RK4),
    /// so each lane of a batched step is bit-identical to an
    /// independent scalar step of that lane — the contract the
    /// dynamics-estimator SoA kernel and its equivalence suite pin.
    pub fn step_batch<F>(
        self,
        state: &[f64],
        t: f64,
        dt: f64,
        deriv: &mut F,
        scratch: &mut BatchScratch<'_>,
        out: &mut [f64],
    ) where
        F: FnMut(&[f64], f64, &mut [f64]),
    {
        let n = state.len();
        assert_eq!(out.len(), n, "out length must match state length");
        assert_eq!(scratch.k1.len(), n, "scratch k1 length must match state length");
        match self {
            Method::Euler => {
                deriv(state, t, scratch.k1);
                for i in 0..n {
                    out[i] = state[i] + dt * scratch.k1[i];
                }
            }
            Method::Rk4 => {
                assert_eq!(scratch.k2.len(), n, "scratch k2 length must match state length");
                assert_eq!(scratch.k3.len(), n, "scratch k3 length must match state length");
                assert_eq!(scratch.k4.len(), n, "scratch k4 length must match state length");
                assert_eq!(scratch.stage.len(), n, "scratch stage length must match state length");
                let half = dt * 0.5;
                deriv(state, t, scratch.k1);
                for ((s, &x), &k) in scratch.stage.iter_mut().zip(state).zip(scratch.k1.iter()) {
                    *s = x + half * k;
                }
                deriv(scratch.stage, t + half, scratch.k2);
                for ((s, &x), &k) in scratch.stage.iter_mut().zip(state).zip(scratch.k2.iter()) {
                    *s = x + half * k;
                }
                deriv(scratch.stage, t + half, scratch.k3);
                for ((s, &x), &k) in scratch.stage.iter_mut().zip(state).zip(scratch.k3.iter()) {
                    *s = x + dt * k;
                }
                deriv(scratch.stage, t + dt, scratch.k4);
                for i in 0..n {
                    out[i] = state[i]
                        + dt / 6.0
                            * (scratch.k1[i]
                                + 2.0 * scratch.k2[i]
                                + 2.0 * scratch.k3[i]
                                + scratch.k4[i]);
                }
            }
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Method::Euler => f.write_str("Euler"),
            Method::Rk4 => f.write_str("4-th Order Runge Kutta"),
        }
    }
}

#[inline]
fn offset<const N: usize>(state: &[f64; N], k: &[f64; N], h: f64) -> [f64; N] {
    let mut out = *state;
    for i in 0..N {
        out[i] += h * k[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exponential decay x' = -x has exact solution e^{-t}.
    fn decay(s: &[f64; 1], _t: f64) -> [f64; 1] {
        [-s[0]]
    }

    fn integrate(method: Method, dt: f64, t_end: f64) -> f64 {
        let mut s = [1.0];
        let steps = (t_end / dt).round() as usize;
        let mut t = 0.0;
        for _ in 0..steps {
            s = method.step(&s, t, dt, &decay);
            t += dt;
        }
        s[0]
    }

    #[test]
    fn euler_converges_first_order() {
        let exact = (-1.0_f64).exp();
        let e1 = (integrate(Method::Euler, 1e-2, 1.0) - exact).abs();
        let e2 = (integrate(Method::Euler, 5e-3, 1.0) - exact).abs();
        let order = (e1 / e2).log2();
        assert!((order - 1.0).abs() < 0.1, "euler observed order {order}");
    }

    #[test]
    fn rk4_converges_fourth_order() {
        let exact = (-1.0_f64).exp();
        let e1 = (integrate(Method::Rk4, 1e-1, 1.0) - exact).abs();
        let e2 = (integrate(Method::Rk4, 5e-2, 1.0) - exact).abs();
        let order = (e1 / e2).log2();
        assert!((order - 4.0).abs() < 0.3, "rk4 observed order {order}");
    }

    #[test]
    fn rk4_is_much_more_accurate_than_euler_at_same_step() {
        let exact = (-1.0_f64).exp();
        let ee = (integrate(Method::Euler, 1e-2, 1.0) - exact).abs();
        let er = (integrate(Method::Rk4, 1e-2, 1.0) - exact).abs();
        assert!(er < ee * 1e-3);
    }

    #[test]
    fn time_dependent_rhs() {
        // x' = t has exact solution t²/2.
        let f = |s: &[f64; 1], t: f64| {
            let _ = s;
            [t]
        };
        let mut s = [0.0];
        let dt = 1e-3;
        let mut t = 0.0;
        for _ in 0..1000 {
            s = Method::Rk4.step(&s, t, dt, &f);
            t += dt;
        }
        assert!((s[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn evals_per_step() {
        assert_eq!(Method::Euler.evals_per_step(), 1);
        assert_eq!(Method::Rk4.evals_per_step(), 4);
    }

    /// A two-dim damped oscillator flattened over `lanes` lanes in
    /// dim-major layout (`x[d * lanes + lane]`), matching the layout the
    /// dynamics batch kernel uses.
    fn batch_oscillator(lanes: usize) -> impl FnMut(&[f64], f64, &mut [f64]) {
        move |x: &[f64], _t: f64, dx: &mut [f64]| {
            for l in 0..lanes {
                dx[l] = x[lanes + l];
                dx[lanes + l] = -x[l] - 0.1 * x[lanes + l];
            }
        }
    }

    #[test]
    fn batch_step_single_lane_is_bit_identical_to_scalar_step() {
        let scalar = |s: &[f64; 2], _t: f64| [s[1], -s[0] - 0.1 * s[1]];
        for method in Method::all() {
            let mut s = [0.7, -0.2];
            let mut flat = s.to_vec();
            let (mut k1, mut k2, mut k3, mut k4, mut stage) =
                ([0.0; 2], [0.0; 2], [0.0; 2], [0.0; 2], [0.0; 2]);
            let mut out = [0.0; 2];
            for step in 0..500 {
                s = method.step(&s, 0.0, 1e-2, &scalar);
                let mut deriv = batch_oscillator(1);
                let mut scratch = BatchScratch {
                    k1: &mut k1,
                    k2: &mut k2,
                    k3: &mut k3,
                    k4: &mut k4,
                    stage: &mut stage,
                };
                method.step_batch(&flat, 0.0, 1e-2, &mut deriv, &mut scratch, &mut out);
                flat.copy_from_slice(&out);
                assert_eq!(flat.as_slice(), &s, "{method} diverged at step {step}");
            }
        }
    }

    #[test]
    fn batch_lanes_are_bit_identical_to_independent_scalar_lanes() {
        let scalar = |s: &[f64; 2], _t: f64| [s[1], -s[0] - 0.1 * s[1]];
        let lanes = 5;
        for method in Method::all() {
            // Seed each lane differently; dim-major flatten.
            let mut states: Vec<[f64; 2]> =
                (0..lanes).map(|l| [0.3 + 0.1 * l as f64, -0.5 + 0.2 * l as f64]).collect();
            let n = 2 * lanes;
            let mut flat = vec![0.0; n];
            for (l, s) in states.iter().enumerate() {
                flat[l] = s[0];
                flat[lanes + l] = s[1];
            }
            let mut scratch_store = vec![0.0; 5 * n];
            let mut out = vec![0.0; n];
            for _ in 0..200 {
                for s in &mut states {
                    *s = method.step(s, 0.0, 1e-2, &scalar);
                }
                let (k1, rest) = scratch_store.split_at_mut(n);
                let (k2, rest) = rest.split_at_mut(n);
                let (k3, rest) = rest.split_at_mut(n);
                let (k4, stage) = rest.split_at_mut(n);
                let mut scratch = BatchScratch { k1, k2, k3, k4, stage };
                let mut deriv = batch_oscillator(lanes);
                method.step_batch(&flat, 0.0, 1e-2, &mut deriv, &mut scratch, &mut out);
                flat.copy_from_slice(&out);
            }
            for (l, s) in states.iter().enumerate() {
                assert_eq!(flat[l], s[0], "{method} lane {l} position diverged");
                assert_eq!(flat[lanes + l], s[1], "{method} lane {l} velocity diverged");
            }
        }
    }

    #[test]
    fn second_order_system_energy_roughly_conserved_by_rk4() {
        // Undamped oscillator: energy E = (x² + v²)/2 should be stable under RK4.
        let f = |s: &[f64; 2], _t: f64| [s[1], -s[0]];
        let mut s = [1.0, 0.0];
        for _ in 0..10_000 {
            s = Method::Rk4.step(&s, 0.0, 1e-2, &f);
        }
        let energy = 0.5 * (s[0] * s[0] + s[1] * s[1]);
        assert!((energy - 0.5).abs() < 1e-6, "energy drifted to {energy}");
    }
}
