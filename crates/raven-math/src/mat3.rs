//! 3×3 matrices (row-major), used for the joint ↔ motor cable coupling of
//! the kinematic chain (Fig. 2 of the paper).

use std::ops::Mul;

use serde::{Deserialize, Serialize};

use crate::vec3::Vec3;

/// A 3×3 matrix of `f64`, stored row-major.
///
/// # Example
///
/// ```
/// use raven_math::{Mat3, Vec3};
///
/// let m = Mat3::diagonal(2.0, 4.0, 8.0);
/// let x = m.inverse().unwrap() * Vec3::new(2.0, 4.0, 8.0);
/// assert_eq!(x, Vec3::new(1.0, 1.0, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat3 {
    /// Rows of the matrix.
    pub rows: [[f64; 3]; 3],
}

impl Mat3 {
    /// Creates a matrix from rows.
    #[inline]
    pub const fn from_rows(r0: [f64; 3], r1: [f64; 3], r2: [f64; 3]) -> Self {
        Mat3 { rows: [r0, r1, r2] }
    }

    /// Creates a diagonal matrix.
    #[inline]
    pub const fn diagonal(d0: f64, d1: f64, d2: f64) -> Self {
        Mat3::from_rows([d0, 0.0, 0.0], [0.0, d1, 0.0], [0.0, 0.0, d2])
    }

    /// Row `i` as a vector.
    #[inline]
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::from(self.rows[i])
    }

    /// Column `j` as a vector.
    #[inline]
    pub fn column(&self, j: usize) -> Vec3 {
        Vec3::new(self.rows[0][j], self.rows[1][j], self.rows[2][j])
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat3 {
        Mat3::from_rows(
            self.column(0).to_array(),
            self.column(1).to_array(),
            self.column(2).to_array(),
        )
    }

    /// Determinant.
    pub fn determinant(&self) -> f64 {
        self.row(0).dot(self.row(1).cross(self.row(2)))
    }

    /// Matrix inverse, or `None` when `|det| < 1e-12` (singular).
    pub fn inverse(&self) -> Option<Mat3> {
        let det = self.determinant();
        if det.abs() < 1e-12 {
            return None;
        }
        let c0 = self.column(0);
        let c1 = self.column(1);
        let c2 = self.column(2);
        // Rows of the inverse are the cross products of column pairs / det.
        let r0 = c1.cross(c2) / det;
        let r1 = c2.cross(c0) / det;
        let r2 = c0.cross(c1) / det;
        Some(Mat3::from_rows(r0.to_array(), r1.to_array(), r2.to_array()))
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3 { rows: [[0.0; 3]; 3] };
        for i in 0..3 {
            for j in 0..3 {
                out.rows[i][j] = self.row(i).dot(rhs.column(j));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IDENTITY: Mat3 = Mat3::diagonal(1.0, 1.0, 1.0);

    fn approx(a: Mat3, b: Mat3, tol: f64) -> bool {
        (0..3).all(|i| (0..3).all(|j| (a.rows[i][j] - b.rows[i][j]).abs() < tol))
    }

    #[test]
    fn identity_is_neutral() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]);
        assert_eq!(IDENTITY * m, m);
        assert_eq!(m * IDENTITY, m);
        assert_eq!(IDENTITY * Vec3::new(1.0, 2.0, 3.0), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn inverse_of_general_matrix() {
        let m = Mat3::from_rows([2.0, 1.0, 0.5], [-1.0, 3.0, 2.0], [0.0, 1.0, 4.0]);
        let inv = m.inverse().unwrap();
        assert!(approx(m * inv, IDENTITY, 1e-12));
        assert!(approx(inv * m, IDENTITY, 1e-12));
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn transpose_and_determinant() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]);
        assert_eq!(m.transpose().rows[0][1], 4.0);
        assert_eq!(m.transpose().transpose(), m);
        assert!((m.determinant() + 3.0).abs() < 1e-12);
        assert!((m.transpose().determinant() - m.determinant()).abs() < 1e-12);
    }
}
