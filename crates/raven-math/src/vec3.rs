//! Three-dimensional vectors.
//!
//! [`Vec3`] is the workhorse geometric type of the kinematic chain: desired
//! and actual end-effector positions (`pos_d`, `pos` in Fig. 2 of the paper)
//! are `Vec3` values in meters, expressed in the robot base frame.

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A 3-D vector of `f64` components.
///
/// # Example
///
/// ```
/// use raven_math::Vec3;
///
/// let a = Vec3::new(1.0, 2.0, 2.0);
/// assert_eq!(a.norm(), 3.0);
/// assert_eq!(a.cross(Vec3::X).dot(a), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// The unit X axis.
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    /// The unit Y axis.
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    /// The unit Z axis.
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, rhs: Vec3) -> f64 {
        (self - rhs).norm()
    }

    /// `true` when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Components as a fixed-size array `[x, y, z]`.
    #[inline]
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;

    /// # Panics
    ///
    /// Panics if `i > 2`.
    #[expect(
        clippy::panic,
        reason = "the Index contract: out-of-range indexing panics, as on a slice"
    )]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[expect(
        clippy::panic,
        reason = "the IndexMut contract: out-of-range indexing panics, as on a slice"
    )]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl std::fmt::Display for Vec3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.6}, {:.6}, {:.6})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_constants() {
        assert_eq!(Vec3::new(1.0, 2.0, 3.0).to_array(), [1.0, 2.0, 3.0]);
        assert_eq!(Vec3::ZERO.norm(), 0.0);
        assert_eq!(Vec3::X.dot(Vec3::Y), 0.0);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Vec3::new(1.0, -2.0, 3.0);
        let b = Vec3::new(0.5, 4.0, -1.0);
        assert_eq!(a + b - b, a);
        assert_eq!((a * 2.0) / 2.0, a);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

    #[test]
    fn cross_product_is_orthogonal_and_right_handed() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
    }

    #[test]
    fn indexing_matches_fields() {
        let mut v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!((v[0], v[1], v[2]), (7.0, 8.0, 9.0));
        v[1] = -8.0;
        assert_eq!(v.y, -8.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn distance() {
        let a = Vec3::new(1.0, 1.0, 1.0);
        let b = Vec3::new(1.0, 1.0, 2.0);
        assert_eq!(a.distance(b), 1.0);
    }

    #[test]
    fn finiteness() {
        assert!(Vec3::X.is_finite());
        assert!(!Vec3::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Vec3::new(0.0, f64::INFINITY, 0.0).is_finite());
    }
}
