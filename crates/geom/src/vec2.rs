//! Planar vector type.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D vector (also used as a point).
///
/// # Example
///
/// ```
/// use icoil_geom::Vec2;
///
/// let v = Vec2::new(3.0, 4.0);
/// assert_eq!(v.norm(), 5.0);
/// assert_eq!(v + Vec2::new(1.0, -4.0), Vec2::new(4.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Creates the unit vector pointing at `angle` radians from the x-axis.
    ///
    /// ```
    /// use icoil_geom::Vec2;
    /// let v = Vec2::from_angle(std::f64::consts::FRAC_PI_2);
    /// assert!((v.y - 1.0).abs() < 1e-12);
    /// ```
    pub fn from_angle(angle: f64) -> Self {
        Vec2::new(angle.cos(), angle.sin())
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean norm (cheaper than [`Vec2::norm`]).
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Distance to another point.
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Squared distance to another point.
    pub fn distance_sq(self, other: Vec2) -> f64 {
        (self - other).norm_sq()
    }

    /// Returns the vector scaled to unit length, or [`Vec2::ZERO`] when the
    /// norm is (numerically) zero.
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n < crate::EPS {
            Vec2::ZERO
        } else {
            self / n
        }
    }

    /// The vector rotated 90° counter-clockwise.
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Angle of the vector from the positive x-axis, in `(-π, π]`.
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Rotates the vector by `angle` radians (counter-clockwise).
    pub fn rotated(self, angle: f64) -> Vec2 {
        self.rotated_by(angle.sin_cos())
    }

    /// Rotates the vector by the angle whose `(sin, cos)` is given: the
    /// arithmetic of [`Vec2::rotated`] without the trig, so a loop that
    /// rotates many points by one angle can compute `sin_cos` once and
    /// get the same bits.
    pub fn rotated_by(self, (s, c): (f64, f64)) -> Vec2 {
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// Component-wise minimum.
    pub fn min(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    pub fn max(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Returns `true` when both components are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl From<(f64, f64)> for Vec2 {
    fn from((x, y): (f64, f64)) -> Self {
        Vec2::new(x, y)
    }
}

impl From<Vec2> for (f64, f64) {
    fn from(v: Vec2) -> Self {
        (v.x, v.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn arithmetic_identities() {
        let v = Vec2::new(2.0, -3.0);
        assert_eq!(v + Vec2::ZERO, v);
        assert_eq!(v - v, Vec2::ZERO);
        assert_eq!(v * 1.0, v);
        assert_eq!(-(-v), v);
        assert_eq!(v / 2.0, Vec2::new(1.0, -1.5));
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
        assert_eq!(a.dot(a), 1.0);
    }

    #[test]
    fn norm_and_distance() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(Vec2::ZERO.distance(v), 5.0);
        assert_eq!(Vec2::ZERO.distance_sq(v), 25.0);
    }

    #[test]
    fn normalized_zero_is_zero() {
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
        let n = Vec2::new(10.0, 0.0).normalized();
        assert!((n.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_quarter_turn() {
        let v = Vec2::new(1.0, 0.0).rotated(FRAC_PI_2);
        assert!((v.x).abs() < 1e-12);
        assert!((v.y - 1.0).abs() < 1e-12);
        assert_eq!(Vec2::new(1.0, 0.0).perp(), Vec2::new(0.0, 1.0));
    }

    #[test]
    fn rotation_preserves_norm() {
        let v = Vec2::new(2.5, -1.25);
        for k in 0..16 {
            let a = k as f64 / 16.0 * 2.0 * PI;
            assert!((v.rotated(a).norm() - v.norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn angle_roundtrip() {
        for k in -7..8 {
            let a = k as f64 * 0.4;
            let v = Vec2::from_angle(a);
            let diff = crate::angle_diff(v.angle(), a);
            assert!(diff.abs() < 1e-12, "angle {a}: diff {diff}");
        }
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn min_max_componentwise() {
        let a = Vec2::new(1.0, 5.0);
        let b = Vec2::new(3.0, 2.0);
        assert_eq!(a.min(b), Vec2::new(1.0, 2.0));
        assert_eq!(a.max(b), Vec2::new(3.0, 5.0));
    }

    #[test]
    fn conversions() {
        let v: Vec2 = (1.0, 2.0).into();
        let t: (f64, f64) = v.into();
        assert_eq!(t, (1.0, 2.0));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Vec2::ZERO).is_empty());
    }
}
