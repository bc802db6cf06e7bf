//! Oriented bounding boxes (vehicle and obstacle footprints).

use crate::{Aabb, Pose2, Segment, Vec2, EPS};
use serde::{Deserialize, Serialize};

/// An oriented bounding box: a rectangle with arbitrary heading.
///
/// This is the footprint representation for the ego-vehicle and for every
/// obstacle in the simulator. Overlap tests use the separating-axis theorem
/// (SAT); distances fall back to corner/edge segment distances.
///
/// # Example
///
/// ```
/// use icoil_geom::{Obb, Pose2};
///
/// let car = Obb::from_pose(Pose2::new(0.0, 0.0, 0.3), 4.2, 1.8);
/// let wall = Obb::from_pose(Pose2::new(10.0, 0.0, 0.0), 1.0, 8.0);
/// assert!(!car.intersects(&wall));
/// assert!(car.distance_to_obb(&wall) > 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Obb {
    /// Center of the rectangle.
    pub center: Vec2,
    /// Half of the extent along the local x-axis (length / 2).
    pub half_length: f64,
    /// Half of the extent along the local y-axis (width / 2).
    pub half_width: f64,
    /// Heading of the local x-axis, radians.
    pub theta: f64,
}

impl Obb {
    /// Creates a box centered at `pose` with the given full length and width.
    ///
    /// # Panics
    ///
    /// Panics if `length` or `width` is negative or non-finite.
    pub fn from_pose(pose: Pose2, length: f64, width: f64) -> Self {
        assert!(
            length.is_finite() && width.is_finite() && length >= 0.0 && width >= 0.0,
            "OBB extents must be finite and non-negative"
        );
        Obb {
            center: pose.position(),
            half_length: length * 0.5,
            half_width: width * 0.5,
            theta: pose.theta,
        }
    }

    /// Creates an axis-aligned box from an [`Aabb`].
    pub fn from_aabb(aabb: &Aabb) -> Self {
        Obb {
            center: aabb.center(),
            half_length: aabb.width() * 0.5,
            half_width: aabb.height() * 0.5,
            theta: 0.0,
        }
    }

    /// Full length (local x extent).
    pub fn length(&self) -> f64 {
        self.half_length * 2.0
    }

    /// Full width (local y extent).
    pub fn width(&self) -> f64 {
        self.half_width * 2.0
    }

    /// The pose at the box center.
    pub fn pose(&self) -> Pose2 {
        Pose2::new(self.center.x, self.center.y, self.theta)
    }

    /// Unit axis along the box length.
    pub fn axis_x(&self) -> Vec2 {
        Vec2::from_angle(self.theta)
    }

    /// Unit axis along the box width.
    pub fn axis_y(&self) -> Vec2 {
        self.axis_x().perp()
    }

    /// The four corners, counter-clockwise starting front-left.
    pub fn corners(&self) -> [Vec2; 4] {
        let ax = self.axis_x() * self.half_length;
        let ay = self.axis_y() * self.half_width;
        [
            self.center + ax + ay,
            self.center - ax + ay,
            self.center - ax - ay,
            self.center + ax - ay,
        ]
    }

    /// The four edges as segments, counter-clockwise.
    pub fn edges(&self) -> [Segment; 4] {
        let c = self.corners();
        [
            Segment::new(c[0], c[1]),
            Segment::new(c[1], c[2]),
            Segment::new(c[2], c[3]),
            Segment::new(c[3], c[0]),
        ]
    }

    /// Tight axis-aligned bounding box around this OBB.
    pub fn aabb(&self) -> Aabb {
        Aabb::from_points(self.corners()).expect("four corners")
    }

    /// The box grown by `margin` on every side (same center and heading).
    pub fn inflated(&self, margin: f64) -> Obb {
        Obb {
            center: self.center,
            half_length: (self.half_length + margin).max(0.0),
            half_width: (self.half_width + margin).max(0.0),
            theta: self.theta,
        }
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    pub fn contains(&self, p: Vec2) -> bool {
        self.point_test().contains(p)
    }

    /// [`Obb::contains`] with the box's rotation computed once, for
    /// testing many points against one box (a rasterizer's inner loop).
    pub fn point_test(&self) -> ObbPointTest {
        ObbPointTest {
            center: self.center,
            inverse: (-self.theta).sin_cos(),
            half_length: self.half_length + EPS,
            half_width: self.half_width + EPS,
        }
    }

    /// SAT overlap test against another OBB (touching counts as overlap).
    pub fn intersects(&self, other: &Obb) -> bool {
        // Broad phase.
        if !self.aabb().intersects(&other.aabb()) {
            return false;
        }
        let axes = [self.axis_x(), self.axis_y(), other.axis_x(), other.axis_y()];
        let ca = self.corners();
        let cb = other.corners();
        for axis in axes {
            let (amin, amax) = project(&ca, axis);
            let (bmin, bmax) = project(&cb, axis);
            if amax < bmin - EPS || bmax < amin - EPS {
                return false;
            }
        }
        true
    }

    /// Minimum distance between two OBBs (zero when they overlap).
    pub fn distance_to_obb(&self, other: &Obb) -> f64 {
        if self.intersects(other) {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        for e in self.edges() {
            for f in other.edges() {
                best = best.min(e.distance_to_segment(&f));
            }
        }
        best
    }

    /// Distance from the box boundary to an outside point
    /// (zero when the point is inside).
    pub fn distance_to_point(&self, p: Vec2) -> f64 {
        if self.contains(p) {
            return 0.0;
        }
        let local = (p - self.center).rotated(-self.theta);
        let dx = (local.x.abs() - self.half_length).max(0.0);
        let dy = (local.y.abs() - self.half_width).max(0.0);
        dx.hypot(dy)
    }

    /// Returns `true` when the segment touches or crosses the box.
    pub fn intersects_segment(&self, seg: &Segment) -> bool {
        if self.contains(seg.a) || self.contains(seg.b) {
            return true;
        }
        self.edges().iter().any(|e| e.intersection(seg).is_some())
    }

    /// Area of the rectangle.
    pub fn area(&self) -> f64 {
        self.length() * self.width()
    }

    /// Radius of the circumscribed circle (half diagonal).
    pub fn circumradius(&self) -> f64 {
        self.half_length.hypot(self.half_width)
    }
}

/// An [`Obb`] prepared for point containment: the `sin_cos` of the
/// inverse rotation and the EPS-padded half extents, computed once.
/// [`ObbPointTest::contains`] is [`Obb::contains`], bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObbPointTest {
    center: Vec2,
    inverse: (f64, f64),
    half_length: f64,
    half_width: f64,
}

impl ObbPointTest {
    /// Returns `true` when `p` lies inside or on the box boundary.
    pub fn contains(&self, p: Vec2) -> bool {
        let local = (p - self.center).rotated_by(self.inverse);
        local.x.abs() <= self.half_length && local.y.abs() <= self.half_width
    }
}

fn project(corners: &[Vec2; 4], axis: Vec2) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for c in corners {
        let v = c.dot(axis);
        min = min.min(v);
        max = max.max(v);
    }
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_4;

    fn unit_at(x: f64, y: f64, th: f64) -> Obb {
        Obb::from_pose(Pose2::new(x, y, th), 2.0, 1.0)
    }

    #[test]
    fn corners_and_area() {
        let b = unit_at(0.0, 0.0, 0.0);
        let c = b.corners();
        assert!(c[0].distance(Vec2::new(1.0, 0.5)) < 1e-12);
        assert!(c[2].distance(Vec2::new(-1.0, -0.5)) < 1e-12);
        assert_eq!(b.area(), 2.0);
        assert!((b.circumradius() - (1.0f64.hypot(0.5))).abs() < 1e-12);
    }

    #[test]
    fn containment_rotated() {
        let b = unit_at(0.0, 0.0, FRAC_PI_4);
        // along the rotated long axis
        let tip = Vec2::from_angle(FRAC_PI_4) * 0.99;
        assert!(b.contains(tip));
        // along the *unrotated* long axis the box is narrower
        assert!(!b.contains(Vec2::new(0.99, 0.0)));
    }

    #[test]
    fn overlap_identity_and_disjoint() {
        let a = unit_at(0.0, 0.0, 0.3);
        assert!(a.intersects(&a));
        let far = unit_at(10.0, 0.0, 0.3);
        assert!(!a.intersects(&far));
        assert!(a.distance_to_obb(&far) > 7.5);
    }

    #[test]
    fn overlap_symmetry() {
        let cases = [
            (unit_at(0.0, 0.0, 0.0), unit_at(1.5, 0.0, 0.7)),
            (unit_at(0.0, 0.0, 1.0), unit_at(0.5, 0.5, -1.0)),
            (unit_at(0.0, 0.0, 0.0), unit_at(3.0, 3.0, 0.5)),
        ];
        for (a, b) in cases {
            assert_eq!(a.intersects(&b), b.intersects(&a));
            assert!((a.distance_to_obb(&b) - b.distance_to_obb(&a)).abs() < 1e-9);
        }
    }

    #[test]
    fn cross_configuration_overlaps() {
        // Two long thin boxes crossing like a plus sign: SAT must catch this
        // even though no corner of either box is inside the other.
        let a = Obb::from_pose(Pose2::new(0.0, 0.0, 0.0), 6.0, 0.4);
        let b = Obb::from_pose(Pose2::new(0.0, 0.0, std::f64::consts::FRAC_PI_2), 6.0, 0.4);
        assert!(a.intersects(&b));
    }

    #[test]
    fn distance_axis_aligned_gap() {
        let a = unit_at(0.0, 0.0, 0.0);
        let b = unit_at(4.0, 0.0, 0.0);
        assert!((a.distance_to_obb(&b) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn point_distance_matches_contains() {
        let b = unit_at(1.0, 2.0, 0.5);
        assert_eq!(b.distance_to_point(b.center), 0.0);
        let p = Vec2::new(10.0, 10.0);
        assert!(b.distance_to_point(p) > 0.0);
        assert!(!b.contains(p));
    }

    #[test]
    fn segment_intersection() {
        let b = unit_at(0.0, 0.0, 0.0);
        let through = Segment::new(Vec2::new(-3.0, 0.0), Vec2::new(3.0, 0.0));
        let outside = Segment::new(Vec2::new(-3.0, 2.0), Vec2::new(3.0, 2.0));
        let inside = Segment::new(Vec2::new(-0.1, 0.0), Vec2::new(0.1, 0.0));
        assert!(b.intersects_segment(&through));
        assert!(!b.intersects_segment(&outside));
        assert!(b.intersects_segment(&inside));
    }

    #[test]
    fn inflated_grows_extent() {
        let b = unit_at(0.0, 0.0, 0.0).inflated(0.5);
        assert_eq!(b.length(), 3.0);
        assert_eq!(b.width(), 2.0);
        // Negative inflation clamps at zero.
        let z = unit_at(0.0, 0.0, 0.0).inflated(-10.0);
        assert_eq!(z.length(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_extent_panics() {
        let _ = Obb::from_pose(Pose2::default(), -1.0, 1.0);
    }
}
