//! Vehicle state representation.

use crate::VehicleParams;
use icoil_geom::{Obb, Pose2, Vec2};
use serde::{Deserialize, Serialize};

/// Kinematic state of the ego-vehicle: rear-axle pose plus signed speed.
///
/// The pose reference point is the **rear axle center** — the standard
/// choice for the kinematic bicycle model, because the rear axle traces
/// circular arcs under constant steering.
///
/// # Example
///
/// ```
/// use icoil_vehicle::{VehicleParams, VehicleState};
/// use icoil_geom::Pose2;
///
/// let s = VehicleState::new(Pose2::new(0.0, 0.0, 0.0), 1.0);
/// let fp = s.footprint(&VehicleParams::default());
/// assert!(fp.contains(s.pose.position()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct VehicleState {
    /// Rear-axle pose in the world frame.
    pub pose: Pose2,
    /// Signed longitudinal speed (m/s): positive forward, negative reverse.
    pub velocity: f64,
}

impl VehicleState {
    /// Creates a state from a pose and a signed speed.
    pub fn new(pose: Pose2, velocity: f64) -> Self {
        VehicleState { pose, velocity }
    }

    /// A stationary state at the given pose.
    pub fn at_rest(pose: Pose2) -> Self {
        VehicleState {
            pose,
            velocity: 0.0,
        }
    }

    /// World position of the body center (between the axles, offset from
    /// the rear axle by [`VehicleParams::center_offset`]).
    pub fn body_center(&self, params: &VehicleParams) -> Vec2 {
        self.pose.to_world(Vec2::new(params.center_offset(), 0.0))
    }

    /// The body footprint as an oriented box.
    pub fn footprint(&self, params: &VehicleParams) -> Obb {
        let center = self.body_center(params);
        Obb::from_pose(
            Pose2::from_parts(center, self.pose.theta),
            params.length,
            params.width,
        )
    }

    /// World position of the front bumper center.
    pub fn front_bumper(&self, params: &VehicleParams) -> Vec2 {
        self.pose
            .to_world(Vec2::new(params.length - params.rear_overhang, 0.0))
    }

    /// Returns `true` when the speed magnitude is below `tol`.
    pub fn is_stopped(&self, tol: f64) -> bool {
        self.velocity.abs() <= tol
    }

    /// Returns `true` when every component is finite.
    pub fn is_finite(&self) -> bool {
        self.pose.is_finite() && self.velocity.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn footprint_contains_axles() {
        let p = VehicleParams::default();
        let s = VehicleState::at_rest(Pose2::new(3.0, 4.0, 0.7));
        let fp = s.footprint(&p);
        assert!(fp.contains(s.pose.position()));
        assert!(fp.contains(s.front_bumper(&p) - Vec2::from_angle(0.7) * 0.01));
        assert!((fp.length() - p.length).abs() < 1e-12);
        assert!((fp.width() - p.width).abs() < 1e-12);
    }

    #[test]
    fn footprint_rotates_with_heading() {
        let p = VehicleParams::default();
        let east = VehicleState::at_rest(Pose2::new(0.0, 0.0, 0.0)).footprint(&p);
        let north = VehicleState::at_rest(Pose2::new(0.0, 0.0, FRAC_PI_2)).footprint(&p);
        // Centers differ because the body center is ahead of the rear axle.
        assert!((east.center.x - p.center_offset()).abs() < 1e-12);
        assert!((north.center.y - p.center_offset()).abs() < 1e-12);
    }

    #[test]
    fn stopped_predicate() {
        let s = VehicleState::new(Pose2::default(), 0.05);
        assert!(s.is_stopped(0.1));
        assert!(!s.is_stopped(0.01));
    }

    #[test]
    fn serde_roundtrip() {
        let s = VehicleState::new(Pose2::new(1.0, 2.0, 0.3), -0.7);
        let j = serde_json::to_string(&s).unwrap();
        let t: VehicleState = serde_json::from_str(&j).unwrap();
        assert_eq!(s, t);
    }
}
