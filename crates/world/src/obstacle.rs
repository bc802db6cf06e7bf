//! Static and dynamic obstacles.

use icoil_geom::{Obb, Polyline, Pose2, Vec2};
use serde::{Deserialize, Serialize};

/// Identifier of an obstacle within a scenario.
pub type ObstacleId = usize;

/// A closed patrol route for a dynamic obstacle.
///
/// The obstacle moves at constant speed along the waypoint loop
/// (ping-pong: it drives to the end of the polyline and back). Motion is a
/// pure function of time, so replays are exact.
///
/// # Example
///
/// ```
/// use icoil_geom::Vec2;
/// use icoil_world::DynamicRoute;
///
/// let route = DynamicRoute::new(
///     vec![Vec2::new(0.0, 0.0), Vec2::new(10.0, 0.0)],
///     1.0,
/// ).unwrap();
/// let p = route.pose_at(3.0);
/// assert!((p.x - 3.0).abs() < 1e-9);
/// // Ping-pong: at t = 14 s the obstacle is on its way back.
/// assert!((route.pose_at(14.0).x - 6.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicRoute {
    path: Polyline,
    speed: f64,
}

/// Error constructing a [`DynamicRoute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The waypoint list describes a zero-length path.
    DegeneratePath,
    /// The speed is not strictly positive.
    NonPositiveSpeed,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::DegeneratePath => write!(f, "route path has zero length"),
            RouteError::NonPositiveSpeed => write!(f, "route speed must be positive"),
        }
    }
}

impl std::error::Error for RouteError {}

impl DynamicRoute {
    /// Creates a route from waypoints and a constant speed (m/s).
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] for a zero-length path or non-positive speed.
    pub fn new(waypoints: Vec<Vec2>, speed: f64) -> Result<Self, RouteError> {
        let path = Polyline::new(waypoints);
        if path.length() <= 0.0 {
            return Err(RouteError::DegeneratePath);
        }
        if speed.is_nan() || speed <= 0.0 {
            return Err(RouteError::NonPositiveSpeed);
        }
        Ok(DynamicRoute { path, speed })
    }

    /// The patrol path.
    pub fn path(&self) -> &Polyline {
        &self.path
    }

    /// Patrol speed (m/s).
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Pose (position + motion heading) at time `t` seconds.
    ///
    /// The obstacle ping-pongs along the path: arc length follows a
    /// triangle wave with period `2·length/speed`.
    pub fn pose_at(&self, t: f64) -> Pose2 {
        let len = self.path.length();
        let s_raw = (self.speed * t.max(0.0)).rem_euclid(2.0 * len);
        let (s, forward) = if s_raw <= len {
            (s_raw, true)
        } else {
            (2.0 * len - s_raw, false)
        };
        let p = self.path.point_at(s);
        let h = self.path.heading_at(s);
        Pose2::from_parts(p, if forward { h } else { h + std::f64::consts::PI })
    }
}

/// Whether an obstacle moves, and how.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ObstacleKind {
    /// A fixed box (parked car, crate, curb island).
    Static,
    /// A vehicle patrolling a [`DynamicRoute`].
    Dynamic(DynamicRoute),
}

/// An obstacle: a rectangular body placed statically or along a route.
///
/// # Example
///
/// ```
/// use icoil_geom::Pose2;
/// use icoil_world::Obstacle;
///
/// let parked = Obstacle::fixed(0, Pose2::new(14.0, 6.0, 0.4), 4.2, 1.8);
/// assert!(parked.footprint_at(10.0).contains(parked.footprint_at(0.0).center));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Obstacle {
    /// Scenario-unique identifier.
    pub id: ObstacleId,
    /// Body length (meters).
    pub length: f64,
    /// Body width (meters).
    pub width: f64,
    /// Rest pose for static obstacles; ignored for dynamic ones.
    pub pose: Pose2,
    /// Static or dynamic behaviour.
    pub kind: ObstacleKind,
}

impl Obstacle {
    /// Creates a static box obstacle.
    pub fn fixed(id: ObstacleId, pose: Pose2, length: f64, width: f64) -> Self {
        Obstacle {
            id,
            length,
            width,
            pose,
            kind: ObstacleKind::Static,
        }
    }

    /// Creates a dynamic obstacle patrolling `route`.
    pub fn moving(id: ObstacleId, route: DynamicRoute, length: f64, width: f64) -> Self {
        let pose = route.pose_at(0.0);
        Obstacle {
            id,
            length,
            width,
            pose,
            kind: ObstacleKind::Dynamic(route),
        }
    }

    /// Returns `true` for dynamic obstacles.
    pub fn is_dynamic(&self) -> bool {
        matches!(self.kind, ObstacleKind::Dynamic(_))
    }

    /// Pose at simulation time `t`.
    pub fn pose_at(&self, t: f64) -> Pose2 {
        match &self.kind {
            ObstacleKind::Static => self.pose,
            ObstacleKind::Dynamic(route) => route.pose_at(t),
        }
    }

    /// Oriented-box footprint at simulation time `t`.
    pub fn footprint_at(&self, t: f64) -> Obb {
        Obb::from_pose(self.pose_at(t), self.length, self.width)
    }

    /// Velocity vector at time `t` (finite difference; zero for statics).
    pub fn velocity_at(&self, t: f64) -> Vec2 {
        match &self.kind {
            ObstacleKind::Static => Vec2::ZERO,
            ObstacleKind::Dynamic(route) => {
                let dt = 0.1;
                let a = route.pose_at(t).position();
                let b = route.pose_at(t + dt).position();
                (b - a) / dt
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route() -> DynamicRoute {
        DynamicRoute::new(vec![Vec2::new(0.0, 0.0), Vec2::new(10.0, 0.0)], 2.0).unwrap()
    }

    #[test]
    fn route_validation() {
        assert_eq!(
            DynamicRoute::new(vec![Vec2::ZERO, Vec2::ZERO], 1.0),
            Err(RouteError::DegeneratePath)
        );
        assert_eq!(
            DynamicRoute::new(vec![Vec2::ZERO, Vec2::new(1.0, 0.0)], 0.0),
            Err(RouteError::NonPositiveSpeed)
        );
    }

    #[test]
    fn route_ping_pong_period() {
        let r = route();
        // period = 2 * 10 / 2 = 10 s
        let p0 = r.pose_at(0.0);
        let p10 = r.pose_at(10.0);
        assert!(p0.position().distance(p10.position()) < 1e-9);
        // half period: at the far end
        let p5 = r.pose_at(5.0);
        assert!(p5.position().distance(Vec2::new(10.0, 0.0)) < 1e-9);
    }

    #[test]
    fn route_heading_flips_on_return() {
        let r = route();
        let fwd = r.pose_at(1.0);
        let back = r.pose_at(6.0); // returning
        assert!((fwd.theta - 0.0).abs() < 1e-9);
        assert!((back.theta.abs() - std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn route_never_leaves_path_bounds() {
        let r = route();
        for i in 0..200 {
            let p = r.pose_at(i as f64 * 0.173);
            assert!((-1e-9..=10.0 + 1e-9).contains(&p.x));
            assert!(p.y.abs() < 1e-9);
        }
    }

    #[test]
    fn static_obstacle_is_time_invariant() {
        let o = Obstacle::fixed(3, Pose2::new(1.0, 2.0, 0.5), 2.0, 2.0);
        assert_eq!(o.footprint_at(0.0), o.footprint_at(99.0));
        assert_eq!(o.velocity_at(5.0), Vec2::ZERO);
        assert!(!o.is_dynamic());
    }

    #[test]
    fn dynamic_obstacle_moves_with_consistent_velocity() {
        let o = Obstacle::moving(1, route(), 4.0, 2.0);
        assert!(o.is_dynamic());
        let v = o.velocity_at(1.0);
        assert!((v.norm() - 2.0).abs() < 1e-6);
        let p1 = o.pose_at(1.0).position();
        let p2 = o.pose_at(2.0).position();
        assert!((p2 - p1).norm() > 1.9);
    }
}
