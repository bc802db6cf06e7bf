//! The parking-lot map (the Fig. 4 layout).

use icoil_geom::{Aabb, Obb, Pose2, Vec2};
use serde::{Deserialize, Serialize};

/// The static geometry of the parking lot.
///
/// Mirrors the map of Fig. 4 in the paper: a rectangular lot with a spawn
/// region (green area) on the left, a goal parking bay (yellow box) on the
/// right wall, and perimeter walls. Obstacles are *not* part of the map —
/// they belong to the [`crate::Scenario`], because their number and motion
/// vary per difficulty level and per sensitivity sweep.
///
/// # Example
///
/// ```
/// use icoil_geom::Vec2;
///
/// let map = icoil_world::ParkingMap::mocam();
/// assert!(map.bounds().contains(map.goal_pose().position()));
/// assert!(map.spawn_region().contains(Vec2::new(4.0, 10.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParkingMap {
    bounds: Aabb,
    spawn_region: Aabb,
    goal_pose: Pose2,
    bay: Obb,
    wall_thickness: f64,
}

impl ParkingMap {
    /// The MoCAM-style lot used throughout the paper's evaluation:
    /// a 30 m × 20 m rectangle, spawn region on the left, reverse-in
    /// parking bay recessed into the right wall.
    ///
    /// The goal pose faces the lot interior (heading π): the paper's
    /// dataset contains forward-moving *and* reverse-parking phases, and
    /// the bay is entered tail-first.
    pub fn mocam() -> Self {
        let bounds = Aabb::new(Vec2::ZERO, Vec2::new(30.0, 20.0));
        let spawn_region = Aabb::new(Vec2::new(2.0, 3.0), Vec2::new(8.0, 17.0));
        // Bay: 5.4 m deep (x), 3.0 m wide (y), recessed at the right wall.
        let bay = Obb::from_pose(Pose2::new(26.8, 10.0, 0.0), 5.4, 3.0);
        // Reverse-in: body center sits at the bay center, front faces -x.
        // Rear-axle reference = center + center_offset towards +x.
        let goal_pose = Pose2::new(26.8 + 1.3, 10.0, std::f64::consts::PI);
        ParkingMap {
            bounds,
            spawn_region,
            goal_pose,
            bay,
            wall_thickness: 0.5,
        }
    }

    /// Builds a custom map.
    ///
    /// # Panics
    ///
    /// Panics when the spawn region or bay lies outside the lot bounds.
    pub fn new(bounds: Aabb, spawn_region: Aabb, goal_pose: Pose2, bay: Obb) -> Self {
        assert!(
            bounds.contains(spawn_region.min) && bounds.contains(spawn_region.max),
            "spawn region must lie inside the lot"
        );
        assert!(
            bounds.contains(bay.center),
            "parking bay must lie inside the lot"
        );
        ParkingMap {
            bounds,
            spawn_region,
            goal_pose,
            bay,
            wall_thickness: 0.5,
        }
    }

    /// The drivable lot extent.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// The region in which episode start poses are sampled (green area).
    pub fn spawn_region(&self) -> Aabb {
        self.spawn_region
    }

    /// The target rear-axle pose inside the bay.
    pub fn goal_pose(&self) -> Pose2 {
        self.goal_pose
    }

    /// The parking-bay rectangle (yellow box in Fig. 4).
    pub fn bay(&self) -> Obb {
        self.bay
    }

    /// Perimeter walls as oriented boxes (for rasterization and collision).
    ///
    /// The wall segment behind the bay opening is still present: the bay is
    /// recessed *inside* the lot bounds, so walls only guard the perimeter.
    pub fn walls(&self) -> Vec<Obb> {
        let t = self.wall_thickness;
        let b = self.bounds;
        let w = b.width();
        let h = b.height();
        let cx = b.center().x;
        let cy = b.center().y;
        vec![
            // bottom, top
            Obb::from_pose(Pose2::new(cx, b.min.y - t * 0.5, 0.0), w + 2.0 * t, t),
            Obb::from_pose(Pose2::new(cx, b.max.y + t * 0.5, 0.0), w + 2.0 * t, t),
            // left, right
            Obb::from_pose(Pose2::new(b.min.x - t * 0.5, cy, 0.0), t, h + 2.0 * t),
            Obb::from_pose(Pose2::new(b.max.x + t * 0.5, cy, 0.0), t, h + 2.0 * t),
        ]
    }

    /// Returns `true` when the footprint lies fully inside the lot.
    pub fn contains_footprint(&self, footprint: &Obb) -> bool {
        footprint.corners().iter().all(|c| self.bounds.contains(*c))
    }

    /// Representative "close" start pose region of the §V-E sensitivity
    /// analysis: a small box mid-lot a few car lengths short of the bay,
    /// centered on the bay's approach line.
    pub fn close_start_region(&self) -> Aabb {
        let bay = self.bay.center;
        let cx = self.bounds.min.x + self.bounds.width() * 0.6;
        Aabb::new(
            Vec2::new(cx - 2.0, (bay.y - 2.0).max(self.bounds.min.y + 2.0)),
            Vec2::new(cx + 2.0, (bay.y + 2.0).min(self.bounds.max.y - 2.0)),
        )
    }

    /// Representative "remote" start pose region: a strip along the far
    /// (left) edge of the lot.
    pub fn remote_start_region(&self) -> Aabb {
        let b = self.bounds;
        Aabb::new(
            Vec2::new(b.min.x + 2.0, b.min.y + 3.0),
            Vec2::new(b.min.x + 5.0, b.max.y - 3.0),
        )
    }
}

impl ParkingMap {
    /// A curbside parallel-parking street (30 m × 12 m): the bay is a
    /// gap between two parked cars along the top curb, entered with the
    /// classic pull-past-and-reverse maneuver. The two parked cars are
    /// scenario obstacles (see `ScenarioConfig`), not map geometry.
    pub fn parallel() -> Self {
        let bounds = Aabb::new(Vec2::ZERO, Vec2::new(30.0, 12.0));
        let spawn_region = Aabb::new(Vec2::new(2.5, 3.0), Vec2::new(9.0, 7.0));
        // gap between the parked cars at x ∈ [13.3, 20.3], curb lane y ≈ 10.4
        let bay = Obb::from_pose(Pose2::new(16.8, 10.4, 0.0), 7.0, 1.9);
        // parked parallel to the curb, facing +x; rear axle behind center
        let goal_pose = Pose2::new(15.5, 10.4, 0.0);
        ParkingMap {
            bounds,
            spawn_region,
            goal_pose,
            bay,
            wall_thickness: 0.5,
        }
    }

    /// A compact private-courtyard lot (23 m × 14 m): same reverse-in
    /// bay geometry as [`ParkingMap::mocam`] but tighter everywhere —
    /// used to show the stack generalizes beyond the Fig. 4 layout.
    pub fn compact() -> Self {
        let bounds = Aabb::new(Vec2::ZERO, Vec2::new(23.0, 14.0));
        let spawn_region = Aabb::new(Vec2::new(2.0, 3.0), Vec2::new(6.0, 11.0));
        let bay = Obb::from_pose(Pose2::new(20.0, 7.0, 0.0), 5.4, 3.0);
        let goal_pose = Pose2::new(21.3, 7.0, std::f64::consts::PI);
        ParkingMap {
            bounds,
            spawn_region,
            goal_pose,
            bay,
            wall_thickness: 0.5,
        }
    }
}

impl Default for ParkingMap {
    fn default() -> Self {
        ParkingMap::mocam()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mocam_layout_consistent() {
        let m = ParkingMap::mocam();
        assert!(m.bounds().contains(m.goal_pose().position()));
        assert!(m.bounds().contains(m.bay().center));
        assert!(m.spawn_region().width() > 0.0);
        // goal pose is inside the bay
        assert!(m.bay().inflated(0.5).contains(m.goal_pose().position()));
        // spawn and bay are disjoint
        assert!(!m.spawn_region().intersects(&m.bay().aabb()));
    }

    #[test]
    fn walls_surround_lot() {
        let m = ParkingMap::mocam();
        let walls = m.walls();
        assert_eq!(walls.len(), 4);
        for w in &walls {
            // no wall intrudes into the lot interior
            assert!(!w.contains(m.bounds().center()));
        }
        // a point just outside each edge is covered by some wall
        let b = m.bounds();
        let probes = [
            Vec2::new(b.center().x, b.min.y - 0.2),
            Vec2::new(b.center().x, b.max.y + 0.2),
            Vec2::new(b.min.x - 0.2, b.center().y),
            Vec2::new(b.max.x + 0.2, b.center().y),
        ];
        for p in probes {
            assert!(walls.iter().any(|w| w.contains(p)), "probe {p} uncovered");
        }
    }

    #[test]
    fn footprint_containment() {
        let m = ParkingMap::mocam();
        let inside = Obb::from_pose(Pose2::new(15.0, 10.0, 0.3), 4.0, 2.0);
        let straddling = Obb::from_pose(Pose2::new(0.5, 10.0, 0.0), 4.0, 2.0);
        assert!(m.contains_footprint(&inside));
        assert!(!m.contains_footprint(&straddling));
    }

    #[test]
    fn start_regions_inside_bounds() {
        let m = ParkingMap::mocam();
        for r in [m.close_start_region(), m.remote_start_region()] {
            assert!(m.bounds().contains(r.min) && m.bounds().contains(r.max));
        }
        // close region is nearer to the bay than the remote one
        let bay = m.bay().center;
        assert!(
            m.close_start_region().center().distance(bay)
                < m.remote_start_region().center().distance(bay)
        );
    }

    #[test]
    fn parallel_layout_consistent() {
        let m = ParkingMap::parallel();
        assert!(m.bounds().contains(m.goal_pose().position()));
        assert!(m.bay().inflated(0.2).contains(m.goal_pose().position()));
        // the goal heading is parallel to the curb (0 rad)
        assert_eq!(m.goal_pose().theta, 0.0);
        for r in [m.close_start_region(), m.remote_start_region()] {
            assert!(m.bounds().contains(r.min) && m.bounds().contains(r.max));
        }
    }

    #[test]
    fn compact_layout_consistent() {
        let m = ParkingMap::compact();
        assert!(m.bounds().contains(m.goal_pose().position()));
        assert!(m.bay().inflated(0.5).contains(m.goal_pose().position()));
        assert!(!m.spawn_region().intersects(&m.bay().aabb()));
        // derived start regions stay inside the lot
        for r in [m.close_start_region(), m.remote_start_region()] {
            assert!(m.bounds().contains(r.min) && m.bounds().contains(r.max));
        }
    }

    #[test]
    #[should_panic(expected = "spawn region")]
    fn invalid_spawn_region_panics() {
        let bounds = Aabb::new(Vec2::ZERO, Vec2::new(10.0, 10.0));
        let spawn = Aabb::new(Vec2::new(-5.0, 0.0), Vec2::new(2.0, 2.0));
        let bay = Obb::from_pose(Pose2::new(8.0, 5.0, 0.0), 4.0, 2.5);
        let _ = ParkingMap::new(bounds, spawn, Pose2::new(8.0, 5.0, 0.0), bay);
    }
}
