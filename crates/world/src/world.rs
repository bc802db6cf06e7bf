//! Frame-by-frame world simulation.

use crate::{ParkingMap, Scenario};
use icoil_geom::Obb;
use icoil_vehicle::{kinematics, Action, VehicleParams, VehicleState};
use serde::{Deserialize, Serialize};

/// What the ego hit, for failure attribution in the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollisionCause {
    /// Left the lot / hit a perimeter wall.
    Wall,
    /// Hit the static obstacle with this id.
    StaticObstacle(usize),
    /// Hit the dynamic obstacle with this id.
    DynamicObstacle(usize),
}

impl std::fmt::Display for CollisionCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollisionCause::Wall => write!(f, "wall"),
            CollisionCause::StaticObstacle(id) => write!(f, "static obstacle {id}"),
            CollisionCause::DynamicObstacle(id) => write!(f, "dynamic obstacle {id}"),
        }
    }
}

/// Pose/speed tolerances that define a completed park.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GoalTolerance {
    /// Maximum rear-axle position error (meters).
    pub position: f64,
    /// Maximum heading error (radians).
    pub heading: f64,
    /// Maximum speed magnitude (m/s).
    pub speed: f64,
}

impl Default for GoalTolerance {
    fn default() -> Self {
        GoalTolerance {
            position: 0.6,
            heading: 0.3,
            speed: 0.15,
        }
    }
}

/// The simulation state: scenario + ego vehicle + clock.
///
/// `World` owns nothing random — all stochasticity lives in scenario
/// generation and in the perception noise, so stepping is exactly
/// reproducible.
///
/// # Example
///
/// ```
/// use icoil_world::{Difficulty, ScenarioConfig, World};
/// use icoil_vehicle::Action;
///
/// let mut w = World::new(ScenarioConfig::new(Difficulty::Easy, 1).build());
/// let x0 = w.ego().pose.x;
/// for _ in 0..20 {
///     w.step(&Action::forward(1.0, 0.0));
/// }
/// assert!(w.ego().pose.x > x0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct World {
    scenario: Scenario,
    ego: VehicleState,
    time: f64,
    frame: usize,
    goal_tolerance: GoalTolerance,
}

impl World {
    /// Creates a world at the scenario's start state, time zero.
    pub fn new(scenario: Scenario) -> Self {
        let ego = scenario.start_state;
        World {
            scenario,
            ego,
            time: 0.0,
            frame: 0,
            goal_tolerance: GoalTolerance::default(),
        }
    }

    /// Rewinds to the start state.
    pub fn reset(&mut self) {
        self.ego = self.scenario.start_state;
        self.time = 0.0;
        self.frame = 0;
    }

    /// Replaces the goal tolerance.
    pub fn set_goal_tolerance(&mut self, tol: GoalTolerance) {
        self.goal_tolerance = tol;
    }

    /// The scenario this world runs.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The lot map.
    pub fn map(&self) -> &ParkingMap {
        &self.scenario.map
    }

    /// The ego-vehicle parameters.
    pub fn vehicle_params(&self) -> &VehicleParams {
        &self.scenario.vehicle_params
    }

    /// Current ego state.
    pub fn ego(&self) -> &VehicleState {
        &self.ego
    }

    /// Overrides the ego state (used by the expert data collector to warp
    /// to demonstration poses).
    pub fn set_ego(&mut self, state: VehicleState) {
        self.ego = state;
    }

    /// Simulation time (seconds).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Frame counter.
    pub fn frame(&self) -> usize {
        self.frame
    }

    /// Seconds per frame.
    pub fn dt(&self) -> f64 {
        self.scenario.dt
    }

    /// Advances one frame under `action`; returns the new ego state.
    pub fn step(&mut self, action: &Action) -> VehicleState {
        self.ego = kinematics::step(
            &self.ego,
            action,
            &self.scenario.vehicle_params,
            self.scenario.dt,
        );
        self.time += self.scenario.dt;
        self.frame += 1;
        self.ego
    }

    /// Ego footprint at the current state.
    pub fn ego_footprint(&self) -> Obb {
        self.ego.footprint(&self.scenario.vehicle_params)
    }

    /// Obstacle footprints at the current time.
    pub fn obstacle_footprints(&self) -> Vec<Obb> {
        self.scenario.obstacle_footprints(self.time)
    }

    /// Returns `true` when the ego collides with an obstacle or leaves the
    /// lot.
    pub fn in_collision(&self) -> bool {
        self.collision_cause().is_some()
    }

    /// What the ego is currently colliding with, if anything — used by
    /// the evaluation harness to attribute failures (wall vs static vs
    /// dynamic obstacle).
    pub fn collision_cause(&self) -> Option<CollisionCause> {
        let fp = self.ego_footprint();
        if !self.scenario.map.contains_footprint(&fp) {
            return Some(CollisionCause::Wall);
        }
        for o in &self.scenario.obstacles {
            if o.footprint_at(self.time).intersects(&fp) {
                return Some(if o.is_dynamic() {
                    CollisionCause::DynamicObstacle(o.id)
                } else {
                    CollisionCause::StaticObstacle(o.id)
                });
            }
        }
        None
    }

    /// Distance from the ego footprint to the nearest obstacle or wall.
    pub fn clearance(&self) -> f64 {
        let fp = self.ego_footprint();
        let mut best = f64::INFINITY;
        for o in self.obstacle_footprints() {
            best = best.min(fp.distance_to_obb(&o));
        }
        for w in self.scenario.map.walls() {
            best = best.min(fp.distance_to_obb(&w));
        }
        best
    }

    /// Returns `true` when the ego is parked: pose within tolerance of the
    /// goal pose and (almost) stopped.
    pub fn at_goal(&self) -> bool {
        let goal = self.scenario.map.goal_pose();
        let tol = self.goal_tolerance;
        self.ego.pose.distance(&goal) <= tol.position
            && self.ego.pose.heading_error(&goal) <= tol.heading
            && self.ego.velocity.abs() <= tol.speed
    }

    /// Distance from the ego rear axle to the goal pose.
    pub fn distance_to_goal(&self) -> f64 {
        self.ego.pose.distance(&self.scenario.map.goal_pose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Difficulty, ScenarioConfig};
    use icoil_geom::Pose2;

    fn world(difficulty: Difficulty, seed: u64) -> World {
        World::new(ScenarioConfig::new(difficulty, seed).build())
    }

    #[test]
    fn new_world_starts_clean() {
        let w = world(Difficulty::Normal, 5);
        assert_eq!(w.time(), 0.0);
        assert_eq!(w.frame(), 0);
        assert!(!w.in_collision());
        assert!(!w.at_goal());
        assert!(w.clearance() > 0.0);
    }

    #[test]
    fn step_advances_clock_and_pose() {
        let mut w = world(Difficulty::Easy, 5);
        let p0 = w.ego().pose;
        for _ in 0..10 {
            w.step(&Action::forward(1.0, 0.0));
        }
        assert_eq!(w.frame(), 10);
        assert!((w.time() - 10.0 * w.dt()).abs() < 1e-12);
        assert!(w.ego().pose.distance(&p0) > 0.0);
    }

    #[test]
    fn reset_restores_start() {
        let mut w = world(Difficulty::Easy, 5);
        let start = *w.ego();
        for _ in 0..50 {
            w.step(&Action::forward(1.0, 0.5));
        }
        w.reset();
        assert_eq!(*w.ego(), start);
        assert_eq!(w.frame(), 0);
    }

    #[test]
    fn collision_cause_attribution() {
        let mut w = world(Difficulty::Normal, 5);
        assert_eq!(w.collision_cause(), None);
        // drop onto the first static obstacle
        let p = w.scenario().obstacles[0].pose;
        w.set_ego(icoil_vehicle::VehicleState::at_rest(p));
        assert!(matches!(
            w.collision_cause(),
            Some(CollisionCause::StaticObstacle(0))
        ));
        // outside the lot → wall
        w.set_ego(icoil_vehicle::VehicleState::at_rest(Pose2::new(
            -3.0, 10.0, 0.0,
        )));
        assert_eq!(w.collision_cause(), Some(CollisionCause::Wall));
        // onto a dynamic obstacle's current footprint
        let dyn_pose = w
            .scenario()
            .obstacles
            .iter()
            .find(|o| o.is_dynamic())
            .unwrap()
            .pose_at(w.time());
        w.set_ego(icoil_vehicle::VehicleState::at_rest(dyn_pose));
        assert!(matches!(
            w.collision_cause(),
            Some(CollisionCause::DynamicObstacle(_))
        ));
    }

    #[test]
    fn driving_into_wall_collides() {
        let mut w = world(Difficulty::Easy, 5);
        // aim straight at the left wall
        w.set_ego(icoil_vehicle::VehicleState::at_rest(Pose2::new(
            3.0,
            10.0,
            std::f64::consts::PI,
        )));
        let mut collided = false;
        for _ in 0..600 {
            w.step(&Action::forward(1.0, 0.0));
            if w.in_collision() {
                collided = true;
                break;
            }
        }
        assert!(collided, "wall must stop the car");
    }

    #[test]
    fn goal_detected_at_goal_pose() {
        let mut w = world(Difficulty::Easy, 5);
        let goal = w.map().goal_pose();
        w.set_ego(icoil_vehicle::VehicleState::at_rest(goal));
        assert!(w.at_goal());
        assert_eq!(w.distance_to_goal(), 0.0);
        // fast vehicles are not "parked"
        w.set_ego(icoil_vehicle::VehicleState::new(goal, 1.0));
        assert!(!w.at_goal());
    }

    #[test]
    fn goal_pose_is_reachable_without_collision() {
        // The goal pose itself must be collision-free in every difficulty.
        for d in Difficulty::ALL {
            let mut w = world(d, 3);
            w.set_ego(icoil_vehicle::VehicleState::at_rest(w.map().goal_pose()));
            assert!(!w.in_collision(), "difficulty {d}");
        }
    }

    #[test]
    fn dynamic_obstacles_move_between_frames() {
        let mut w = world(Difficulty::Normal, 5);
        let before = w.obstacle_footprints();
        for _ in 0..40 {
            w.step(&Action::full_brake());
        }
        let after = w.obstacle_footprints();
        let moved = before
            .iter()
            .zip(&after)
            .any(|(a, b)| a.center.distance(b.center) > 0.5);
        assert!(moved, "dynamic obstacles must move over 2 seconds");
    }

    #[test]
    fn clearance_decreases_when_approaching_obstacle() {
        let mut w = world(Difficulty::Easy, 5);
        // aim straight at the static obstacle at (12.5, 6.0)
        w.set_ego(icoil_vehicle::VehicleState::at_rest(Pose2::new(
            7.0, 6.0, 0.0,
        )));
        let c0 = w.clearance();
        for _ in 0..40 {
            w.step(&Action::forward(1.0, 0.0));
        }
        assert!(w.clearance() < c0);
    }
}
