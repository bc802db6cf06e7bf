//! Hybrid A*: kinematically-feasible search over `(x, y, θ)`.
//!
//! The algorithm expands motion primitives (short forward/reverse arcs at
//! a few steering angles) from each node, prunes by a discretized state
//! grid, guides the search with the maximum of two admissible heuristics
//! (obstacle-aware holonomic distance and obstacle-free Reeds-Shepp
//! length), and periodically attempts a Reeds-Shepp *analytic expansion*
//! straight to the goal — the standard recipe used by production parking
//! planners.

use crate::reeds_shepp::{self, RsPath};
use icoil_geom::{Aabb, Cell, Obb, OccupancyGrid, Polyline, Pose2, Vec2};
use icoil_vehicle::VehicleParams;
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, HashMap};

/// Planner tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Grid cell size for state deduplication and the heuristic map (m).
    pub xy_resolution: f64,
    /// Number of heading bins for state deduplication.
    pub theta_bins: usize,
    /// Arc length of one motion primitive (m).
    pub step: f64,
    /// Multiplier on reverse-gear arc length.
    pub reverse_penalty: f64,
    /// Additive cost for a gear change.
    pub switch_penalty: f64,
    /// Additive cost per radian of steering.
    pub steer_penalty: f64,
    /// Try a Reeds-Shepp analytic expansion every `analytic_period`
    /// expansions.
    pub analytic_period: usize,
    /// Maximum node expansions before giving up.
    pub max_expansions: usize,
    /// Goal tolerance: position (m).
    pub goal_pos_tol: f64,
    /// Goal tolerance: heading (rad).
    pub goal_heading_tol: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            xy_resolution: 0.5,
            theta_bins: 24,
            step: 0.8,
            reverse_penalty: 1.5,
            switch_penalty: 2.0,
            steer_penalty: 0.2,
            analytic_period: 8,
            max_expansions: 60_000,
            goal_pos_tol: 0.3,
            goal_heading_tol: 0.25,
        }
    }
}

/// A planning query.
#[derive(Debug, Clone)]
pub struct PlanningProblem<'a> {
    /// Start rear-axle pose.
    pub start: Pose2,
    /// Goal rear-axle pose.
    pub goal: Pose2,
    /// Drivable area (the lot bounds).
    pub bounds: Aabb,
    /// Static obstacle footprints to avoid.
    pub obstacles: &'a [Obb],
    /// Vehicle geometry/limits.
    pub vehicle: &'a VehicleParams,
    /// Extra clearance kept around the footprint (m).
    pub safety_margin: f64,
}

/// Why planning failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The start pose is already in collision.
    StartInCollision,
    /// The goal pose is in collision.
    GoalInCollision,
    /// Search exhausted its expansion budget.
    NoPathFound,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::StartInCollision => write!(f, "start pose is in collision"),
            PlanError::GoalInCollision => write!(f, "goal pose is in collision"),
            PlanError::NoPathFound => write!(f, "no collision-free path found"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The planned reference path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedPath {
    /// Rear-axle poses along the path, densely sampled.
    pub poses: Vec<Pose2>,
    /// Drive direction per pose (±1).
    pub directions: Vec<f64>,
}

impl PlannedPath {
    /// Total path length (meters).
    pub fn length(&self) -> f64 {
        self.poses
            .windows(2)
            .map(|w| w[0].position().distance(w[1].position()))
            .sum()
    }

    /// The path positions as a polyline.
    pub fn polyline(&self) -> Polyline {
        self.poses.iter().map(|p| p.position()).collect()
    }

    /// Number of gear changes along the path.
    pub fn direction_switches(&self) -> usize {
        self.directions.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Index of the pose closest to `p`.
    ///
    /// # Panics
    ///
    /// Panics on an empty path.
    pub fn nearest_index(&self, p: Vec2) -> usize {
        assert!(!self.poses.is_empty(), "nearest_index on empty path");
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, pose) in self.poses.iter().enumerate() {
            let d = pose.position().distance_sq(p);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct NodeKey {
    cx: i64,
    cy: i64,
    theta_bin: usize,
    reversing: bool,
}

#[derive(Debug, Clone)]
struct Node {
    pose: Pose2,
    direction: f64,
    cost: f64,
    parent: Option<usize>,
}

struct OpenItem {
    f: f64,
    index: usize,
}

impl PartialEq for OpenItem {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f
    }
}
impl Eq for OpenItem {}
impl Ord for OpenItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .f
            .partial_cmp(&self.f)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}
impl PartialOrd for OpenItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Checks a pose against bounds and obstacles using the vehicle's
/// three-circle coverage model (the same approximation the MPC enforces,
/// so planned paths are feasible for the tracking layer by construction).
fn pose_free(problem: &PlanningProblem, pose: Pose2) -> bool {
    let heading = Vec2::from_angle(pose.theta);
    for (off, radius) in problem.vehicle.coverage_circles() {
        let c = pose.position() + heading * off;
        let r = radius + problem.safety_margin;
        let b = &problem.bounds;
        if c.x - b.min.x < r || b.max.x - c.x < r || c.y - b.min.y < r || b.max.y - c.y < r {
            return false;
        }
        for o in problem.obstacles {
            if o.distance_to_point(c) < r {
                return false;
            }
        }
    }
    true
}

/// Plans a collision-free kinematic path from start to goal.
///
/// # Errors
///
/// Returns a [`PlanError`] when start/goal are blocked or the search
/// budget is exhausted.
pub fn plan(problem: &PlanningProblem, config: &PlannerConfig) -> Result<PlannedPath, PlanError> {
    if !pose_free(problem, problem.start) {
        return Err(PlanError::StartInCollision);
    }
    if !pose_free(problem, problem.goal) {
        return Err(PlanError::GoalInCollision);
    }

    let heuristic_map = build_heuristic_map(problem, config);
    let radius = problem.vehicle.min_turning_radius();

    let mut nodes: Vec<Node> = vec![Node {
        pose: problem.start,
        direction: 1.0,
        cost: 0.0,
        parent: None,
    }];
    let mut open = BinaryHeap::new();
    let mut best_cost: HashMap<NodeKey, f64> = HashMap::new();

    let key_of = |pose: Pose2, dir: f64| -> NodeKey {
        let bin = ((pose.theta + std::f64::consts::PI) / (2.0 * std::f64::consts::PI)
            * config.theta_bins as f64)
            .floor() as usize
            % config.theta_bins;
        NodeKey {
            cx: (pose.x / config.xy_resolution).floor() as i64,
            cy: (pose.y / config.xy_resolution).floor() as i64,
            theta_bin: bin,
            reversing: dir < 0.0,
        }
    };
    let h = |pose: Pose2| heuristic(problem, config, &heuristic_map, pose, radius);

    open.push(OpenItem {
        f: h(problem.start),
        index: 0,
    });
    best_cost.insert(key_of(problem.start, 1.0), 0.0);

    let steers = [-problem.vehicle.max_steer, 0.0, problem.vehicle.max_steer];
    let mut expansions = 0usize;

    while let Some(OpenItem { index, .. }) = open.pop() {
        let (pose, dir, cost) = {
            let n = &nodes[index];
            (n.pose, n.direction, n.cost)
        };
        // stale heap entry?
        if cost
            > best_cost
                .get(&key_of(pose, dir))
                .copied()
                .unwrap_or(f64::INFINITY)
                + 1e-9
        {
            continue;
        }
        expansions += 1;
        if expansions > config.max_expansions {
            return Err(PlanError::NoPathFound);
        }

        // direct goal test
        if pose.distance(&problem.goal) <= config.goal_pos_tol
            && pose.heading_error(&problem.goal) <= config.goal_heading_tol
        {
            return Ok(extract(&nodes, index, config, None, problem));
        }

        // analytic expansion
        if expansions.is_multiple_of(config.analytic_period) {
            let rs = reeds_shepp::shortest_path(pose, problem.goal, radius);
            if rs_collision_free(problem, &rs, pose, config) {
                return Ok(extract(&nodes, index, config, Some(rs), problem));
            }
        }

        for direction in [1.0f64, -1.0] {
            for &steer in &steers {
                let next_pose = primitive(pose, direction, steer, config.step, problem.vehicle);
                // collision-check intermediate poses of the primitive
                let mid = primitive(pose, direction, steer, config.step * 0.5, problem.vehicle);
                if !pose_free(problem, next_pose) || !pose_free(problem, mid) {
                    continue;
                }
                let mut step_cost = config.step
                    * if direction < 0.0 {
                        config.reverse_penalty
                    } else {
                        1.0
                    };
                if direction != dir {
                    step_cost += config.switch_penalty;
                }
                step_cost += config.steer_penalty * steer.abs();
                let new_cost = cost + step_cost;
                let key = key_of(next_pose, direction);
                if new_cost + 1e-9 < best_cost.get(&key).copied().unwrap_or(f64::INFINITY) {
                    best_cost.insert(key, new_cost);
                    nodes.push(Node {
                        pose: next_pose,
                        direction,
                        cost: new_cost,
                        parent: Some(index),
                    });
                    open.push(OpenItem {
                        f: new_cost + h(next_pose),
                        index: nodes.len() - 1,
                    });
                }
            }
        }
    }

    Err(PlanError::NoPathFound)
}

/// Integrates one motion primitive (constant steer, fixed arc length).
fn primitive(
    pose: Pose2,
    direction: f64,
    steer: f64,
    arc_len: f64,
    vehicle: &VehicleParams,
) -> Pose2 {
    let n = 4; // sub-steps for smooth integration
    let ds = direction * arc_len / n as f64;
    let mut p = pose;
    for _ in 0..n {
        let dtheta = ds * steer.tan() / vehicle.wheelbase;
        let theta_mid = p.theta + 0.5 * dtheta;
        p = Pose2::new(
            p.x + ds * theta_mid.cos(),
            p.y + ds * theta_mid.sin(),
            p.theta + dtheta,
        );
    }
    p
}

fn rs_collision_free(
    problem: &PlanningProblem,
    rs: &RsPath,
    from: Pose2,
    config: &PlannerConfig,
) -> bool {
    let step = (config.xy_resolution * 0.5).max(0.1);
    rs.sample(from, step)
        .iter()
        .all(|(pose, _)| pose_free(problem, *pose))
}

/// Obstacle-aware holonomic distance map seeded at the goal.
fn build_heuristic_map(
    problem: &PlanningProblem,
    config: &PlannerConfig,
) -> icoil_geom::grid::DistanceMap {
    let mut grid = OccupancyGrid::covering(&problem.bounds, config.xy_resolution);
    for o in problem.obstacles {
        grid.fill_obb(o, 255);
    }
    // inflate by half the vehicle width so corridors narrower than the car
    // read as blocked
    grid.inflate(problem.vehicle.width * 0.5, 128);
    let goal_cell = grid.world_to_cell(problem.goal.position());
    grid.distance_map(|c: Cell| c == goal_cell, 128)
}

fn heuristic(
    problem: &PlanningProblem,
    _config: &PlannerConfig,
    map: &icoil_geom::grid::DistanceMap,
    pose: Pose2,
    radius: f64,
) -> f64 {
    let holonomic = map.distance_at(pose.position());
    let holonomic = if holonomic.is_finite() {
        holonomic
    } else {
        // unreachable cell in the coarse map (e.g. inside inflation);
        // fall back to euclidean so the search can still make progress
        pose.distance(&problem.goal)
    };
    let rs = reeds_shepp::shortest_path(pose, problem.goal, radius).length();
    holonomic.max(rs)
}

/// Reconstructs the path from the node chain plus an optional analytic
/// Reeds-Shepp tail.
fn extract(
    nodes: &[Node],
    index: usize,
    config: &PlannerConfig,
    tail: Option<RsPath>,
    problem: &PlanningProblem,
) -> PlannedPath {
    let mut chain = Vec::new();
    let mut cur = Some(index);
    while let Some(i) = cur {
        chain.push(i);
        cur = nodes[i].parent;
    }
    chain.reverse();
    let mut poses: Vec<Pose2> = Vec::new();
    let mut directions: Vec<f64> = Vec::new();
    for &i in &chain {
        poses.push(nodes[i].pose);
        directions.push(nodes[i].direction);
    }
    // first node direction mirrors the first move
    if directions.len() > 1 {
        directions[0] = directions[1];
    }
    if let Some(rs) = tail {
        let from = *poses.last().expect("chain is never empty");
        let samples = rs.sample(from, (config.xy_resolution * 0.5).max(0.1));
        for (pose, dir) in samples.into_iter().skip(1) {
            poses.push(pose);
            directions.push(dir);
        }
    } else {
        // close the gap to the exact goal with a Reeds-Shepp tail when a
        // collision-free one exists (an abrupt snap leaves a kink the
        // tracker cannot follow in tight quarters)
        let from = *poses.last().expect("chain is never empty");
        let rs =
            reeds_shepp::shortest_path(from, problem.goal, problem.vehicle.min_turning_radius());
        if rs.length() < 3.0 && rs_collision_free(problem, &rs, from, config) {
            for (pose, dir) in rs
                .sample(from, (config.xy_resolution * 0.5).max(0.1))
                .into_iter()
                .skip(1)
            {
                poses.push(pose);
                directions.push(dir);
            }
        } else {
            poses.push(problem.goal);
            directions.push(*directions.last().unwrap_or(&1.0));
        }
    }
    PlannedPath { poses, directions }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_lot() -> (Aabb, Vec<Obb>, VehicleParams) {
        (
            Aabb::new(Vec2::ZERO, Vec2::new(30.0, 20.0)),
            Vec::new(),
            VehicleParams::default(),
        )
    }

    fn solve(
        start: Pose2,
        goal: Pose2,
        bounds: Aabb,
        obstacles: &[Obb],
        vehicle: &VehicleParams,
    ) -> Result<PlannedPath, PlanError> {
        let problem = PlanningProblem {
            start,
            goal,
            bounds,
            obstacles,
            vehicle,
            safety_margin: 0.15,
        };
        plan(&problem, &PlannerConfig::default())
    }

    fn assert_path_valid(
        path: &PlannedPath,
        problem_obstacles: &[Obb],
        bounds: &Aabb,
        v: &VehicleParams,
    ) {
        for pose in &path.poses {
            let fp = icoil_vehicle::VehicleState::at_rest(*pose).footprint(v);
            assert!(
                fp.corners().iter().all(|c| bounds.contains(*c)),
                "pose {pose} leaves bounds"
            );
            for o in problem_obstacles {
                assert!(!o.intersects(&fp), "pose {pose} collides");
            }
        }
    }

    #[test]
    fn straight_corridor_plan() {
        let (bounds, obs, v) = empty_lot();
        let start = Pose2::new(4.0, 10.0, 0.0);
        let goal = Pose2::new(24.0, 10.0, 0.0);
        let path = solve(start, goal, bounds, &obs, &v).unwrap();
        assert!(
            path.length() >= 19.0 && path.length() < 26.0,
            "len {}",
            path.length()
        );
        assert_path_valid(&path, &obs, &bounds, &v);
        let last = path.poses.last().unwrap();
        assert!(last.distance(&goal) < 0.5);
        assert!(last.heading_error(&goal) < 0.3);
    }

    #[test]
    fn plans_around_obstacle() {
        let (bounds, _, v) = empty_lot();
        // a wall with a gap forces a detour
        let obs = vec![Obb::from_pose(Pose2::new(15.0, 7.0, 0.0), 1.0, 14.0)];
        let start = Pose2::new(4.0, 10.0, 0.0);
        let goal = Pose2::new(25.5, 10.0, 0.0);
        let path = solve(start, goal, bounds, &obs, &v).unwrap();
        assert_path_valid(&path, &obs, &bounds, &v);
        // detour is longer than the straight line
        assert!(path.length() > 22.5, "len {}", path.length());
    }

    #[test]
    fn reverse_into_tight_goal() {
        let (bounds, obs, v) = empty_lot();
        // goal heading opposite travel direction: must reverse or turn
        let start = Pose2::new(10.0, 10.0, 0.0);
        let goal = Pose2::new(16.0, 10.0, std::f64::consts::PI);
        let path = solve(start, goal, bounds, &obs, &v).unwrap();
        assert_path_valid(&path, &obs, &bounds, &v);
        let last = path.poses.last().unwrap();
        assert!(last.heading_error(&goal) < 0.3);
    }

    #[test]
    fn start_in_collision_detected() {
        let (bounds, _, v) = empty_lot();
        let obs = vec![Obb::from_pose(Pose2::new(5.0, 10.0, 0.0), 6.0, 6.0)];
        let err = solve(
            Pose2::new(5.0, 10.0, 0.0),
            Pose2::new(25.0, 10.0, 0.0),
            bounds,
            &obs,
            &v,
        )
        .unwrap_err();
        assert_eq!(err, PlanError::StartInCollision);
    }

    #[test]
    fn goal_in_collision_detected() {
        let (bounds, _, v) = empty_lot();
        let obs = vec![Obb::from_pose(Pose2::new(25.0, 10.0, 0.0), 6.0, 6.0)];
        let err = solve(
            Pose2::new(5.0, 10.0, 0.0),
            Pose2::new(25.0, 10.0, 0.0),
            bounds,
            &obs,
            &v,
        )
        .unwrap_err();
        assert_eq!(err, PlanError::GoalInCollision);
    }

    #[test]
    fn fully_walled_goal_is_unreachable() {
        let (bounds, _, v) = empty_lot();
        // box the goal in with three walls; the lot boundary at x = 30
        // seals the fourth side (the goal pose itself stays clear)
        let obs = vec![
            Obb::from_pose(Pose2::new(25.0, 5.0, 0.0), 10.0, 1.0),
            Obb::from_pose(Pose2::new(25.0, 15.0, 0.0), 10.0, 1.0),
            Obb::from_pose(Pose2::new(20.0, 10.0, 0.0), 1.0, 9.0),
        ];
        let config = PlannerConfig {
            max_expansions: 20_000,
            ..PlannerConfig::default()
        };
        let problem = PlanningProblem {
            start: Pose2::new(5.0, 10.0, 0.0),
            goal: Pose2::new(25.0, 10.0, 0.0),
            bounds,
            obstacles: &obs,
            vehicle: &v,
            safety_margin: 0.15,
        };
        assert_eq!(plan(&problem, &config).unwrap_err(), PlanError::NoPathFound);
    }

    #[test]
    fn path_direction_annotations_consistent() {
        let (bounds, obs, v) = empty_lot();
        let path = solve(
            Pose2::new(6.0, 6.0, 0.3),
            Pose2::new(24.0, 14.0, 0.0),
            bounds,
            &obs,
            &v,
        )
        .unwrap();
        assert_eq!(path.poses.len(), path.directions.len());
        assert!(path.directions.iter().all(|&d| d == 1.0 || d == -1.0));
    }

    #[test]
    fn nearest_index_finds_closest() {
        let path = PlannedPath {
            poses: vec![
                Pose2::new(0.0, 0.0, 0.0),
                Pose2::new(1.0, 0.0, 0.0),
                Pose2::new(2.0, 0.0, 0.0),
            ],
            directions: vec![1.0, 1.0, 1.0],
        };
        assert_eq!(path.nearest_index(Vec2::new(1.2, 0.5)), 1);
        assert_eq!(path.nearest_index(Vec2::new(9.0, 0.0)), 2);
    }
}
