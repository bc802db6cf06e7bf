//! Integration tests: the global planner against real scenario geometry.

use icoil_planner::{plan, smooth_path, PlannerConfig, PlanningProblem, SmoothConfig};
use icoil_vehicle::VehicleState;
use icoil_world::{Difficulty, ScenarioConfig};

/// Plans on a built scenario and checks the path against the *actual*
/// footprint collision test of the world (not just the planner's own
/// circle model).
fn plan_and_validate(seed: u64) {
    let scenario = ScenarioConfig::new(Difficulty::Easy, seed).build();
    let obstacles = scenario.static_footprints();
    let problem = PlanningProblem {
        start: scenario.start_state.pose,
        goal: scenario.map.goal_pose(),
        bounds: scenario.map.bounds(),
        obstacles: &obstacles,
        vehicle: &scenario.vehicle_params,
        safety_margin: 0.3,
    };
    let path = plan(&problem, &PlannerConfig::default())
        .unwrap_or_else(|e| panic!("seed {seed}: planning failed: {e}"));
    assert!(path.poses.len() > 10);
    // every pose footprint is inside the lot and collision-free
    for pose in &path.poses {
        let fp = VehicleState::at_rest(*pose).footprint(&scenario.vehicle_params);
        assert!(
            scenario.map.contains_footprint(&fp),
            "seed {seed}: path leaves the lot at {pose}"
        );
        for o in &obstacles {
            assert!(!o.intersects(&fp), "seed {seed}: path collides at {pose}");
        }
    }
    // the endgame reaches the bay
    let last = path.poses.last().unwrap();
    assert!(
        last.distance(&scenario.map.goal_pose()) < 0.5,
        "seed {seed}"
    );
}

#[test]
fn planner_solves_many_scenarios() {
    for seed in [0u64, 3, 7, 12, 19, 25] {
        plan_and_validate(seed);
    }
}

#[test]
fn smoothing_keeps_scenario_paths_safe() {
    let scenario = ScenarioConfig::new(Difficulty::Easy, 7).build();
    let obstacles = scenario.static_footprints();
    let problem = PlanningProblem {
        start: scenario.start_state.pose,
        goal: scenario.map.goal_pose(),
        bounds: scenario.map.bounds(),
        obstacles: &obstacles,
        vehicle: &scenario.vehicle_params,
        safety_margin: 0.3,
    };
    let raw = plan(&problem, &PlannerConfig::default()).expect("feasible");
    let smoothed = smooth_path(&raw, &obstacles, &SmoothConfig::default());
    assert_eq!(smoothed.poses.len(), raw.poses.len());
    // smoothing must not shove the path into obstacles
    for pose in &smoothed.poses {
        let fp = VehicleState::at_rest(*pose).footprint(&scenario.vehicle_params);
        for o in &obstacles {
            assert!(!o.intersects(&fp), "smoothed path collides at {pose}");
        }
    }
    // and it should not be longer than the raw path by more than a hair
    assert!(smoothed.length() <= raw.length() * 1.02);
}

#[test]
fn reeds_shepp_words_integrate_into_world_poses() {
    // RS endgames sampled into world coordinates stay in the lot for a
    // representative bay approach
    let scenario = ScenarioConfig::new(Difficulty::Easy, 3).build();
    let start = icoil_geom::Pose2::new(22.0, 10.0, 0.0);
    let goal = scenario.map.goal_pose();
    let rs = icoil_planner::reeds_shepp::shortest_path(
        start,
        goal,
        scenario.vehicle_params.min_turning_radius(),
    );
    let samples = rs.sample(start, 0.25);
    let end = samples.last().unwrap().0;
    assert!(end.distance(&goal) < 1e-6);
    for (pose, _) in &samples {
        assert!(
            scenario.map.bounds().contains(pose.position()),
            "RS sample leaves the lot at {pose}"
        );
    }
}
