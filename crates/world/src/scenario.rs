//! Scenario generation: difficulty levels, start regions, noise models.

use crate::{DynamicRoute, Obstacle, ParkingMap};
use icoil_geom::{Aabb, Obb, Pose2, Vec2};
use icoil_vehicle::{VehicleParams, VehicleState};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Task difficulty (§V-B).
///
/// * `Easy` — three static obstacles only;
/// * `Normal` — adds two dynamic obstacles;
/// * `Hard` — additionally injects noise into images and bounding boxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Difficulty {
    /// Static obstacles only.
    Easy,
    /// Static plus dynamic obstacles.
    Normal,
    /// Static plus dynamic obstacles plus sensing noise.
    Hard,
}

impl Difficulty {
    /// All difficulty levels in ascending order.
    pub const ALL: [Difficulty; 3] = [Difficulty::Easy, Difficulty::Normal, Difficulty::Hard];
}

impl std::fmt::Display for Difficulty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Difficulty::Easy => write!(f, "easy"),
            Difficulty::Normal => write!(f, "normal"),
            Difficulty::Hard => write!(f, "hard"),
        }
    }
}

/// Which lot layout a scenario uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MapKind {
    /// The paper's Fig. 4 MoCAM lot (30 m × 20 m, default).
    Mocam,
    /// The compact courtyard lot (23 m × 14 m).
    Compact,
    /// The curbside parallel-parking street (30 m × 12 m).
    Parallel,
}

impl MapKind {
    /// Builds the map geometry.
    pub fn build(self) -> ParkingMap {
        match self {
            MapKind::Mocam => ParkingMap::mocam(),
            MapKind::Compact => ParkingMap::compact(),
            MapKind::Parallel => ParkingMap::parallel(),
        }
    }
}

/// Where the episode start pose is sampled (§V-E sensitivity analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StartRegion {
    /// A small box near the bay.
    Close,
    /// The far edge of the lot.
    Remote,
    /// Anywhere in the spawn region (the default; green area of Fig. 4).
    Random,
}

/// Sensing-noise parameters consumed by `icoil-perception`.
///
/// All-zero for easy/normal tasks; the hard task uses the values below to
/// emulate the paper's "additional noises to the input images and bounding
/// boxes".
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Standard deviation of additive per-pixel BEV noise (fraction of
    /// full scale, 0–1).
    pub image_noise_std: f64,
    /// Probability that a BEV pixel is dropped (set to free).
    pub pixel_dropout: f64,
    /// Standard deviation of bounding-box center jitter (meters).
    pub box_jitter: f64,
    /// Standard deviation of bounding-box heading jitter (radians).
    pub heading_jitter: f64,
    /// Probability that a true obstacle is missed entirely per frame.
    pub false_negative_rate: f64,
    /// Probability that a phantom box is hallucinated per frame.
    pub phantom_rate: f64,
}

impl NoiseConfig {
    /// No noise at all (easy/normal levels).
    pub fn none() -> Self {
        NoiseConfig::default()
    }

    /// The hard-level noise profile.
    pub fn hard() -> Self {
        NoiseConfig {
            image_noise_std: 0.15,
            pixel_dropout: 0.05,
            box_jitter: 0.15,
            heading_jitter: 0.05,
            false_negative_rate: 0.05,
            phantom_rate: 0.03,
        }
    }

    /// Returns `true` when every noise channel is zero.
    pub fn is_none(&self) -> bool {
        *self == NoiseConfig::default()
    }
}

/// Declarative description of an episode; [`ScenarioConfig::build`]
/// expands it deterministically from the seed.
///
/// # Example
///
/// ```
/// use icoil_world::{Difficulty, ScenarioConfig, StartRegion};
///
/// let s = ScenarioConfig::new(Difficulty::Normal, 42)
///     .with_start(StartRegion::Remote)
///     .build();
/// assert_eq!(s.obstacles.iter().filter(|o| o.is_dynamic()).count(), 2);
/// // Same seed, same scenario:
/// let t = ScenarioConfig::new(Difficulty::Normal, 42)
///     .with_start(StartRegion::Remote)
///     .build();
/// assert_eq!(s.start_state, t.start_state);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Task difficulty.
    pub difficulty: Difficulty,
    /// RNG seed; every random choice derives from it.
    pub seed: u64,
    /// Start-pose region.
    pub start: StartRegion,
    /// Overrides the number of static obstacles (default: 3 at the fixed
    /// Fig. 4 positions; any other count is placed by seeded sampling).
    pub n_static: Option<usize>,
    /// Overrides the presence of dynamic obstacles.
    pub dynamic: Option<bool>,
    /// Which lot layout to use.
    pub map: MapKind,
}

impl ScenarioConfig {
    /// Creates a config with the default start region (the spawn area).
    pub fn new(difficulty: Difficulty, seed: u64) -> Self {
        ScenarioConfig {
            difficulty,
            seed,
            start: StartRegion::Random,
            n_static: None,
            dynamic: None,
            map: MapKind::Mocam,
        }
    }

    /// Selects the lot layout.
    pub fn with_map(mut self, map: MapKind) -> Self {
        self.map = map;
        self
    }

    /// Sets the start region.
    pub fn with_start(mut self, start: StartRegion) -> Self {
        self.start = start;
        self
    }

    /// Overrides the static-obstacle count (used by the Fig. 8/9 sweeps).
    pub fn with_n_static(mut self, n: usize) -> Self {
        self.n_static = Some(n);
        self
    }

    /// Overrides whether dynamic obstacles are present.
    pub fn with_dynamic(mut self, dynamic: bool) -> Self {
        self.dynamic = Some(dynamic);
        self
    }

    /// Expands the config into a concrete [`Scenario`].
    pub fn build(&self) -> Scenario {
        let map = self.map.build();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let params = VehicleParams::default();

        let mut obstacles = Vec::new();
        match (self.map, self.n_static) {
            (MapKind::Mocam, None | Some(3)) => {
                // The fixed Fig. 4 layout: three blue crates mid-lot.
                obstacles.push(Obstacle::fixed(0, Pose2::new(12.5, 6.0, 0.9), 2.5, 2.5));
                obstacles.push(Obstacle::fixed(1, Pose2::new(13.5, 14.0, -0.6), 2.5, 2.5));
                obstacles.push(Obstacle::fixed(2, Pose2::new(19.0, 13.5, 0.2), 2.5, 2.5));
            }
            (MapKind::Parallel, n) => {
                // the two parked cars that frame the curbside bay
                obstacles.push(Obstacle::fixed(0, Pose2::new(11.2, 10.4, 0.0), 4.2, 1.8));
                obstacles.push(Obstacle::fixed(1, Pose2::new(22.4, 10.4, 0.0), 4.2, 1.8));
                if let Some(extra) = n {
                    place_random_statics(&map, extra, &mut rng, &mut obstacles);
                }
            }
            (_, n) => {
                place_random_statics(&map, n.unwrap_or(3), &mut rng, &mut obstacles);
            }
        }

        let dynamic = self.dynamic.unwrap_or(self.difficulty != Difficulty::Easy);
        if dynamic {
            // patrol routes expressed as fractions of the lot so every
            // map layout gets equivalent crossing traffic
            let b = map.bounds();
            let (w, h) = (b.width(), b.height());
            let base = obstacles.len();
            obstacles.push(Obstacle::moving(
                base,
                DynamicRoute::new(
                    vec![
                        Vec2::new(b.min.x + 0.57 * w, b.min.y + 0.2 * h),
                        Vec2::new(b.min.x + 0.57 * w, b.max.y - 0.2 * h),
                    ],
                    0.6,
                )
                .expect("valid route"),
                3.6,
                1.6,
            ));
            obstacles.push(Obstacle::moving(
                base + 1,
                DynamicRoute::new(
                    vec![
                        Vec2::new(b.min.x + 0.3 * w, b.min.y + 0.3 * h),
                        Vec2::new(b.min.x + 0.73 * w, b.min.y + 0.3 * h),
                    ],
                    0.8,
                )
                .expect("valid route"),
                3.6,
                1.6,
            ));
        }

        let start_state = sample_start(&map, self.start, &params, &obstacles, &mut rng);

        let noise = match self.difficulty {
            Difficulty::Hard => NoiseConfig::hard(),
            _ => NoiseConfig::none(),
        };

        Scenario {
            map,
            obstacles,
            start_state,
            noise,
            vehicle_params: params,
            difficulty: self.difficulty,
            seed: self.seed,
            dt: 0.05,
            family: None,
        }
    }
}

/// A fully-instantiated episode: map, obstacles, start state and noise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Lot geometry.
    pub map: ParkingMap,
    /// All obstacles (static first, then dynamic).
    pub obstacles: Vec<Obstacle>,
    /// Ego start state (at rest).
    pub start_state: VehicleState,
    /// Sensing-noise profile for the perception substrate.
    pub noise: NoiseConfig,
    /// Ego-vehicle parameters.
    pub vehicle_params: VehicleParams,
    /// The difficulty that produced this scenario.
    pub difficulty: Difficulty,
    /// The seed that produced this scenario.
    pub seed: u64,
    /// Simulation step (seconds per frame).
    pub dt: f64,
    /// The procedural map family this scenario came from, when it was
    /// built by [`ProcScenario::build`](crate::procedural::ProcScenario)
    /// — `None` for the fixed `ScenarioConfig` lots. The adaptation
    /// loop keys its dataset reservoirs on it. Absent in
    /// scenarios serialized before the field existed; those decode as
    /// `None`.
    #[serde(default)]
    pub family: Option<crate::procedural::MapFamilyKind>,
}

impl Scenario {
    /// Obstacle footprints at time `t`.
    pub fn obstacle_footprints(&self, t: f64) -> Vec<Obb> {
        self.obstacles.iter().map(|o| o.footprint_at(t)).collect()
    }

    /// Footprints of static obstacles only.
    pub fn static_footprints(&self) -> Vec<Obb> {
        self.obstacles
            .iter()
            .filter(|o| !o.is_dynamic())
            .map(|o| o.footprint_at(0.0))
            .collect()
    }
}

/// The corridor in front of the bay that must stay clear so every scenario
/// remains solvable.
fn goal_corridor(map: &ParkingMap) -> Aabb {
    let bay = map.bay().center;
    Aabb::new(
        Vec2::new(bay.x - 5.8, bay.y - 2.8),
        Vec2::new(map.bounds().max.x, bay.y + 2.8),
    )
}

fn place_random_statics(map: &ParkingMap, n: usize, rng: &mut SmallRng, out: &mut Vec<Obstacle>) {
    let corridor = goal_corridor(map);
    let b = map.bounds();
    let region = Aabb::new(
        Vec2::new(b.min.x + 0.33 * b.width(), b.min.y + 0.2 * b.height()),
        Vec2::new(b.min.x + 0.73 * b.width(), b.max.y - 0.2 * b.height()),
    );
    let mut placed: Vec<Obb> = Vec::new();
    let mut id = out.len();
    let mut attempts = 0;
    while placed.len() < n && attempts < 10_000 {
        attempts += 1;
        let x = rng.gen_range(region.min.x..region.max.x);
        let y = rng.gen_range(region.min.y..region.max.y);
        let theta = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
        let size = rng.gen_range(2.0..3.0);
        let obb = Obb::from_pose(Pose2::new(x, y, theta), size, size);
        if corridor.intersects(&obb.aabb()) {
            continue;
        }
        if placed.iter().any(|p| p.distance_to_obb(&obb) < 2.6) {
            continue;
        }
        placed.push(obb);
        out.push(Obstacle::fixed(id, Pose2::new(x, y, theta), size, size));
        id += 1;
    }
}

fn sample_start(
    map: &ParkingMap,
    start: StartRegion,
    params: &VehicleParams,
    obstacles: &[Obstacle],
    rng: &mut SmallRng,
) -> VehicleState {
    let region = match start {
        StartRegion::Close => map.close_start_region(),
        StartRegion::Remote => map.remote_start_region(),
        StartRegion::Random => map.spawn_region(),
    };
    for _ in 0..1000 {
        let x = rng.gen_range(region.min.x..region.max.x);
        let y = rng.gen_range(region.min.y..region.max.y);
        // roughly facing the lot interior (+x) with some spread
        let theta = rng.gen_range(-0.5..0.5);
        let state = VehicleState::at_rest(Pose2::new(x, y, theta));
        let fp = state.footprint(params).inflated(0.3);
        let clear = map.contains_footprint(&fp)
            && obstacles
                .iter()
                .all(|o| !o.footprint_at(0.0).intersects(&fp));
        if clear {
            return state;
        }
    }
    // Fall back to the region center facing +x; callers treat collisions
    // at t=0 as immediate failure, which is the honest outcome for an
    // unsatisfiable draw.
    VehicleState::at_rest(Pose2::from_parts(region.center(), 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn easy_has_three_statics_no_dynamics() {
        let s = ScenarioConfig::new(Difficulty::Easy, 1).build();
        assert_eq!(s.obstacles.len(), 3);
        assert!(s.obstacles.iter().all(|o| !o.is_dynamic()));
        assert!(s.noise.is_none());
    }

    #[test]
    fn normal_adds_two_dynamics() {
        let s = ScenarioConfig::new(Difficulty::Normal, 1).build();
        assert_eq!(s.obstacles.len(), 5);
        assert_eq!(s.obstacles.iter().filter(|o| o.is_dynamic()).count(), 2);
        assert!(s.noise.is_none());
    }

    #[test]
    fn hard_enables_noise() {
        let s = ScenarioConfig::new(Difficulty::Hard, 1).build();
        assert!(!s.noise.is_none());
        assert_eq!(s.noise, NoiseConfig::hard());
    }

    #[test]
    fn seeded_builds_are_identical() {
        let a = ScenarioConfig::new(Difficulty::Normal, 99).build();
        let b = ScenarioConfig::new(Difficulty::Normal, 99).build();
        assert_eq!(a, b);
        let c = ScenarioConfig::new(Difficulty::Normal, 100).build();
        assert_ne!(a.start_state, c.start_state);
    }

    #[test]
    fn start_pose_is_collision_free() {
        for seed in 0..30 {
            let s = ScenarioConfig::new(Difficulty::Normal, seed).build();
            let fp = s.start_state.footprint(&s.vehicle_params);
            assert!(s.map.contains_footprint(&fp), "seed {seed}");
            for o in &s.obstacles {
                assert!(!o.footprint_at(0.0).intersects(&fp), "seed {seed}");
            }
        }
    }

    #[test]
    fn start_regions_are_respected() {
        for seed in 0..10 {
            let close = ScenarioConfig::new(Difficulty::Easy, seed)
                .with_start(StartRegion::Close)
                .build();
            let map = ParkingMap::mocam();
            assert!(map
                .close_start_region()
                .contains(close.start_state.pose.position()));
            let remote = ScenarioConfig::new(Difficulty::Easy, seed)
                .with_start(StartRegion::Remote)
                .build();
            assert!(map
                .remote_start_region()
                .contains(remote.start_state.pose.position()));
        }
    }

    #[test]
    fn n_static_override_places_that_many() {
        for n in [0usize, 1, 2, 4, 5] {
            let s = ScenarioConfig::new(Difficulty::Easy, 7)
                .with_n_static(n)
                .build();
            assert_eq!(s.obstacles.len(), n, "requested {n}");
        }
    }

    #[test]
    fn random_statics_avoid_goal_corridor() {
        let s = ScenarioConfig::new(Difficulty::Easy, 11)
            .with_n_static(5)
            .build();
        let corridor = goal_corridor(&s.map);
        for o in &s.obstacles {
            assert!(!corridor.intersects(&o.footprint_at(0.0).aabb()));
        }
    }

    #[test]
    fn dynamic_override() {
        let s = ScenarioConfig::new(Difficulty::Easy, 3)
            .with_dynamic(true)
            .build();
        assert_eq!(s.obstacles.iter().filter(|o| o.is_dynamic()).count(), 2);
        let t = ScenarioConfig::new(Difficulty::Normal, 3)
            .with_dynamic(false)
            .build();
        assert_eq!(t.obstacles.iter().filter(|o| o.is_dynamic()).count(), 0);
    }

    #[test]
    fn parallel_map_scenario_has_framing_cars() {
        let s = ScenarioConfig::new(Difficulty::Easy, 3)
            .with_map(MapKind::Parallel)
            .build();
        assert_eq!(s.obstacles.len(), 2);
        // both parked cars straddle the bay, neither covers the goal
        let goal = s.map.goal_pose();
        for o in &s.obstacles {
            assert!(!o.footprint_at(0.0).contains(goal.position()));
        }
        // spawn footprint clear
        let fp = s.start_state.footprint(&s.vehicle_params);
        assert!(s.map.contains_footprint(&fp));
    }

    #[test]
    fn compact_map_scenarios_spawn_clean() {
        for seed in 0..10 {
            let s = ScenarioConfig::new(Difficulty::Normal, seed)
                .with_map(MapKind::Compact)
                .build();
            let fp = s.start_state.footprint(&s.vehicle_params);
            assert!(s.map.contains_footprint(&fp), "seed {seed}");
            for o in &s.obstacles {
                assert!(!o.footprint_at(0.0).intersects(&fp), "seed {seed}");
            }
            // routes stay inside the lot
            for o in &s.obstacles {
                for t in 0..60 {
                    let p = o.pose_at(t as f64);
                    assert!(s.map.bounds().contains(p.position()), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn difficulty_display() {
        assert_eq!(Difficulty::Easy.to_string(), "easy");
        assert_eq!(Difficulty::Hard.to_string(), "hard");
    }
}
