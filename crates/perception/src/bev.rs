//! Ego-centric bird's-eye-view rendering (the BEV transformer `g`).

use icoil_geom::{Obb, ObbPointTest, Vec2};
use icoil_vehicle::VehicleState;
use icoil_world::{NoiseConfig, ParkingMap};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// BEV image geometry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BevConfig {
    /// Image side length in pixels (must be divisible by 8 for the IL
    /// network's three pooling stages).
    pub size: usize,
    /// Half-extent of the square window around the ego vehicle (meters):
    /// the image spans `[-range, range]` in both ego-frame axes.
    pub range: f64,
}

impl Default for BevConfig {
    fn default() -> Self {
        BevConfig {
            size: 32,
            range: 8.0,
        }
    }
}

impl BevConfig {
    /// Meters per pixel.
    pub fn resolution(&self) -> f64 {
        2.0 * self.range / self.size as f64
    }
}

/// A three-channel ego-centric BEV image.
///
/// Layout is `[channel, row, col]` row-major: `channel 0` is the
/// obstacle/wall occupancy, `channel 1` the goal-bay mask, and
/// `channel 2` a constant plane encoding the ego's normalized signed
/// speed (the standard conditioning trick of camera-based IL — the
/// action depends on the current speed, which pixels alone cannot
/// reveal). Row 0 is the far left-front of the vehicle; the ego sits at
/// the image center facing +x (increasing column).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BevImage {
    /// Pixels per side.
    pub size: usize,
    /// Half-extent in meters.
    pub range: f64,
    /// `3 × size × size` pixel values (occupancy/goal in `[0, 1]`, speed
    /// plane in `[-1, 1]`).
    pub data: Vec<f32>,
}

impl BevImage {
    /// Number of channels (obstacles, goal, ego speed).
    pub const CHANNELS: usize = 3;

    /// Pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range indices.
    pub fn at(&self, channel: usize, row: usize, col: usize) -> f32 {
        assert!(channel < Self::CHANNELS && row < self.size && col < self.size);
        self.data[(channel * self.size + row) * self.size + col]
    }

    /// Mean occupancy of the obstacle channel.
    pub fn obstacle_density(&self) -> f64 {
        let n = self.size * self.size;
        self.data[..n].iter().map(|&v| v as f64).sum::<f64>() / n as f64
    }
}

/// Renders ego-centric BEV images from ground truth.
#[derive(Debug, Clone)]
pub struct BevRenderer {
    config: BevConfig,
}

impl BevRenderer {
    /// Creates a renderer.
    ///
    /// # Panics
    ///
    /// Panics when `size` is zero, not divisible by 8, or `range` is not
    /// positive.
    pub fn new(config: BevConfig) -> Self {
        assert!(
            config.size > 0 && config.size.is_multiple_of(8),
            "BEV size must be a positive multiple of 8"
        );
        assert!(config.range > 0.0, "BEV range must be positive");
        BevRenderer { config }
    }

    /// The renderer configuration.
    pub fn config(&self) -> &BevConfig {
        &self.config
    }

    /// Renders the BEV image for the given ego state.
    ///
    /// `noise` perturbs pixels (additive Gaussian-ish noise plus dropout)
    /// using `rng`; pass [`NoiseConfig::none`] for clean rendering.
    pub fn render(
        &self,
        ego: &VehicleState,
        obstacles: &[Obb],
        map: &ParkingMap,
        noise: &NoiseConfig,
        rng: &mut SmallRng,
    ) -> BevImage {
        let s = self.config.size;
        let mut data = vec![0.0f32; BevImage::CHANNELS * s * s];
        let res = self.config.resolution();
        let bounds = map.bounds();
        // Every rotation's sin_cos once per frame: the pixel loop then
        // evaluates exactly the expressions of `Pose2::to_world` and
        // `Obb::contains`, minus the trig.
        let origin = ego.pose.position();
        let ego_rot = ego.pose.theta.sin_cos();
        let bay = map.bay().point_test();
        let boxes: Vec<ObbPointTest> = obstacles.iter().map(Obb::point_test).collect();
        // channel 2: constant normalized-speed plane
        let v_norm = (ego.velocity / 2.5).clamp(-1.0, 1.0) as f32;
        data[2 * s * s..].iter_mut().for_each(|v| *v = v_norm);
        for row in 0..s {
            for col in 0..s {
                // ego frame: +x forward (columns), +y left (rows upward);
                // row 0 is the left-most (+y) edge.
                let ex = -self.config.range + (col as f64 + 0.5) * res;
                let ey = self.config.range - (row as f64 + 0.5) * res;
                let world = origin + Vec2::new(ex, ey).rotated_by(ego_rot);
                let occupied = !bounds.contains(world) || boxes.iter().any(|o| o.contains(world));
                if occupied {
                    data[row * s + col] = 1.0;
                }
                if bay.contains(world) {
                    data[(s + row) * s + col] = 1.0;
                }
            }
        }
        let occupancy_len = 2 * s * s;
        apply_noise(&mut data[..occupancy_len], noise, rng);
        BevImage {
            size: s,
            range: self.config.range,
            data,
        }
    }
}

/// Adds per-pixel noise and dropout to a rendered image, clamping to
/// `[0, 1]`.
fn apply_noise(data: &mut [f32], noise: &NoiseConfig, rng: &mut SmallRng) {
    if noise.image_noise_std > 0.0 {
        let std = noise.image_noise_std as f32;
        for v in data.iter_mut() {
            // sum of three uniforms ≈ gaussian (Irwin–Hall), cheap and
            // bounded
            let g: f32 = (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).sum::<f32>() / 3.0;
            *v = (*v + g * std * 2.0).clamp(0.0, 1.0);
        }
    }
    if noise.pixel_dropout > 0.0 {
        for v in data.iter_mut() {
            if rng.gen_bool(noise.pixel_dropout) {
                *v = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_geom::Pose2;
    use icoil_world::{Difficulty, ScenarioConfig};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    /// The renderer written per pixel, every pixel through
    /// `Pose2::to_world`, each obstacle's `Obb::contains` and the bay's:
    /// the reference the trig-hoisted [`BevRenderer::render`] must equal
    /// bit for bit.
    fn render_per_pixel(
        r: &BevRenderer,
        ego: &VehicleState,
        obstacles: &[Obb],
        map: &ParkingMap,
        noise: &NoiseConfig,
        rng: &mut SmallRng,
    ) -> BevImage {
        let s = r.config.size;
        let mut data = vec![0.0f32; BevImage::CHANNELS * s * s];
        let res = r.config.resolution();
        let v_norm = (ego.velocity / 2.5).clamp(-1.0, 1.0) as f32;
        data[2 * s * s..].iter_mut().for_each(|v| *v = v_norm);
        for row in 0..s {
            for col in 0..s {
                let ex = -r.config.range + (col as f64 + 0.5) * res;
                let ey = r.config.range - (row as f64 + 0.5) * res;
                let world = ego.pose.to_world(Vec2::new(ex, ey));
                if !map.bounds().contains(world) || obstacles.iter().any(|o| o.contains(world)) {
                    data[row * s + col] = 1.0;
                }
                if map.bay().contains(world) {
                    data[(s + row) * s + col] = 1.0;
                }
            }
        }
        apply_noise(&mut data[..2 * s * s], noise, rng);
        BevImage {
            size: s,
            range: r.config.range,
            data,
        }
    }

    /// A box around `pixel`'s world point whose length boundary passes
    /// through that point to the last bit (`|local.x| == half_length +
    /// EPS`), so a world point off by one ulp can flip the pixel: random
    /// boxes almost never sit that close to a pixel center.
    fn knife_edge_box(
        r: &BevRenderer,
        ego: &VehicleState,
        (row, col): (usize, usize),
        (dx, dy): (f64, f64),
        theta: f64,
    ) -> Obb {
        let res = r.config.resolution();
        let ex = -r.config.range + (col as f64 + 0.5) * res;
        let ey = r.config.range - (row as f64 + 0.5) * res;
        let world = ego.pose.to_world(Vec2::new(ex, ey));
        let center = world + Vec2::new(dx, dy);
        let local = (world - center).rotated(-theta);
        let mut half_length = local.x.abs() - icoil_geom::EPS;
        for _ in 0..8 {
            let reach = half_length + icoil_geom::EPS;
            if reach == local.x.abs() {
                break;
            }
            half_length = if reach < local.x.abs() {
                half_length.next_up()
            } else {
                half_length.next_down()
            };
        }
        Obb {
            center,
            half_length: half_length.max(0.0),
            half_width: local.y.abs() + 0.5,
            theta,
        }
    }

    /// An angle drawn uniformly, or within 1e-6 of ±π, or exactly ±π.
    fn angle((kind, u): (usize, f64)) -> f64 {
        match kind {
            0 => -PI + 2.0 * PI * u,
            1 => PI - u * 1e-6,
            2 => -PI + u * 1e-6,
            _ if u < 0.5 => PI,
            _ => -PI,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn render_matches_per_pixel_reference(
            seed in 0u64..500,
            geometry in 0usize..3,
            ego_xy in (-4.0f64..34.0, -4.0f64..24.0),
            ego_angle in (0usize..4, 0.0f64..1.0),
            velocity in -3.0f64..3.0,
            // centers up to 10 m from the ego against a window half-extent
            // of 4-12 m: boxes land inside, outside and across the edge
            boxes in prop::collection::vec(
                ((-10.0f64..10.0, -10.0f64..10.0), (0usize..4, 0.0f64..1.0), (0.1f64..3.0, 0.1f64..3.0)),
                0..6,
            ),
            edges in prop::collection::vec(
                ((0usize..32, 0usize..32), (-1.5f64..1.5, -1.5f64..1.5), (0usize..4, 0.0f64..1.0)),
                0..4,
            ),
            noisy in any::<bool>(),
        ) {
            let (size, range) = [(8, 4.0), (16, 8.0), (32, 12.0)][geometry];
            let r = BevRenderer::new(BevConfig { size, range });
            let map = ScenarioConfig::new(Difficulty::Easy, seed).build().map;
            let ego = VehicleState {
                // a raw heading (not normalized), so exactly −π occurs too
                pose: Pose2 { x: ego_xy.0, y: ego_xy.1, theta: angle(ego_angle) },
                velocity,
            };
            let mut obstacles: Vec<Obb> = boxes
                .iter()
                .map(|&((dx, dy), a, (hl, hw))| Obb {
                    center: Vec2::new(ego_xy.0 + dx, ego_xy.1 + dy),
                    half_length: hl,
                    half_width: hw,
                    theta: angle(a),
                })
                .collect();
            for &((row, col), offset, a) in &edges {
                obstacles.push(knife_edge_box(&r, &ego, (row % size, col % size), offset, angle(a)));
            }
            let noise = if noisy { NoiseConfig::hard() } else { NoiseConfig::none() };
            let fast = r.render(&ego, &obstacles, &map, &noise, &mut SmallRng::seed_from_u64(seed));
            let reference =
                render_per_pixel(&r, &ego, &obstacles, &map, &noise, &mut SmallRng::seed_from_u64(seed));
            let bits = |img: &BevImage| img.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&fast), bits(&reference));
        }
    }

    fn setup() -> (BevRenderer, icoil_world::Scenario) {
        (
            BevRenderer::new(BevConfig::default()),
            ScenarioConfig::new(Difficulty::Easy, 5).build(),
        )
    }

    #[test]
    fn clean_render_is_deterministic() {
        let (r, s) = setup();
        let ego = s.start_state;
        let obs = s.obstacle_footprints(0.0);
        let mut rng1 = SmallRng::seed_from_u64(0);
        let mut rng2 = SmallRng::seed_from_u64(99);
        let a = r.render(&ego, &obs, &s.map, &NoiseConfig::none(), &mut rng1);
        let b = r.render(&ego, &obs, &s.map, &NoiseConfig::none(), &mut rng2);
        assert_eq!(a, b, "clean rendering must not consume randomness");
    }

    #[test]
    fn obstacle_appears_in_front_pixels() {
        let (r, s) = setup();
        // place ego right before the first obstacle, facing it
        let ego = icoil_vehicle::VehicleState::at_rest(Pose2::new(8.0, 6.0, 0.0));
        let obs = s.obstacle_footprints(0.0); // obstacle 0 at (12.5, 6.0)
        let mut rng = SmallRng::seed_from_u64(0);
        let img = r.render(&ego, &obs, &s.map, &NoiseConfig::none(), &mut rng);
        // pixel ahead of the car at ego-frame (4.5, 0): row center, col right of center
        let col = ((4.5 + r.config().range) / r.config().resolution()) as usize;
        let row = img.size / 2;
        assert_eq!(img.at(0, row, col), 1.0, "obstacle must be rendered ahead");
        // pixel just left of the car is free space
        let col_free = ((0.0 + r.config().range) / r.config().resolution()) as usize;
        let row_free = ((r.config().range - 3.0) / r.config().resolution()) as usize;
        assert_eq!(img.at(0, row_free, col_free), 0.0);
    }

    #[test]
    fn walls_render_as_occupied() {
        let (r, s) = setup();
        // ego close to the left wall, facing it: the out-of-bounds region
        // beyond the wall fills the front of the image
        let ego =
            icoil_vehicle::VehicleState::at_rest(Pose2::new(3.0, 10.0, std::f64::consts::PI));
        let mut rng = SmallRng::seed_from_u64(0);
        let img = r.render(&ego, &[], &s.map, &NoiseConfig::none(), &mut rng);
        // front at distance 5 m is outside the lot (x = -2)
        let col = ((5.0 + r.config().range) / r.config().resolution()) as usize;
        assert_eq!(img.at(0, img.size / 2, col), 1.0);
    }

    #[test]
    fn goal_channel_marks_bay() {
        let (r, s) = setup();
        // ego near the bay looking at it
        let ego = icoil_vehicle::VehicleState::at_rest(Pose2::new(20.0, 10.0, 0.0));
        let mut rng = SmallRng::seed_from_u64(0);
        let img = r.render(&ego, &[], &s.map, &NoiseConfig::none(), &mut rng);
        // bay center is ~6.8 m ahead
        let col = ((6.8 + r.config().range) / r.config().resolution()) as usize;
        assert_eq!(img.at(1, img.size / 2, col), 1.0);
        // behind the car there is no bay
        assert_eq!(img.at(1, img.size / 2, 2), 0.0);
    }

    #[test]
    fn rotation_invariance_of_ego_frame() {
        // the same relative geometry viewed at two different world
        // headings must produce the same image
        let (r, s) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let obs1 = vec![Obb::from_pose(Pose2::new(18.0, 10.0, 0.0), 2.0, 2.0)];
        let ego1 = icoil_vehicle::VehicleState::at_rest(Pose2::new(14.0, 10.0, 0.0));
        let img1 = r.render(&ego1, &obs1, &s.map, &NoiseConfig::none(), &mut rng);

        let ego2 = icoil_vehicle::VehicleState::at_rest(Pose2::new(
            15.0,
            8.0,
            std::f64::consts::FRAC_PI_2,
        ));
        let obs2 = vec![Obb::from_pose(
            Pose2::new(15.0, 12.0, std::f64::consts::FRAC_PI_2),
            2.0,
            2.0,
        )];
        let img2 = r.render(&ego2, &obs2, &s.map, &NoiseConfig::none(), &mut rng);
        // compare only the central obstacle-channel columns ahead (goal/bay
        // and walls differ between the two placements)
        let c = img1.size / 2;
        let res = r.config().resolution();
        let col = ((4.0 + r.config().range) / res) as usize;
        assert_eq!(img1.at(0, c, col), img2.at(0, c, col));
        assert_eq!(img1.at(0, c, col), 1.0);
    }

    #[test]
    fn noise_perturbs_pixels_deterministically() {
        let (r, s) = setup();
        let ego = s.start_state;
        let obs = s.obstacle_footprints(0.0);
        let noise = NoiseConfig::hard();
        let a = r.render(&ego, &obs, &s.map, &noise, &mut SmallRng::seed_from_u64(7));
        let b = r.render(&ego, &obs, &s.map, &noise, &mut SmallRng::seed_from_u64(7));
        let c = r.render(&ego, &obs, &s.map, &noise, &mut SmallRng::seed_from_u64(8));
        assert_eq!(a, b, "same seed, same noise");
        assert_ne!(a, c, "different seed, different noise");
        let clean = r.render(&ego, &obs, &s.map, &NoiseConfig::none(), &mut SmallRng::seed_from_u64(7));
        assert_ne!(a, clean);
        // values stay in range
        assert!(a.data.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn density_increases_near_clutter() {
        let (r, s) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let near_wall =
            icoil_vehicle::VehicleState::at_rest(Pose2::new(3.0, 3.0, 0.0));
        let mid_lot = icoil_vehicle::VehicleState::at_rest(Pose2::new(15.0, 10.0, 0.0));
        let img_wall = r.render(&near_wall, &[], &s.map, &NoiseConfig::none(), &mut rng);
        let img_mid = r.render(&mid_lot, &[], &s.map, &NoiseConfig::none(), &mut rng);
        assert!(img_wall.obstacle_density() > img_mid.obstacle_density());
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn bad_size_panics() {
        let _ = BevRenderer::new(BevConfig { size: 30, range: 10.0 });
    }
}
