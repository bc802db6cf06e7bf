//! Ego-centric bird's-eye-view rendering (the BEV transformer `g`).

use icoil_geom::{Obb, Vec2, EPS};
use icoil_vehicle::VehicleState;
use icoil_world::{NoiseConfig, ParkingMap};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

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
///
/// The default is the empty image: size 0 and no pixels.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
        let grid = PixelGrid::new(&self.config, ego);
        let (occupancy, rest) = data.split_at_mut(s * s);
        let (goal, speed) = rest.split_at_mut(s * s);
        // channel 0, pass 1: every pixel against the map bounds, branch-free
        let bounds = map.bounds();
        for (out, &ey) in occupancy.chunks_exact_mut(s).zip(&grid.ys) {
            for (px, &ex) in out.iter_mut().zip(&grid.xs) {
                *px = f32::from(u8::from(!bounds.contains(grid.world(ex, ey))));
            }
        }
        // pass 2: each obstacle footprint and the bay, inside its window
        for obstacle in obstacles {
            grid.paint(occupancy, obstacle);
        }
        grid.paint(goal, &map.bay());
        // channel 2: constant normalized-speed plane
        let v_norm = (ego.velocity / 2.5).clamp(-1.0, 1.0) as f32;
        speed.fill(v_norm);
        apply_noise(&mut data[..2 * s * s], noise, rng);
        BevImage {
            size: s,
            range: self.config.range,
            data,
        }
    }
}

/// Largest coordinate magnitude, in pixels, for which [`PixelGrid::window`]
/// trusts its rounding argument (2⁴⁰ ≈ 1.1e12; 5.5e11 m at the default
/// 0.5 m pixel). Past it, a box is tested on the whole image.
const WINDOW_SCALE_LIMIT: f64 = (1u64 << 40) as f64;

/// One frame's pixel-centre geometry: where each column's and row's
/// centre lies in the ego frame, and the ego pose that carries those
/// points into the world.
///
/// Both raster passes get a pixel's world point from [`PixelGrid::world`],
/// the expression of `Pose2::to_world` with the ego's `sin_cos` computed
/// once per frame, so the map-bounds pass and the box passes test the
/// same bits the per-pixel renderer did.
struct PixelGrid {
    origin: Vec2,
    /// `sin_cos` of the ego heading.
    rot: (f64, f64),
    range: f64,
    res: f64,
    /// Ego-frame x of each column's centres (+x forward).
    xs: Vec<f64>,
    /// Ego-frame y of each row's centres (+y left; row 0 is the
    /// left-most edge).
    ys: Vec<f64>,
}

impl PixelGrid {
    fn new(config: &BevConfig, ego: &VehicleState) -> Self {
        let (range, res) = (config.range, config.resolution());
        PixelGrid {
            origin: ego.pose.position(),
            rot: ego.pose.theta.sin_cos(),
            range,
            res,
            xs: (0..config.size)
                .map(|col| -range + (col as f64 + 0.5) * res)
                .collect(),
            ys: (0..config.size)
                .map(|row| range - (row as f64 + 0.5) * res)
                .collect(),
        }
    }

    /// The world point of the pixel centre at ego-frame `(ex, ey)`.
    fn world(&self, ex: f64, ey: f64) -> Vec2 {
        self.origin + Vec2::new(ex, ey).rotated_by(self.rot)
    }

    /// Sets to 1 every pixel of `plane` (one `size × size` channel) whose
    /// centre `obb` contains, testing only the pixels of its
    /// [`window`](Self::window) with the unchanged [`Obb::contains`]
    /// arithmetic.
    fn paint(&self, plane: &mut [f32], obb: &Obb) {
        let test = obb.point_test();
        let s = self.xs.len();
        let (rows, cols) = self.window(obb);
        let xs = &self.xs[cols.clone()];
        for row in rows {
            let ey = self.ys[row];
            for (px, &ex) in plane[row * s..][cols.clone()].iter_mut().zip(xs) {
                if test.contains(self.world(ex, ey)) {
                    *px = 1.0;
                }
            }
        }
    }

    /// The rows and columns outside which `obb` contains no pixel centre:
    /// its ego-frame centre ± the circumradius of its EPS-padded extents
    /// plus one pixel, clamped to the image. The whole image when a
    /// position, extent or heading is non-finite, or when the magnitudes
    /// exceed [`WINDOW_SCALE_LIMIT`] pixels.
    ///
    /// Why culling with it is bit for bit: [`Obb::contains`] accepts a
    /// point only if its local offset is within `half_length + EPS` and
    /// `half_width + EPS`, so in exact arithmetic within `reach` (the
    /// padded circumradius) of the centre. A pixel outside the window sits
    /// more than `reach` plus one pixel from the computed ego-frame centre
    /// along a row or a column. Every coordinate involved — the ego
    /// origin, the box's ego-frame centre, its extents, the image range —
    /// is below the `scale` checked here, at most 2⁴⁰ pixels, and the
    /// sines and cosines are at most 1. So each of the few dozen roundings
    /// between the exact and the computed points (the pixel's world point,
    /// the box's inverse rotation, the window's own index arithmetic) is
    /// at most 2⁻⁵² of 2⁴⁰ pixels, 2⁻¹² pixel, and all of them together
    /// about a hundredth of a pixel. Such a pixel is therefore still most
    /// of a pixel outside the padded box when [`Obb::contains`] evaluates
    /// it, and the test rejects it: skipping it changes no bit.
    fn window(&self, obb: &Obb) -> (Range<usize>, Range<usize>) {
        let s = self.xs.len();
        let inverse = (-self.rot.0, self.rot.1);
        let centre = (obb.center - self.origin).rotated_by(inverse);
        // NaN or infinite when any input is
        let scale = self.origin.x.abs()
            + self.origin.y.abs()
            + centre.x.abs()
            + centre.y.abs()
            + obb.half_length.abs()
            + obb.half_width.abs()
            + self.range;
        if !(scale < WINDOW_SCALE_LIMIT * self.res && obb.theta.is_finite()) {
            return (0..s, 0..s);
        }
        let reach = obb.inflated(EPS).circumradius() / self.res + 1.0;
        // fractional pixel index of the centre, rows counting down from +y
        let col = (centre.x + self.range) / self.res - 0.5;
        let row = (self.range - centre.y) / self.res - 0.5;
        let span = |mid: f64| {
            let lo = (mid - reach).ceil().clamp(0.0, s as f64);
            let hi = ((mid + reach).floor() + 1.0).clamp(lo, s as f64);
            lo as usize..hi as usize
        };
        (span(row), span(col))
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
    use icoil_geom::{Aabb, Pose2};
    use icoil_world::{Difficulty, ScenarioConfig};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    /// The renderer written per pixel, every pixel through
    /// `Pose2::to_world`, each obstacle's `Obb::contains` and the bay's:
    /// the reference the two-pass, windowed [`BevRenderer::render`] must
    /// equal bit for bit.
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

    /// `pixel`'s centre in the world, through `Pose2::to_world`.
    fn pixel_world(r: &BevRenderer, ego: &VehicleState, (row, col): (usize, usize)) -> Vec2 {
        let res = r.config.resolution();
        let ex = -r.config.range + (col as f64 + 0.5) * res;
        let ey = r.config.range - (row as f64 + 0.5) * res;
        ego.pose.to_world(Vec2::new(ex, ey))
    }

    /// The half length at which a box at `center` with heading `theta`
    /// has its length boundary pass through `world` to the last bit
    /// (`|local.x| == half_length + EPS`), so a point off by one ulp can
    /// flip the test.
    fn knife_edge_half_length(world: Vec2, center: Vec2, theta: f64) -> f64 {
        let local = (world - center).rotated(-theta);
        let mut half_length = local.x.abs() - EPS;
        for _ in 0..8 {
            let reach = half_length + EPS;
            if reach == local.x.abs() {
                break;
            }
            half_length = if reach < local.x.abs() {
                half_length.next_up()
            } else {
                half_length.next_down()
            };
        }
        half_length.max(0.0)
    }

    /// A box around `pixel`'s world point whose length boundary passes
    /// through that point to the last bit: random boxes almost never sit
    /// that close to a pixel center.
    fn knife_edge_box(
        r: &BevRenderer,
        ego: &VehicleState,
        pixel: (usize, usize),
        (dx, dy): (f64, f64),
        theta: f64,
    ) -> Obb {
        let world = pixel_world(r, ego, pixel);
        let center = world + Vec2::new(dx, dy);
        Obb {
            center,
            half_length: knife_edge_half_length(world, center, theta),
            half_width: (world - center).rotated(-theta).y.abs() + 0.5,
            theta,
        }
    }

    /// A box at one of the edges of [`PixelGrid::window`]'s culling,
    /// chosen by `kind`; `pick` (a pixel or a corner) and the uniforms
    /// place, size and orient it.
    fn window_edge_box(
        r: &BevRenderer,
        ego: &VehicleState,
        (kind, pick): (usize, usize),
        (u, v, w, z): (f64, f64, f64, f64),
        theta: f64,
    ) -> Obb {
        let (s, range, res) = (r.config.size, r.config.range, r.config.resolution());
        let at = |ex: f64, ey: f64| ego.pose.to_world(Vec2::new(ex, ey));
        let sized = |center: Vec2, half_length: f64, half_width: f64| Obb {
            center,
            half_length,
            half_width,
            theta,
        };
        let pixel = (pick / s % s, pick % s);
        match kind {
            // centred 3-8 window half-extents away: culled entirely
            0 => {
                let (sin, cos) = (2.0 * PI * u).sin_cos();
                let d = range * (3.0 + 5.0 * v);
                sized(at(d * cos, d * sin), w * range / 2.0, z * range / 2.0)
            }
            // larger than the window: half extents up to 2 × range
            1 => sized(
                at(range * (2.0 * u - 1.0), range * (2.0 * v - 1.0)),
                2.0 * range * w,
                2.0 * range * z,
            ),
            // zero half extents, within 2·EPS of a pixel centre
            2 => {
                let center = pixel_world(r, ego, pixel) + Vec2::new(u - 0.5, v - 0.5) * (4.0 * EPS);
                match (3.0 * z) as usize {
                    0 => sized(center, 0.0, 0.0),
                    1 => sized(center, 0.0, w * range),
                    _ => sized(center, w * range, 0.0),
                }
            }
            // straddling an image corner
            3 => {
                let (sx, sy) = [(-1.0, 1.0), (1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)][pick % 4];
                sized(
                    at(
                        sx * range + (u - 0.5) * 2.0 * res,
                        sy * range + (v - 0.5) * 2.0 * res,
                    ),
                    w * range / 2.0,
                    z * range / 2.0,
                )
            }
            // a zero-width needle along a row or column, centred on one
            // pixel centre, its tip on another 1-4 pixels away to the last
            // bit: the window's ends pass through pixel centres
            _ => {
                let (row, col) = pixel;
                let k = 1 + (4.0 * w) as usize;
                let step = |i: usize| if i + k < s { i + k } else { i - k };
                let (tip, heading) = if z < 0.5 {
                    ((row, step(col)), ego.pose.theta)
                } else {
                    ((step(row), col), ego.pose.theta + PI / 2.0)
                };
                let center = pixel_world(r, ego, pixel);
                let half_length = knife_edge_half_length(pixel_world(r, ego, tip), center, heading);
                Obb {
                    center,
                    half_length,
                    half_width: 0.0,
                    theta: heading,
                }
            }
        }
    }

    /// A lot no pixel falls outside, so the occupancy channel shows every
    /// box pixel, with `bay` as its goal box.
    fn open_lot(bay: Obb) -> ParkingMap {
        let far = Vec2::new(1e18, 1e18);
        let lot = Aabb::new(-far, far);
        ParkingMap::new(lot, lot, bay.pose(), bay)
    }

    /// Renders `obstacles` over `map` with both renderers and asserts the
    /// images agree bit for bit.
    fn assert_matches_reference(
        r: &BevRenderer,
        ego: &VehicleState,
        obstacles: &[Obb],
        map: &ParkingMap,
    ) {
        let none = NoiseConfig::none();
        let mut rng = SmallRng::seed_from_u64(0);
        let fast = r.render(ego, obstacles, map, &none, &mut rng);
        let reference = render_per_pixel(r, ego, obstacles, map, &none, &mut rng);
        let bits = |img: &BevImage| img.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&fast),
            bits(&reference),
            "ego {ego:?}, boxes {obstacles:?}"
        );
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The window's edge cases over an open lot: boxes culled
        /// entirely, boxes larger than the window, zero extents, boxes
        /// across each image corner and knife-edge needles whose tips
        /// sit on a window end. The first box is also the bay.
        #[test]
        fn render_matches_per_pixel_reference_at_window_edges(
            geometry in 0usize..3,
            ego_xy in (-50.0f64..50.0, -50.0f64..50.0),
            ego_angle in (0usize..4, 0.0f64..1.0),
            boxes in prop::collection::vec(
                ((0usize..5, 0usize..1024), (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), (0usize..4, 0.0f64..1.0)),
                1..8,
            ),
        ) {
            let (size, range) = [(8, 4.0), (16, 8.0), (32, 12.0)][geometry];
            let r = BevRenderer::new(BevConfig { size, range });
            let ego = VehicleState {
                pose: Pose2 { x: ego_xy.0, y: ego_xy.1, theta: angle(ego_angle) },
                velocity: 0.0,
            };
            let obstacles: Vec<Obb> = boxes
                .iter()
                .map(|&(kind, uniforms, a)| window_edge_box(&r, &ego, kind, uniforms, angle(a)))
                .collect();
            assert_matches_reference(&r, &ego, &obstacles, &open_lot(obstacles[0]));
        }
    }

    /// Boxes the window cannot bound fall back to the whole image: a NaN
    /// centre, a `+∞` half length, an infinite centre with infinite
    /// extents (which contains every pixel centre), a NaN heading, and an
    /// ego so far out that rounding moves pixel centres by metres.
    #[test]
    fn render_matches_per_pixel_reference_for_unbounded_boxes() {
        let r = BevRenderer::new(BevConfig::default());
        let bay = Obb::from_pose(Pose2::new(10.0, 10.0, 0.3), 5.4, 3.0);
        let map = open_lot(bay);
        let unbounded = [
            Obb {
                center: Vec2::new(f64::NAN, 10.0),
                half_length: f64::INFINITY,
                half_width: 1.0,
                theta: 0.2,
            },
            Obb {
                center: Vec2::new(12.0, 9.0),
                half_length: f64::INFINITY,
                half_width: 1.0,
                theta: 0.2,
            },
            Obb {
                center: Vec2::new(f64::INFINITY, 0.0),
                half_length: f64::INFINITY,
                half_width: f64::INFINITY,
                theta: PI / 4.0,
            },
            Obb {
                center: Vec2::new(11.0, 10.0),
                half_length: 2.0,
                half_width: 1.0,
                theta: f64::NAN,
            },
        ];
        for theta in [0.0, 0.3, PI / 2.0, -PI] {
            let ego = VehicleState::at_rest(Pose2::new(10.0, 10.0, theta));
            for obstacle in &unbounded {
                assert_matches_reference(&r, &ego, std::slice::from_ref(obstacle), &map);
            }
            assert_matches_reference(&r, &ego, &unbounded, &map);
            // every f64 near 1e17 is a multiple of 16: all pixel centres
            // round onto the ego's own x, inside a box whose exact extent
            // starts 4 m ahead of it
            let far_ego = VehicleState::at_rest(Pose2::new(1e17, 0.0, theta));
            let far_box = Obb {
                center: Vec2::new(1e17 + 96.0, 0.0),
                half_length: 100.0,
                half_width: 1.0,
                theta: 0.0,
            };
            assert_matches_reference(&r, &far_ego, &[far_box], &map);
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
        let ego = icoil_vehicle::VehicleState::at_rest(Pose2::new(3.0, 10.0, std::f64::consts::PI));
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
        let clean = r.render(
            &ego,
            &obs,
            &s.map,
            &NoiseConfig::none(),
            &mut SmallRng::seed_from_u64(7),
        );
        assert_ne!(a, clean);
        // values stay in range
        assert!(a.data.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn density_increases_near_clutter() {
        let (r, s) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let near_wall = icoil_vehicle::VehicleState::at_rest(Pose2::new(3.0, 3.0, 0.0));
        let mid_lot = icoil_vehicle::VehicleState::at_rest(Pose2::new(15.0, 10.0, 0.0));
        let img_wall = r.render(&near_wall, &[], &s.map, &NoiseConfig::none(), &mut rng);
        let img_mid = r.render(&mid_lot, &[], &s.map, &NoiseConfig::none(), &mut rng);
        assert!(img_wall.obstacle_density() > img_mid.obstacle_density());
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn bad_size_panics() {
        let _ = BevRenderer::new(BevConfig {
            size: 30,
            range: 10.0,
        });
    }
}
