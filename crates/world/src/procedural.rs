//! Procedural scenario generation beyond the three fixed lots.
//!
//! [`ScenarioConfig`](crate::ScenarioConfig) draws seeded variations of the
//! paper's §V-B difficulty tiers on three *fixed* maps. This module composes
//! whole lots procedurally — lot dimensions, slot pose, obstacle counts and
//! placements, dynamic patrol routes and sensing-noise level are all sampled
//! from a seed — so the verification surface is not limited to layouts a
//! human wrote down.
//!
//! Scenarios are organized into named **map families** ([`MapFamily`]):
//!
//! * `reverse_in` — the baseline MoCAM-style recessed bay.
//! * `parallel_curb` — a curbside gap between two parked cars, entered
//!   with the pull-past-and-reverse maneuver.
//! * `angled_echelon` — an echelon bay at a parameterized angle to the
//!   wall, flanked by neighbor cars parked at the same angle.
//! * `pillared_garage` — a regular pillar grid across the floor, with
//!   pillars deterministically culled from the slot corridor and spawn
//!   strip.
//! * `dead_end_stub` — two walls forming a narrow dead-end corridor in
//!   front of the bay, forcing multi-point maneuvering.
//! * `crowded_lot` — rows of perpendicular-parked cars around a central
//!   aisle plus at least one scripted dynamic agent.
//!
//! Each family carries its own parameters (bay angle, pillar pitch, stub
//! width, …) with validity-enforced ranges, and contributes *structural*
//! obstacles — deterministic functions of the spec, emitted by
//! [`ProcScenario::build`] between the sampled statics and the dynamic
//! routes.
//!
//! The pipeline has three stages:
//!
//! 1. [`ProcGen::generate`] samples a [`ProcScenario`]: a fully *concrete*
//!    declarative spec (every obstacle pose is explicit, no hidden RNG
//!    downstream). Candidates failing [`ProcScenario::validity`] are
//!    resampled, so every returned spec builds a solvable-looking episode.
//! 2. [`ProcScenario::build`] expands the spec into an ordinary
//!    [`Scenario`] accepted by the episode runner and every policy.
//! 3. [`shrink`] minimizes a spec that makes some property fail: it
//!    deterministically drops obstacles, zeroes noise and snaps geometry to
//!    defaults while the caller's predicate keeps failing — the smallest
//!    reproducing form is what lands in a triage report.
//!
//! # Example
//!
//! ```
//! use icoil_world::procedural::{ProcGen, ProcGenConfig};
//!
//! let gen = ProcGen::new(ProcGenConfig::default());
//! let spec = gen.generate(7);
//! assert!(spec.validity().is_ok());
//! let scenario = spec.build();
//! assert!(scenario.map.bounds().contains(scenario.start_state.pose.position()));
//! // Same seed, same scenario:
//! assert_eq!(gen.generate(7), spec);
//! ```

use crate::{DynamicRoute, NoiseConfig, Obstacle, ParkingMap, Scenario};
use icoil_geom::{Aabb, Obb, OccupancyGrid, Pose2, Vec2};
use icoil_vehicle::{VehicleParams, VehicleState};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The discriminant of a [`MapFamily`], without its parameters.
///
/// Used to pin a generator to one family ([`ProcGenConfig::family`]), to
/// key per-family statistics, and as the stable name in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MapFamilyKind {
    /// MoCAM-style reverse-in bay recessed into the right wall.
    ReverseIn,
    /// Curbside gap between two parked cars along the top edge.
    ParallelCurb,
    /// Angled echelon bay flanked by same-angle neighbor cars.
    AngledEchelon,
    /// Regular pillar grid across the garage floor.
    PillaredGarage,
    /// Narrow dead-end corridor walled in front of the bay.
    DeadEndStub,
    /// Perpendicular-parked rows plus scripted dynamic agents.
    CrowdedLot,
}

impl MapFamilyKind {
    /// Every family, in sampling/report order.
    pub const ALL: [MapFamilyKind; 6] = [
        MapFamilyKind::ReverseIn,
        MapFamilyKind::ParallelCurb,
        MapFamilyKind::AngledEchelon,
        MapFamilyKind::PillaredGarage,
        MapFamilyKind::DeadEndStub,
        MapFamilyKind::CrowdedLot,
    ];

    /// Stable snake_case name used in reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            MapFamilyKind::ReverseIn => "reverse_in",
            MapFamilyKind::ParallelCurb => "parallel_curb",
            MapFamilyKind::AngledEchelon => "angled_echelon",
            MapFamilyKind::PillaredGarage => "pillared_garage",
            MapFamilyKind::DeadEndStub => "dead_end_stub",
            MapFamilyKind::CrowdedLot => "crowded_lot",
        }
    }

    /// The family's position in [`MapFamilyKind::ALL`] — the stable
    /// index keying per-family telemetry counters and the adaptation
    /// dataset's reservoirs.
    pub fn index(self) -> usize {
        MapFamilyKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("ALL covers every family")
    }

    /// Parses a [`MapFamilyKind::name`] back into the kind.
    pub fn from_name(name: &str) -> Option<MapFamilyKind> {
        MapFamilyKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for MapFamilyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of the angled-echelon family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EchelonParams {
    /// Bay angle in radians; validity enforces `[0.3, 1.0]`.
    pub angle: f64,
}

/// Parameters of the pillared-garage family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GarageParams {
    /// Grid pitch in meters; validity enforces `[4.0, 7.0]`.
    pub pitch: f64,
    /// Pillar side length in meters; validity enforces `[0.4, 1.0]`.
    pub pillar: f64,
}

/// Parameters of the dead-end-stub family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StubParams {
    /// Clear corridor width in meters; validity enforces `[3.4, 5.0]`.
    pub corridor_w: f64,
    /// Wall length in meters; validity enforces `[5.0, 10.0]`.
    pub corridor_len: f64,
}

/// Parameters of the crowded-lot family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrowdedParams {
    /// Distance from the bay centerline to each parked row's center
    /// in meters; validity enforces `[5.2, 7.0]`.
    pub row_gap: f64,
}

/// A named scenario family together with its geometry parameters.
///
/// The parameters are part of the spec (explicit, serialized, shrunk), so
/// equal specs build bit-identical scenarios and a triage report pins the
/// exact geometry that reproduced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MapFamily {
    /// MoCAM-style reverse-in bay recessed into the right wall.
    ReverseIn,
    /// A curbside gap between two parked cars along the top edge,
    /// entered with the pull-past-and-reverse maneuver.
    ParallelCurb,
    /// An echelon bay at an angle to the right wall's normal, flanked
    /// by two neighbor cars parked at the same angle.
    AngledEchelon(EchelonParams),
    /// A regular square-pillar grid across the garage floor. Pillars
    /// intersecting the slot corridor or the spawn strip are culled
    /// deterministically.
    PillaredGarage(GarageParams),
    /// Two walls forming a dead-end corridor in front of the bay — the
    /// harshest multi-reversal geometry the generator emits.
    DeadEndStub(StubParams),
    /// Rows of perpendicular-parked cars on both sides of the bay
    /// centerline, plus at least one scripted dynamic agent.
    CrowdedLot(CrowdedParams),
}

impl MapFamily {
    /// This family's discriminant.
    pub fn kind(&self) -> MapFamilyKind {
        match self {
            MapFamily::ReverseIn => MapFamilyKind::ReverseIn,
            MapFamily::ParallelCurb => MapFamilyKind::ParallelCurb,
            MapFamily::AngledEchelon(_) => MapFamilyKind::AngledEchelon,
            MapFamily::PillaredGarage(_) => MapFamilyKind::PillaredGarage,
            MapFamily::DeadEndStub(_) => MapFamilyKind::DeadEndStub,
            MapFamily::CrowdedLot(_) => MapFamilyKind::CrowdedLot,
        }
    }

    /// The canonical (mid-range) parameters for a kind — what fallback
    /// specs use and what the shrinker snaps parameters to.
    pub fn canonical(kind: MapFamilyKind) -> MapFamily {
        match kind {
            MapFamilyKind::ReverseIn => MapFamily::ReverseIn,
            MapFamilyKind::ParallelCurb => MapFamily::ParallelCurb,
            MapFamilyKind::AngledEchelon => MapFamily::AngledEchelon(EchelonParams { angle: 0.6 }),
            MapFamilyKind::PillaredGarage => MapFamily::PillaredGarage(GarageParams {
                pitch: 5.5,
                pillar: 0.6,
            }),
            MapFamilyKind::DeadEndStub => MapFamily::DeadEndStub(StubParams {
                corridor_w: 4.0,
                corridor_len: 7.0,
            }),
            MapFamilyKind::CrowdedLot => MapFamily::CrowdedLot(CrowdedParams { row_gap: 6.0 }),
        }
    }

    /// Whether this family's parameters are inside their validity ranges.
    fn params_in_range(&self) -> bool {
        match *self {
            MapFamily::ReverseIn | MapFamily::ParallelCurb => true,
            MapFamily::AngledEchelon(p) => (0.3..=1.0).contains(&p.angle),
            MapFamily::PillaredGarage(p) => {
                (4.0..=7.0).contains(&p.pitch) && (0.4..=1.0).contains(&p.pillar)
            }
            MapFamily::DeadEndStub(p) => {
                (3.4..=5.0).contains(&p.corridor_w) && (5.0..=10.0).contains(&p.corridor_len)
            }
            MapFamily::CrowdedLot(p) => (5.2..=7.0).contains(&p.row_gap),
        }
    }
}

/// Sampling ranges for [`ProcGen`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcGenConfig {
    /// Lot width range (meters).
    pub lot_width: (f64, f64),
    /// Lot height range (meters).
    pub lot_height: (f64, f64),
    /// Static-obstacle count range (inclusive).
    pub n_static: (usize, usize),
    /// Dynamic-obstacle count range (inclusive).
    pub n_dynamic: (usize, usize),
    /// Whether parallel-curb slots are sampled alongside the other
    /// families (ignored when `family` pins one).
    pub allow_parallel: bool,
    /// Probability that a scenario carries sensing noise; the level is
    /// then drawn uniformly in `(0, 1]` × the hard-tier profile.
    pub noise_prob: f64,
    /// Pins every generated scenario to one family; `None` samples the
    /// full family mix.
    #[serde(default)]
    pub family: Option<MapFamilyKind>,
}

impl Default for ProcGenConfig {
    fn default() -> Self {
        ProcGenConfig {
            lot_width: (22.0, 36.0),
            lot_height: (13.0, 24.0),
            n_static: (0, 5),
            n_dynamic: (0, 2),
            allow_parallel: true,
            noise_prob: 0.4,
            family: None,
        }
    }
}

/// A concrete static-obstacle placement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaticSpec {
    /// Box center pose.
    pub pose: Pose2,
    /// Box length (meters).
    pub length: f64,
    /// Box width (meters).
    pub width: f64,
}

/// A concrete dynamic-obstacle patrol route.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteSpec {
    /// Waypoints looped back and forth.
    pub waypoints: Vec<Vec2>,
    /// Patrol speed (m/s).
    pub speed: f64,
}

/// A fully-concrete procedural scenario spec.
///
/// Everything an episode needs is explicit, which is what makes
/// [`shrink`] possible: removing an entry from `statics` or `routes`
/// produces a strictly simpler scenario with no other change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcScenario {
    /// The seed that produced this spec (carried for triage reports).
    pub seed: u64,
    /// Lot width (meters).
    pub lot_w: f64,
    /// Lot height (meters).
    pub lot_h: f64,
    /// Map family and its geometry parameters.
    pub family: MapFamily,
    /// Slot position as a fraction of the usable wall span (0–1).
    pub bay_frac: f64,
    /// Static obstacles.
    pub statics: Vec<StaticSpec>,
    /// Dynamic obstacles.
    pub routes: Vec<RouteSpec>,
    /// Ego start pose (at rest).
    pub start: Pose2,
    /// Sensing-noise level: 0 = clean, 1 = the hard-tier profile.
    pub noise_scale: f64,
}

/// Why a candidate spec was rejected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum InvalidScenario {
    /// Lot dimensions too small to hold spawn area and slot.
    LotTooSmall,
    /// The slot or goal pose falls outside the lot.
    SlotOutsideLot,
    /// A family geometry parameter is outside its allowed range.
    FamilyParamOutOfRange,
    /// The ego start footprint is outside the lot or overlaps an
    /// obstacle — nominally, or within the sensing-noise jitter
    /// envelope when the spec carries noise.
    SpawnBlocked,
    /// A static obstacle blocks the corridor in front of the slot.
    CorridorBlocked,
    /// A dynamic route leaves the lot interior.
    RouteOutsideLot,
    /// The family requires a scripted dynamic agent but the spec has
    /// none (crowded lot).
    MissingDynamicAgent,
    /// No drivable grid path connects the start to the slot approach.
    SlotUnreachable,
}

impl std::fmt::Display for InvalidScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InvalidScenario::LotTooSmall => "lot too small",
            InvalidScenario::SlotOutsideLot => "slot outside lot",
            InvalidScenario::FamilyParamOutOfRange => "family parameter out of range",
            InvalidScenario::SpawnBlocked => "spawn blocked",
            InvalidScenario::CorridorBlocked => "goal corridor blocked",
            InvalidScenario::RouteOutsideLot => "dynamic route outside lot",
            InvalidScenario::MissingDynamicAgent => "family requires a dynamic agent",
            InvalidScenario::SlotUnreachable => "slot unreachable from start",
        };
        f.write_str(s)
    }
}

/// Smallest lot the generator will emit (width, height).
const MIN_LOT: (f64, f64) = (20.0, 11.0);
/// Bay geometry shared with the fixed maps.
const BAY_DEPTH: f64 = 5.4;
const BAY_WIDTH: f64 = 3.0;
const CURB_GAP: f64 = 7.0;
const CURB_LANE_INSET: f64 = 1.6;
/// Stub-wall thickness in the dead-end family (meters).
const STUB_WALL: f64 = 0.5;
/// Grid resolution of the reachability check (meters per cell).
const REACH_RESOLUTION: f64 = 0.5;
/// Worst-case factor applied to the noise profile's jitter std when
/// checking the spawn clearance envelope (≈ a 3σ excursion).
const NOISE_ENVELOPE_SIGMA: f64 = 3.0;

impl ProcScenario {
    /// The lot geometry this spec describes.
    ///
    /// # Panics
    ///
    /// Panics when the spec is invalid ([`ProcScenario::validity`] guards
    /// every construction path).
    pub fn map(&self) -> ParkingMap {
        let bounds = Aabb::new(Vec2::ZERO, Vec2::new(self.lot_w, self.lot_h));
        let spawn = spawn_region(self.lot_w, self.lot_h);
        match self.family {
            MapFamily::ParallelCurb => {
                let x = bay_center_parallel(self.lot_w, self.bay_frac);
                let y = self.lot_h - CURB_LANE_INSET;
                let bay = Obb::from_pose(Pose2::new(x, y, 0.0), CURB_GAP, 1.9);
                let goal = Pose2::new(x - 1.3, y, 0.0);
                ParkingMap::new(bounds, spawn, goal, bay)
            }
            MapFamily::AngledEchelon(EchelonParams { angle }) => {
                // the bay's axis-aligned half-extents at this angle
                let (s, c) = angle.sin_cos();
                let ex = 0.5 * (BAY_DEPTH * c.abs() + BAY_WIDTH * s.abs());
                let ey = 0.5 * (BAY_DEPTH * s.abs() + BAY_WIDTH * c.abs());
                let x = self.lot_w - ex - 0.3;
                let margin = ey + 1.2;
                let y = margin + self.bay_frac * (self.lot_h - 2.0 * margin);
                let bay = Obb::from_pose(Pose2::new(x, y, angle), BAY_DEPTH, BAY_WIDTH);
                // deeper-into-bay direction, mirroring the reverse-in
                // goal offset at angle 0
                let goal = Pose2::new(x + 1.3 * c, y + 1.3 * s, angle + std::f64::consts::PI);
                ParkingMap::new(bounds, spawn, goal, bay)
            }
            MapFamily::ReverseIn
            | MapFamily::PillaredGarage(_)
            | MapFamily::DeadEndStub(_)
            | MapFamily::CrowdedLot(_) => {
                let y = bay_center_reverse_in(self.lot_h, self.bay_frac);
                let bay = Obb::from_pose(
                    Pose2::new(self.lot_w - BAY_DEPTH * 0.5 - 0.5, y, 0.0),
                    BAY_DEPTH,
                    BAY_WIDTH,
                );
                let goal = Pose2::new(bay.center.x + 1.3, y, std::f64::consts::PI);
                ParkingMap::new(bounds, spawn, goal, bay)
            }
        }
    }

    /// The family's deterministic *structural* obstacles — framing cars,
    /// echelon neighbors, pillar grid, stub walls, parked rows. A pure
    /// function of the spec, appended by [`ProcScenario::build`] between
    /// the sampled statics and the dynamic routes.
    pub fn structural_statics(&self) -> Vec<StaticSpec> {
        let map = self.map();
        let bay = map.bay();
        let bounds = map.bounds();
        let mut out = Vec::new();
        // grid/row members that don't fit the lot are culled rather
        // than rejected: "as many as fit" is the family's meaning
        let fits = |s: &StaticSpec| {
            let aabb = Obb::from_pose(s.pose, s.length, s.width).aabb();
            aabb.min.x >= bounds.min.x + 0.2
                && aabb.min.y >= bounds.min.y + 0.2
                && aabb.max.x <= bounds.max.x - 0.2
                && aabb.max.y <= bounds.max.y - 0.2
        };
        match self.family {
            MapFamily::ReverseIn => {}
            MapFamily::ParallelCurb => {
                // the two parked cars framing the curb gap
                for dx in [-(CURB_GAP * 0.5 + 2.4), CURB_GAP * 0.5 + 2.4] {
                    out.push(StaticSpec {
                        pose: Pose2::new(bay.center.x + dx, bay.center.y, 0.0),
                        length: 4.2,
                        width: 1.8,
                    });
                }
            }
            MapFamily::AngledEchelon(EchelonParams { angle }) => {
                // neighbor cars in the adjacent echelon bays, parked at
                // the same angle; ones that would poke out are culled
                let (s, c) = angle.sin_cos();
                let across = Vec2::new(-s, c);
                for side in [-1.0, 1.0] {
                    let center = bay.center + across * (side * (BAY_WIDTH + 1.0));
                    let spec = StaticSpec {
                        pose: Pose2::new(center.x, center.y, angle),
                        length: 4.2,
                        width: 1.7,
                    };
                    if fits(&spec) {
                        out.push(spec);
                    }
                }
            }
            MapFamily::PillaredGarage(GarageParams { pitch, pillar }) => {
                let corridor = slot_corridor(&map, self.family);
                let spawn = spawn_region(self.lot_w, self.lot_h);
                let mut x = 0.34 * self.lot_w;
                while x < self.lot_w - BAY_DEPTH - 2.5 {
                    let mut y = 2.8;
                    while y < self.lot_h - 2.8 {
                        let spec = StaticSpec {
                            pose: Pose2::new(x, y, 0.0),
                            length: pillar,
                            width: pillar,
                        };
                        let aabb = Obb::from_pose(spec.pose, pillar, pillar)
                            .inflated(0.4)
                            .aabb();
                        if fits(&spec) && !corridor.intersects(&aabb) && !spawn.intersects(&aabb) {
                            out.push(spec);
                        }
                        y += pitch;
                    }
                    x += pitch;
                }
            }
            MapFamily::DeadEndStub(StubParams {
                corridor_w,
                corridor_len,
            }) => {
                // two walls flanking the bay approach, mouth-aligned
                let mouth_x = bay.center.x - BAY_DEPTH * 0.5;
                let cx = mouth_x - corridor_len * 0.5;
                for side in [-1.0, 1.0] {
                    out.push(StaticSpec {
                        pose: Pose2::new(
                            cx,
                            bay.center.y + side * (corridor_w * 0.5 + STUB_WALL * 0.5),
                            0.0,
                        ),
                        length: corridor_len,
                        width: STUB_WALL,
                    });
                }
            }
            MapFamily::CrowdedLot(CrowdedParams { row_gap }) => {
                // perpendicular-parked rows above and below the aisle
                let spawn = spawn_region(self.lot_w, self.lot_h);
                let x0 = (0.32 * self.lot_w).max(spawn.max.x + 1.2);
                for side in [-1.0, 1.0] {
                    let y = bay.center.y + side * row_gap;
                    let mut x = x0;
                    while x < self.lot_w - BAY_DEPTH - 2.0 {
                        let spec = StaticSpec {
                            pose: Pose2::new(x, y, std::f64::consts::FRAC_PI_2),
                            length: 4.2,
                            width: 1.8,
                        };
                        if fits(&spec) {
                            out.push(spec);
                        }
                        x += 2.6;
                    }
                }
            }
        }
        out
    }

    /// Expands the spec into a runnable [`Scenario`].
    ///
    /// Obstacle ids are assigned positionally (sampled statics first,
    /// then the family's structural obstacles, then dynamics), so equal
    /// specs build bit-identical scenarios.
    pub fn build(&self) -> Scenario {
        let map = self.map();
        let mut obstacles = Vec::new();
        for s in &self.statics {
            obstacles.push(Obstacle::fixed(obstacles.len(), s.pose, s.length, s.width));
        }
        for s in self.structural_statics() {
            obstacles.push(Obstacle::fixed(obstacles.len(), s.pose, s.length, s.width));
        }
        for r in &self.routes {
            obstacles.push(Obstacle::moving(
                obstacles.len(),
                DynamicRoute::new(r.waypoints.clone(), r.speed).expect("valid route"),
                3.6,
                1.6,
            ));
        }
        let hard = NoiseConfig::hard();
        let k = self.noise_scale.clamp(0.0, 1.0);
        let noise = NoiseConfig {
            image_noise_std: hard.image_noise_std * k,
            pixel_dropout: hard.pixel_dropout * k,
            box_jitter: hard.box_jitter * k,
            heading_jitter: hard.heading_jitter * k,
            false_negative_rate: hard.false_negative_rate * k,
            phantom_rate: hard.phantom_rate * k,
        };
        Scenario {
            map,
            obstacles,
            start_state: VehicleState::at_rest(self.start),
            noise,
            vehicle_params: VehicleParams::default(),
            difficulty: crate::Difficulty::Normal,
            seed: self.seed,
            dt: 0.05,
            family: Some(self.family.kind()),
        }
    }

    /// Checks that the spec describes a well-posed, plausibly-solvable
    /// episode: family parameters in range, geometry inside the lot,
    /// clear spawn (under the sensing-noise jitter envelope, not just
    /// nominally), clear slot corridor, in-bounds patrol routes and a
    /// drivable grid path from the start to the slot approach.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition.
    pub fn validity(&self) -> Result<(), InvalidScenario> {
        if self.lot_w < MIN_LOT.0 || self.lot_h < MIN_LOT.1 {
            return Err(InvalidScenario::LotTooSmall);
        }
        if !(0.0..=1.0).contains(&self.bay_frac) || !(0.0..=1.0).contains(&self.noise_scale) {
            return Err(InvalidScenario::SlotOutsideLot);
        }
        if !self.family.params_in_range() {
            return Err(InvalidScenario::FamilyParamOutOfRange);
        }
        if self.family.kind() == MapFamilyKind::CrowdedLot && self.routes.is_empty() {
            return Err(InvalidScenario::MissingDynamicAgent);
        }
        let bounds = Aabb::new(Vec2::ZERO, Vec2::new(self.lot_w, self.lot_h));
        let map = self.map();
        if !bounds.contains(map.goal_pose().position()) || !bounds.contains(map.bay().center) {
            return Err(InvalidScenario::SlotOutsideLot);
        }
        let params = VehicleParams::default();

        // every obstacle footprint at t = 0
        let scenario = self.build();
        let footprints: Vec<Obb> = scenario
            .obstacles
            .iter()
            .map(|o| o.footprint_at(0.0))
            .collect();

        // spawn: inside the lot, clear of everything with margin
        let fp = scenario.start_state.footprint(&params).inflated(0.3);
        if !map.contains_footprint(&fp) || footprints.iter().any(|o| o.intersects(&fp)) {
            return Err(InvalidScenario::SpawnBlocked);
        }
        // ... and clear under the perception-noise jitter envelope:
        // noised obstacle boxes are jittered *relative* to the ego, so a
        // spawn that only clears nominally can read as a frame-0
        // collision to the planner. Inflating each obstacle by the
        // worst-case translation plus its heading-jitter arc covers
        // every pose the noise can report. Zeroing `noise_scale` only
        // weakens this check, so the shrinker still terminates.
        if self.noise_scale > 0.0 {
            let hard = NoiseConfig::hard();
            let k = self.noise_scale.clamp(0.0, 1.0);
            let d_pos = NOISE_ENVELOPE_SIGMA * hard.box_jitter * k;
            let d_theta = NOISE_ENVELOPE_SIGMA * hard.heading_jitter * k;
            for o in &footprints {
                let slack = d_pos + o.circumradius() * d_theta;
                if o.inflated(slack).intersects(&fp) {
                    return Err(InvalidScenario::SpawnBlocked);
                }
            }
        }

        // sampled statics must stay out of the slot approach corridor;
        // structural obstacles (framing cars, stub walls, …) legitimately
        // touch it by construction
        let corridor = slot_corridor(&map, self.family);
        let n_fixed = scenario
            .obstacles
            .iter()
            .filter(|o| !o.is_dynamic())
            .count();
        for o in footprints.iter().take(self.statics.len().min(n_fixed)) {
            if corridor.intersects(&o.aabb()) {
                return Err(InvalidScenario::CorridorBlocked);
            }
        }

        // routes stay inside the lot (body inset by the vehicle half-diagonal)
        let inset = 2.0;
        let interior = Aabb::new(
            bounds.min + Vec2::new(inset, inset),
            bounds.max - Vec2::new(inset, inset),
        );
        for r in &self.routes {
            if r.waypoints.len() < 2 || r.speed <= 0.0 {
                return Err(InvalidScenario::RouteOutsideLot);
            }
            if r.waypoints.iter().any(|w| !interior.contains(*w)) {
                return Err(InvalidScenario::RouteOutsideLot);
            }
        }

        // coarse reachability: BFS over a grid with statics inflated by
        // the vehicle half-width; dynamics are ignored (they move away)
        let statics: Vec<Obb> = footprints.iter().take(n_fixed).copied().collect();
        let approach = approach_point(&map, self.family, &corridor);
        if !grid_reachable(&map, &statics, self.start.position(), approach, &params) {
            return Err(InvalidScenario::SlotUnreachable);
        }
        Ok(())
    }
}

fn spawn_region(lot_w: f64, lot_h: f64) -> Aabb {
    Aabb::new(
        Vec2::new(2.0, 3.0),
        Vec2::new((0.28 * lot_w).max(5.0), lot_h - 3.0),
    )
}

fn bay_center_reverse_in(lot_h: f64, frac: f64) -> f64 {
    let margin = BAY_WIDTH * 0.5 + 1.6;
    margin + frac * (lot_h - 2.0 * margin)
}

fn bay_center_parallel(lot_w: f64, frac: f64) -> f64 {
    // leave room for the framing cars on both sides
    let margin = CURB_GAP * 0.5 + 5.2;
    margin + frac * (lot_w - 2.0 * margin)
}

/// The region in front of the slot that must stay clear of sampled
/// statics so the approach maneuver has room.
fn slot_corridor(map: &ParkingMap, family: MapFamily) -> Aabb {
    let bay = map.bay().center;
    match family {
        MapFamily::ParallelCurb => Aabb::new(
            Vec2::new(bay.x - 8.5, bay.y - 4.5),
            Vec2::new(bay.x + 8.5, map.bounds().max.y),
        ),
        MapFamily::AngledEchelon(EchelonParams { angle }) => {
            // the angled bay sweeps a taller mouth than the straight one
            let half_h = 2.8 + 1.5 * angle.sin().abs();
            Aabb::new(
                Vec2::new(bay.x - 6.2, bay.y - half_h),
                Vec2::new(map.bounds().max.x, bay.y + half_h),
            )
        }
        MapFamily::ReverseIn
        | MapFamily::PillaredGarage(_)
        | MapFamily::DeadEndStub(_)
        | MapFamily::CrowdedLot(_) => Aabb::new(
            Vec2::new(bay.x - 5.8, bay.y - 2.8),
            Vec2::new(map.bounds().max.x, bay.y + 2.8),
        ),
    }
}

/// Where the reachability BFS must arrive. For the dead-end stub the
/// corridor center can land past the stub mouth, so the target sits
/// inside the walled corridor itself.
fn approach_point(map: &ParkingMap, family: MapFamily, corridor: &Aabb) -> Vec2 {
    match family {
        MapFamily::DeadEndStub(StubParams { corridor_len, .. }) => {
            let bay = map.bay();
            let mouth_x = bay.center.x - BAY_DEPTH * 0.5;
            Vec2::new(mouth_x - corridor_len * 0.5, bay.center.y)
        }
        _ => corridor.center(),
    }
}

/// Coarse grid-BFS drivability check from `from` to `to`.
fn grid_reachable(
    map: &ParkingMap,
    statics: &[Obb],
    from: Vec2,
    to: Vec2,
    params: &VehicleParams,
) -> bool {
    let mut grid = OccupancyGrid::covering(&map.bounds(), REACH_RESOLUTION);
    let inflation = params.width * 0.5 + 0.1;
    let (cols, rows) = (grid.cols(), grid.rows());
    for r in 0..rows {
        for c in 0..cols {
            let cell = icoil_geom::Cell {
                col: c as i64,
                row: r as i64,
            };
            let p = grid.cell_to_world(cell);
            let blocked = statics.iter().any(|o| o.distance_to_point(p) < inflation)
                || p.x < map.bounds().min.x + inflation
                || p.y < map.bounds().min.y + inflation
                || p.x > map.bounds().max.x - inflation
                || p.y > map.bounds().max.y - inflation;
            if blocked {
                grid.set(cell, 255);
            }
        }
    }
    let start = grid.world_to_cell(from);
    let goal = grid.world_to_cell(to);
    if !grid.in_bounds(start) || !grid.in_bounds(goal) {
        return false;
    }
    // the goal cell may fall inside the (recessed) bay clearance band;
    // accept reaching any cell within one resolution step of it
    let mut queue = std::collections::VecDeque::new();
    let mut seen = vec![false; cols * rows];
    let idx = |c: icoil_geom::Cell| c.row as usize * cols + c.col as usize;
    if grid.is_occupied(start, 128) {
        return false;
    }
    queue.push_back(start);
    seen[idx(start)] = true;
    while let Some(cell) = queue.pop_front() {
        if (cell.col - goal.col).abs() <= 1 && (cell.row - goal.row).abs() <= 1 {
            return true;
        }
        for (dc, dr) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
            let next = icoil_geom::Cell {
                col: cell.col + dc,
                row: cell.row + dr,
            };
            if !grid.in_bounds(next) || grid.is_occupied(next, 128) {
                continue;
            }
            let i = idx(next);
            if !seen[i] {
                seen[i] = true;
                queue.push_back(next);
            }
        }
    }
    false
}

/// The seeded lot composer.
#[derive(Debug, Clone)]
pub struct ProcGen {
    config: ProcGenConfig,
}

impl ProcGen {
    /// Creates a generator with the given sampling ranges.
    pub fn new(config: ProcGenConfig) -> Self {
        ProcGen { config }
    }

    /// The sampling configuration.
    pub fn config(&self) -> &ProcGenConfig {
        &self.config
    }

    /// Generates a valid scenario spec for `seed`.
    ///
    /// Candidates are sampled from seeds derived from `(seed, attempt)`
    /// and the first one passing [`ProcScenario::validity`] is returned —
    /// deterministic for a given seed. After 64 failed attempts the
    /// obstacle-free fallback lot for the pinned family (always valid)
    /// is returned.
    pub fn generate(&self, seed: u64) -> ProcScenario {
        for attempt in 0..64u64 {
            let mut spec = self.sample(seed, attempt);
            if spec.validity().is_ok() {
                spec.seed = seed;
                return spec;
            }
        }
        let kind = self.config.family.unwrap_or(MapFamilyKind::ReverseIn);
        let fallback = fallback_spec(seed, kind);
        debug_assert!(fallback.validity().is_ok());
        fallback
    }

    /// One unchecked candidate draw.
    fn sample(&self, seed: u64, attempt: u64) -> ProcScenario {
        let c = &self.config;
        let mut rng = SmallRng::seed_from_u64(seed ^ attempt.wrapping_mul(0x9e3779b97f4a7c15));
        let mut lot_w = rng.gen_range(c.lot_width.0..c.lot_width.1);
        let mut lot_h = rng.gen_range(c.lot_height.0..c.lot_height.1);
        let kind = match c.family {
            Some(kind) => kind,
            None => {
                let mix: &[MapFamilyKind] = if c.allow_parallel {
                    &MapFamilyKind::ALL
                } else {
                    &[
                        MapFamilyKind::ReverseIn,
                        MapFamilyKind::AngledEchelon,
                        MapFamilyKind::PillaredGarage,
                        MapFamilyKind::DeadEndStub,
                        MapFamilyKind::CrowdedLot,
                    ]
                };
                mix[rng.gen_range(0..mix.len())]
            }
        };
        // family parameters are drawn unconditionally so the stream of
        // downstream draws (obstacles, start, noise) is family-independent
        let angle = rng.gen_range(0.35..0.95);
        let pitch = rng.gen_range(4.5..6.5);
        let pillar = rng.gen_range(0.45..0.9);
        let corridor_w = rng.gen_range(3.6..4.8);
        let corridor_len = rng.gen_range(5.5..9.0);
        let row_gap = rng.gen_range(5.4..6.8);
        // per-family lot clamps keep the sampled geometry plausible
        let family = match kind {
            MapFamilyKind::ReverseIn => MapFamily::ReverseIn,
            MapFamilyKind::ParallelCurb => {
                if lot_w < 2.0 * (CURB_GAP * 0.5 + 5.2) + 1.0 {
                    // lot too narrow for the curb gap plus framing cars
                    MapFamily::ReverseIn
                } else {
                    MapFamily::ParallelCurb
                }
            }
            MapFamilyKind::AngledEchelon => MapFamily::AngledEchelon(EchelonParams { angle }),
            MapFamilyKind::PillaredGarage => {
                lot_w = lot_w.max(26.0);
                MapFamily::PillaredGarage(GarageParams { pitch, pillar })
            }
            MapFamilyKind::DeadEndStub => {
                lot_w = lot_w.max(24.0);
                MapFamily::DeadEndStub(StubParams {
                    corridor_w,
                    corridor_len,
                })
            }
            MapFamilyKind::CrowdedLot => {
                lot_h = lot_h.max(16.0);
                MapFamily::CrowdedLot(CrowdedParams { row_gap })
            }
        };
        let bay_frac = rng.gen_range(0.0..1.0);

        let spec_wo_obstacles = ProcScenario {
            seed,
            lot_w,
            lot_h,
            family,
            bay_frac,
            statics: Vec::new(),
            routes: Vec::new(),
            start: Pose2::new(0.0, 0.0, 0.0),
            noise_scale: 0.0,
        };
        let map = spec_wo_obstacles.map();
        let corridor = slot_corridor(&map, family);
        let bounds = map.bounds();

        // statics in the mid-lot band, clear of the corridor and each other
        let n_static = rng.gen_range(c.n_static.0..=c.n_static.1);
        let band = Aabb::new(
            Vec2::new(bounds.min.x + 0.3 * lot_w, bounds.min.y + 2.0),
            Vec2::new(bounds.min.x + 0.78 * lot_w, bounds.max.y - 2.0),
        );
        let mut statics: Vec<StaticSpec> = Vec::new();
        let mut tries = 0;
        while statics.len() < n_static && tries < 400 {
            tries += 1;
            let pose = Pose2::new(
                rng.gen_range(band.min.x..band.max.x),
                rng.gen_range(band.min.y..band.max.y),
                rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
            );
            let length = rng.gen_range(1.8..3.2);
            let width = rng.gen_range(1.8..3.2);
            let obb = Obb::from_pose(pose, length, width);
            if corridor.intersects(&obb.aabb()) {
                continue;
            }
            if statics
                .iter()
                .any(|s| Obb::from_pose(s.pose, s.length, s.width).distance_to_obb(&obb) < 2.4)
            {
                continue;
            }
            statics.push(StaticSpec {
                pose,
                length,
                width,
            });
        }

        // dynamic patrols: straight two-point routes in the interior;
        // the crowded lot always ships at least one scripted agent
        let n_dynamic_min = if kind == MapFamilyKind::CrowdedLot {
            c.n_dynamic.0.max(1)
        } else {
            c.n_dynamic.0
        };
        let n_dynamic = rng.gen_range(n_dynamic_min..=c.n_dynamic.1.max(n_dynamic_min));
        let mut routes = Vec::new();
        for _ in 0..n_dynamic {
            let vertical = rng.gen_range(0.0..1.0) < 0.5;
            let (a, b) = if vertical {
                let x = rng.gen_range(bounds.min.x + 0.3 * lot_w..bounds.min.x + 0.7 * lot_w);
                (
                    Vec2::new(x, bounds.min.y + rng.gen_range(2.2..3.5)),
                    Vec2::new(x, bounds.max.y - rng.gen_range(2.2..3.5)),
                )
            } else {
                let y = rng.gen_range(bounds.min.y + 0.3 * lot_h..bounds.min.y + 0.7 * lot_h);
                (
                    Vec2::new(bounds.min.x + rng.gen_range(2.2..3.5), y),
                    Vec2::new(bounds.min.x + 0.75 * lot_w, y),
                )
            };
            routes.push(RouteSpec {
                waypoints: vec![a, b],
                speed: rng.gen_range(0.4..1.0),
            });
        }

        // start pose in the spawn strip, roughly facing the lot interior
        let spawn = spawn_region(lot_w, lot_h);
        let start = Pose2::new(
            rng.gen_range(spawn.min.x..spawn.max.x),
            rng.gen_range(spawn.min.y..spawn.max.y),
            rng.gen_range(-0.5..0.5),
        );

        let noise_scale = if rng.gen_range(0.0..1.0) < c.noise_prob {
            rng.gen_range(0.1..1.0)
        } else {
            0.0
        };

        ProcScenario {
            seed,
            lot_w,
            lot_h,
            family,
            bay_frac,
            statics,
            routes,
            start,
            noise_scale,
        }
    }
}

impl Default for ProcGen {
    fn default() -> Self {
        ProcGen::new(ProcGenConfig::default())
    }
}

/// The canonical always-valid spec for a family — the generator's
/// fallback when 64 sampled candidates all fail validity.
fn fallback_spec(seed: u64, kind: MapFamilyKind) -> ProcScenario {
    let family = MapFamily::canonical(kind);
    let (lot_w, lot_h) = (30.0, 20.0);
    let start_y = match family {
        MapFamily::ParallelCurb => 7.0,
        _ => bay_center_reverse_in(lot_h, 0.5),
    };
    let routes = match family {
        // the crowded lot's family contract includes a scripted agent
        MapFamily::CrowdedLot(_) => vec![RouteSpec {
            waypoints: vec![Vec2::new(17.0, 3.0), Vec2::new(17.0, lot_h - 3.0)],
            speed: 0.6,
        }],
        _ => Vec::new(),
    };
    ProcScenario {
        seed,
        lot_w,
        lot_h,
        family,
        bay_frac: 0.5,
        statics: Vec::new(),
        routes,
        start: Pose2::new(5.0, start_y, 0.0),
        noise_scale: 0.0,
    }
}

/// Deterministically minimizes a failing spec.
///
/// `still_failing` must return `true` while the property under test still
/// fails for a candidate. The shrinker greedily applies simplifications —
/// drop a dynamic route, drop a static obstacle, zero the noise, snap the
/// lot, slot and family parameters to canonical values, center the start
/// pose — keeping each one only when the candidate is still *valid* and
/// still failing, and repeats until a fixpoint. The family's kind never
/// changes, so the minimized repro stays in the family that found the
/// failure. The result reproduces the failure with the fewest moving
/// parts.
pub fn shrink<F>(spec: &ProcScenario, mut still_failing: F) -> ProcScenario
where
    F: FnMut(&ProcScenario) -> bool,
{
    let mut current = spec.clone();
    let accepts = |cand: &ProcScenario, f: &mut F| cand.validity().is_ok() && f(cand);
    for _pass in 0..8 {
        let mut changed = false;

        // drop dynamic routes, last first (stable indices)
        let mut i = current.routes.len();
        while i > 0 {
            i -= 1;
            let mut cand = current.clone();
            cand.routes.remove(i);
            if accepts(&cand, &mut still_failing) {
                current = cand;
                changed = true;
            }
        }

        // drop static obstacles
        let mut i = current.statics.len();
        while i > 0 {
            i -= 1;
            let mut cand = current.clone();
            cand.statics.remove(i);
            if accepts(&cand, &mut still_failing) {
                current = cand;
                changed = true;
            }
        }

        // zero the sensing noise
        if current.noise_scale > 0.0 {
            let mut cand = current.clone();
            cand.noise_scale = 0.0;
            if accepts(&cand, &mut still_failing) {
                current = cand;
                changed = true;
            }
        }

        // snap geometry to canonical values, one knob at a time
        let snaps: [fn(&mut ProcScenario); 5] = [
            |c| c.lot_w = 30.0,
            |c| c.lot_h = 20.0,
            |c| c.bay_frac = 0.5,
            |c| c.family = MapFamily::canonical(c.family.kind()),
            |c| {
                let center = spawn_region(c.lot_w, c.lot_h).center();
                c.start = Pose2::new(center.x, center.y, 0.0);
            },
        ];
        for snap in snaps {
            let mut cand = current.clone();
            snap(&mut cand);
            if cand != current && accepts(&cand, &mut still_failing) {
                current = cand;
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        let gen = ProcGen::default();
        for seed in 0..40 {
            let a = gen.generate(seed);
            let b = gen.generate(seed);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(a.validity(), Ok(()), "seed {seed}");
            assert_eq!(a.build(), b.build(), "seed {seed}");
        }
    }

    #[test]
    fn seeds_explore_the_space() {
        let gen = ProcGen::default();
        let specs: Vec<ProcScenario> = (0..120).map(|s| gen.generate(s)).collect();
        let widths: std::collections::BTreeSet<u64> =
            specs.iter().map(|s| s.lot_w as u64).collect();
        assert!(widths.len() > 5, "lot widths barely vary: {widths:?}");
        let kinds: std::collections::BTreeSet<&str> =
            specs.iter().map(|s| s.family.kind().name()).collect();
        assert!(kinds.len() >= 5, "the family mix barely varies: {kinds:?}");
        assert!(specs.iter().any(|s| !s.routes.is_empty()));
        assert!(specs.iter().any(|s| s.noise_scale > 0.0));
        assert!(specs.iter().any(|s| s.statics.len() >= 3));
    }

    #[test]
    fn every_family_generates_when_pinned() {
        for kind in MapFamilyKind::ALL {
            let gen = ProcGen::new(ProcGenConfig {
                family: Some(kind),
                ..ProcGenConfig::default()
            });
            for seed in 0..12 {
                let spec = gen.generate(seed);
                assert_eq!(spec.family.kind(), kind, "seed {seed} kind {kind}");
                assert_eq!(spec.validity(), Ok(()), "seed {seed} kind {kind}");
                let scenario = spec.build();
                let mut world = crate::World::new(scenario);
                assert!(
                    !world.in_collision(),
                    "seed {seed} kind {kind} spawns in collision"
                );
                for _ in 0..10 {
                    world.step(&icoil_vehicle::Action::forward(0.2, 0.0));
                }
            }
        }
    }

    #[test]
    fn fallback_specs_are_valid_for_every_family() {
        for kind in MapFamilyKind::ALL {
            let spec = fallback_spec(9, kind);
            assert_eq!(spec.family.kind(), kind);
            assert_eq!(spec.validity(), Ok(()), "fallback for {kind}");
        }
    }

    #[test]
    fn family_names_round_trip_and_are_stable() {
        let expected = [
            "reverse_in",
            "parallel_curb",
            "angled_echelon",
            "pillared_garage",
            "dead_end_stub",
            "crowded_lot",
        ];
        for (kind, name) in MapFamilyKind::ALL.into_iter().zip(expected) {
            assert_eq!(kind.name(), name);
            assert_eq!(MapFamilyKind::from_name(name), Some(kind));
        }
        assert_eq!(MapFamilyKind::from_name("mocam"), None);
    }

    #[test]
    fn built_scenarios_run_in_the_world() {
        let gen = ProcGen::default();
        for seed in 0..10 {
            let scenario = gen.generate(seed).build();
            let mut world = crate::World::new(scenario);
            assert!(!world.in_collision(), "seed {seed} spawns in collision");
            for _ in 0..20 {
                world.step(&icoil_vehicle::Action::forward(0.2, 0.0));
            }
        }
    }

    #[test]
    fn validity_rejects_blocked_spawn() {
        let gen = ProcGen::default();
        let mut spec = gen.generate(1);
        spec.statics.push(StaticSpec {
            pose: spec.start,
            length: 3.0,
            width: 3.0,
        });
        assert_eq!(spec.validity(), Err(InvalidScenario::SpawnBlocked));
    }

    #[test]
    fn validity_rejects_spawn_blocked_only_under_noise_jitter() {
        // a static that clears the nominal inflated footprint but sits
        // inside the 3σ jitter envelope must be rejected when (and only
        // when) the spec carries sensing noise
        let mut spec = fallback_spec(0, MapFamilyKind::ReverseIn);
        let params = VehicleParams::default();
        let fp = VehicleState::at_rest(spec.start).footprint(&params);
        // place the box ahead of the nose: nominal gap ~0.45 m, inside
        // the full-noise envelope (3 × 0.15 m translation + heading arc)
        let nose_x = fp.aabb().max.x;
        spec.statics.push(StaticSpec {
            pose: Pose2::new(nose_x + 0.75 + 0.45, spec.start.y, 0.0),
            length: 1.5,
            width: 1.5,
        });
        spec.noise_scale = 0.0;
        assert_eq!(spec.validity(), Ok(()), "nominal spawn must clear");
        spec.noise_scale = 1.0;
        assert_eq!(
            spec.validity(),
            Err(InvalidScenario::SpawnBlocked),
            "the jitter envelope must reject the marginal spawn"
        );
    }

    #[test]
    fn validity_rejects_walled_off_slot() {
        let gen = ProcGen::default();
        let mut spec = gen.generate(2);
        spec.statics.clear();
        spec.routes.clear();
        if spec.family.kind() == MapFamilyKind::CrowdedLot {
            spec = fallback_spec(2, MapFamilyKind::ReverseIn);
        }
        assert_eq!(spec.validity(), Ok(()));
        // wall the lot in half between spawn and slot
        let map = spec.map();
        let x = spec.lot_w * 0.5;
        let mut y = 1.0;
        while y < spec.lot_h {
            spec.statics.push(StaticSpec {
                pose: Pose2::new(x, y, 0.0),
                length: 1.5,
                width: 3.4,
            });
            y += 3.0;
        }
        let r = spec.validity();
        assert!(
            r == Err(InvalidScenario::SlotUnreachable)
                || r == Err(InvalidScenario::CorridorBlocked)
                || r == Err(InvalidScenario::SpawnBlocked),
            "a bisected lot must be rejected, got {r:?} (map bounds {:?})",
            map.bounds()
        );
    }

    #[test]
    fn validity_enforces_family_param_ranges() {
        let mut spec = fallback_spec(0, MapFamilyKind::AngledEchelon);
        spec.family = MapFamily::AngledEchelon(EchelonParams { angle: 1.4 });
        assert_eq!(spec.validity(), Err(InvalidScenario::FamilyParamOutOfRange));
        let mut spec = fallback_spec(0, MapFamilyKind::DeadEndStub);
        spec.family = MapFamily::DeadEndStub(StubParams {
            corridor_w: 1.0,
            corridor_len: 7.0,
        });
        assert_eq!(spec.validity(), Err(InvalidScenario::FamilyParamOutOfRange));
    }

    #[test]
    fn crowded_lot_requires_a_dynamic_agent() {
        let mut spec = fallback_spec(0, MapFamilyKind::CrowdedLot);
        assert_eq!(spec.validity(), Ok(()));
        spec.routes.clear();
        assert_eq!(spec.validity(), Err(InvalidScenario::MissingDynamicAgent));
    }

    #[test]
    fn structural_obstacles_match_their_family() {
        // curb gap: exactly two framing cars
        let curb = fallback_spec(0, MapFamilyKind::ParallelCurb);
        assert_eq!(curb.structural_statics().len(), 2);
        // echelon: neighbor cars parked at the bay angle
        let ech = fallback_spec(0, MapFamilyKind::AngledEchelon);
        let neighbors = ech.structural_statics();
        assert!(!neighbors.is_empty());
        for n in &neighbors {
            assert!((n.pose.theta - 0.6).abs() < 1e-12);
        }
        // garage: a pillar grid that stays out of the slot corridor
        let garage = fallback_spec(0, MapFamilyKind::PillaredGarage);
        let pillars = garage.structural_statics();
        assert!(pillars.len() >= 4, "only {} pillars", pillars.len());
        let corridor = slot_corridor(&garage.map(), garage.family);
        for p in &pillars {
            let aabb = Obb::from_pose(p.pose, p.length, p.width).aabb();
            assert!(!corridor.intersects(&aabb));
        }
        // dead-end stub: two walls symmetric about the bay centerline
        let stub = fallback_spec(0, MapFamilyKind::DeadEndStub);
        let walls = stub.structural_statics();
        assert_eq!(walls.len(), 2);
        let bay_y = stub.map().bay().center.y;
        assert!((walls[0].pose.y + walls[1].pose.y - 2.0 * bay_y).abs() < 1e-9);
        // crowded lot: two rows of parked cars
        let crowd = fallback_spec(0, MapFamilyKind::CrowdedLot);
        let cars = crowd.structural_statics();
        assert!(cars.len() >= 6, "only {} parked cars", cars.len());
        let aisle_y = crowd.map().bay().center.y;
        let above = cars.iter().filter(|c| c.pose.y > aisle_y).count();
        assert!(above > 0 && above < cars.len(), "cars on both sides");
    }

    #[test]
    fn shrink_minimizes_to_smallest_failing_form() {
        let gen = ProcGen::default();
        // find a busy spec: several statics plus at least one route
        let spec = (0..200)
            .map(|s| gen.generate(s))
            .find(|s| {
                s.statics.len() >= 3
                    && !s.routes.is_empty()
                    && s.noise_scale > 0.0
                    && s.family.kind() != MapFamilyKind::CrowdedLot
            })
            .expect("a busy spec exists");
        // property that "fails" whenever any dynamic obstacle is present
        let minimized = shrink(&spec, |s| !s.routes.is_empty());
        assert_eq!(minimized.routes.len(), 1, "exactly one route remains");
        assert!(minimized.statics.is_empty(), "statics dropped");
        assert_eq!(minimized.noise_scale, 0.0, "noise dropped");
        assert_eq!(minimized.validity(), Ok(()));
        assert_eq!(minimized.lot_w, 30.0);
        assert_eq!(minimized.lot_h, 20.0);
        assert_eq!(
            minimized.family,
            MapFamily::canonical(spec.family.kind()),
            "family parameters snapped, kind preserved"
        );
    }

    #[test]
    fn shrink_keeps_spec_intact_when_nothing_helps() {
        let gen = ProcGen::default();
        let spec = gen.generate(3);
        // a predicate failing only for the exact original spec
        let orig = spec.clone();
        let out = shrink(&spec, |s| *s == orig);
        assert_eq!(out, orig);
    }

    #[test]
    fn parallel_curb_specs_have_framing_cars() {
        let gen = ProcGen::default();
        let spec = (0..100)
            .map(|s| gen.generate(s))
            .find(|s| s.family == MapFamily::ParallelCurb)
            .expect("a curb spec exists");
        let scenario = spec.build();
        let fixed = scenario
            .obstacles
            .iter()
            .filter(|o| !o.is_dynamic())
            .count();
        assert_eq!(fixed, spec.statics.len() + 2);
        let goal = scenario.map.goal_pose();
        for o in &scenario.obstacles {
            assert!(!o.footprint_at(0.0).contains(goal.position()));
        }
    }

    #[test]
    fn noise_scale_interpolates_the_hard_profile() {
        let gen = ProcGen::default();
        let mut spec = gen.generate(0);
        spec.noise_scale = 0.0;
        assert!(spec.build().noise.is_none());
        spec.noise_scale = 1.0;
        // full-tier noise may push the (previously marginal) spawn into
        // the jitter envelope; only the noise interpolation is under test
        assert_eq!(spec.build().noise, NoiseConfig::hard());
        spec.noise_scale = 0.5;
        let n = spec.build().noise;
        assert!((n.box_jitter - NoiseConfig::hard().box_jitter * 0.5).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Regression for the noised-spawn fix: every spec the generator
        /// returns keeps its spawn clear under any obstacle perturbation
        /// inside the noise envelope, not just nominally.
        #[test]
        fn generated_spawns_clear_the_noise_envelope(
            seed in 0u64..600,
            dx in -1.0f64..1.0,
            dy in -1.0f64..1.0,
            dth in -1.0f64..1.0,
        ) {
            let gen = ProcGen::default();
            let spec = gen.generate(seed);
            if spec.noise_scale == 0.0 {
                // clean spec: the envelope property is vacuous
                return Ok(());
            }
            let hard = NoiseConfig::hard();
            let d_pos = NOISE_ENVELOPE_SIGMA * hard.box_jitter * spec.noise_scale;
            let d_theta = NOISE_ENVELOPE_SIGMA * hard.heading_jitter * spec.noise_scale;
            let scenario = spec.build();
            let params = VehicleParams::default();
            let fp = scenario.start_state.footprint(&params).inflated(0.3);
            for o in scenario.obstacles.iter().map(|o| o.footprint_at(0.0)) {
                // perturb the obstacle as jittered perception would
                // report it (translation scaled inside the disc bound)
                let scale = d_pos / 2f64.sqrt();
                let mut moved = o;
                moved.center = o.center + Vec2::new(dx * scale, dy * scale);
                moved.theta += dth * d_theta;
                prop_assert!(
                    !moved.intersects(&fp),
                    "seed {seed}: jittered obstacle overlaps the spawn"
                );
            }
        }

        /// The shrinker terminates and preserves validity + family kind
        /// with the noised-spawn check active.
        #[test]
        fn shrink_preserves_validity_under_noise(seed in 0u64..200) {
            let gen = ProcGen::default();
            let spec = gen.generate(seed);
            let kind = spec.family.kind();
            let minimized = shrink(&spec, |_| true);
            prop_assert_eq!(minimized.validity(), Ok(()));
            prop_assert_eq!(minimized.family.kind(), kind);
        }
    }
}
