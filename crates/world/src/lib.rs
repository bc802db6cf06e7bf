//! Deterministic 2-D parking simulator — the MoCAM/CARLA substitute.
//!
//! The paper evaluates iCOIL on the Macao Car Racing Metaverse (MoCAM), a
//! CARLA-based digital twin. This crate provides the equivalent substrate
//! as a deterministic, seedable 2-D kinematic world:
//!
//! * [`ParkingMap`] — the Fig. 4 lot: spawn region, goal bay, walls;
//! * [`Obstacle`] — static boxes and waypoint-looping dynamic vehicles;
//! * [`Scenario`] / [`Difficulty`] — easy / normal / hard task generation
//!   (§V-B), plus the start-region and obstacle-count sweeps of §V-E;
//! * [`World`] — frame-by-frame stepping with collision and goal tests;
//! * [`episode`] — the policy interface and episode runner producing
//!   per-frame traces for the figures;
//! * [`metrics`] — success-rate and parking-time aggregation for Table II.
//!
//! Determinism: everything is a pure function of the scenario seed, so any
//! experiment row can be regenerated exactly.
//!
//! # Example
//!
//! ```
//! use icoil_world::{Difficulty, ScenarioConfig, World};
//! use icoil_world::episode::{run_episode, EpisodeConfig, Decision, Policy};
//! use icoil_vehicle::Action;
//!
//! /// A policy that just brakes — times out without crashing.
//! struct Brake;
//! impl Policy for Brake {
//!     fn decide(&mut self, _obs: &icoil_world::episode::Observation) -> Decision {
//!         Decision::plain(Action::full_brake())
//!     }
//! }
//!
//! let scenario = ScenarioConfig::new(Difficulty::Easy, 7).build();
//! let mut world = World::new(scenario);
//! let result = run_episode(
//!     &mut world,
//!     &mut Brake,
//!     &EpisodeConfig { max_time: 2.0, ..Default::default() },
//! );
//! assert!(!result.is_success());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod episode;
pub mod maneuver;
pub mod map;
pub mod metrics;
pub mod obstacle;
pub mod persist;
pub mod procedural;
pub mod render;
pub mod scenario;
pub mod world;

pub use episode::{run_episode, EpisodeConfig, EpisodeResult, ModeTag, Outcome};
pub use maneuver::{classify_maneuver, gear_reversals, Maneuver};
pub use map::ParkingMap;
pub use metrics::{success_rate, ParkingStats};
pub use obstacle::{DynamicRoute, Obstacle, ObstacleKind};
pub use persist::EpisodeRecord;
pub use procedural::{
    shrink, CrowdedParams, EchelonParams, GarageParams, InvalidScenario, MapFamily, MapFamilyKind,
    ProcGen, ProcGenConfig, ProcScenario, RouteSpec, StaticSpec, StubParams,
};
pub use render::{render_trace, AsciiCanvas};
pub use scenario::{Difficulty, MapKind, NoiseConfig, Scenario, ScenarioConfig, StartRegion};
pub use world::{CollisionCause, World};
