//! The constrained-optimization (CO) module `f_CO` of iCOIL (§IV-B).
//!
//! Per frame, the CO module:
//!
//! 1. maintains a global reference path to the parking bay (hybrid A*
//!    over the detected static boxes, re-planned when the vehicle strays
//!    or the path gets blocked);
//! 2. samples reference waypoints `{s*}` ahead of the vehicle along that
//!    path, with a speed profile that slows into cusps and the goal;
//! 3. solves the finite-horizon constrained optimization problem (6):
//!    minimize the waypoint-tracking cost (4) subject to action bounds
//!    and linearized collision-avoidance constraints (5), by sequential
//!    convexification — each convex subproblem is a QP handed to
//!    `icoil-solver` (the CVXPY stand-in);
//! 4. converts the first optimal control into a CARLA-style
//!    throttle/brake/steer/reverse [`Action`].
//!
//! [`Action`]: icoil_vehicle::Action
//!
//! # Example
//!
//! ```
//! use icoil_co::{CoConfig, CoController};
//! use icoil_world::{Difficulty, ScenarioConfig, World};
//! use icoil_world::episode::Observation;
//!
//! let scenario = ScenarioConfig::new(Difficulty::Easy, 2).build();
//! let mut world = World::new(scenario);
//! let mut co = CoController::new(CoConfig::default(), *world.vehicle_params());
//! let out = co.control(&Observation::new(&world), &world.obstacle_footprints());
//! assert!(out.action.validate().is_ok());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod controller;
pub mod mpc;
pub mod reference;
pub mod tracker;

pub use config::CoConfig;
pub use controller::{CoController, CoOutput, CoSnapshot, SolveRecord};
pub use mpc::{
    build_mpc_qp, solve_mpc, solve_mpc_warm, MpcMemory, MpcMemorySnapshot, MpcSolution, MpcStatus,
    RefState, MPC_QP_MAX_ITERS, MPC_REPLAN_VIOLATION,
};
pub use tracker::{BoxTracker, MovingObstacle};
