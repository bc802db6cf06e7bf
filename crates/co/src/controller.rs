//! The per-frame CO controller: global path + MPC + action conversion.

use crate::config::CoConfig;
use crate::mpc::{solve_mpc_warm, MpcMemory, MpcMemorySnapshot, MpcSolution, MpcStatus, RefState};
use crate::reference::{build_reference_at, PathWalker};
use crate::tracker::{BoxTracker, MovingObstacle};
use icoil_geom::Obb;
use icoil_planner::{plan, PlanError, PlannedPath, PlannerConfig, PlanningProblem};
use icoil_vehicle::{Action, VehicleParams, VehicleState};
use icoil_world::episode::Observation;
use serde::{Deserialize, Serialize};

/// What the CO module returns each frame.
#[derive(Debug, Clone)]
pub struct CoOutput {
    /// The control command to execute.
    pub action: Action,
    /// The underlying MPC solution (when a solve ran this frame).
    pub mpc: Option<MpcSolution>,
    /// `true` when the controller fell back to an emergency brake
    /// (no path, or planner failure).
    pub emergency: bool,
    /// `true` when the MPC solve ended in a numerical error and the
    /// controller degraded to the safe braking action instead of driving
    /// the (unusable) solution.
    pub degraded: bool,
}

impl CoOutput {
    /// The degraded full-brake response, produced without running any
    /// solve: what the serving layer returns when a CO request is shed
    /// (queue full or deadline expired) — the same safe shape the
    /// controller itself degrades to after a numerical failure.
    pub fn degraded_brake() -> Self {
        CoOutput {
            action: Action::full_brake(),
            mpc: None,
            emergency: false,
            degraded: true,
        }
    }
}

/// One MPC solve as it happened in an episode: the exact inputs plus the
/// warm-started solution, captured by [`CoController::enable_solve_log`].
///
/// Re-solving the recorded inputs through [`crate::solve_mpc`] (the cold
/// path) and comparing against `warm` reproduces the warm-vs-cold
/// question outside the closed loop — the hook behind conformance
/// checking, where comparing *episodes* would compound per-frame
/// differences through the plant dynamics. Logging the solution (rather
/// than replaying a warm chain offline) keeps the production memory
/// lifecycle — including resets at replan boundaries — authoritative.
#[derive(Debug, Clone)]
pub struct SolveRecord {
    /// Ego state at the solve.
    pub state: VehicleState,
    /// Reference horizon handed to the MPC.
    pub reference: Vec<RefState>,
    /// Tracked obstacles with velocity estimates.
    pub tracked: Vec<MovingObstacle>,
    /// The warm-started solution the episode actually used.
    pub warm: MpcSolution,
}

/// The CO working mode `f_CO`: hybrid-A* reference path + SCP MPC.
///
/// The controller is stateful: it owns the global path and replans it
/// when the vehicle strays too far or planning is requested again via
/// [`CoController::reset`].
#[derive(Debug, Clone)]
pub struct CoController {
    config: CoConfig,
    params: VehicleParams,
    path: Option<PlannedPath>,
    walker: Option<PathWalker>,
    frames_since_replan: usize,
    /// Monotone arc-length progress along the current path; keeps the
    /// reference from flip-flopping between branches at gear-change
    /// cusps, where poses of both branches overlap spatially.
    progress: f64,
    /// Frames since the path progress last advanced; a large count means
    /// the MPC has wedged (possibly while wiggling in place) and the
    /// global path must be re-planned from the current pose.
    stalled_frames: usize,
    /// Progress value at the last advance, for stall detection.
    last_progress: f64,
    /// Frame-to-frame box tracker feeding obstacle predictions to the
    /// MPC's time-indexed collision constraints.
    tracker: BoxTracker,
    /// Warm-start state carried between MPC frames (previous solution,
    /// QP iterate, solver workspace). Cleared on replans, where the
    /// reference — and with it the previous solution's meaning — jumps.
    memory: MpcMemory,
    /// When `Some`, every MPC solve (inputs + solution) is appended here.
    solve_log: Option<Vec<SolveRecord>>,
}

/// Serializable image of a [`CoController`]'s episode state for session
/// checkpoints.
///
/// Everything the controller carries between frames is here except the
/// [`PathWalker`] (a pure arc-length index over `path`, rebuilt on
/// restore) and the conformance solve log (a diagnostic probe, never
/// enabled on served sessions). Restoring via
/// [`CoController::restore`] onto a fresh controller with the same
/// config and vehicle params replays subsequent frames bit-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoSnapshot {
    /// Current global path; the walker is rebuilt from it on restore.
    pub path: Option<PlannedPath>,
    /// Frames since the last (re)plan (replan-cooldown state).
    pub frames_since_replan: usize,
    /// Monotone arc-length progress along the path.
    pub progress: f64,
    /// Frames since the path progress last advanced.
    pub stalled_frames: usize,
    /// Progress value at the last advance.
    pub last_progress: f64,
    /// Frame-to-frame box tracker state (track identity + velocity EMAs).
    pub tracker: BoxTracker,
    /// MPC warm-start memory.
    pub memory: MpcMemorySnapshot,
}

impl CoController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics for an invalid configuration.
    pub fn new(config: CoConfig, params: VehicleParams) -> Self {
        config.validate().expect("valid CO config");
        CoController {
            config,
            params,
            path: None,
            walker: None,
            frames_since_replan: 0,
            progress: 0.0,
            stalled_frames: 0,
            last_progress: 0.0,
            tracker: BoxTracker::new(),
            memory: MpcMemory::new(),
            solve_log: None,
        }
    }

    /// Starts recording every MPC solve (conformance probe).
    pub fn enable_solve_log(&mut self) {
        self.solve_log = Some(Vec::new());
    }

    /// Drains the recorded solves (empty when logging is off).
    pub fn take_solve_log(&mut self) -> Vec<SolveRecord> {
        match self.solve_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoConfig {
        &self.config
    }

    /// Drops the cached path (start of a new episode).
    pub fn reset(&mut self) {
        self.path = None;
        self.walker = None;
        self.frames_since_replan = 0;
        self.progress = 0.0;
        self.stalled_frames = 0;
        self.last_progress = 0.0;
        self.tracker.reset();
        self.memory.reset();
    }

    /// Drops only the carried MPC warm start; the next frame solves cold.
    pub fn reset_warm_start(&mut self) {
        self.memory.reset();
    }

    /// Captures the controller's complete episode state (see
    /// [`CoSnapshot`]).
    pub fn snapshot(&self) -> CoSnapshot {
        CoSnapshot {
            path: self.path.clone(),
            frames_since_replan: self.frames_since_replan,
            progress: self.progress,
            stalled_frames: self.stalled_frames,
            last_progress: self.last_progress,
            tracker: self.tracker.clone(),
            memory: self.memory.snapshot(),
        }
    }

    /// Restores episode state from a checkpoint, rebuilding the path
    /// walker. The controller's config and vehicle params are unchanged —
    /// they must match those active when the snapshot was taken for the
    /// replay to be bit-identical.
    pub fn restore(&mut self, snap: &CoSnapshot) {
        self.path = snap.path.clone();
        self.walker = snap.path.as_ref().map(PathWalker::new);
        self.frames_since_replan = snap.frames_since_replan;
        self.progress = snap.progress;
        self.stalled_frames = snap.stalled_frames;
        self.last_progress = snap.last_progress;
        self.tracker = snap.tracker.clone();
        self.memory = MpcMemory::from_snapshot(&snap.memory);
        self.solve_log = None;
    }

    /// The current global path, if planned.
    pub fn path(&self) -> Option<&PlannedPath> {
        self.path.as_ref()
    }

    /// Plans (or re-plans) the global path around the given boxes.
    ///
    /// # Errors
    ///
    /// Propagates the planner error when no path exists.
    pub fn plan_path(&mut self, obs: &Observation, boxes: &[Obb]) -> Result<(), PlanError> {
        let world = obs.world();
        // Escalating margins: prefer a comfortable path, but accept a
        // tight one rather than none (e.g. when re-planning from a pose
        // wedged close to an obstacle).
        let mut last_err = PlanError::NoPathFound;
        // every rung stays at or above the MPC's own collision margin:
        // a path the MPC cannot legally follow is worse than no path
        // (the unstick behaviour handles the no-path case)
        for margin in [0.4, 0.3, 0.22] {
            let problem = PlanningProblem {
                start: obs.ego().pose,
                goal: world.map().goal_pose(),
                bounds: world.map().bounds(),
                obstacles: boxes,
                vehicle: &self.params,
                safety_margin: margin,
            };
            match plan(&problem, &PlannerConfig::default()) {
                Ok(path) => {
                    self.walker = Some(PathWalker::new(&path));
                    self.path = Some(path);
                    self.frames_since_replan = 0;
                    self.progress = 0.0;
                    self.stalled_frames = 0;
                    self.memory.reset();
                    return Ok(());
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Computes the control for the current frame from the detected
    /// boxes `z_i` (eq. 6's `f_CO(z_i)`).
    ///
    /// Tracked-static obstacles enter global path planning; everything
    /// (with velocity predictions) enters the MPC constraints — the path
    /// routes around the static scene, the MPC dodges whatever moves.
    pub fn control(&mut self, obs: &Observation, boxes: &[Obb]) -> CoOutput {
        match self.prepare(obs, boxes) {
            Prepared::Early(out) => out,
            Prepared::Solve {
                state,
                reference,
                tracked,
            } => {
                let mpc = solve_mpc_warm(
                    &state,
                    &reference,
                    &tracked,
                    &self.params,
                    &self.config,
                    &mut self.memory,
                );
                self.finish_solve(state, reference, tracked, mpc)
            }
        }
    }

    /// The pre-solve half of [`control`](CoController::control): tracking,
    /// stall detection, (re)planning and reference building. Returns
    /// either an early (no-solve) output or the assembled MPC inputs.
    fn prepare(&mut self, obs: &Observation, boxes: &[Obb]) -> Prepared {
        let ego = obs.ego();
        self.frames_since_replan += 1;

        // track detections and split the scene: slow boxes are part of
        // the static world (global planning); everything feeds the MPC
        // with its velocity estimate
        let tracked = self.tracker.update(boxes, obs.dt().max(1e-3));
        let static_boxes: Vec<Obb> = tracked
            .iter()
            .filter(|m| m.is_static(0.3))
            .map(|m| m.obb)
            .collect();

        // stall detection: no arc-length progress for several seconds
        // (standing still *or* wiggling in place) means the MPC is
        // wedged against a constraint the old path ran too close to.
        // Arriving at the path end misaligned counts too: a fresh plan
        // from the crooked pose yields the correction shuffle.
        let remaining = self
            .walker
            .as_ref()
            .map(|w| w.total() - self.progress)
            .unwrap_or(f64::INFINITY);
        let misaligned_at_end =
            self.path
                .as_ref()
                .and_then(|p| p.poses.last())
                .is_some_and(|end| {
                    remaining <= 0.5
                        && (ego.pose.heading_error(end) > 0.12 || ego.pose.distance(end) > 0.25)
                });
        if self.progress > self.last_progress + 0.2 {
            self.last_progress = self.progress;
            self.stalled_frames = 0;
        } else if (remaining > 0.5 || misaligned_at_end) && self.path.is_some() {
            self.stalled_frames += 1;
        }
        let stall_fuse = if misaligned_at_end { 25 } else { 100 };
        let stalled = self.stalled_frames > stall_fuse
            && self.frames_since_replan > self.config.replan_cooldown;

        // (re)plan the global path when missing, stale or wedged
        let needs_plan = stalled
            || match (&self.path, &self.walker) {
                (Some(path), Some(_)) => {
                    let dev = path.polyline().distance_to_point(ego.pose.position());
                    dev > self.config.replan_deviation
                        && self.frames_since_replan > self.config.replan_cooldown
                }
                _ => true,
            };
        if needs_plan {
            // plan around *static* scene only: boxes that are not moving
            // are indistinguishable from moving ones in a single frame, so
            // use all current boxes — replans are rate-limited anyway.
            if self.plan_path(obs, &static_boxes).is_err() {
                // No path even at the tightest margin — typically the
                // ego is wedged against an obstacle. Creep away from the
                // nearest box to restore clearance, then replan.
                return Prepared::Early(CoOutput {
                    action: unstick_action(&ego, boxes),
                    mpc: None,
                    emergency: true,
                    degraded: false,
                });
            }
        }
        let (path, walker) = match (&self.path, &self.walker) {
            (Some(p), Some(w)) => (p, w),
            _ => {
                return Prepared::Early(CoOutput {
                    action: Action::full_brake(),
                    mpc: None,
                    emergency: true,
                    degraded: false,
                })
            }
        };

        // advance the monotone progress marker within a local window
        let s_now = walker.nearest_s_in_window(
            path,
            ego.pose.position(),
            self.progress - 1.0,
            self.progress + 2.5,
        );
        self.progress = self.progress.max(s_now);
        let reference =
            build_reference_at(path, walker, self.progress, ego.pose.theta, &self.config);
        Prepared::Solve {
            state: ego,
            reference,
            tracked,
        }
    }

    /// The post-solve half of [`control`](CoController::control): solve
    /// logging, degradation handling and action conversion.
    fn finish_solve(
        &mut self,
        ego: VehicleState,
        reference: Vec<RefState>,
        tracked: Vec<MovingObstacle>,
        mpc: MpcSolution,
    ) -> CoOutput {
        if let Some(log) = self.solve_log.as_mut() {
            log.push(SolveRecord {
                state: ego,
                reference,
                tracked,
                warm: mpc.clone(),
            });
        }
        // a numerically-failed solve returns zero-control sentinels that
        // must not be driven: degrade to braking and start the next frame
        // cold (the solve already reset its memory)
        let degraded = mpc.status == MpcStatus::NumericalError;
        let action = if degraded {
            Action::full_brake()
        } else {
            self.to_action(&ego, mpc.controls[0])
        };
        CoOutput {
            action,
            mpc: Some(mpc),
            emergency: false,
            degraded,
        }
    }

    /// Converts an `(accel, steer)` control into a CARLA-style action.
    ///
    /// (See also [`unstick_action`], the planner-failure fallback.)
    fn to_action(&self, state: &VehicleState, u: [f64; 2]) -> Action {
        let accel = u[0];
        let steer = (u[1] / self.params.max_steer).clamp(-1.0, 1.0);
        let v = state.velocity;
        let v_target = v + accel * self.config.mpc_dt;

        // pick the gear from where the controller wants the speed to go
        let reverse = v_target < -1e-3 || (v < -1e-3 && v_target <= 1e-3);
        let speeding_up = v_target.abs() > v.abs() + 1e-6 || v.abs() < 1e-3;
        if speeding_up && v_target.abs() > 1e-3 {
            Action {
                throttle: (accel.abs() / self.params.max_accel).clamp(0.0, 1.0),
                brake: 0.0,
                steer,
                reverse,
            }
        } else if v_target.abs() <= 1e-3 && v.abs() <= 1e-3 {
            // hold still, keep the wheels where the MPC wants them
            Action {
                throttle: 0.0,
                brake: 0.3,
                steer,
                reverse,
            }
        } else {
            Action {
                throttle: 0.0,
                brake: (accel.abs() / self.params.max_brake).clamp(0.0, 1.0),
                steer,
                reverse,
            }
        }
    }
}

/// Outcome of [`CoController::prepare`]: either the frame resolved
/// without an MPC solve, or the solve inputs are ready.
enum Prepared {
    /// No solve this frame (planner failure or missing path).
    Early(CoOutput),
    /// The assembled MPC inputs for this frame.
    Solve {
        /// Ego state at the frame.
        state: VehicleState,
        /// Reference horizon.
        reference: Vec<RefState>,
        /// Tracked obstacles with velocity estimates.
        tracked: Vec<MovingObstacle>,
    },
}

/// Recovery action when no path exists from the current pose: creep
/// slowly away from the nearest obstacle (reverse when it is ahead,
/// forward when it is behind), steering straight.
fn unstick_action(ego: &VehicleState, boxes: &[Obb]) -> Action {
    let pos = ego.pose.position();
    let nearest = boxes.iter().min_by(|a, b| {
        a.distance_to_point(pos)
            .partial_cmp(&b.distance_to_point(pos))
            .expect("finite distances")
    });
    let Some(obb) = nearest else {
        return Action::full_brake();
    };
    let bearing = (obb.center - pos).angle();
    let ahead = icoil_geom::angle_diff(bearing, ego.pose.theta).abs() < std::f64::consts::FRAC_PI_2;
    if ahead {
        Action::backward(0.25, 0.0)
    } else {
        Action::forward(0.25, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_world::episode::Observation;
    use icoil_world::{Difficulty, ScenarioConfig, World};

    fn setup(difficulty: Difficulty, seed: u64) -> (World, CoController) {
        let scenario = ScenarioConfig::new(difficulty, seed).build();
        let params = scenario.vehicle_params;
        (
            World::new(scenario),
            CoController::new(CoConfig::default(), params),
        )
    }

    #[test]
    fn first_control_is_valid_and_plans_path() {
        let (world, mut co) = setup(Difficulty::Easy, 2);
        let boxes = world.obstacle_footprints();
        let out = co.control(&Observation::new(&world), &boxes);
        assert!(out.action.validate().is_ok());
        assert!(!out.emergency);
        assert!(co.path().is_some());
        assert!(co.path().unwrap().length() > 5.0);
    }

    #[test]
    fn reset_clears_path() {
        let (world, mut co) = setup(Difficulty::Easy, 2);
        let boxes = world.obstacle_footprints();
        let _ = co.control(&Observation::new(&world), &boxes);
        assert!(co.path().is_some());
        co.reset();
        assert!(co.path().is_none());
    }

    #[test]
    fn drives_toward_goal_over_time() {
        let (mut world, mut co) = setup(Difficulty::Easy, 2);
        let d0 = world.distance_to_goal();
        for _ in 0..200 {
            let boxes = world.obstacle_footprints();
            let out = co.control(&Observation::new(&world), &boxes);
            world.step(&out.action);
            if world.in_collision() {
                panic!("CO must not collide in an easy scenario");
            }
        }
        let d1 = world.distance_to_goal();
        assert!(d1 < d0 - 1.0, "distance {d0} -> {d1}");
    }

    #[test]
    fn action_conversion_forward() {
        let (_, co) = setup(Difficulty::Easy, 2);
        let state = VehicleState::new(icoil_geom::Pose2::default(), 0.0);
        let a = co.to_action(&state, [1.0, 0.2]);
        assert!(!a.reverse);
        assert!(a.throttle > 0.5);
        assert!(a.brake == 0.0);
        assert!(a.steer > 0.0);
    }

    #[test]
    fn action_conversion_reverse() {
        let (_, co) = setup(Difficulty::Easy, 2);
        let state = VehicleState::new(icoil_geom::Pose2::default(), 0.0);
        let a = co.to_action(&state, [-1.0, 0.0]);
        assert!(a.reverse);
        assert!(a.throttle > 0.0);
    }

    #[test]
    fn nan_ego_state_degrades_to_safe_braking() {
        // Regression: a NaN-poisoned ego state used to panic inside the
        // QP regularization loop. The controller must brake, flag the
        // degradation, and recover on the next healthy frame.
        let (mut world, mut co) = setup(Difficulty::Easy, 2);
        let boxes = world.obstacle_footprints();
        let healthy = co.control(&Observation::new(&world), &boxes);
        assert!(!healthy.degraded);

        let good_state = *world.ego();
        let mut bad = good_state;
        bad.velocity = f64::NAN;
        world.set_ego(bad);
        let out = co.control(&Observation::new(&world), &world.obstacle_footprints());
        assert!(out.degraded, "NaN ego must degrade");
        assert!(
            out.action.validate().is_ok(),
            "brake action must be well-formed"
        );
        assert!(out.action.brake > 0.0 && out.action.throttle == 0.0);
        assert_eq!(
            out.mpc.as_ref().map(|m| m.status),
            Some(MpcStatus::NumericalError)
        );

        world.set_ego(good_state);
        let recovered = co.control(&Observation::new(&world), &world.obstacle_footprints());
        assert!(!recovered.degraded, "healthy frame must recover");
    }

    #[test]
    fn action_conversion_braking_while_moving() {
        let (_, co) = setup(Difficulty::Easy, 2);
        let state = VehicleState::new(icoil_geom::Pose2::default(), 2.0);
        // decelerate but stay forward
        let a = co.to_action(&state, [-1.0, 0.0]);
        assert!(!a.reverse);
        assert!(a.brake > 0.0);
        assert_eq!(a.throttle, 0.0);
    }
}
