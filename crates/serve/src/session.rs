//! Per-client episode state and its frame lifecycle.

use crate::snapshot::decode_snapshot;
use crate::ServeConfig;
use icoil_adapt::ContainerError;
use icoil_co::{CoController, CoOutput, CoSnapshot};
use icoil_hsa::{Hsa, HsaDecision, Mode};
use icoil_il::InferResult;
use icoil_perception::{BevImage, Perception, Sensing};
use icoil_vehicle::Action;
use icoil_world::episode::{Observation, Outcome};
use icoil_world::{Difficulty, MapFamilyKind, Scenario, ScenarioConfig, World};
use serde::{Deserialize, Serialize};

/// What a client asks for when opening a session: deterministic
/// per-session seeding — the same `(difficulty, seed)` always replays
/// the same scenario, perception noise stream and warm-start history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Scenario difficulty tier.
    pub difficulty: Difficulty,
    /// Scenario seed; every random choice in the session derives from it.
    pub seed: u64,
}

/// What a session runs: either the standard difficulty/seed scenario
/// family, or an explicit [`Scenario`] (the conformance fuzzer's entry
/// point — procedurally generated cases step through the full serving
/// path this way).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionSpec {
    /// A `(difficulty, seed)`-derived scenario.
    Seeded(SessionConfig),
    /// An explicit, fully-specified scenario.
    Scenario(Box<Scenario>),
}

impl SessionSpec {
    fn build_scenario(&self) -> Scenario {
        match self {
            SessionSpec::Seeded(cfg) => ScenarioConfig::new(cfg.difficulty, cfg.seed).build(),
            SessionSpec::Scenario(s) => (**s).clone(),
        }
    }
}

impl From<SessionConfig> for SessionSpec {
    fn from(cfg: SessionConfig) -> Self {
        SessionSpec::Seeded(cfg)
    }
}

/// Why a serving request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No live session has this id.
    UnknownSession(u64),
    /// A restore named a session id that is already live.
    SessionExists(u64),
    /// The server is at its configured session limit.
    SessionLimit,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The engine thread is gone (server already shut down).
    Disconnected,
    /// A snapshot failed to decode (bad magic, version, length, checksum
    /// or shape); the message is the underlying
    /// [`ContainerError`](icoil_adapt::ContainerError).
    Snapshot(String),
    /// A restored snapshot pinned a weight-store generation this server
    /// has not published — restoring it here would silently change the
    /// policy mid-episode.
    UnknownWeightVersion(u32),
    /// A restored snapshot pinned an IL precision other than f32, the
    /// one this server runs (the label, or the entry's value when it is
    /// not a string) — replaying it here would silently change the
    /// policy mid-episode.
    UnsupportedPrecision(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::SessionExists(id) => write!(f, "session {id} already exists"),
            ServeError::SessionLimit => write!(f, "session limit reached"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Disconnected => write!(f, "server engine is gone"),
            ServeError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            ServeError::UnknownWeightVersion(v) => {
                write!(f, "weight generation {v} is not published on this server")
            }
            ServeError::UnsupportedPrecision(p) => {
                write!(f, "IL precision {p:?} is not served here (f32 only)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One served frame, mirroring the telemetry `FrameEvent` fields that
/// are deterministic: everything here is a pure function of the
/// session's `(difficulty, seed)` and frame count — no wall-clock
/// content — so recorded response streams can be compared bitwise
/// across runs and worker counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepResponse {
    /// The session that was stepped.
    pub session: u64,
    /// Frame index after applying the action.
    pub frame: usize,
    /// Simulated time (seconds) after applying the action.
    pub time: f64,
    /// Which lane produced the action: `"IL"`, `"CO"`, or `"DONE"` for
    /// a step request on an already-finished episode.
    pub mode: String,
    /// HSA scenario uncertainty `U_i` this frame.
    pub uncertainty: f64,
    /// HSA scenario complexity `C_i` this frame.
    pub complexity: f64,
    /// The executed action.
    pub action: Action,
    /// Ego rear-axle x after the step (meters).
    pub x: f64,
    /// Ego rear-axle y after the step (meters).
    pub y: f64,
    /// Ego heading after the step (radians).
    pub heading: f64,
    /// Signed ego speed after the step (m/s).
    pub velocity: f64,
    /// Whether the CO controller fell back to an emergency brake.
    pub emergency: bool,
    /// Whether the action is the degraded full brake (numerical failure
    /// or a shed request).
    pub degraded: bool,
    /// Whether this frame's CO request was shed by the deadline lane
    /// (queue full or deadline expired) instead of solved.
    pub shed: bool,
    /// Set once the episode has ended: `"success"`, `"collision"` or
    /// `"timeout"`.
    pub outcome: Option<String>,
    /// The weight-store generation that produced this frame's IL
    /// inference — pinned for the whole episode, so it is constant
    /// across a session's stream. Streams recorded before the weight
    /// store existed decode as 0 (the startup model).
    #[serde(default)]
    pub weight_version: u32,
}

/// The complete serializable state of a live session — everything
/// needed to resume it bit-identically on any shard or a fresh process.
///
/// The world carries the scenario (including its seed, from which the
/// per-frame perception noise streams derive), so the stateless
/// perception pipeline is rebuilt rather than stored. The CO side is
/// the [`CoSnapshot`] episode state including the MPC warm-start
/// memory; the HSA module serializes whole (sliding windows + debounce
/// state).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The session id (preserved across restore).
    pub id: u64,
    /// World state: scenario, ego, simulated time, frame counter.
    pub world: World,
    /// HSA state: uncertainty/complexity windows, mode, pending switch.
    pub hsa: Hsa,
    /// CO controller episode state incl. MPC warm-start memory.
    pub co: CoSnapshot,
    /// The episode time limit the session was created under.
    pub max_time: f64,
    /// Terminal outcome, when the episode has already ended.
    pub outcome: Option<Outcome>,
    /// The weight-store generation the session pinned at creation.
    /// Restore refuses snapshots whose generation the target server has
    /// not published ([`ServeError::UnknownWeightVersion`]) — replaying
    /// under different weights would diverge silently. Snapshots taken
    /// before the weight store existed decode as 0, the startup model.
    #[serde(default)]
    pub weight_version: u32,
}

impl SessionSnapshot {
    /// Decodes snapshot bytes ([`decode_snapshot`]) for a restore.
    ///
    /// Snapshots written by servers that ran a second, int8 IL lane carry
    /// an `il_precision` entry. One that names `"f32"` decodes as if it
    /// were absent; any other value is refused, as a snapshot pinning an
    /// unpublished weight generation is.
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] for malformed bytes,
    /// [`ServeError::UnsupportedPrecision`] for a precision other than
    /// f32.
    pub(crate) fn decode(bytes: &[u8]) -> Result<SessionSnapshot, ServeError> {
        let value: serde::Value =
            decode_snapshot(bytes).map_err(|e| ServeError::Snapshot(e.to_string()))?;
        let precision = value.get("il_precision");
        if let Some(p) = precision.filter(|p| p.as_str() != Some("f32")) {
            let label = p.as_str().map_or_else(|| format!("{p:?}"), str::to_string);
            return Err(ServeError::UnsupportedPrecision(label));
        }
        SessionSnapshot::from_value(&value)
            .map_err(|e| ServeError::Snapshot(ContainerError::Decode(e.to_string()).to_string()))
    }
}

/// A live episode owned by the serving engine: the world, the sensing
/// pipeline, the HSA window state and the CO controller (whose
/// `MpcMemory` carries warm starts across this session's frames). Moved
/// wholesale to a CO worker for solve frames, so no lock ever guards
/// session state.
pub(crate) struct Session {
    pub(crate) id: u64,
    world: World,
    perception: Perception,
    hsa: Hsa,
    co: CoController,
    max_time: f64,
    outcome: Option<Outcome>,
    /// Weight-store generation, pinned for the whole episode at
    /// creation (or carried over by restore): mid-episode publishes
    /// change which generation *new* sessions get, never this one's.
    pub(crate) weight_version: u32,
    /// The last BEV image this session sent through the CNN and the
    /// inference that came back (see [`Session::recalls_il`]). Not part
    /// of [`SessionSnapshot`]: a restored session starts without one and
    /// infers its first frame afresh.
    il_memo: Option<IlMemo>,
}

/// A session's last IL inference and the image it was computed from.
struct IlMemo {
    bev: BevImage,
    result: InferResult,
}

/// Whether two BEV images are equal bit for bit: size, range and every
/// pixel compared as raw IEEE-754 bits (so `-0.0` and `0.0` differ and
/// a NaN pixel equals only the same NaN), stopping at the first
/// difference.
fn same_bits(a: &BevImage, b: &BevImage) -> bool {
    a.size == b.size
        && a.range.to_bits() == b.range.to_bits()
        && a.data.len() == b.data.len()
        && a.data
            .iter()
            .zip(&b.data)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Session {
    pub(crate) fn new(
        id: u64,
        config: &ServeConfig,
        spec: &SessionSpec,
        weight_version: u32,
    ) -> Self {
        let scenario = spec.build_scenario();
        let perception = Perception::new(config.icoil.bev, &scenario);
        let co = CoController::new(config.icoil.co, scenario.vehicle_params);
        let hsa = Hsa::new(config.icoil.hsa);
        let world = World::new(scenario);
        // a scenario that spawns in collision is finished before frame 0,
        // mirroring `run_episode`
        let outcome = world.collision_cause().map(|_| Outcome::Collision);
        Session {
            id,
            world,
            perception,
            hsa,
            co,
            max_time: config.max_time,
            outcome,
            weight_version,
            il_memo: None,
        }
    }

    /// Position of this session's map family in [`MapFamilyKind::ALL`]
    /// — the index into the telemetry per-family counter arrays. `None`
    /// for fixed (non-procedural) scenarios.
    pub(crate) fn family_index(&self) -> Option<usize> {
        self.world.scenario().family.map(MapFamilyKind::index)
    }

    /// The session's world (read-only — the safety projector needs the
    /// ego state and vehicle parameters).
    pub(crate) fn world(&self) -> &World {
        &self.world
    }

    /// Captures the session's complete state (see [`SessionSnapshot`]).
    pub(crate) fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            id: self.id,
            world: self.world.clone(),
            hsa: self.hsa.clone(),
            co: self.co.snapshot(),
            max_time: self.max_time,
            outcome: self.outcome,
            weight_version: self.weight_version,
        }
    }

    /// Rebuilds a session from a snapshot under the given server config.
    ///
    /// The perception pipeline is reconstructed from the config's BEV
    /// settings and the snapshot's scenario (it is stateless per frame —
    /// its noise stream derives from the scenario seed and frame index),
    /// and the CO controller from the config plus the snapshot's episode
    /// state. The restored session replays bit-identically to the
    /// uninterrupted one as long as `config.icoil` matches the serving
    /// config the snapshot was taken under.
    pub(crate) fn restore(config: &ServeConfig, snap: &SessionSnapshot) -> Self {
        let perception = Perception::new(config.icoil.bev, snap.world.scenario());
        let mut co = CoController::new(config.icoil.co, snap.world.scenario().vehicle_params);
        co.restore(&snap.co);
        Session {
            id: snap.id,
            world: snap.world.clone(),
            perception,
            hsa: snap.hsa.clone(),
            co,
            max_time: snap.max_time,
            outcome: snap.outcome,
            weight_version: snap.weight_version,
            il_memo: None,
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.outcome.is_some()
    }

    /// Perception for the upcoming frame (input to the IL micro-batch).
    pub(crate) fn sense(&mut self) -> Sensing {
        self.perception.observe(&Observation::new(&self.world))
    }

    /// Whether `bev` repeats, bit for bit, the image this session last
    /// sent through the CNN — in which case that inference is this
    /// frame's too. The session pins its weight generation for the
    /// whole episode, under which inference is a pure function of the
    /// image, and a row's result does not depend on the
    /// batch it ran in; so the stored result is exactly what running the
    /// CNN again would return.
    pub(crate) fn recalls_il(&self, bev: &BevImage) -> bool {
        self.il_memo
            .as_ref()
            .is_some_and(|m| same_bits(&m.bev, bev))
    }

    /// Stores a fresh inference and the image it was computed from as
    /// the memo. The image moves in, so refreshing the memo copies and
    /// allocates nothing.
    pub(crate) fn remember_il(&mut self, bev: BevImage, result: InferResult) {
        self.il_memo = Some(IlMemo { bev, result });
    }

    /// HSA decision from this frame's IL softmax distribution, and the
    /// IL action. Reads the memo, which the shard's IL pass leaves
    /// holding this frame's inference (recalled or freshly stored).
    pub(crate) fn plan(&mut self, sensing: &Sensing) -> (HsaDecision, Action) {
        let il = &self
            .il_memo
            .as_ref()
            .expect("the IL pass stores or recalls every stepped frame's inference")
            .result;
        self.hsa.set_ego_position(self.world.ego().pose.position());
        (self.hsa.update(&il.probs, &sensing.boxes), il.action)
    }

    /// The CO leg, run on a lane worker: hybrid-A* path + warm-started
    /// SCP MPC against the detected boxes. Session-local state only.
    pub(crate) fn solve_co(&mut self, sensing: &Sensing) -> CoOutput {
        self.co
            .control(&Observation::new(&self.world), &sensing.boxes)
    }

    /// Applies `action`, advancing the world one frame and settling the
    /// episode outcome, and builds the client response.
    pub(crate) fn advance(
        &mut self,
        action: Action,
        hsa: &HsaDecision,
        co_out: Option<&CoOutput>,
        shed: bool,
    ) -> StepResponse {
        self.world.step(&action);
        if self.world.collision_cause().is_some() {
            self.outcome = Some(Outcome::Collision);
        } else if self.world.at_goal() {
            self.outcome = Some(Outcome::Success);
        } else if self.world.time() >= self.max_time {
            self.outcome = Some(Outcome::Timeout);
        }
        let mode = match hsa.mode {
            Mode::Il => "IL",
            Mode::Co => "CO",
        };
        self.response(
            mode,
            hsa.uncertainty,
            hsa.complexity,
            action,
            co_out.is_some_and(|o| o.emergency),
            co_out.is_some_and(|o| o.degraded),
            shed,
        )
    }

    /// The response for a step request on an already-finished episode:
    /// nothing advances, the terminal state is reported again.
    pub(crate) fn terminal_response(&self) -> StepResponse {
        self.response("DONE", 0.0, 0.0, Action::full_brake(), false, false, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn response(
        &self,
        mode: &str,
        uncertainty: f64,
        complexity: f64,
        action: Action,
        emergency: bool,
        degraded: bool,
        shed: bool,
    ) -> StepResponse {
        let ego = self.world.ego();
        StepResponse {
            session: self.id,
            frame: self.world.frame(),
            time: self.world.time(),
            mode: mode.to_string(),
            uncertainty,
            complexity,
            action,
            x: ego.pose.x,
            y: ego.pose.y,
            heading: ego.pose.theta,
            velocity: ego.velocity,
            emergency,
            degraded,
            shed,
            outcome: self.outcome.map(|o| o.to_string()),
            weight_version: self.weight_version,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(data: Vec<f32>) -> BevImage {
        BevImage {
            size: 1,
            range: 10.0,
            data,
        }
    }

    #[test]
    fn same_bits_compares_raw_bits() {
        let base: Vec<f32> = (0..200).map(|i| i as f32 * 0.5).collect();
        assert!(same_bits(&image(base.clone()), &image(base.clone())));
        // one flipped pixel anywhere, first and last included
        for at in [0, 63, 64, 150, 199] {
            let mut other = base.clone();
            other[at] = f32::from_bits(other[at].to_bits() ^ 1);
            assert!(
                !same_bits(&image(base.clone()), &image(other)),
                "pixel {at}"
            );
        }
        // -0.0 == 0.0 as floats, but not as bits; a NaN equals its own bits
        assert!(!same_bits(&image(vec![0.0]), &image(vec![-0.0])));
        assert!(same_bits(&image(vec![f32::NAN]), &image(vec![f32::NAN])));
        // size, range and length take part too
        let mut wider = image(base.clone());
        wider.size = 2;
        assert!(!same_bits(&image(base.clone()), &wider));
        let mut farther = image(base.clone());
        farther.range = 10.000001;
        assert!(!same_bits(&image(base.clone()), &farther));
        assert!(!same_bits(
            &image(base.clone()),
            &image(base[..199].to_vec())
        ));
    }
}
