//! The serving engine's IL memo: a frame whose BEV image repeats its
//! session's last inferred one bit for bit reuses that inference instead
//! of running the CNN. Vehicles stalled in noise-free lots repeat their
//! image frame after frame, so a λ = +∞ fleet takes both paths; every
//! served frame is held to an in-process reference that runs the CNN on
//! every frame.

use icoil_adapt::{SafetyConfig, SafetyProjector};
use icoil_core::ICoilConfig;
use icoil_hsa::{Hsa, HsaConfig, Mode};
use icoil_il::IlModel;
use icoil_perception::Perception;
use icoil_serve::{Serve, ServeConfig, ServeHandle, SessionSpec, StepResponse};
use icoil_telemetry::Counter;
use icoil_vehicle::Action;
use icoil_world::episode::{Observation, Outcome};
use icoil_world::{MapFamilyKind, ProcGen, ProcGenConfig, Scenario, World};
use std::time::Duration;

const VEHICLES: usize = 12;
const TICKS: usize = 120;
/// The tick from which a stalled session is looked for to evict and
/// restore.
const EVICT_FROM: usize = 40;

/// Every frame on the IL lane (λ = +∞), safety projection on, nothing
/// shed.
fn config() -> ServeConfig {
    ServeConfig {
        icoil: ICoilConfig {
            hsa: HsaConfig {
                lambda: f64::INFINITY,
                initial_mode: Mode::Il,
                ..HsaConfig::default()
            },
            safety: SafetyConfig {
                enabled: true,
                ..SafetyConfig::default()
            },
            ..ICoilConfig::default()
        },
        co_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

/// Noise-free procedural lots cycling the map families.
fn scenarios() -> Vec<Scenario> {
    (0..VEHICLES)
        .map(|i| {
            ProcGen::new(ProcGenConfig {
                noise_prob: 0.0,
                family: Some(MapFamilyKind::ALL[i % MapFamilyKind::ALL.len()]),
                ..ProcGenConfig::default()
            })
            .generate(4200 + i as u64)
            .build()
        })
        .collect()
}

/// One session replayed in process as the server builds it, running the
/// CNN on every frame: perception, inference, HSA, the safety
/// projection and the world step.
struct Reference {
    world: World,
    perception: Perception,
    hsa: Hsa,
    outcome: Option<Outcome>,
}

impl Reference {
    fn new(config: &ServeConfig, scenario: &Scenario) -> Self {
        let world = World::new(scenario.clone());
        Reference {
            perception: Perception::new(config.icoil.bev, scenario),
            hsa: Hsa::new(config.icoil.hsa),
            outcome: world.collision_cause().map(|_| Outcome::Collision),
            world,
        }
    }

    /// The response the server owes for this session's next frame.
    fn step(
        &mut self,
        session: u64,
        model: &mut IlModel,
        projector: &SafetyProjector,
        max_time: f64,
    ) -> StepResponse {
        let (mode, uncertainty, complexity, action) = if self.outcome.is_some() {
            ("DONE", 0.0, 0.0, Action::full_brake())
        } else {
            let sensing = self.perception.observe(&Observation::new(&self.world));
            let il = model.infer(&sensing.bev);
            self.hsa.set_ego_position(self.world.ego().pose.position());
            let decision = self.hsa.update(&il.probs, &sensing.boxes);
            assert_eq!(decision.mode, Mode::Il, "λ = +∞ keeps every frame on IL");
            let params = self.world.scenario().vehicle_params;
            let action = projector
                .project(self.world.ego(), &params, &sensing.boxes, il.action)
                .action;
            self.world.step(&action);
            if self.world.collision_cause().is_some() {
                self.outcome = Some(Outcome::Collision);
            } else if self.world.at_goal() {
                self.outcome = Some(Outcome::Success);
            } else if self.world.time() >= max_time {
                self.outcome = Some(Outcome::Timeout);
            }
            ("IL", decision.uncertainty, decision.complexity, action)
        };
        let ego = self.world.ego();
        StepResponse {
            session,
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
            emergency: false,
            degraded: false,
            shed: false,
            outcome: self.outcome.map(|o| o.to_string()),
            weight_version: 0,
        }
    }
}

/// The committed model, which drives some vehicles and stalls others.
fn committed_model() -> IlModel {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../artifacts/il_model.json");
    let json = std::fs::read_to_string(path).expect("read the committed IL model");
    IlModel::from_json(&json).expect("parse the committed IL model")
}

fn memo_hits(handle: &ServeHandle) -> u64 {
    handle
        .metrics()
        .expect("metrics")
        .counter(Counter::IlMemoHits)
}

/// Serves the fleet in lockstep for [`TICKS`] ticks, holding every
/// response to its reference; from [`EVICT_FROM`] on, steps stalled
/// sessions alone until one reuses its memo, then evicts and restores
/// that one. Returns the frames that ran the IL pass and the memo hits.
fn serve_against_reference() -> (u64, u64) {
    let config = config();
    let mut model = committed_model();
    let server = Serve::start(config, model.clone());
    let handle = server.handle();
    let projector = SafetyProjector::new(config.icoil.safety);
    let scenarios = scenarios();
    let ids: Vec<u64> = scenarios
        .iter()
        .map(|s| {
            handle
                .create(SessionSpec::Scenario(Box::new(s.clone())))
                .expect("create")
        })
        .collect();
    let mut references: Vec<Reference> = scenarios
        .iter()
        .map(|s| Reference::new(&config, s))
        .collect();
    let mut last: Vec<Option<StepResponse>> = vec![None; VEHICLES];
    let mut frames = 0u64;
    let mut check = |k: usize, served: StepResponse, last: &mut Vec<Option<StepResponse>>| {
        let expected = references[k].step(ids[k], &mut model, &projector, config.max_time);
        assert_eq!(
            served, expected,
            "session {k} frame {} diverged from the reference",
            expected.frame
        );
        frames += u64::from(served.mode != "DONE");
        last[k] = Some(served);
    };
    let mut migrated = false;
    for tick in 0..TICKS {
        for (k, served) in handle.step_many(&ids).into_iter().enumerate() {
            check(k, served.expect("step"), &mut last);
        }
        if tick < EVICT_FROM || migrated {
            continue;
        }
        for k in 0..VEHICLES {
            let stalled = last[k]
                .as_ref()
                .is_some_and(|r| r.mode == "IL" && r.velocity == 0.0);
            if !stalled {
                continue;
            }
            let before = memo_hits(&handle);
            check(k, handle.step(ids[k]).expect("step"), &mut last);
            if memo_hits(&handle) == before {
                continue;
            }
            // the session is mid-stall with a live memo: migrate it
            let bytes = handle.evict(ids[k]).expect("evict");
            assert_eq!(handle.restore(&bytes).expect("restore"), ids[k]);
            let before = memo_hits(&handle);
            check(k, handle.step(ids[k]).expect("step"), &mut last);
            assert_eq!(
                memo_hits(&handle),
                before,
                "a restored session starts without a memo and infers its first frame"
            );
            migrated = true;
            break;
        }
    }
    assert!(
        migrated,
        "some session must stall with a live memo to be migrated"
    );
    let hits = memo_hits(&handle);
    server.shutdown();
    (frames, hits)
}

#[test]
fn f32_memo_reuses_repeated_frames_bit_for_bit() {
    let (frames, hits) = serve_against_reference();
    eprintln!("{hits} of {frames} frames reused the memo");
    assert!(
        hits > 0,
        "stalled noise-free sessions must repeat their image"
    );
    assert!(hits < frames, "moving sessions must still run the CNN");
}
