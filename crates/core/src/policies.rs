//! The iCOIL policy and its two single-mode baselines.

use crate::config::ICoilConfig;
use icoil_adapt::SafetyProjector;
use icoil_co::{CoController, CoOutput, MpcSolution, MpcStatus};
use icoil_hsa::{Hsa, Mode};
use icoil_il::IlModel;
use icoil_perception::Perception;
use icoil_telemetry::{Counter, FrameEvent, Recorder, Series, SolveEvent};
use icoil_vehicle::VehicleParams;
use icoil_world::episode::{Decision, ModeTag, Observation, Policy};
use icoil_world::Scenario;
use std::time::Instant;

/// Stage-name string of an HSA mode for trace events.
fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Il => "IL",
        Mode::Co => "CO",
    }
}

/// Maps an MPC solution onto the telemetry solve event.
fn solve_event(mpc: &MpcSolution) -> SolveEvent {
    SolveEvent {
        scp_passes: mpc.scp_passes,
        admm_iterations: mpc.qp_iterations as u64,
        reg_bumps: mpc.diagnostics.reg_bumps,
        symbolic_cache_hits: mpc.diagnostics.symbolic_cache_hits,
        symbolic_rebuilds: mpc.diagnostics.symbolic_rebuilds,
        cold_restart: mpc.cold_restarted,
        numerical_error: mpc.status == MpcStatus::NumericalError,
    }
}

/// Builds the frame event shared by all three policies. Stage timings
/// are seconds; a negative value marks a stage that did not run.
#[allow(clippy::too_many_arguments)]
fn frame_event<'a>(
    obs: &Observation,
    mode: &'a str,
    raw_mode: &'a str,
    uncertainty: f64,
    complexity: f64,
    ratio: f64,
    stages: [f64; 4],
    total_s: f64,
    co_out: Option<&CoOutput>,
    solve: Option<SolveEvent>,
) -> FrameEvent<'a> {
    FrameEvent {
        frame: obs.frame(),
        time: obs.time(),
        mode,
        raw_mode,
        uncertainty,
        complexity,
        ratio,
        perception_s: stages[0],
        il_s: stages[1],
        hsa_s: stages[2],
        co_s: stages[3],
        total_s,
        emergency: co_out.is_some_and(|o| o.emergency),
        safe_brake: co_out.is_some_and(|o| o.degraded),
        solve,
    }
}

/// The full iCOIL policy: perception → {IL, CO} selected by HSA (eq. 1).
///
/// IL inference runs every frame (the HSA uncertainty needs the softmax
/// distribution); the CO solve runs only in CO mode — exactly the
/// division that makes mode switching worthwhile at runtime.
pub struct ICoilPolicy {
    perception: Perception,
    model: IlModel,
    co: CoController,
    hsa: Hsa,
    recorder: Recorder,
    last_mode: Option<Mode>,
    last_reverse: Option<bool>,
    /// Safety projection for IL-mode actions, present only when
    /// `config.safety.enabled` — absent, IL actions pass through
    /// untouched and trajectories stay bit-identical to earlier builds.
    projector: Option<SafetyProjector>,
    params: VehicleParams,
}

impl ICoilPolicy {
    /// Assembles the policy for a scenario.
    pub fn new(config: &ICoilConfig, model: IlModel, scenario: &Scenario) -> Self {
        ICoilPolicy {
            perception: Perception::new(config.bev, scenario),
            model,
            co: CoController::new(config.co, scenario.vehicle_params),
            hsa: Hsa::new(config.hsa),
            recorder: Recorder::new(),
            last_mode: None,
            last_reverse: None,
            projector: config
                .safety
                .enabled
                .then(|| SafetyProjector::new(config.safety)),
            params: scenario.vehicle_params,
        }
    }

    /// The HSA module (for inspection in experiments).
    pub fn hsa(&self) -> &Hsa {
        &self.hsa
    }
}

impl Policy for ICoilPolicy {
    fn begin_episode(&mut self, _obs: &Observation) {
        self.co.reset();
        self.hsa.reset();
        self.last_mode = None;
        self.last_reverse = None;
    }

    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        Some(&mut self.recorder)
    }

    fn decide(&mut self, obs: &Observation) -> Decision {
        let t0 = Instant::now();
        let sensing = self.perception.observe(obs);
        let t1 = Instant::now();
        let il = self.model.infer(&sensing.bev);
        let t2 = Instant::now();
        self.hsa.set_ego_position(obs.ego().pose.position());
        let hsa = self.hsa.update(&il.probs, &sensing.boxes);
        let t3 = Instant::now();
        let (action, tag, co_out) = match hsa.mode {
            Mode::Il => {
                let mut action = il.action;
                if let Some(projector) = &self.projector {
                    let proj = projector.project(&obs.ego(), &self.params, &sensing.boxes, action);
                    if proj.clipped {
                        self.recorder.add(Counter::SafetyProjections, 1);
                        self.recorder
                            .observe(Series::SafetyClipMag, proj.clip_magnitude);
                    }
                    action = proj.action;
                }
                (action, ModeTag::Il, None)
            }
            Mode::Co => {
                let out = self.co.control(obs, &sensing.boxes);
                (out.action, ModeTag::Co, Some(out))
            }
        };
        let t4 = Instant::now();

        if self.last_mode.is_some_and(|prev| prev != hsa.mode) {
            self.recorder.add(Counter::HsaSwitches, 1);
        }
        self.last_mode = Some(hsa.mode);
        if self.last_reverse.is_some_and(|prev| prev != action.reverse) {
            self.recorder.add(Counter::GearReversals, 1);
        }
        self.last_reverse = Some(action.reverse);
        let co_s = if co_out.is_some() {
            (t4 - t3).as_secs_f64()
        } else {
            -1.0
        };
        let solve = co_out
            .as_ref()
            .and_then(|o| o.mpc.as_ref())
            .map(solve_event);
        self.recorder.frame(&frame_event(
            obs,
            mode_name(hsa.mode),
            mode_name(hsa.raw_mode),
            hsa.uncertainty,
            hsa.complexity,
            hsa.ratio,
            [
                (t1 - t0).as_secs_f64(),
                (t2 - t1).as_secs_f64(),
                (t3 - t2).as_secs_f64(),
                co_s,
            ],
            (t4 - t0).as_secs_f64(),
            co_out.as_ref(),
            solve,
        ));

        Decision {
            action,
            mode: Some(tag),
            uncertainty: Some(hsa.uncertainty),
            complexity: Some(hsa.complexity),
        }
    }
}

/// The conventional-IL baseline of Table II: the DNN drives everywhere.
///
/// The HSA module still *measures* uncertainty (it is cheap and useful
/// for the figures) but never switches modes.
pub struct PureIlPolicy {
    perception: Perception,
    model: IlModel,
    hsa: Hsa,
    recorder: Recorder,
    last_reverse: Option<bool>,
}

impl PureIlPolicy {
    /// Assembles the baseline for a scenario.
    pub fn new(config: &ICoilConfig, model: IlModel, scenario: &Scenario) -> Self {
        PureIlPolicy {
            perception: Perception::new(config.bev, scenario),
            model,
            hsa: Hsa::new(config.hsa),
            recorder: Recorder::new(),
            last_reverse: None,
        }
    }
}

impl Policy for PureIlPolicy {
    fn begin_episode(&mut self, _obs: &Observation) {
        self.hsa.reset();
        self.last_reverse = None;
    }

    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        Some(&mut self.recorder)
    }

    fn decide(&mut self, obs: &Observation) -> Decision {
        let t0 = Instant::now();
        let sensing = self.perception.observe(obs);
        let t1 = Instant::now();
        let il = self.model.infer(&sensing.bev);
        let t2 = Instant::now();
        self.hsa.set_ego_position(obs.ego().pose.position());
        let hsa = self.hsa.update(&il.probs, &sensing.boxes);
        let t3 = Instant::now();

        if self.last_reverse.is_some_and(|prev| prev != il.action.reverse) {
            self.recorder.add(Counter::GearReversals, 1);
        }
        self.last_reverse = Some(il.action.reverse);
        self.recorder.frame(&frame_event(
            obs,
            "IL",
            mode_name(hsa.raw_mode),
            hsa.uncertainty,
            hsa.complexity,
            hsa.ratio,
            [
                (t1 - t0).as_secs_f64(),
                (t2 - t1).as_secs_f64(),
                (t3 - t2).as_secs_f64(),
                -1.0,
            ],
            (t3 - t0).as_secs_f64(),
            None,
            None,
        ));

        Decision {
            action: il.action,
            mode: Some(ModeTag::Il),
            uncertainty: Some(hsa.uncertainty),
            complexity: Some(hsa.complexity),
        }
    }
}

/// An optimization-only reference: the CO stack drives everywhere,
/// consuming detected (possibly noisy) boxes.
pub struct PureCoPolicy {
    perception: Perception,
    co: CoController,
    recorder: Recorder,
    last_reverse: Option<bool>,
}

impl PureCoPolicy {
    /// Assembles the baseline for a scenario.
    pub fn new(config: &ICoilConfig, scenario: &Scenario) -> Self {
        PureCoPolicy {
            perception: Perception::new(config.bev, scenario),
            co: CoController::new(config.co, scenario.vehicle_params),
            recorder: Recorder::new(),
            last_reverse: None,
        }
    }

    /// The inner CO controller (conformance probes attach here).
    pub fn co_mut(&mut self) -> &mut CoController {
        &mut self.co
    }
}

impl Policy for PureCoPolicy {
    fn begin_episode(&mut self, _obs: &Observation) {
        self.co.reset();
        self.last_reverse = None;
    }

    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        Some(&mut self.recorder)
    }

    fn decide(&mut self, obs: &Observation) -> Decision {
        let t0 = Instant::now();
        let sensing = self.perception.observe(obs);
        let t1 = Instant::now();
        let out = self.co.control(obs, &sensing.boxes);
        let t2 = Instant::now();

        if self.last_reverse.is_some_and(|prev| prev != out.action.reverse) {
            self.recorder.add(Counter::GearReversals, 1);
        }
        self.last_reverse = Some(out.action.reverse);
        let solve = out.mpc.as_ref().map(solve_event);
        self.recorder.frame(&frame_event(
            obs,
            "CO",
            "CO",
            0.0,
            0.0,
            0.0,
            [(t1 - t0).as_secs_f64(), -1.0, -1.0, (t2 - t1).as_secs_f64()],
            (t2 - t0).as_secs_f64(),
            Some(&out),
            solve,
        ));

        Decision::tagged(out.action, ModeTag::Co)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_vehicle::ActionCodec;
    use icoil_world::episode::{run_episode, EpisodeConfig};
    use icoil_world::{Difficulty, ScenarioConfig, World};

    fn untrained_model(config: &ICoilConfig) -> IlModel {
        IlModel::untrained(ActionCodec::default(), config.bev, 1)
    }

    #[test]
    fn icoil_emits_tagged_decisions() {
        let config = ICoilConfig::default();
        let scenario = ScenarioConfig::new(Difficulty::Easy, 6).build();
        let mut policy = ICoilPolicy::new(&config, untrained_model(&config), &scenario);
        let mut world = World::new(scenario);
        let result = run_episode(
            &mut world,
            &mut policy,
            &EpisodeConfig {
                max_time: 2.0,
                record_trace: true,
            },
        );
        assert!(!result.trace.is_empty());
        for f in &result.trace {
            assert!(f.mode.is_some());
            assert!(f.uncertainty.is_some());
            assert!(f.complexity.is_some());
            assert!(f.action.validate().is_ok());
        }
    }

    #[test]
    fn untrained_model_is_uncertain_so_icoil_uses_co() {
        // an untrained DNN outputs near-uniform distributions → high
        // entropy → the HSA must keep iCOIL in CO mode
        let config = ICoilConfig::default();
        let scenario = ScenarioConfig::new(Difficulty::Easy, 6).build();
        let mut policy = ICoilPolicy::new(&config, untrained_model(&config), &scenario);
        let mut world = World::new(scenario);
        let result = run_episode(
            &mut world,
            &mut policy,
            &EpisodeConfig {
                max_time: 5.0,
                record_trace: true,
            },
        );
        let co_frames = result
            .trace
            .iter()
            .filter(|f| f.mode == Some(ModeTag::Co))
            .count();
        assert!(
            co_frames as f64 > 0.9 * result.trace.len() as f64,
            "CO frames {co_frames}/{}",
            result.trace.len()
        );
    }

    #[test]
    fn pure_il_always_tags_il() {
        let config = ICoilConfig::default();
        let scenario = ScenarioConfig::new(Difficulty::Easy, 6).build();
        let mut policy = PureIlPolicy::new(&config, untrained_model(&config), &scenario);
        let mut world = World::new(scenario);
        let result = run_episode(
            &mut world,
            &mut policy,
            &EpisodeConfig {
                max_time: 1.0,
                record_trace: true,
            },
        );
        assert!(result
            .trace
            .iter()
            .all(|f| f.mode == Some(ModeTag::Il)));
    }

    #[test]
    fn pure_co_parks_on_easy() {
        let config = ICoilConfig::default();
        let scenario = ScenarioConfig::new(Difficulty::Easy, 6).build();
        let mut policy = PureCoPolicy::new(&config, &scenario);
        let mut world = World::new(scenario);
        let result = run_episode(
            &mut world,
            &mut policy,
            &EpisodeConfig {
                max_time: 90.0,
                record_trace: false,
            },
        );
        assert!(result.is_success(), "outcome {:?}", result.outcome);
    }

    #[test]
    fn safety_projection_shields_il_mode() {
        use icoil_adapt::SafetyConfig;
        use icoil_hsa::HsaConfig;
        // pin the arbiter to IL so every frame exercises the projector,
        // with an untrained (essentially random) policy driving
        let config = ICoilConfig {
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
        };
        let scenario = ScenarioConfig::new(Difficulty::Hard, 13).build();
        let mut policy = ICoilPolicy::new(&config, untrained_model(&config), &scenario);
        let mut world = World::new(scenario);
        let result = run_episode(
            &mut world,
            &mut policy,
            &EpisodeConfig {
                max_time: 10.0,
                record_trace: true,
            },
        );
        for f in &result.trace {
            assert!(f.action.validate().is_ok());
        }
        let m = policy.recorder_mut().expect("instrumented").metrics();
        assert_eq!(
            m.counter(Counter::SafetyProjections),
            m.series(Series::SafetyClipMag).count(),
            "every projection activation must record its clip magnitude"
        );
    }

    #[test]
    fn policies_accumulate_frame_metrics() {
        use icoil_telemetry::Series;
        let config = ICoilConfig::default();
        let scenario = ScenarioConfig::new(Difficulty::Easy, 6).build();
        let mut policy = ICoilPolicy::new(&config, untrained_model(&config), &scenario);
        let mut world = World::new(scenario);
        let result = run_episode(
            &mut world,
            &mut policy,
            &EpisodeConfig {
                max_time: 2.0,
                record_trace: false,
            },
        );
        let m = policy.recorder_mut().expect("instrumented").metrics();
        assert_eq!(m.counter(Counter::Frames) as usize, result.frames);
        assert_eq!(
            m.counter(Counter::IlFrames) + m.counter(Counter::CoFrames),
            m.counter(Counter::Frames)
        );
        // the untrained model keeps iCOIL in CO mode → MPC solves ran
        assert!(m.counter(Counter::MpcSolves) > 0);
        assert!(m.counter(Counter::AdmmIterations) > 0);
        assert_eq!(
            m.series(Series::FrameTotal).count(),
            m.counter(Counter::Frames)
        );
        assert_eq!(
            m.series(Series::AdmmPerSolve).count(),
            m.counter(Counter::MpcSolves)
        );
    }
}
