//! The scripted expert demonstrator.
//!
//! The paper collects demonstrations from a human driver on MoCAM. Our
//! expert is the CO stack run on *clean ground truth* (no sensing noise,
//! perfect boxes): it produces competent, collision-free parking with
//! both forward and reverse phases — the same data profile (2 624
//! forward / 2 547 reverse samples in the paper) without a human in the
//! loop.

use icoil_co::{CoConfig, CoController};
use icoil_vehicle::VehicleParams;
use icoil_world::episode::{Decision, ModeTag, Observation, Policy};

/// A [`Policy`] that drives with the CO stack on ground-truth obstacles.
pub struct ExpertPolicy {
    controller: CoController,
}

impl ExpertPolicy {
    /// Creates an expert for the given vehicle.
    pub fn new(params: VehicleParams) -> Self {
        ExpertPolicy {
            controller: CoController::new(CoConfig::default(), params),
        }
    }

    /// Creates an expert with a custom CO configuration.
    pub fn with_config(config: CoConfig, params: VehicleParams) -> Self {
        ExpertPolicy {
            controller: CoController::new(config, params),
        }
    }

    /// Access to the underlying controller (e.g. for its planned path).
    pub fn controller(&self) -> &CoController {
        &self.controller
    }
}

impl Policy for ExpertPolicy {
    fn begin_episode(&mut self, _obs: &Observation) {
        self.controller.reset();
    }

    fn decide(&mut self, obs: &Observation) -> Decision {
        let boxes = obs.obstacles(); // ground truth
        let out = self.controller.control(obs, &boxes);
        Decision::tagged(out.action, ModeTag::Co)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_world::episode::{run_episode, EpisodeConfig};
    use icoil_world::{Difficulty, ScenarioConfig, World};

    #[test]
    fn expert_parks_on_easy_scenario() {
        let scenario = ScenarioConfig::new(Difficulty::Easy, 4).build();
        let params = scenario.vehicle_params;
        let mut world = World::new(scenario);
        let mut expert = ExpertPolicy::new(params);
        let result = run_episode(
            &mut world,
            &mut expert,
            &EpisodeConfig {
                max_time: 90.0,
                record_trace: true,
            },
        );
        assert!(
            result.is_success(),
            "expert must park; got {:?} after {:.1}s at distance {:.2}",
            result.outcome,
            result.parking_time,
            world.distance_to_goal()
        );
        // the trace must contain reverse driving (reverse-in parking)
        assert!(result.trace.iter().any(|f| f.action.reverse));
        assert!(result.trace.iter().any(|f| !f.action.reverse));
    }

    #[test]
    fn expert_is_deterministic() {
        let run = || {
            let scenario = ScenarioConfig::new(Difficulty::Easy, 8).build();
            let params = scenario.vehicle_params;
            let mut world = World::new(scenario);
            let mut expert = ExpertPolicy::new(params);
            run_episode(&mut world, &mut expert, &EpisodeConfig::default())
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.trace, b.trace);
    }
}
