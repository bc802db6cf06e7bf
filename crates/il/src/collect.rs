//! Demonstration harvesting: expert episodes → labeled BEV dataset.

use crate::expert::ExpertPolicy;
use icoil_nn::Dataset;
use icoil_perception::{BevConfig, BevRenderer};
use icoil_vehicle::{Action, ActionCodec};
use icoil_world::episode::{Observation, Policy};
use icoil_world::{NoiseConfig, ScenarioConfig, World};
use rand::Rng;

/// Runs the expert on each scenario and records one `(BEV image, action
/// class)` sample per frame, exactly as the paper's dataset pairs
/// ego-view-derived BEV images with discretized expert actions.
///
/// Covariate shift is countered DART-style: the *executed* action is
/// occasionally perturbed (random steering offset) while the recorded
/// label stays the expert's corrective action for the perturbed state —
/// so the dataset teaches recovery from the small deviations a learner
/// will inevitably make. Episodes that end in collision or timeout are
/// discarded — the paper's dataset contains only successful
/// demonstrations. BEV rendering is *clean* (no noise): demonstrations
/// teach the nominal mapping; noise robustness is exactly what the hard
/// level later probes.
pub fn collect_demonstrations(
    scenarios: &[ScenarioConfig],
    codec: &ActionCodec,
    bev: &BevConfig,
    max_time: f64,
) -> Dataset {
    let mut dataset = Dataset::new(vec![3, bev.size, bev.size]);
    let renderer = BevRenderer::new(*bev);
    for config in scenarios {
        let scenario = config.build();
        let params = scenario.vehicle_params;
        let mut world = World::new(scenario);
        let mut expert = ExpertPolicy::new(params);
        // roll the episode manually so we can snapshot sensing per frame
        expert.begin_episode(&Observation::new(&world));
        let mut samples: Vec<(Vec<f32>, usize)> = Vec::new();
        let mut outcome_ok = false;
        // per-frame loop mirroring run_episode
        if world.in_collision() {
            continue;
        }
        let mut noise_rng: rand::rngs::SmallRng =
            rand::SeedableRng::seed_from_u64(config.seed ^ 0xD1CE);
        loop {
            let obs = Observation::new(&world);
            let decision = expert.decide(&obs);
            let ego = obs.ego();
            let truth = obs.obstacles();
            // clean rendering: noise-free, RNG unused
            let mut rng = rand::SeedableRng::seed_from_u64(0);
            let image = renderer.render(&ego, &truth, world.map(), &NoiseConfig::none(), &mut rng);
            samples.push((image.data.clone(), codec.encode(&decision.action)));
            // DART: execute a perturbed action 20% of the time; the
            // expert corrects from the perturbed state on later frames
            let executed = if noise_rng.gen_bool(0.2) {
                Action {
                    steer: (decision.action.steer + noise_rng.gen_range(-0.4..0.4))
                        .clamp(-1.0, 1.0),
                    ..decision.action
                }
            } else {
                decision.action
            };
            world.step(&executed);
            if world.in_collision() {
                break;
            }
            if world.at_goal() {
                outcome_ok = true;
                break;
            }
            if world.time() >= max_time {
                break;
            }
        }
        if outcome_ok {
            for (image, label) in samples {
                dataset
                    .push(&image, label)
                    .expect("BEV sample length matches dataset shape");
            }
        }
    }
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_world::Difficulty;

    #[test]
    fn collection_produces_labeled_frames() {
        let codec = ActionCodec::default();
        let bev = BevConfig::default();
        let scenarios = vec![ScenarioConfig::new(Difficulty::Easy, 4)];
        let d = collect_demonstrations(&scenarios, &codec, &bev, 90.0);
        assert!(
            d.len() > 100,
            "an episode is hundreds of frames, got {}",
            d.len()
        );
        assert_eq!(d.sample_shape(), &[3, 32, 32]);
        // labels must span both forward and reverse classes
        let counts = d.class_counts(codec.num_classes());
        let reverse_total: usize = counts[..codec.steer_bins()].iter().sum();
        let forward_total: usize = counts[2 * codec.steer_bins()..].iter().sum();
        assert!(forward_total > 0, "needs forward samples");
        assert!(reverse_total > 0, "needs reverse samples");
    }

    #[test]
    fn failed_episodes_are_discarded() {
        let codec = ActionCodec::default();
        let bev = BevConfig::default();
        // max_time too short for any episode to finish
        let scenarios = vec![ScenarioConfig::new(Difficulty::Easy, 4)];
        let d = collect_demonstrations(&scenarios, &codec, &bev, 0.5);
        assert_eq!(d.len(), 0);
    }
}
