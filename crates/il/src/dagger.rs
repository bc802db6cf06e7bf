//! DAgger: dataset aggregation for imitation learning.
//!
//! The paper's related work points at HG-DAgger \[15\] as the remedy for
//! IL's covariate shift: let the *learner* drive, let the *expert* label
//! the states the learner actually visits, aggregate and retrain. This
//! module implements classic DAgger with the scripted CO expert as the
//! labeler — an optional extension over the base behavioral cloning in
//! [`crate::collect`].

use crate::expert::ExpertPolicy;
use crate::model::IlModel;
use crate::train::{train, TrainConfig};
use icoil_nn::Dataset;
use icoil_perception::BevRenderer;
use icoil_vehicle::ActionCodec;
use icoil_world::episode::{Observation, Policy};
use icoil_world::{NoiseConfig, ScenarioConfig, World};
use serde::{Deserialize, Serialize};

/// DAgger hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DaggerConfig {
    /// Aggregation rounds after the initial behavioral-cloning round.
    pub rounds: usize,
    /// Learner episodes rolled out per round.
    pub episodes_per_round: u64,
    /// Episode time budget (simulated seconds).
    pub max_time: f64,
    /// Training hyperparameters (applied after every aggregation).
    pub train: TrainConfig,
}

impl Default for DaggerConfig {
    fn default() -> Self {
        DaggerConfig {
            rounds: 2,
            episodes_per_round: 4,
            max_time: 60.0,
            train: TrainConfig::default(),
        }
    }
}

/// Per-round progress of a DAgger run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaggerReport {
    /// Dataset size after each round (round 0 = behavioral cloning).
    pub dataset_sizes: Vec<usize>,
    /// Final training accuracy after each round.
    pub accuracies: Vec<f64>,
}

/// Runs DAgger on top of an existing demonstration dataset.
///
/// Round 0 trains on `seed_dataset` alone; each later round rolls the
/// current learner out on fresh scenarios, labels every visited state
/// with the expert's action, aggregates, and retrains from scratch
/// (fixed seed, so the procedure stays deterministic).
///
/// # Panics
///
/// Panics when the seed dataset is empty or shaped inconsistently with
/// the codec/BEV config.
pub fn dagger_train(
    seed_dataset: Dataset,
    scenario_base_seed: u64,
    codec: &ActionCodec,
    bev: &icoil_perception::BevConfig,
    config: &DaggerConfig,
) -> (IlModel, DaggerReport) {
    let mut dataset = seed_dataset;
    let mut sizes = vec![dataset.len()];
    let (mut model, report) = train(&dataset, codec, bev, &config.train);
    let mut accuracies = vec![report.final_accuracy()];
    let renderer = BevRenderer::new(*bev);

    for round in 0..config.rounds {
        for ep in 0..config.episodes_per_round {
            let scenario = ScenarioConfig::new(
                icoil_world::Difficulty::Easy,
                scenario_base_seed + round as u64 * 1000 + ep,
            )
            .build();
            let params = scenario.vehicle_params;
            let mut world = World::new(scenario);
            let mut expert = ExpertPolicy::new(params);
            expert.begin_episode(&Observation::new(&world));
            loop {
                let obs = Observation::new(&world);
                // the expert labels the state the learner visits
                let label_decision = expert.decide(&obs);
                let ego = obs.ego();
                let truth = obs.obstacles();
                let mut rng = rand::SeedableRng::seed_from_u64(0);
                let image =
                    renderer.render(&ego, &truth, world.map(), &NoiseConfig::none(), &mut rng);
                dataset
                    .push(&image.data, codec.encode(&label_decision.action))
                    .expect("BEV sample matches dataset shape");
                // ...but the learner drives
                let learner = model.infer(&image);
                world.step(&learner.action);
                if world.in_collision() || world.at_goal() || world.time() >= config.max_time {
                    break;
                }
            }
        }
        sizes.push(dataset.len());
        let (m, report) = train(&dataset, codec, bev, &config.train);
        model = m;
        accuracies.push(report.final_accuracy());
    }

    (
        model,
        DaggerReport {
            dataset_sizes: sizes,
            accuracies,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::collect_demonstrations;
    use icoil_perception::BevConfig;

    #[test]
    fn dagger_grows_dataset_and_stays_deterministic() {
        let codec = ActionCodec::default();
        let bev = BevConfig::default();
        // several seeds: DART perturbations can fail an unlucky episode,
        // and failed episodes are discarded by design
        let scenarios: Vec<ScenarioConfig> = (9300..9304)
            .map(|s| ScenarioConfig::new(icoil_world::Difficulty::Easy, s))
            .collect();
        let seed = collect_demonstrations(&scenarios, &codec, &bev, 90.0);
        assert!(!seed.is_empty());
        let config = DaggerConfig {
            rounds: 1,
            episodes_per_round: 1,
            max_time: 5.0, // keep the test fast: short learner rollouts
            train: TrainConfig {
                epochs: 1,
                ..TrainConfig::default()
            },
        };
        let run = || dagger_train(seed.clone(), 9400, &codec, &bev, &config);
        let (_, r1) = run();
        let (_, r2) = run();
        assert_eq!(r1, r2, "DAgger must be deterministic");
        assert_eq!(r1.dataset_sizes.len(), 2);
        assert!(
            r1.dataset_sizes[1] > r1.dataset_sizes[0],
            "aggregation must add samples"
        );
        assert_eq!(r1.accuracies.len(), 2);
    }
}
