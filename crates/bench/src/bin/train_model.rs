//! Builds (or rebuilds) the shared IL model artifact with a full report:
//! dataset composition, per-round DAgger progress, and a quick
//! closed-loop check.
//!
//! ```text
//! ICOIL_TRAIN_EPISODES=16 ICOIL_TRAIN_EPOCHS=30 ICOIL_DAGGER_ROUNDS=2 \
//!     cargo run --release -p icoil-bench --bin train_model
//! ```

use icoil_bench::{model_path, RunSize};
use icoil_core::{eval, ICoilConfig, Method};
use icoil_il::{collect_demonstrations, dagger_train, DaggerConfig, TrainConfig};
use icoil_vehicle::ActionCodec;
use icoil_world::episode::EpisodeConfig;
use icoil_world::{Difficulty, ParkingStats, ScenarioConfig};

fn main() {
    let size = RunSize::from_env();
    let config = ICoilConfig::default();
    let codec = ActionCodec::default();

    println!(
        "# training: {} expert episodes, {} epochs, {} DAgger rounds",
        size.train_episodes, size.train_epochs, size.dagger_rounds
    );
    let scenarios: Vec<ScenarioConfig> = (0..size.train_episodes)
        .map(|s| ScenarioConfig::new(Difficulty::Easy, 1000 + s))
        .collect();
    let dataset = collect_demonstrations(&scenarios, &codec, &config.bev, 90.0);
    println!("# seed dataset: {} samples", dataset.len());
    let counts = dataset.class_counts(codec.num_classes());
    let fwd: usize = counts[2 * codec.steer_bins()..].iter().sum();
    let rev: usize = counts[..codec.steer_bins()].iter().sum();
    let stop: usize = counts[codec.steer_bins()..2 * codec.steer_bins()]
        .iter()
        .sum();
    println!("#   forward {fwd}  reverse {rev}  stop {stop}");

    let dagger_config = DaggerConfig {
        rounds: size.dagger_rounds,
        episodes_per_round: (size.train_episodes / 2).max(2),
        max_time: 60.0,
        train: TrainConfig {
            epochs: size.train_epochs,
            ..TrainConfig::default()
        },
    };
    let (model, report) = dagger_train(dataset, 2000, &codec, &config.bev, &dagger_config);
    for (round, (n, acc)) in report
        .dataset_sizes
        .iter()
        .zip(&report.accuracies)
        .enumerate()
    {
        println!("# round {round}: {n} samples, train accuracy {acc:.3}");
    }

    let path = model_path();
    std::fs::create_dir_all(path.parent().expect("artifacts dir")).expect("create dir");
    std::fs::write(&path, model.to_json()).expect("write artifact");
    println!("# wrote {}", path.display());

    // quick closed-loop check on held-out seeds
    let episode = EpisodeConfig {
        max_time: 60.0,
        record_trace: false,
    };
    let held_out: Vec<ScenarioConfig> = (0..8)
        .map(|s| ScenarioConfig::new(Difficulty::Easy, s))
        .collect();
    let results = eval::run_batch_with(
        Method::Il,
        &config,
        &model,
        &held_out,
        &episode,
        &size.eval_config(),
    );
    let stats = ParkingStats::from_results(&results);
    println!(
        "# held-out IL closed-loop: success {:.0}% avg {:.1}s",
        stats.success_ratio() * 100.0,
        stats.avg_time
    );
}
