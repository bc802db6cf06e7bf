//! Ablation: behavioral cloning vs DAgger.
//!
//! Trains two IL models from the same expert demonstrations — one with
//! plain behavioral cloning, one with DAgger aggregation rounds — and
//! compares their *closed-loop* parking success on held-out easy
//! scenarios. Shows why the paper's related work points at HG-DAgger for
//! data quality: open-loop accuracy is similar, closed-loop success is
//! not.
//!
//! ```text
//! cargo run --release -p icoil-bench --bin ablate_dagger
//! ```

use icoil_bench::RunSize;
use icoil_core::{artifacts, eval, ICoilConfig, Method};
use icoil_world::episode::EpisodeConfig;
use icoil_world::{Difficulty, ParkingStats, ScenarioConfig};

fn main() {
    let size = RunSize::from_env();
    let config = ICoilConfig::default();
    let episode = EpisodeConfig {
        max_time: 60.0,
        record_trace: false,
    };
    let scenario_configs: Vec<ScenarioConfig> = (0..size.episodes)
        .map(|s| ScenarioConfig::new(Difficulty::Easy, s))
        .collect();

    println!(
        "# Ablation: behavioral cloning vs DAgger (easy level, {} episodes)",
        size.episodes
    );
    println!("# variant            success  avg_s");
    for (name, rounds) in [("BC (0 rounds)", 0usize), ("DAgger (2 rounds)", 2)] {
        let model = if rounds == 0 {
            artifacts::train_default_model(size.train_episodes, size.train_epochs)
        } else {
            artifacts::train_dagger_model(size.train_episodes, size.train_epochs, rounds)
        };
        let results = eval::run_batch_with(
            Method::Il,
            &config,
            &model,
            &scenario_configs,
            &episode,
            &size.eval_config(),
        );
        let stats = ParkingStats::from_results(&results);
        println!(
            "{name:18}  {:6.0}%  {:.2}",
            stats.success_ratio() * 100.0,
            stats.avg_time
        );
    }
}
