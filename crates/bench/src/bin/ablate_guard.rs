//! Ablation: the guard time (mode-switch debounce).
//!
//! The paper adds a 20-timestamp guard to smooth transitions. This sweep
//! measures mode-chatter (switches per episode) and success with and
//! without it.
//!
//! ```text
//! cargo run --release -p icoil-bench --bin ablate_guard
//! ```

use icoil_bench::{fmt_time, shared_model, RunSize};
use icoil_core::{eval, ICoilConfig, Method};
use icoil_world::episode::EpisodeConfig;
use icoil_world::{Difficulty, ParkingStats, ScenarioConfig};

fn main() {
    let size = RunSize::from_env();
    let model = shared_model(&size);
    let episode = EpisodeConfig {
        max_time: 60.0,
        record_trace: true,
    };
    let scenario_configs: Vec<ScenarioConfig> = (0..size.episodes)
        .map(|s| ScenarioConfig::new(Difficulty::Normal, s))
        .collect();

    println!(
        "# Ablation: guard time (normal level, {} episodes)",
        size.episodes
    );
    println!("# guard  switches/ep  avg_s   success");
    for guard in [1usize, 5, 20, 60] {
        let mut config = ICoilConfig::default();
        config.hsa.guard_time = guard;
        let results = eval::run_batch_with(
            Method::ICoil,
            &config,
            &model,
            &scenario_configs,
            &episode,
            &size.eval_config(),
        );
        let switches: usize = results
            .iter()
            .map(|r| {
                r.trace
                    .windows(2)
                    .filter(|w| w[0].mode != w[1].mode)
                    .count()
            })
            .sum();
        let stats = ParkingStats::from_results(&results);
        println!(
            "{guard:6}  {:10.1}  {:>6}  {:.0}%",
            switches as f64 / results.len() as f64,
            fmt_time(stats.avg_time),
            stats.success_ratio() * 100.0
        );
    }
}
