//! Ablation: the HSA averaging window `T` of eqs. (7)–(8).
//!
//! Short windows make the mode decision jumpy; long windows make it
//! sluggish. This sweep locates the useful range.
//!
//! ```text
//! cargo run --release -p icoil-bench --bin ablate_window
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
        "# Ablation: HSA window T (normal level, {} episodes)",
        size.episodes
    );
    println!("# window  switches/ep  avg_s   success");
    for window in [1usize, 5, 20, 60, 150] {
        let mut config = ICoilConfig::default();
        config.hsa.window = window;
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
            "{window:7}  {:10.1}  {:>6}  {:.0}%",
            switches as f64 / results.len() as f64,
            fmt_time(stats.avg_time),
            stats.success_ratio() * 100.0
        );
    }
}
