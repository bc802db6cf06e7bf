//! Regenerates **Fig. 9**: comparison of parking time across methods
//! (iCOIL vs IL vs pure CO) under the obstacle-count sweep.
//!
//! The shape to reproduce: IL is marginally faster when it succeeds, but
//! its success collapses with clutter; iCOIL stays close to CO's
//! reliability at a parking time comparable to the baselines.
//!
//! ```text
//! cargo run --release -p icoil-bench --bin fig9
//! ```

use icoil_bench::{fmt_time, shared_model, RunSize};
use icoil_core::{eval, ICoilConfig, Method};
use icoil_world::episode::EpisodeConfig;
use icoil_world::{Difficulty, ParkingStats, ScenarioConfig};

fn main() {
    let size = RunSize::from_env();
    let model = shared_model(&size);
    let config = ICoilConfig::default();
    let episode = EpisodeConfig {
        max_time: 60.0,
        record_trace: false,
    };
    println!("# Fig. 9: parking-time comparison across methods");
    println!("# ({} episodes per point, random start)", size.episodes);
    println!("# method  n_obs  avg_s   std_s   success");
    for method in [Method::ICoil, Method::Il, Method::Co] {
        for n_obs in [0usize, 1, 3, 5] {
            let scenario_configs: Vec<ScenarioConfig> = (0..size.episodes)
                .map(|s| ScenarioConfig::new(Difficulty::Easy, 500 + s).with_n_static(n_obs))
                .collect();
            let results = eval::run_batch_with(
                method,
                &config,
                &model,
                &scenario_configs,
                &episode,
                &size.eval_config(),
            );
            let stats = ParkingStats::from_results(&results);
            println!(
                "{:7} {n_obs:5}  {:>6}  {:>6}  {:.0}%",
                method.to_string(),
                fmt_time(stats.avg_time),
                fmt_time(stats.std_time),
                stats.success_ratio() * 100.0
            );
        }
        println!();
    }
}
