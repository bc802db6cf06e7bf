//! Ablation: the CO prediction horizon `H`.
//!
//! Eq. (8) models CO delay as superlinear in `H`; this sweep measures the
//! real trade-off — solve time per step versus closed-loop success — on
//! the normal level (where foresight matters because of the movers).
//!
//! ```text
//! cargo run --release -p icoil-bench --bin ablate_horizon
//! ```

use icoil_bench::{fmt_time, shared_model, RunSize};
use icoil_core::{eval, ICoilConfig, Method};
use icoil_world::episode::EpisodeConfig;
use icoil_world::{Difficulty, ParkingStats, ScenarioConfig};
use std::time::Instant;

fn main() {
    let size = RunSize::from_env();
    let model = shared_model(&size);
    let episode = EpisodeConfig {
        max_time: 60.0,
        record_trace: false,
    };
    let scenario_configs: Vec<ScenarioConfig> = (0..size.episodes)
        .map(|s| ScenarioConfig::new(Difficulty::Normal, s))
        .collect();

    println!(
        "# Ablation: CO horizon H (pure CO, normal level, {} episodes)",
        size.episodes
    );
    println!("# H   lookahead_s  wall_s/ep  avg_park_s  success");
    for horizon in [4usize, 8, 12, 16] {
        let mut config = ICoilConfig::default();
        config.co.horizon = horizon;
        config.hsa.complexity.horizon = horizon;
        let t0 = Instant::now();
        let results = eval::run_batch_with(
            Method::Co,
            &config,
            &model,
            &scenario_configs,
            &episode,
            &size.eval_config(),
        );
        let wall = t0.elapsed().as_secs_f64() / results.len() as f64;
        let stats = ParkingStats::from_results(&results);
        println!(
            "{horizon:3}  {:10.2}  {wall:9.2}  {:>10}  {:.0}%",
            horizon as f64 * config.co.mpc_dt,
            fmt_time(stats.avg_time),
            stats.success_ratio() * 100.0
        );
    }
}
