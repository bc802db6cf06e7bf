//! Regenerates **Fig. 8**: iCOIL parking time under different starting
//! points (close / remote / random) and numbers of obstacles (0–5).
//!
//! The shapes to reproduce: the close start is insensitive to the
//! obstacle count; remote and random starts get slower as obstacles are
//! added; the random start has the largest spread.
//!
//! ```text
//! cargo run --release -p icoil-bench --bin fig8
//! ```

use icoil_bench::{fmt_time, shared_model, RunSize};
use icoil_core::{eval, ICoilConfig, Method};
use icoil_world::episode::EpisodeConfig;
use icoil_world::{Difficulty, ParkingStats, ScenarioConfig, StartRegion};

fn main() {
    let size = RunSize::from_env();
    let model = shared_model(&size);
    let config = ICoilConfig::default();
    let episode = EpisodeConfig {
        max_time: 60.0,
        record_trace: false,
    };
    println!("# Fig. 8: iCOIL parking time vs obstacle count per start region");
    println!("# ({} episodes per point)", size.episodes);
    println!("# start    n_obs  avg_s   std_s   success");
    for (name, start) in [
        ("close", StartRegion::Close),
        ("remote", StartRegion::Remote),
        ("random", StartRegion::Random),
    ] {
        for n_obs in 0..=5usize {
            let scenario_configs: Vec<ScenarioConfig> = (0..size.episodes)
                .map(|s| {
                    ScenarioConfig::new(Difficulty::Easy, 300 + s)
                        .with_start(start)
                        .with_n_static(n_obs)
                })
                .collect();
            let results = eval::run_batch_with(
                Method::ICoil,
                &config,
                &model,
                &scenario_configs,
                &episode,
                &size.eval_config(),
            );
            let stats = ParkingStats::from_results(&results);
            println!(
                "{name:8} {n_obs:5}  {:>6}  {:>6}  {:.0}%",
                fmt_time(stats.avg_time),
                fmt_time(stats.std_time),
                stats.success_ratio() * 100.0
            );
        }
        println!();
    }
}
