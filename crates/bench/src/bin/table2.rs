//! Regenerates **Table II**: parking time (average / max / min) and
//! success ratio for iCOIL vs the conventional-IL baseline on the easy,
//! normal and hard tasks.
//!
//! ```text
//! cargo run --release -p icoil-bench --bin table2
//! ```
//!
//! Run size is controlled by `ICOIL_EPISODES` (episodes per cell) and the
//! training knobs documented in `icoil_bench::RunSize`.

use icoil_bench::{fmt_time, print_row, shared_model, RunSize};
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
    let widths = [8usize, 9, 8, 8, 14];

    println!("Table II: comparison of parking time and success rate");
    println!(
        "({} episodes per cell; seeds 0..{})",
        size.episodes, size.episodes
    );
    for difficulty in Difficulty::ALL {
        println!("\n{} task", capitalize(&difficulty.to_string()));
        print_row(
            &[
                "Method".into(),
                "Average".into(),
                "Max".into(),
                "Min".into(),
                "Success Ratio".into(),
            ],
            &widths,
        );
        for method in [Method::ICoil, Method::Il] {
            let scenario_configs: Vec<ScenarioConfig> = (0..size.episodes)
                .map(|s| ScenarioConfig::new(difficulty, s))
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
            print_row(
                &[
                    method.to_string(),
                    fmt_time(stats.avg_time),
                    fmt_time(stats.max_time),
                    fmt_time(stats.min_time),
                    format!("{:.0}%", stats.success_ratio() * 100.0),
                ],
                &widths,
            );
        }
    }
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}
