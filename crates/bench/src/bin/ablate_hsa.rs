//! Ablation: the HSA switching *rule*.
//!
//! Compares the paper's ratio rule `U/C ≤ λ` against uncertainty-only
//! and complexity-only thresholds, and against the never-switch
//! baselines, on the normal level. Shows that the combined signal is
//! what buys the success rate.
//!
//! ```text
//! cargo run --release -p icoil-bench --bin ablate_hsa
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
        record_trace: false,
    };
    let scenario_configs: Vec<ScenarioConfig> = (0..size.episodes)
        .map(|s| ScenarioConfig::new(Difficulty::Normal, s))
        .collect();

    println!(
        "# Ablation: HSA switching rule (normal level, {} episodes)",
        size.episodes
    );
    println!("# variant             avg_s   success");

    // ratio rule (the paper), via lambda sweep around the default
    for (name, lambda) in [
        ("ratio λ=1e-6", 1e-6),
        ("ratio λ=3e-6 (def)", 3e-6),
        ("ratio λ=2e-5", 2e-5),
        // uncertainty-only: complexity in the ratio replaced by a huge λ
        // scaled against the known C floor ⇒ behaves like U ≤ u₀
        (
            "U-only u₀≈0.18",
            0.18 / icoil_hsa::ComplexityParams::default().min_value(),
        ),
    ] {
        let mut config = ICoilConfig::default();
        config.hsa.lambda = lambda;
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
            "{name:20} {:>6}  {:.0}%",
            fmt_time(stats.avg_time),
            stats.success_ratio() * 100.0
        );
    }
    // never switch: pure baselines
    let config = ICoilConfig::default();
    for (name, method) in [("always IL", Method::Il), ("always CO", Method::Co)] {
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
            "{name:20} {:>6}  {:.0}%",
            fmt_time(stats.avg_time),
            stats.success_ratio() * 100.0
        );
    }
}
