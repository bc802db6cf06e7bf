//! Scenario-matrix benchmark: drives the full iCOIL stack over every
//! procedural map family and emits `BENCH_scenarios.json`.
//!
//! ```text
//! cargo run --release -p icoil-bench --bin scenarios [-- --untrained] [--out PATH]
//! ```
//!
//! Per family ([`icoil_world::MapFamilyKind::ALL`] order) the report
//! carries: success / collision / timeout rates, the HSA mode share
//! (fraction of mode-tagged frames served by the IL lane), the maneuver
//! taxonomy (mean gear reversals and the single-shot share, classified
//! post-hoc from the recorded traces), and CO solve-cost p50/p95 from
//! the merged telemetry histograms.
//!
//! `ICOIL_EPISODES` sets the episodes per family (default 20). The
//! default model is the cached trained artifact (`shared_model`);
//! `--untrained` substitutes a deterministic untrained network so CI can
//! exercise the full pipeline without the training artifact.

use icoil_bench::{
    print_row, shared_model, validate_scenarios_json, FamilyScenarioStats, RunSize, ScenariosReport,
};
use icoil_core::eval::drain_episode_metrics;
use icoil_core::{ICoilConfig, ICoilPolicy};
use icoil_il::IlModel;
use icoil_telemetry::{Metrics, Series};
use icoil_vehicle::ActionCodec;
use icoil_world::episode::{run_episode, EpisodeConfig, ModeTag};
use icoil_world::{
    classify_maneuver, gear_reversals, Maneuver, MapFamilyKind, ProcGen, ProcGenConfig, World,
};

fn family_stats(
    kind: MapFamilyKind,
    model: &IlModel,
    episodes: u64,
    config: &ICoilConfig,
) -> FamilyScenarioStats {
    let gen = ProcGen::new(ProcGenConfig {
        family: Some(kind),
        ..ProcGenConfig::default()
    });
    let episode_config = EpisodeConfig {
        max_time: 30.0,
        record_trace: true,
    };
    let mut successes = 0u64;
    let mut collisions = 0u64;
    let mut timeouts = 0u64;
    let mut il_frames = 0u64;
    let mut tagged_frames = 0u64;
    let mut reversals = 0u64;
    let mut single_shots = 0u64;
    let mut merged = Metrics::new();
    for i in 0..episodes {
        // disjoint seed block per family so no two families replay the
        // same lot even where parameter draws coincide
        let seed = 7000 + kind as u64 * 1000 + i;
        let scenario = gen.generate(seed).build();
        let mut policy = ICoilPolicy::new(config, model.clone(), &scenario);
        let mut world = World::new(scenario);
        let result = run_episode(&mut world, &mut policy, &episode_config);
        merged.merge(&drain_episode_metrics(&mut policy, &result));
        match result.outcome {
            icoil_world::Outcome::Success => successes += 1,
            icoil_world::Outcome::Collision => collisions += 1,
            icoil_world::Outcome::Timeout => timeouts += 1,
        }
        for frame in &result.trace {
            if let Some(mode) = frame.mode {
                tagged_frames += 1;
                if mode == ModeTag::Il {
                    il_frames += 1;
                }
            }
        }
        reversals += gear_reversals(&result.trace) as u64;
        if classify_maneuver(&result.trace) == Maneuver::SingleShot {
            single_shots += 1;
        }
    }
    let n = episodes as f64;
    let solve_hist = merged.series(Series::CoSolve);
    FamilyScenarioStats {
        family: kind.name().to_string(),
        episodes,
        success_rate: successes as f64 / n,
        collision_rate: collisions as f64 / n,
        timeout_rate: timeouts as f64 / n,
        il_mode_share: il_frames as f64 / (tagged_frames as f64).max(1.0),
        mean_gear_reversals: reversals as f64 / n,
        single_shot_share: single_shots as f64 / n,
        solve_p50_us: solve_hist.quantile(0.50) * 1e6,
        solve_p95_us: solve_hist.quantile(0.95) * 1e6,
    }
}

fn main() {
    let mut untrained = false;
    let mut out = "BENCH_scenarios.json".to_string();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--untrained" => untrained = true,
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("scenarios: --out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("scenarios: unknown argument {other}");
                eprintln!("usage: scenarios [--untrained] [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let size = RunSize::from_env();
    let config = ICoilConfig::default();
    let model = if untrained {
        IlModel::untrained(ActionCodec::default(), config.bev, 1)
    } else {
        shared_model(&size)
    };
    eprintln!(
        "scenarios: {} episode(s) per family, {} model",
        size.episodes,
        if untrained { "untrained" } else { "trained" }
    );

    let started = std::time::Instant::now();
    let families: Vec<FamilyScenarioStats> = MapFamilyKind::ALL
        .into_iter()
        .map(|kind| {
            let stats = family_stats(kind, &model, size.episodes, &config);
            eprintln!(
                "scenarios: {:>16}  success {:>5.2}  il share {:>5.2}  reversals {:>4.1}",
                stats.family, stats.success_rate, stats.il_mode_share, stats.mean_gear_reversals
            );
            stats
        })
        .collect();

    let mut report = ScenariosReport {
        families,
        episodes_per_family: size.episodes,
        trained_model: !untrained,
        had_nonfinite: false,
    };
    report.sanitize();

    let widths = [16usize, 8, 8, 8, 8, 9, 10, 12, 10, 10];
    print_row(
        &[
            "family",
            "episodes",
            "success",
            "collide",
            "timeout",
            "il_share",
            "reversals",
            "single_shot",
            "p50_us",
            "p95_us",
        ]
        .map(String::from),
        &widths,
    );
    for f in &report.families {
        print_row(
            &[
                f.family.clone(),
                f.episodes.to_string(),
                format!("{:.2}", f.success_rate),
                format!("{:.2}", f.collision_rate),
                format!("{:.2}", f.timeout_rate),
                format!("{:.2}", f.il_mode_share),
                format!("{:.2}", f.mean_gear_reversals),
                format!("{:.2}", f.single_shot_share),
                format!("{:.1}", f.solve_p50_us),
                format!("{:.1}", f.solve_p95_us),
            ],
            &widths,
        );
    }

    let json = serde_json::to_string(&report).expect("report serializes");
    let v: serde_json::Value = serde_json::from_str(&json).expect("report re-parses");
    if let Err(e) = validate_scenarios_json(&v) {
        eprintln!("scenarios: emitted report fails its own schema: {e}");
        std::process::exit(1);
    }
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("scenarios: cannot write {out}: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "scenarios: report written to {out} in {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
