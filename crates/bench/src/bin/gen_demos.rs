//! Generation-0 dataset seeder: runs the CO expert closed-loop over
//! procedurally generated scenarios of **all six map families** and
//! writes the harvested `(BEV, expert action)` frames as a versioned,
//! checksummed [`AdaptDataset`] — the warm start for the online
//! adaptation loop, so the first retraining round never begins from an
//! empty reservoir.
//!
//! ```text
//! cargo run --release -p icoil-bench --bin gen_demos [-- --out PATH]
//! ```
//!
//! The default output is `artifacts/adapt_gen0.icds`. Run sizes honor
//! `ICOIL_DEMO_EPISODES` (episodes per family, default 2),
//! `ICOIL_DEMO_FRAMES` (frame cap per episode, default 150) and
//! `ICOIL_DEMO_CAP` (reservoir cap per family, default 500). Every
//! frame goes through the same perception pipeline the serving engine
//! uses, so the seeded samples are distributionally identical to the
//! frames the online harvest adds later. The written file is reloaded
//! and checksum-verified before the bin reports success.

use icoil_adapt::AdaptDataset;
use icoil_bench::adapt::{new_aggregator, seed_demos, AdaptOptions};
use icoil_bench::print_row;
use icoil_serve::ServeConfig;
use icoil_world::MapFamilyKind;
use std::path::PathBuf;

fn env_size(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let mut out = PathBuf::from("artifacts/adapt_gen0.icds");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args.get(i).map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("gen_demos: --out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("gen_demos: unknown argument {other}");
                eprintln!("usage: gen_demos [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let episodes = env_size("ICOIL_DEMO_EPISODES", 2);
    let cap = env_size("ICOIL_DEMO_CAP", 500) as usize;
    let opts = AdaptOptions {
        frames_per_session: env_size("ICOIL_DEMO_FRAMES", 150),
        ..AdaptOptions::default()
    };
    let config = ServeConfig::default();

    let t0 = std::time::Instant::now();
    let mut aggregator = new_aggregator(&config, cap, opts.seed);
    let offered = seed_demos(&config, &opts, episodes, &mut aggregator);
    let dataset = aggregator.into_dataset();
    let counts = dataset.counts();

    let widths = [16usize, 9, 8, 5];
    print_row(
        &["family", "episodes", "offered", "kept"].map(String::from),
        &widths,
    );
    for family in MapFamilyKind::ALL {
        print_row(
            &[
                family.name().to_string(),
                episodes.to_string(),
                offered[family.index()].to_string(),
                counts[family.index()].to_string(),
            ],
            &widths,
        );
        if counts[family.index()] == 0 {
            eprintln!(
                "gen_demos: family {:?} seeded zero frames — the adaptation \
                 loop would start blind there",
                family.name()
            );
            std::process::exit(1);
        }
    }

    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).unwrap_or_else(|e| {
            eprintln!("gen_demos: cannot create {}: {e}", parent.display());
            std::process::exit(2);
        });
    }
    dataset.save(&out).unwrap_or_else(|e| {
        eprintln!("gen_demos: cannot write {}: {e}", out.display());
        std::process::exit(2);
    });
    // prove the artifact is readable and checksum-clean before declaring it
    let reloaded = AdaptDataset::load(&out).unwrap_or_else(|e| {
        eprintln!("gen_demos: written dataset fails to reload: {e}");
        std::process::exit(1);
    });
    assert_eq!(
        reloaded.len(),
        dataset.len(),
        "reload changed the frame count"
    );
    println!(
        "gen_demos: {} frame(s) across {} families -> {} ({:.1}s)",
        dataset.len(),
        MapFamilyKind::ALL.len(),
        out.display(),
        t0.elapsed().as_secs_f64()
    );
}
