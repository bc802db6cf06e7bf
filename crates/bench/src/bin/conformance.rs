//! Fuzzes procedurally generated parking scenarios through the
//! differential conformance checks and emits a JSON triage report.
//!
//! ```text
//! conformance [--cases N] [--seed S] [--smoke] [--inject]
//!             [--family NAME] [--out PATH]
//! ```
//!
//! By default the campaign cycles every map family; `--family` pins one
//! (by its stable name, e.g. `angled_echelon`) for the whole run.
//! `ICOIL_FUZZ_CASES` overrides the default case count (200; 25 in
//! `--smoke` mode). Exit status is nonzero when any *unexplained*
//! divergence is found — injected-canary failures (from `--inject`) are
//! expected, shrunk and reported, but never fail the run.

use icoil_conformance::{run_fuzz_with_progress, FuzzConfig};
use icoil_world::MapFamilyKind;

fn main() {
    let mut config = FuzzConfig::default();
    let mut out: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                config.smoke = true;
                config.cases = 25;
            }
            "--inject" => config.inject = true,
            "--cases" => {
                i += 1;
                config.cases = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--cases needs a number"));
            }
            "--seed" => {
                i += 1;
                config.seed0 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--family" => {
                i += 1;
                let name = args
                    .get(i)
                    .unwrap_or_else(|| usage("--family needs a family name"));
                config.gen.family = Some(MapFamilyKind::from_name(name).unwrap_or_else(|| {
                    usage(&format!(
                        "unknown family {name} (expected one of: {})",
                        MapFamilyKind::ALL.map(|k| k.name()).join(", ")
                    ))
                }));
            }
            "--out" => {
                i += 1;
                out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--out needs a path")),
                );
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if let Ok(v) = std::env::var("ICOIL_FUZZ_CASES") {
        if let Ok(n) = v.parse() {
            config.cases = n;
        }
    }

    eprintln!(
        "conformance: fuzzing {} scenario(s) from seed {}{}{}{}",
        config.cases,
        config.seed0,
        match config.gen.family {
            Some(kind) => format!(" (family {})", kind.name()),
            None => " (all families)".to_string(),
        },
        if config.smoke { " (smoke)" } else { "" },
        if config.inject { " (+canary)" } else { "" },
    );
    let started = std::time::Instant::now();
    let report = run_fuzz_with_progress(&config, |done, total| {
        if done % 25 == 0 && done > 0 {
            eprintln!("conformance: {done}/{total} scenarios checked");
        }
    });
    eprintln!(
        "conformance: {} in {:.1}s",
        report.summary(),
        started.elapsed().as_secs_f64()
    );
    for d in &report.divergences {
        eprintln!(
            "  {} seed {} [{}]: {} (minimized: {} static(s), {} route(s))",
            d.check,
            d.seed,
            if d.injected {
                "injected"
            } else {
                "UNEXPLAINED"
            },
            d.detail,
            d.minimized.statics.len(),
            d.minimized.routes.len(),
        );
    }

    let json = report.to_json();
    match &out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("conformance: cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("conformance: report written to {path}");
        }
        None => println!("{json}"),
    }
    std::process::exit(if report.passed() { 0 } else { 1 });
}

fn usage(problem: &str) -> ! {
    eprintln!("conformance: {problem}");
    eprintln!(
        "usage: conformance [--cases N] [--seed S] [--smoke] [--inject] \
         [--family NAME] [--out PATH]"
    );
    std::process::exit(2);
}
