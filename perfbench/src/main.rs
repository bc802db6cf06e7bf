//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <table2_icoil|fleet_il> --seed <n> --seconds <n> --trace <0|1>
//!           [--short] [--inject-mismatch]
//! ```
//!
//! Run from the repository root (it reads `artifacts/il_model.json`).
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a
//! traced run (`--trace 1`) repeats the same work with a span around
//! every call into a crate and reports the per-layer metrics. Both check
//! the program's outputs. The last line of standard output is the
//! result object; the line before it holds the run's metadata.
//! `--short` drops the sample floors so a run can be as brief as the
//! benchmark's own tests need; `--inject-mismatch` corrupts one replayed
//! result so those tests can see the replay check fail the run.

mod fleet;
mod layers;
mod report;
mod stats;
mod table2;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::time::Duration;

/// Where the committed IL model lives, relative to the repository root.
const MODEL_PATH: &str = "artifacts/il_model.json";

/// Where traced runs write their raw spans.
const TRACE_DIR: &str = "perfbench/out";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table II's evaluation loop through `icoil_core::eval`.
    Table2,
    /// One server whose every frame takes the IL lane, with migrations.
    FleetIl,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "table2_icoil" => Some(Workload::Table2),
            "fleet_il" => Some(Workload::FleetIl),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Table2 => "table2_icoil",
            Workload::FleetIl => "fleet_il",
        }
    }
}

/// The command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the untraced pass measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Whether to drop the sample floors.
    pub short: bool,
    /// Whether to corrupt one replayed result.
    pub inject_mismatch: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut short, mut inject_mismatch) = (false, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} is outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--short" => short = true,
            "--inject-mismatch" => inject_mismatch = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        short,
        inject_mismatch,
    })
}

/// How much work a run measures.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Measure at least this long. A traced run's untraced reference pass
    /// takes half of `--seconds`, because the traced passes that follow
    /// it repeat the same work.
    pub run_for: Duration,
    /// And keep going until this many latency samples exist, so the p99
    /// has ten samples beyond it.
    pub min_samples: usize,
    /// Never start new work after this long.
    pub cap: Duration,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
    /// Worker threads for the offline loop.
    pub nproc: usize,
}

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 21;

impl Budget {
    fn for_args(args: &RunArgs) -> Budget {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let run_for = Duration::from_secs_f64(args.seconds);
        if args.trace {
            let run_for = run_for / 2;
            Budget {
                run_for,
                min_samples: 0,
                cap: run_for,
                setup_reps: if args.short { 2 } else { SETUP_REPS },
                nproc,
            }
        } else if args.short {
            Budget {
                run_for,
                min_samples: 0,
                cap: run_for,
                setup_reps: 2,
                nproc,
            }
        } else {
            Budget {
                run_for,
                min_samples: stats::MIN_FOR_P99,
                cap: run_for.max(Duration::from_secs(45)),
                setup_reps: SETUP_REPS,
                nproc,
            }
        }
    }
}

/// Loads the committed IL model.
pub fn load_model() -> Result<icoil_il::IlModel, String> {
    let json = std::fs::read_to_string(MODEL_PATH)
        .map_err(|e| format!("cannot read {MODEL_PATH} (run from the repository root): {e}"))?;
    icoil_il::IlModel::from_json(&json).map_err(|e| format!("cannot parse {MODEL_PATH}: {e}"))
}

fn model_fingerprint() -> Result<String, String> {
    let bytes = std::fs::read(MODEL_PATH)
        .map_err(|e| format!("cannot read {MODEL_PATH} (run from the repository root): {e}"))?;
    Ok(stats::hex(&bytes))
}

/// Writes a traced run's spans to `perfbench/out/<workload>-trace.csv`.
pub fn write_trace(args: &RunArgs, tracers: &[trace::Tracer]) {
    let path = std::path::Path::new(TRACE_DIR).join(format!("{}-trace.csv", args.workload.name()));
    if let Err(e) = trace::write_csv(&path, tracers) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn run(args: &RunArgs) -> Result<Report, String> {
    let budget = Budget::for_args(args);
    let mut report = Report::default();
    report.meta_str("workload", args.workload.name());
    report.meta_count("seed", args.seed);
    report.meta_num("seconds", Some(args.seconds));
    report.meta("trace", Value::Bool(args.trace));
    report.meta("short", Value::Bool(args.short));
    report.meta_count("nproc", budget.nproc as u64);
    report.meta_str("simd_dispatch", icoil_nn::simd::dispatch_target());
    report.meta(
        "icoil_force_scalar",
        Value::Bool(std::env::var("ICOIL_FORCE_SCALAR").is_ok_and(|v| v == "1")),
    );
    report.meta_str("model_fnv1a", &model_fingerprint()?);
    match args.workload {
        Workload::Table2 => table2::run(args, &budget, &mut report)?,
        Workload::FleetIl => fleet::run(args, &budget, &mut report)?,
    }
    Ok(report)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <table2_icoil|fleet_il> --seed <n> \
                 --seconds <n> --trace <0|1> [--short] [--inject-mismatch]"
            );
            std::process::exit(2);
        }
    };
    let mut report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let result = report.result_line(declared);
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", report.meta_line());
    println!("{result}");
    std::process::exit(if report.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunArgs, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&[
            "--workload",
            "fleet_il",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::FleetIl);
        assert_eq!(a.seed, 7);
        assert!(a.trace && !a.short && !a.inject_mismatch);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        assert!(parse(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(parse(&["--workload", "fleet_il", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&[
            "--workload",
            "fleet_il",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(parse(&[
            "--workload",
            "fleet_il",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
