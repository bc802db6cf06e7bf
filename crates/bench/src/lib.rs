//! Shared helpers for the iCOIL benchmark harness.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it; this library holds what they share: the cached trained
//! IL model, run-size knobs, and plain-text table/series printing.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod adapt;

use icoil_core::artifacts;
use icoil_core::EvalConfig;
use icoil_il::IlModel;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Environment knobs for run sizes, so CI can run small and a paper-scale
/// reproduction can run big.
///
/// * `ICOIL_EPISODES` — episodes per table cell (default 20);
/// * `ICOIL_TRAIN_EPISODES` — expert episodes in the training set
///   (default 6);
/// * `ICOIL_TRAIN_EPOCHS` — training epochs (default 15);
/// * `ICOIL_DAGGER_ROUNDS` — DAgger aggregation rounds (default 2);
/// * `ICOIL_PARALLELISM` — evaluation worker threads (default: available
///   cores); per-seed results are bit-identical at any setting.
#[derive(Debug, Clone, Copy)]
pub struct RunSize {
    /// Episodes per experimental cell.
    pub episodes: u64,
    /// Expert episodes collected for IL training.
    pub train_episodes: u64,
    /// IL training epochs.
    pub train_epochs: usize,
    /// DAgger aggregation rounds.
    pub dagger_rounds: usize,
    /// Worker threads for multi-episode evaluation.
    pub parallelism: usize,
}

impl RunSize {
    /// Reads the knobs from the environment.
    pub fn from_env() -> Self {
        let get = |k: &str, d: u64| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        RunSize {
            episodes: get("ICOIL_EPISODES", 20),
            train_episodes: get("ICOIL_TRAIN_EPISODES", 6),
            train_epochs: get("ICOIL_TRAIN_EPOCHS", 15) as usize,
            dagger_rounds: get("ICOIL_DAGGER_ROUNDS", 2) as usize,
            parallelism: EvalConfig::from_env().parallelism,
        }
    }

    /// The [`EvalConfig`] matching this run size.
    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig::with_parallelism(self.parallelism)
    }
}

/// The kernel-ceiling and solver-work record emitted by the `perf` bin
/// as `BENCH_perf.json`.
///
/// It holds only what no other tool measures: the deterministic
/// warm/cold ADMM iteration counts and two kernel microbenchmarks. All
/// float fields are sanitized before serialization — the vendored JSON
/// emitter renders non-finite floats as `null`, which would silently
/// break downstream schema checks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Mean ADMM iterations per warm MPC step.
    pub mean_admm_iters_warm: f64,
    /// Mean ADMM iterations per cold MPC step.
    pub mean_admm_iters_cold: f64,
    /// Sparse LDLᵀ numeric-refactor microseconds per KKT factorization.
    pub kkt_factor_us_sparse: f64,
    /// Fill ratio of the MPC KKT matrix.
    pub kkt_nnz_ratio: f64,
    /// f32 matmul throughput with the scalar kernels forced (GFLOP/s).
    pub matmul_gflops_scalar: f64,
    /// f32 matmul throughput with the detected SIMD kernels (GFLOP/s).
    pub matmul_gflops_simd: f64,
    /// Kernel dispatch target the microbenchmarks ran on (`"avx512"`,
    /// `"avx2"` or `"scalar"`).
    pub simd_dispatch: String,
    /// Timing discipline of the matmul microbenchmark: each number is
    /// the best of this many timed repetitions.
    pub kernel_best_of: u64,
    /// Whether any measured field was non-finite before sanitization.
    pub had_nonfinite: bool,
}

impl PerfReport {
    /// The float fields every `BENCH_perf.json` must carry, by JSON key.
    pub const NUMERIC_FIELDS: &'static [&'static str] = &[
        "mean_admm_iters_warm",
        "mean_admm_iters_cold",
        "kkt_factor_us_sparse",
        "kkt_nnz_ratio",
        "matmul_gflops_scalar",
        "matmul_gflops_simd",
    ];

    /// Clamps every non-finite float field to a finite value and records
    /// the occurrence in [`PerfReport::had_nonfinite`]. Returns whether
    /// anything was clamped.
    pub fn sanitize(&mut self) -> bool {
        let mut flagged = false;
        for v in [
            &mut self.mean_admm_iters_warm,
            &mut self.mean_admm_iters_cold,
            &mut self.kkt_factor_us_sparse,
            &mut self.kkt_nnz_ratio,
            &mut self.matmul_gflops_scalar,
            &mut self.matmul_gflops_simd,
        ] {
            icoil_telemetry::sanitize_field(v, &mut flagged);
        }
        self.had_nonfinite |= flagged;
        flagged
    }
}

/// Checks that every key of `keys` is a finite number in `v`, naming
/// `file` and the key in the error.
fn check_numbers(file: &str, v: &serde_json::Value, keys: &[&str]) -> Result<(), String> {
    for key in keys {
        let value = v
            .get(key)
            .ok_or_else(|| format!("{file} is missing {key:?}"))?
            .as_f64()
            .ok_or_else(|| format!("{file} field {key:?} is not a number"))?;
        if !value.is_finite() {
            return Err(format!("{file} field {key:?} is non-finite"));
        }
    }
    Ok(())
}

/// Checks that every key of `keys` is an integer in `v`.
fn check_integers(file: &str, v: &serde_json::Value, keys: &[&str]) -> Result<(), String> {
    for key in keys {
        v.get(key)
            .and_then(serde_json::Value::as_u64)
            .ok_or_else(|| format!("{file} field {key:?} is not an integer"))?;
    }
    Ok(())
}

/// Checks that `had_nonfinite` is a bool in `v`.
fn check_nonfinite_flag(file: &str, v: &serde_json::Value) -> Result<(), String> {
    v.get("had_nonfinite")
        .and_then(serde_json::Value::as_bool)
        .map(|_| ())
        .ok_or_else(|| format!("{file} field \"had_nonfinite\" is not a bool"))
}

/// Checks that `v[key]` is an array holding exactly one row per map
/// family — each row's `"family"` a known [`icoil_world::MapFamilyKind`]
/// name, none listed twice, none missing — and returns the rows with
/// their family names, in file order.
fn family_rows<'v>(
    file: &str,
    v: &'v serde_json::Value,
    key: &str,
) -> Result<Vec<(&'v str, &'v serde_json::Value)>, String> {
    let rows = v
        .get(key)
        .and_then(serde_json::Value::as_seq)
        .ok_or_else(|| format!("{file} field {key:?} is not an array"))?;
    let mut named: Vec<(&str, &serde_json::Value)> = Vec::with_capacity(rows.len());
    for row in rows {
        let name = row
            .get("family")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| format!("{file} {key:?} row is missing \"family\""))?;
        if icoil_world::MapFamilyKind::from_name(name).is_none() {
            return Err(format!("{file} names unknown family {name:?}"));
        }
        if named.iter().any(|(seen, _)| *seen == name) {
            return Err(format!("{file} lists family {name:?} twice"));
        }
        named.push((name, row));
    }
    for kind in icoil_world::MapFamilyKind::ALL {
        if !named.iter().any(|(seen, _)| *seen == kind.name()) {
            return Err(format!("{file} is missing family {:?}", kind.name()));
        }
    }
    Ok(named)
}

/// Validates a parsed `BENCH_perf.json` against the [`PerfReport`]
/// schema: every numeric field present and finite, `kernel_best_of`
/// integral, `simd_dispatch` a nonempty string.
///
/// # Errors
///
/// Returns the first violation found, naming the offending field.
pub fn validate_perf_json(v: &serde_json::Value) -> Result<(), String> {
    const FILE: &str = "BENCH_perf.json";
    check_numbers(FILE, v, PerfReport::NUMERIC_FIELDS)?;
    check_integers(FILE, v, &["kernel_best_of"])?;
    let dispatch = v
        .get("simd_dispatch")
        .and_then(serde_json::Value::as_str)
        .ok_or_else(|| "BENCH_perf.json field \"simd_dispatch\" is not a string".to_string())?;
    if dispatch.is_empty() {
        return Err("BENCH_perf.json field \"simd_dispatch\" is empty".to_string());
    }
    check_nonfinite_flag(FILE, v)
}

/// CO-lane replies one map family's sessions received: one
/// `co_by_family` row of `BENCH_serve.json`. The bench client counts
/// them from the `StepResponse`s it reads, so a new family needs no
/// telemetry or engine edit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyCoCounts {
    /// Stable family name ([`icoil_world::MapFamilyKind::name`]).
    pub family: String,
    /// CO-lane replies that were solved (not shed).
    pub co_solved: u64,
    /// CO-lane replies shed by the deadline lane (degraded full brake).
    pub co_shed: u64,
}

impl FamilyCoCounts {
    /// Zeroed rows, one per map family in
    /// [`icoil_world::MapFamilyKind::ALL`] order, so a family's row sits
    /// at [`icoil_world::MapFamilyKind::index`].
    pub fn zeroed() -> Vec<FamilyCoCounts> {
        icoil_world::MapFamilyKind::ALL
            .into_iter()
            .map(|kind| FamilyCoCounts {
                family: kind.name().to_string(),
                co_solved: 0,
                co_shed: 0,
            })
            .collect()
    }

    /// Tallies one served reply into `rows` (laid out as
    /// [`FamilyCoCounts::zeroed`]): a CO-lane reply counts as solved or
    /// shed under `family`, any other reply counts nowhere.
    pub fn record(
        rows: &mut [FamilyCoCounts],
        family: icoil_world::MapFamilyKind,
        resp: &icoil_serve::StepResponse,
    ) {
        if resp.mode == "CO" {
            let row = &mut rows[family.index()];
            if resp.shed {
                row.co_shed += 1;
            } else {
                row.co_solved += 1;
            }
        }
    }

    /// Adds `other` into `rows`, row by row (both laid out as
    /// [`FamilyCoCounts::zeroed`]).
    pub fn merge(rows: &mut [FamilyCoCounts], other: &[FamilyCoCounts]) {
        for (row, add) in rows.iter_mut().zip(other) {
            row.co_solved += add.co_solved;
            row.co_shed += add.co_shed;
        }
    }

    /// Total shed replies across `rows`.
    pub fn total_shed(rows: &[FamilyCoCounts]) -> u64 {
        rows.iter().map(|row| row.co_shed).sum()
    }
}

/// The serving record emitted by the `loadgen` bin as
/// `BENCH_serve.json`: what the shedding policy and the adaptation
/// flywheel did, which the repository benchmark does not measure.
///
/// The shed rates come from the `co_admitted` / `co_shed` counters of two
/// separate phases — a comfortably-provisioned run that must not shed,
/// and a deliberately overloaded run that must shed rather than block.
/// All float fields are sanitized before serialization, as in
/// [`PerfReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Shed fraction of CO requests in the provisioned phase (must be 0).
    pub shed_rate_low: f64,
    /// Shed fraction of CO requests in the overload phase (must be > 0 —
    /// the lane degraded instead of blocking).
    pub shed_rate_overload: f64,
    /// IL mode share of adaptation generation 0 (the seed weights).
    pub adapt_il_share_g0: f64,
    /// IL mode share of adaptation generation 1 (after one retraining
    /// round; must be strictly above generation 0).
    pub adapt_il_share_g1: f64,
    /// IL mode share of adaptation generation 2 (after two retraining
    /// rounds; must be strictly above generation 1).
    pub adapt_il_share_g2: f64,
    /// CO + shed share of adaptation generation 0 — the expert load the
    /// flywheel is meant to shrink.
    pub adapt_co_shed_share_g0: f64,
    /// CO + shed share of adaptation generation 1 (strictly below
    /// generation 0).
    pub adapt_co_shed_share_g1: f64,
    /// CO + shed share of adaptation generation 2 (strictly below
    /// generation 1).
    pub adapt_co_shed_share_g2: f64,
    /// Collision episodes across every adaptation generation (must be 0
    /// — the safety-projection bar the mode-share trend is priced at).
    pub adapt_collisions: f64,
    /// Frames in the reservoir dataset after the last harvest.
    pub adapt_dataset_frames: f64,
    /// Safety-projection activations across the adaptation phase
    /// (IL-mode actions clipped by the per-frame constraint QP).
    pub adapt_safety_projections: f64,
    /// CO-lane replies per map family over the overload and adapt
    /// phases (the provisioned phase's seeded sessions carry no family),
    /// one row per family in [`icoil_world::MapFamilyKind::ALL`] order.
    pub co_by_family: Vec<FamilyCoCounts>,
    /// Whether any measured field was non-finite before sanitization.
    pub had_nonfinite: bool,
    /// Concurrent sessions in the provisioned phase.
    pub sessions: u64,
    /// Frames stepped per session in the provisioned phase.
    pub frames_per_session: u64,
    /// CO lane workers in the provisioned phase.
    pub co_workers: u64,
    /// Episodes served per adaptation generation (all families).
    pub adapt_sessions: u64,
    /// Frames stepped per episode in the adaptation phase.
    pub adapt_frames_per_session: u64,
    /// Serving generations in the adaptation phase (generation 0 runs
    /// the seed weights; each later one follows a retraining round).
    pub adapt_generations: u64,
}

impl ServeReport {
    /// The float fields every `BENCH_serve.json` must carry, by JSON key.
    pub const NUMERIC_FIELDS: &'static [&'static str] = &[
        "shed_rate_low",
        "shed_rate_overload",
        "adapt_il_share_g0",
        "adapt_il_share_g1",
        "adapt_il_share_g2",
        "adapt_co_shed_share_g0",
        "adapt_co_shed_share_g1",
        "adapt_co_shed_share_g2",
        "adapt_collisions",
        "adapt_dataset_frames",
        "adapt_safety_projections",
    ];

    /// Clamps every non-finite float field to a finite value and records
    /// the occurrence in [`ServeReport::had_nonfinite`]. Returns whether
    /// anything was clamped.
    pub fn sanitize(&mut self) -> bool {
        let mut flagged = false;
        for v in [
            &mut self.shed_rate_low,
            &mut self.shed_rate_overload,
            &mut self.adapt_il_share_g0,
            &mut self.adapt_il_share_g1,
            &mut self.adapt_il_share_g2,
            &mut self.adapt_co_shed_share_g0,
            &mut self.adapt_co_shed_share_g1,
            &mut self.adapt_co_shed_share_g2,
            &mut self.adapt_collisions,
            &mut self.adapt_dataset_frames,
            &mut self.adapt_safety_projections,
        ] {
            icoil_telemetry::sanitize_field(v, &mut flagged);
        }
        self.had_nonfinite |= flagged;
        flagged
    }
}

/// Validates a parsed `BENCH_serve.json` against the [`ServeReport`]
/// schema: every numeric field present and finite, the shed rates and
/// mode shares inside `[0, 1]`, one integral `co_by_family` row per map
/// family, and the run-size fields integral.
///
/// # Errors
///
/// Returns the first violation found, naming the offending field.
pub fn validate_serve_json(v: &serde_json::Value) -> Result<(), String> {
    const FILE: &str = "BENCH_serve.json";
    check_numbers(FILE, v, ServeReport::NUMERIC_FIELDS)?;
    for key in ServeReport::NUMERIC_FIELDS {
        let is_rate = key.starts_with("shed_rate")
            || key.starts_with("adapt_il_share")
            || key.starts_with("adapt_co_shed_share");
        let value = v
            .get(key)
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0);
        if is_rate && !(0.0..=1.0).contains(&value) {
            return Err(format!("{FILE} field {key:?} is outside [0, 1]: {value}"));
        }
    }
    for (name, row) in family_rows(FILE, v, "co_by_family")? {
        check_integers(
            &format!("{FILE} family {name:?}"),
            row,
            &["co_solved", "co_shed"],
        )?;
    }
    check_integers(
        FILE,
        v,
        &[
            "sessions",
            "frames_per_session",
            "co_workers",
            "adapt_sessions",
            "adapt_frames_per_session",
            "adapt_generations",
        ],
    )?;
    check_nonfinite_flag(FILE, v)
}

/// Per-family row of the scenario-matrix record emitted by the
/// `scenarios` bin as `BENCH_scenarios.json`.
///
/// Outcome rates are fractions of the family's episode count; the HSA
/// mode share and the maneuver taxonomy come from recorded traces
/// (`il_mode_share` over frames carrying a mode tag, gear reversals and
/// the single-shot share via `icoil_world::classify_maneuver`); solve
/// percentiles come from the merged `co_solve` telemetry histogram of
/// every episode in the family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FamilyScenarioStats {
    /// Stable family name ([`icoil_world::MapFamilyKind::name`]).
    pub family: String,
    /// Episodes run for this family.
    pub episodes: u64,
    /// Fraction of episodes that parked successfully.
    pub success_rate: f64,
    /// Fraction of episodes ending in a collision.
    pub collision_rate: f64,
    /// Fraction of episodes that timed out.
    pub timeout_rate: f64,
    /// Fraction of mode-tagged frames served by the IL lane.
    pub il_mode_share: f64,
    /// Mean gear reversals per episode.
    pub mean_gear_reversals: f64,
    /// Fraction of episodes classified as single-shot maneuvers (at most
    /// one gear reversal).
    pub single_shot_share: f64,
    /// Median CO solve latency across the family's episodes (µs).
    pub solve_p50_us: f64,
    /// 95th-percentile CO solve latency across the family's episodes (µs).
    pub solve_p95_us: f64,
}

impl FamilyScenarioStats {
    /// The float fields every family row must carry, by JSON key.
    pub const NUMERIC_FIELDS: &'static [&'static str] = &[
        "success_rate",
        "collision_rate",
        "timeout_rate",
        "il_mode_share",
        "mean_gear_reversals",
        "single_shot_share",
        "solve_p50_us",
        "solve_p95_us",
    ];

    /// The float fields that are rates and must lie inside `[0, 1]`.
    pub const RATE_FIELDS: &'static [&'static str] = &[
        "success_rate",
        "collision_rate",
        "timeout_rate",
        "il_mode_share",
        "single_shot_share",
    ];
}

/// The scenario-matrix record emitted by the `scenarios` bin as
/// `BENCH_scenarios.json`: one [`FamilyScenarioStats`] row per map
/// family, in [`icoil_world::MapFamilyKind::ALL`] order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenariosReport {
    /// One row per map family.
    pub families: Vec<FamilyScenarioStats>,
    /// Episodes run per family.
    pub episodes_per_family: u64,
    /// Whether the episodes drove the trained IL model artifact (`true`)
    /// or an untrained stand-in (`false`, `--untrained`).
    #[serde(default)]
    pub trained_model: bool,
    /// Whether any measured field was non-finite before sanitization.
    #[serde(default)]
    pub had_nonfinite: bool,
}

impl ScenariosReport {
    /// Clamps every non-finite float field to a finite value and records
    /// the occurrence in [`ScenariosReport::had_nonfinite`]. Returns
    /// whether anything was clamped.
    pub fn sanitize(&mut self) -> bool {
        let mut flagged = false;
        for f in &mut self.families {
            for v in [
                &mut f.success_rate,
                &mut f.collision_rate,
                &mut f.timeout_rate,
                &mut f.il_mode_share,
                &mut f.mean_gear_reversals,
                &mut f.single_shot_share,
                &mut f.solve_p50_us,
                &mut f.solve_p95_us,
            ] {
                icoil_telemetry::sanitize_field(v, &mut flagged);
            }
        }
        self.had_nonfinite |= flagged;
        flagged
    }
}

/// Validates a parsed `BENCH_scenarios.json` against the
/// [`ScenariosReport`] schema: every map family present exactly once
/// with a nonzero episode count, every numeric field finite, every rate
/// inside `[0, 1]`, and each row's outcome rates summing to one.
///
/// # Errors
///
/// Returns the first violation found, naming the offending family and
/// field.
pub fn validate_scenarios_json(v: &serde_json::Value) -> Result<(), String> {
    const FILE: &str = "BENCH_scenarios.json";
    for (name, row) in family_rows(FILE, v, "families")? {
        let episodes = row
            .get("episodes")
            .and_then(serde_json::Value::as_u64)
            .ok_or_else(|| format!("family {name:?} field \"episodes\" is not an integer"))?;
        if episodes == 0 {
            return Err(format!("family {name:?} reports zero episodes"));
        }
        for key in FamilyScenarioStats::NUMERIC_FIELDS {
            let value = row
                .get(key)
                .and_then(serde_json::Value::as_f64)
                .ok_or_else(|| format!("family {name:?} field {key:?} is not a number"))?;
            if !value.is_finite() {
                return Err(format!("family {name:?} field {key:?} is non-finite"));
            }
            if FamilyScenarioStats::RATE_FIELDS.contains(key) && !(0.0..=1.0).contains(&value) {
                return Err(format!(
                    "family {name:?} field {key:?} is outside [0, 1]: {value}"
                ));
            }
        }
        let outcome_sum: f64 = ["success_rate", "collision_rate", "timeout_rate"]
            .iter()
            .map(|k| {
                row.get(k)
                    .and_then(serde_json::Value::as_f64)
                    .unwrap_or(0.0)
            })
            .sum();
        if (outcome_sum - 1.0).abs() > 1e-9 {
            return Err(format!(
                "family {name:?} outcome rates sum to {outcome_sum}, not 1"
            ));
        }
    }
    check_integers(FILE, v, &["episodes_per_family"])?;
    check_nonfinite_flag(FILE, v)
}

/// Path of the cached trained IL model.
pub fn model_path() -> PathBuf {
    PathBuf::from("artifacts/il_model.json")
}

/// Loads the shared trained model, training and caching it on first use.
///
/// # Panics
///
/// Panics when the artifact cannot be created (disk errors).
pub fn shared_model(size: &RunSize) -> IlModel {
    artifacts::load_or_train(
        &model_path(),
        size.train_episodes,
        size.train_epochs,
        size.dagger_rounds,
    )
    .expect("trained IL model artifact")
}

/// Prints a row of a fixed-width table.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Formats seconds with two decimals, rendering NaN as a dash.
pub fn fmt_time(t: f64) -> String {
    if t.is_nan() {
        "-".to_string()
    } else {
        format!("{t:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PerfReport {
        PerfReport {
            mean_admm_iters_warm: 40.0,
            mean_admm_iters_cold: 120.0,
            kkt_factor_us_sparse: 10.0,
            kkt_nnz_ratio: 0.05,
            matmul_gflops_scalar: 2.0,
            matmul_gflops_simd: 8.0,
            simd_dispatch: "avx2+fma".to_string(),
            kernel_best_of: 5,
            had_nonfinite: false,
        }
    }

    #[test]
    fn sanitize_clamps_and_flags_nonfinite_fields() {
        let mut clean = sample_report();
        assert!(!clean.sanitize());
        assert!(!clean.had_nonfinite);

        let mut poisoned = sample_report();
        poisoned.kkt_nnz_ratio = f64::NAN;
        poisoned.matmul_gflops_simd = f64::INFINITY;
        assert!(poisoned.sanitize());
        assert!(poisoned.had_nonfinite);
        assert!(poisoned.kkt_nnz_ratio.is_finite());
        assert!(poisoned.matmul_gflops_simd.is_finite());
        // the flag is sticky across further (clean) sanitize passes
        assert!(!poisoned.sanitize());
        assert!(poisoned.had_nonfinite);
    }

    #[test]
    fn sanitized_report_reparses_and_validates() {
        let mut report = sample_report();
        report.kkt_factor_us_sparse = f64::NEG_INFINITY;
        report.sanitize();
        let json = serde_json::to_string(&report).expect("serializes");
        let v: serde_json::Value = serde_json::from_str(&json).expect("round-trips");
        validate_perf_json(&v).expect("sanitized report passes the schema check");
    }

    #[test]
    fn validate_rejects_missing_and_nonfinite_fields() {
        let report = sample_report();
        let json = serde_json::to_string(&report).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        validate_perf_json(&v).expect("complete report validates");

        let mut map = match v {
            serde_json::Value::Map(m) => m,
            other => panic!("report is an object, got {other:?}"),
        };
        map.retain(|(k, _)| k != "mean_admm_iters_cold");
        let err = validate_perf_json(&serde_json::Value::Map(map)).unwrap_err();
        assert!(
            err.contains("mean_admm_iters_cold"),
            "names the missing field: {err}"
        );

        // an unsanitized non-finite float serializes as null → not a number
        let mut poisoned = sample_report();
        poisoned.matmul_gflops_scalar = f64::NAN;
        let json = serde_json::to_string(&poisoned).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let err = validate_perf_json(&v).unwrap_err();
        assert!(
            err.contains("matmul_gflops_scalar"),
            "names the null field: {err}"
        );
    }

    fn sample_serve_report() -> ServeReport {
        let mut co_by_family = FamilyCoCounts::zeroed();
        for (i, row) in co_by_family.iter_mut().enumerate() {
            row.co_solved = 10 * i as u64;
            row.co_shed = i as u64 % 3;
        }
        ServeReport {
            shed_rate_low: 0.0,
            shed_rate_overload: 0.6,
            adapt_il_share_g0: 0.0,
            adapt_il_share_g1: 0.1,
            adapt_il_share_g2: 0.25,
            adapt_co_shed_share_g0: 1.0,
            adapt_co_shed_share_g1: 0.9,
            adapt_co_shed_share_g2: 0.75,
            adapt_collisions: 0.0,
            adapt_dataset_frames: 600.0,
            adapt_safety_projections: 3.0,
            co_by_family,
            had_nonfinite: false,
            sessions: 8,
            frames_per_session: 50,
            co_workers: 2,
            adapt_sessions: 6,
            adapt_frames_per_session: 40,
            adapt_generations: 3,
        }
    }

    /// Serializes `report` and re-parses it as a JSON value.
    fn to_value<T: Serialize>(report: &T) -> serde_json::Value {
        let json = serde_json::to_string(report).unwrap();
        serde_json::from_str(&json).unwrap()
    }

    #[test]
    fn serve_report_sanitizes_and_validates() {
        let mut clean = sample_serve_report();
        assert!(!clean.sanitize());
        validate_serve_json(&to_value(&clean)).expect("clean report validates");

        let mut poisoned = sample_serve_report();
        poisoned.adapt_dataset_frames = f64::INFINITY;
        assert!(poisoned.sanitize());
        assert!(poisoned.had_nonfinite);
        validate_serve_json(&to_value(&poisoned)).expect("sanitized report validates");
    }

    #[test]
    fn family_co_counts_tally_co_lane_replies_only() {
        let resp = |mode: &str, shed: bool| icoil_serve::StepResponse {
            session: 1,
            frame: 1,
            time: 0.1,
            mode: mode.to_string(),
            uncertainty: 0.0,
            complexity: 0.0,
            action: icoil_vehicle::Action::full_brake(),
            x: 0.0,
            y: 0.0,
            heading: 0.0,
            velocity: 0.0,
            emergency: false,
            degraded: shed,
            shed,
            outcome: None,
            weight_version: 0,
        };
        let kind = icoil_world::MapFamilyKind::DeadEndStub;
        let mut rows = FamilyCoCounts::zeroed();
        for r in [resp("CO", false), resp("CO", true), resp("IL", false)] {
            FamilyCoCounts::record(&mut rows, kind, &r);
        }
        FamilyCoCounts::record(&mut rows, kind, &resp("DONE", false));
        let row = &rows[kind.index()];
        assert_eq!(row.family, "dead_end_stub");
        assert_eq!((row.co_solved, row.co_shed), (1, 1));
        let mut merged = FamilyCoCounts::zeroed();
        FamilyCoCounts::merge(&mut merged, &rows);
        FamilyCoCounts::merge(&mut merged, &rows);
        assert_eq!(FamilyCoCounts::total_shed(&merged), 2);
        assert_eq!(merged[kind.index()].co_solved, 2);
    }

    #[test]
    fn validate_serve_rejects_bad_reports() {
        let mut map = match to_value(&sample_serve_report()) {
            serde_json::Value::Map(m) => m,
            other => panic!("report is an object, got {other:?}"),
        };
        map.retain(|(k, _)| k != "shed_rate_low");
        let err = validate_serve_json(&serde_json::Value::Map(map)).unwrap_err();
        assert!(
            err.contains("shed_rate_low"),
            "names the missing field: {err}"
        );

        let mut out_of_range = sample_serve_report();
        out_of_range.shed_rate_overload = 1.5;
        let err = validate_serve_json(&to_value(&out_of_range)).unwrap_err();
        assert!(err.contains("shed_rate_overload"), "names the field: {err}");

        // mode shares are rates too
        let mut bad_share = sample_serve_report();
        bad_share.adapt_il_share_g1 = 1.5;
        let err = validate_serve_json(&to_value(&bad_share)).unwrap_err();
        assert!(err.contains("adapt_il_share_g1"), "names the field: {err}");

        // an unsanitized non-finite float serializes as null → not a number
        let mut poisoned = sample_serve_report();
        poisoned.adapt_safety_projections = f64::NAN;
        let err = validate_serve_json(&to_value(&poisoned)).unwrap_err();
        assert!(
            err.contains("adapt_safety_projections"),
            "names the null field: {err}"
        );

        // every family has exactly one co_by_family row, and no other
        // family has one
        let mut short = sample_serve_report();
        short.co_by_family.pop();
        let err = validate_serve_json(&to_value(&short)).unwrap_err();
        assert!(err.contains("missing family \"crowded_lot\""), "{err}");

        let mut doubled = sample_serve_report();
        doubled.co_by_family[5] = doubled.co_by_family[0].clone();
        let err = validate_serve_json(&to_value(&doubled)).unwrap_err();
        assert!(err.contains("\"reverse_in\" twice"), "{err}");

        let mut unknown = sample_serve_report();
        unknown.co_by_family[2].family = "moon_base".to_string();
        let err = validate_serve_json(&to_value(&unknown)).unwrap_err();
        assert!(err.contains("unknown family \"moon_base\""), "{err}");
    }

    fn sample_scenarios_report() -> ScenariosReport {
        let families = icoil_world::MapFamilyKind::ALL
            .into_iter()
            .map(|kind| FamilyScenarioStats {
                family: kind.name().to_string(),
                episodes: 4,
                success_rate: 0.5,
                collision_rate: 0.25,
                timeout_rate: 0.25,
                il_mode_share: 0.3,
                mean_gear_reversals: 1.5,
                single_shot_share: 0.75,
                solve_p50_us: 800.0,
                solve_p95_us: 2000.0,
            })
            .collect();
        ScenariosReport {
            families,
            episodes_per_family: 4,
            trained_model: true,
            had_nonfinite: false,
        }
    }

    #[test]
    fn scenarios_report_sanitizes_and_validates() {
        let mut clean = sample_scenarios_report();
        assert!(!clean.sanitize());
        let json = serde_json::to_string(&clean).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        validate_scenarios_json(&v).expect("clean report validates");

        let mut poisoned = sample_scenarios_report();
        poisoned.families[2].solve_p95_us = f64::NAN;
        assert!(poisoned.sanitize());
        assert!(poisoned.had_nonfinite);
        let json = serde_json::to_string(&poisoned).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        validate_scenarios_json(&v).expect("sanitized report validates");
    }

    #[test]
    fn validate_scenarios_rejects_bad_reports() {
        // a missing family is named
        let mut short = sample_scenarios_report();
        short.families.pop();
        let json = serde_json::to_string(&short).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let err = validate_scenarios_json(&v).unwrap_err();
        assert!(err.contains("missing family"), "{err}");

        // an out-of-range rate is named with its family
        let mut bad_rate = sample_scenarios_report();
        bad_rate.families[1].il_mode_share = 1.5;
        let json = serde_json::to_string(&bad_rate).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let err = validate_scenarios_json(&v).unwrap_err();
        assert!(err.contains("il_mode_share"), "{err}");

        // outcome rates must sum to one
        let mut lossy = sample_scenarios_report();
        lossy.families[0].timeout_rate = 0.0;
        let json = serde_json::to_string(&lossy).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let err = validate_scenarios_json(&v).unwrap_err();
        assert!(err.contains("sum"), "{err}");

        // zero episodes cannot satisfy the campaign's acceptance bar
        let mut empty = sample_scenarios_report();
        empty.families[3].episodes = 0;
        let json = serde_json::to_string(&empty).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let err = validate_scenarios_json(&v).unwrap_err();
        assert!(err.contains("zero episodes"), "{err}");
    }

    #[test]
    fn run_size_defaults() {
        let s = RunSize {
            episodes: 20,
            train_episodes: 6,
            train_epochs: 15,
            dagger_rounds: 2,
            parallelism: 4,
        };
        assert!(s.episodes > 0);
        assert_eq!(s.eval_config().parallelism, 4);
        assert_eq!(fmt_time(f64::NAN), "-");
        assert_eq!(fmt_time(26.02), "26.02");
    }
}
