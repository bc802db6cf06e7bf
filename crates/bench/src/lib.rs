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

/// The performance-trajectory record emitted by the `perf` bin as
/// `BENCH_perf.json`.
///
/// Latency percentiles come from the telemetry histograms of the warm
/// CO drive (`frame_*` spans perception + control per frame, `solve_*`
/// the CO control stage alone). All float fields are sanitized before
/// serialization — the vendored JSON emitter renders non-finite floats
/// as `null`, which would silently break downstream schema checks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Closed-loop CO evaluation throughput (episodes per second).
    pub episodes_per_sec: f64,
    /// IL CNN inference rate on a live BEV image (Hz).
    pub il_hz: f64,
    /// Warm-started CO solve rate along a real drive (Hz).
    pub co_hz: f64,
    /// CO solve rate with the warm-start memory cleared every frame (Hz).
    pub co_hz_cold: f64,
    /// Mean ADMM iterations per warm MPC step.
    pub mean_admm_iters_warm: f64,
    /// Mean ADMM iterations per cold MPC step.
    pub mean_admm_iters_cold: f64,
    /// IL rate over CO rate (the paper's headline speed gap).
    pub il_over_co_ratio: f64,
    /// Sparse LDLᵀ numeric-refactor microseconds per KKT factorization.
    pub kkt_factor_us_sparse: f64,
    /// Fill ratio of the MPC KKT matrix.
    pub kkt_nnz_ratio: f64,
    /// Median per-frame latency of the warm CO drive (µs).
    #[serde(default)]
    pub frame_p50_us: f64,
    /// 95th-percentile per-frame latency of the warm CO drive (µs).
    #[serde(default)]
    pub frame_p95_us: f64,
    /// 99th-percentile per-frame latency of the warm CO drive (µs).
    #[serde(default)]
    pub frame_p99_us: f64,
    /// Median CO solve-stage latency of the warm drive (µs).
    #[serde(default)]
    pub solve_p50_us: f64,
    /// 95th-percentile CO solve-stage latency of the warm drive (µs).
    #[serde(default)]
    pub solve_p95_us: f64,
    /// 99th-percentile CO solve-stage latency of the warm drive (µs).
    #[serde(default)]
    pub solve_p99_us: f64,
    /// f32 matmul throughput with the scalar kernels forced (GFLOP/s).
    #[serde(default)]
    pub matmul_gflops_scalar: f64,
    /// f32 matmul throughput with the detected SIMD kernels (GFLOP/s).
    #[serde(default)]
    pub matmul_gflops_simd: f64,
    /// Kernel dispatch target the microbenchmarks ran on (`"avx512"`,
    /// `"avx2"` or `"scalar"`).
    #[serde(default)]
    pub simd_dispatch: String,
    /// Timing discipline of the kernel microbenchmarks: each number is
    /// the best of this many timed repetitions.
    #[serde(default)]
    pub kernel_best_of: u64,
    /// Whether any measured field was non-finite before sanitization.
    #[serde(default)]
    pub had_nonfinite: bool,
    /// Worker threads the evaluation batch fanned across.
    pub parallelism: usize,
    /// Episodes in the evaluation batch.
    pub episodes: u64,
}

impl PerfReport {
    /// The float fields every `BENCH_perf.json` must carry, by JSON key.
    pub const NUMERIC_FIELDS: &'static [&'static str] = &[
        "episodes_per_sec",
        "il_hz",
        "co_hz",
        "co_hz_cold",
        "mean_admm_iters_warm",
        "mean_admm_iters_cold",
        "il_over_co_ratio",
        "kkt_factor_us_sparse",
        "kkt_nnz_ratio",
        "frame_p50_us",
        "frame_p95_us",
        "frame_p99_us",
        "solve_p50_us",
        "solve_p95_us",
        "solve_p99_us",
        "matmul_gflops_scalar",
        "matmul_gflops_simd",
    ];

    /// Clamps every non-finite float field to a finite value and records
    /// the occurrence in [`PerfReport::had_nonfinite`]. Returns whether
    /// anything was clamped.
    pub fn sanitize(&mut self) -> bool {
        let mut flagged = false;
        for v in [
            &mut self.episodes_per_sec,
            &mut self.il_hz,
            &mut self.co_hz,
            &mut self.co_hz_cold,
            &mut self.mean_admm_iters_warm,
            &mut self.mean_admm_iters_cold,
            &mut self.il_over_co_ratio,
            &mut self.kkt_factor_us_sparse,
            &mut self.kkt_nnz_ratio,
            &mut self.frame_p50_us,
            &mut self.frame_p95_us,
            &mut self.frame_p99_us,
            &mut self.solve_p50_us,
            &mut self.solve_p95_us,
            &mut self.solve_p99_us,
            &mut self.matmul_gflops_scalar,
            &mut self.matmul_gflops_simd,
        ] {
            icoil_telemetry::sanitize_field(v, &mut flagged);
        }
        self.had_nonfinite |= flagged;
        flagged
    }
}

/// Validates a parsed `BENCH_perf.json` against the [`PerfReport`]
/// schema: every numeric field present and finite, the run-size fields
/// integral.
///
/// # Errors
///
/// Returns the first violation found, naming the offending field.
pub fn validate_perf_json(v: &serde_json::Value) -> Result<(), String> {
    for key in PerfReport::NUMERIC_FIELDS {
        let field = v
            .get(key)
            .ok_or_else(|| format!("BENCH_perf.json is missing {key:?}"))?;
        let value = field
            .as_f64()
            .ok_or_else(|| format!("BENCH_perf.json field {key:?} is not a number"))?;
        if !value.is_finite() {
            return Err(format!("BENCH_perf.json field {key:?} is non-finite"));
        }
    }
    for key in ["parallelism", "episodes", "kernel_best_of"] {
        v.get(key)
            .and_then(serde_json::Value::as_u64)
            .ok_or_else(|| format!("BENCH_perf.json field {key:?} is not an integer"))?;
    }
    let dispatch = v
        .get("simd_dispatch")
        .and_then(serde_json::Value::as_str)
        .ok_or_else(|| "BENCH_perf.json field \"simd_dispatch\" is not a string".to_string())?;
    if dispatch.is_empty() {
        return Err("BENCH_perf.json field \"simd_dispatch\" is empty".to_string());
    }
    v.get("had_nonfinite")
        .and_then(serde_json::Value::as_bool)
        .ok_or_else(|| "BENCH_perf.json field \"had_nonfinite\" is not a bool".to_string())?;
    Ok(())
}

/// The serving-load record emitted by the `loadgen` bin as
/// `BENCH_serve.json`.
///
/// Lane latency percentiles come from the server's own telemetry
/// histograms (`ServeIlLane` / `ServeCoLane`); the shed rates come from
/// the `co_admitted` / `co_shed` counters of two separate phases — a
/// comfortably-provisioned run that must not shed, and a deliberately
/// overloaded run that must shed rather than block. All float fields
/// are sanitized before serialization, as in [`PerfReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Complete sessions served per wall-clock second (all phases).
    pub sessions_per_sec: f64,
    /// Frames served per wall-clock second (all phases).
    pub frames_per_sec: f64,
    /// Median IL-lane frame latency (µs, request arrival → response).
    pub il_p50_us: f64,
    /// 95th-percentile IL-lane frame latency (µs).
    pub il_p95_us: f64,
    /// 99th-percentile IL-lane frame latency (µs).
    pub il_p99_us: f64,
    /// Median CO-lane frame latency (µs, request arrival → response).
    pub co_p50_us: f64,
    /// 95th-percentile CO-lane frame latency (µs).
    pub co_p95_us: f64,
    /// 99th-percentile CO-lane frame latency (µs).
    pub co_p99_us: f64,
    /// Mean IL micro-batch width across engine ticks.
    pub batch_size_mean: f64,
    /// Largest IL micro-batch width observed.
    pub batch_size_max: f64,
    /// Shed fraction of CO requests in the provisioned phase (must be 0).
    pub shed_rate_low: f64,
    /// Shed fraction of CO requests in the overload phase (must be > 0 —
    /// the lane degraded instead of blocking).
    pub shed_rate_overload: f64,
    /// Sessions/sec of the shard-scaling sweep at 1 engine shard: the
    /// median over the fresh servers each sweep point is timed on (as
    /// are the other sweep fields).
    #[serde(default)]
    pub sweep_sessions_per_sec_s1: f64,
    /// Sessions/sec of the shard-scaling sweep at 2 engine shards.
    #[serde(default)]
    pub sweep_sessions_per_sec_s2: f64,
    /// Sessions/sec of the shard-scaling sweep at 4 engine shards.
    #[serde(default)]
    pub sweep_sessions_per_sec_s4: f64,
    /// Sessions/sec of the shard-scaling sweep at 8 engine shards.
    #[serde(default)]
    pub sweep_sessions_per_sec_s8: f64,
    /// Mean per-shard IL micro-batch width in the sweep at 1 shard.
    #[serde(default)]
    pub sweep_batch_mean_s1: f64,
    /// Mean per-shard IL micro-batch width in the sweep at 2 shards.
    #[serde(default)]
    pub sweep_batch_mean_s2: f64,
    /// Mean per-shard IL micro-batch width in the sweep at 4 shards.
    #[serde(default)]
    pub sweep_batch_mean_s4: f64,
    /// Mean per-shard IL micro-batch width in the sweep at 8 shards.
    #[serde(default)]
    pub sweep_batch_mean_s8: f64,
    /// IL mode share of adaptation generation 0 (the seed weights).
    #[serde(default)]
    pub adapt_il_share_g0: f64,
    /// IL mode share of adaptation generation 1 (after one retraining
    /// round; must be strictly above generation 0).
    #[serde(default)]
    pub adapt_il_share_g1: f64,
    /// IL mode share of adaptation generation 2 (after two retraining
    /// rounds; must be strictly above generation 1).
    #[serde(default)]
    pub adapt_il_share_g2: f64,
    /// CO + shed share of adaptation generation 0 — the expert load the
    /// flywheel is meant to shrink.
    #[serde(default)]
    pub adapt_co_shed_share_g0: f64,
    /// CO + shed share of adaptation generation 1 (strictly below
    /// generation 0).
    #[serde(default)]
    pub adapt_co_shed_share_g1: f64,
    /// CO + shed share of adaptation generation 2 (strictly below
    /// generation 1).
    #[serde(default)]
    pub adapt_co_shed_share_g2: f64,
    /// Collision episodes across every adaptation generation (must be 0
    /// — the safety-projection bar the mode-share trend is priced at).
    #[serde(default)]
    pub adapt_collisions: f64,
    /// Frames in the reservoir dataset after the last harvest.
    #[serde(default)]
    pub adapt_dataset_frames: f64,
    /// Safety-projection activations across the adaptation phase
    /// (IL-mode actions clipped by the per-frame constraint QP).
    #[serde(default)]
    pub adapt_safety_projections: f64,
    /// CO solves admitted for `reverse_in` sessions (adapt + overload
    /// phases; seeded sessions carry no family and count nowhere).
    #[serde(default)]
    pub co_admitted_reverse_in: f64,
    /// CO solves admitted for `parallel_curb` sessions.
    #[serde(default)]
    pub co_admitted_parallel_curb: f64,
    /// CO solves admitted for `angled_echelon` sessions.
    #[serde(default)]
    pub co_admitted_angled_echelon: f64,
    /// CO solves admitted for `pillared_garage` sessions.
    #[serde(default)]
    pub co_admitted_pillared_garage: f64,
    /// CO solves admitted for `dead_end_stub` sessions.
    #[serde(default)]
    pub co_admitted_dead_end_stub: f64,
    /// CO solves admitted for `crowded_lot` sessions.
    #[serde(default)]
    pub co_admitted_crowded_lot: f64,
    /// CO requests shed for `reverse_in` sessions.
    #[serde(default)]
    pub co_shed_reverse_in: f64,
    /// CO requests shed for `parallel_curb` sessions.
    #[serde(default)]
    pub co_shed_parallel_curb: f64,
    /// CO requests shed for `angled_echelon` sessions.
    #[serde(default)]
    pub co_shed_angled_echelon: f64,
    /// CO requests shed for `pillared_garage` sessions.
    #[serde(default)]
    pub co_shed_pillared_garage: f64,
    /// CO requests shed for `dead_end_stub` sessions.
    #[serde(default)]
    pub co_shed_dead_end_stub: f64,
    /// CO requests shed for `crowded_lot` sessions.
    #[serde(default)]
    pub co_shed_crowded_lot: f64,
    /// Whether any measured field was non-finite before sanitization.
    #[serde(default)]
    pub had_nonfinite: bool,
    /// Concurrent sessions in the provisioned phases.
    pub sessions: u64,
    /// Frames stepped per session per phase.
    pub frames_per_session: u64,
    /// CO lane workers in the provisioned phases.
    pub co_workers: u64,
    /// Concurrent sessions in the shard-scaling sweep (IL-only lane, so
    /// thousands are cheap).
    #[serde(default)]
    pub sweep_sessions: u64,
    /// Frames stepped per session in the shard-scaling sweep.
    #[serde(default)]
    pub sweep_frames: u64,
    /// Episodes served per adaptation generation (all families).
    #[serde(default)]
    pub adapt_sessions: u64,
    /// Frames stepped per episode in the adaptation phase.
    #[serde(default)]
    pub adapt_frames_per_session: u64,
    /// Serving generations in the adaptation phase (generation 0 runs
    /// the seed weights; each later one follows a retraining round).
    #[serde(default)]
    pub adapt_generations: u64,
}

impl ServeReport {
    /// The float fields every `BENCH_serve.json` must carry, by JSON key.
    pub const NUMERIC_FIELDS: &'static [&'static str] = &[
        "sessions_per_sec",
        "frames_per_sec",
        "il_p50_us",
        "il_p95_us",
        "il_p99_us",
        "co_p50_us",
        "co_p95_us",
        "co_p99_us",
        "batch_size_mean",
        "batch_size_max",
        "shed_rate_low",
        "shed_rate_overload",
        "sweep_sessions_per_sec_s1",
        "sweep_sessions_per_sec_s2",
        "sweep_sessions_per_sec_s4",
        "sweep_sessions_per_sec_s8",
        "sweep_batch_mean_s1",
        "sweep_batch_mean_s2",
        "sweep_batch_mean_s4",
        "sweep_batch_mean_s8",
        "adapt_il_share_g0",
        "adapt_il_share_g1",
        "adapt_il_share_g2",
        "adapt_co_shed_share_g0",
        "adapt_co_shed_share_g1",
        "adapt_co_shed_share_g2",
        "adapt_collisions",
        "adapt_dataset_frames",
        "adapt_safety_projections",
        "co_admitted_reverse_in",
        "co_admitted_parallel_curb",
        "co_admitted_angled_echelon",
        "co_admitted_pillared_garage",
        "co_admitted_dead_end_stub",
        "co_admitted_crowded_lot",
        "co_shed_reverse_in",
        "co_shed_parallel_curb",
        "co_shed_angled_echelon",
        "co_shed_pillared_garage",
        "co_shed_dead_end_stub",
        "co_shed_crowded_lot",
    ];

    /// Clamps every non-finite float field to a finite value and records
    /// the occurrence in [`ServeReport::had_nonfinite`]. Returns whether
    /// anything was clamped.
    pub fn sanitize(&mut self) -> bool {
        let mut flagged = false;
        for v in [
            &mut self.sessions_per_sec,
            &mut self.frames_per_sec,
            &mut self.il_p50_us,
            &mut self.il_p95_us,
            &mut self.il_p99_us,
            &mut self.co_p50_us,
            &mut self.co_p95_us,
            &mut self.co_p99_us,
            &mut self.batch_size_mean,
            &mut self.batch_size_max,
            &mut self.shed_rate_low,
            &mut self.shed_rate_overload,
            &mut self.sweep_sessions_per_sec_s1,
            &mut self.sweep_sessions_per_sec_s2,
            &mut self.sweep_sessions_per_sec_s4,
            &mut self.sweep_sessions_per_sec_s8,
            &mut self.sweep_batch_mean_s1,
            &mut self.sweep_batch_mean_s2,
            &mut self.sweep_batch_mean_s4,
            &mut self.sweep_batch_mean_s8,
            &mut self.adapt_il_share_g0,
            &mut self.adapt_il_share_g1,
            &mut self.adapt_il_share_g2,
            &mut self.adapt_co_shed_share_g0,
            &mut self.adapt_co_shed_share_g1,
            &mut self.adapt_co_shed_share_g2,
            &mut self.adapt_collisions,
            &mut self.adapt_dataset_frames,
            &mut self.adapt_safety_projections,
            &mut self.co_admitted_reverse_in,
            &mut self.co_admitted_parallel_curb,
            &mut self.co_admitted_angled_echelon,
            &mut self.co_admitted_pillared_garage,
            &mut self.co_admitted_dead_end_stub,
            &mut self.co_admitted_crowded_lot,
            &mut self.co_shed_reverse_in,
            &mut self.co_shed_parallel_curb,
            &mut self.co_shed_angled_echelon,
            &mut self.co_shed_pillared_garage,
            &mut self.co_shed_dead_end_stub,
            &mut self.co_shed_crowded_lot,
        ] {
            icoil_telemetry::sanitize_field(v, &mut flagged);
        }
        self.had_nonfinite |= flagged;
        flagged
    }
}

/// Validates a parsed `BENCH_serve.json` against the [`ServeReport`]
/// schema: every numeric field present and finite, the run-size fields
/// integral, and the shed rates inside `[0, 1]`.
///
/// # Errors
///
/// Returns the first violation found, naming the offending field.
pub fn validate_serve_json(v: &serde_json::Value) -> Result<(), String> {
    for key in ServeReport::NUMERIC_FIELDS {
        let field = v
            .get(key)
            .ok_or_else(|| format!("BENCH_serve.json is missing {key:?}"))?;
        let value = field
            .as_f64()
            .ok_or_else(|| format!("BENCH_serve.json field {key:?} is not a number"))?;
        if !value.is_finite() {
            return Err(format!("BENCH_serve.json field {key:?} is non-finite"));
        }
        let is_rate = key.starts_with("shed_rate")
            || key.starts_with("adapt_il_share")
            || key.starts_with("adapt_co_shed_share");
        if is_rate && !(0.0..=1.0).contains(&value) {
            return Err(format!(
                "BENCH_serve.json field {key:?} is outside [0, 1]: {value}"
            ));
        }
    }
    for key in [
        "sessions",
        "frames_per_session",
        "co_workers",
        "sweep_sessions",
        "sweep_frames",
        "adapt_sessions",
        "adapt_frames_per_session",
        "adapt_generations",
    ] {
        v.get(key)
            .and_then(serde_json::Value::as_u64)
            .ok_or_else(|| format!("BENCH_serve.json field {key:?} is not an integer"))?;
    }
    v.get("had_nonfinite")
        .and_then(serde_json::Value::as_bool)
        .ok_or_else(|| "BENCH_serve.json field \"had_nonfinite\" is not a bool".to_string())?;
    Ok(())
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
    let families = v
        .get("families")
        .and_then(serde_json::Value::as_seq)
        .ok_or_else(|| "BENCH_scenarios.json field \"families\" is not an array".to_string())?;
    let mut seen: Vec<&str> = Vec::new();
    for row in families {
        let name = row
            .get("family")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| "BENCH_scenarios.json row is missing \"family\"".to_string())?;
        if icoil_world::MapFamilyKind::from_name(name).is_none() {
            return Err(format!(
                "BENCH_scenarios.json names unknown family {name:?}"
            ));
        }
        if seen.contains(&name) {
            return Err(format!("BENCH_scenarios.json lists family {name:?} twice"));
        }
        seen.push(name);
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
    for kind in icoil_world::MapFamilyKind::ALL {
        if !seen.contains(&kind.name()) {
            return Err(format!(
                "BENCH_scenarios.json is missing family {:?}",
                kind.name()
            ));
        }
    }
    v.get("episodes_per_family")
        .and_then(serde_json::Value::as_u64)
        .ok_or_else(|| {
            "BENCH_scenarios.json field \"episodes_per_family\" is not an integer".to_string()
        })?;
    v.get("had_nonfinite")
        .and_then(serde_json::Value::as_bool)
        .ok_or_else(|| "BENCH_scenarios.json field \"had_nonfinite\" is not a bool".to_string())?;
    Ok(())
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
            episodes_per_sec: 1.5,
            il_hz: 4000.0,
            co_hz: 3000.0,
            co_hz_cold: 2000.0,
            mean_admm_iters_warm: 40.0,
            mean_admm_iters_cold: 120.0,
            il_over_co_ratio: 4000.0 / 3000.0,
            kkt_factor_us_sparse: 10.0,
            kkt_nnz_ratio: 0.05,
            frame_p50_us: 300.0,
            frame_p95_us: 450.0,
            frame_p99_us: 600.0,
            solve_p50_us: 250.0,
            solve_p95_us: 400.0,
            solve_p99_us: 550.0,
            matmul_gflops_scalar: 2.0,
            matmul_gflops_simd: 8.0,
            simd_dispatch: "avx2+fma".to_string(),
            kernel_best_of: 5,
            had_nonfinite: false,
            parallelism: 4,
            episodes: 20,
        }
    }

    #[test]
    fn sanitize_clamps_and_flags_nonfinite_fields() {
        let mut clean = sample_report();
        assert!(!clean.sanitize());
        assert!(!clean.had_nonfinite);

        let mut poisoned = sample_report();
        poisoned.il_over_co_ratio = f64::NAN;
        poisoned.frame_p99_us = f64::INFINITY;
        assert!(poisoned.sanitize());
        assert!(poisoned.had_nonfinite);
        assert!(poisoned.il_over_co_ratio.is_finite());
        assert!(poisoned.frame_p99_us.is_finite());
        // the flag is sticky across further (clean) sanitize passes
        assert!(!poisoned.sanitize());
        assert!(poisoned.had_nonfinite);
    }

    #[test]
    fn sanitized_report_reparses_and_validates() {
        let mut report = sample_report();
        report.solve_p50_us = f64::NEG_INFINITY;
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
        map.retain(|(k, _)| k != "co_hz");
        let err = validate_perf_json(&serde_json::Value::Map(map)).unwrap_err();
        assert!(err.contains("co_hz"), "names the missing field: {err}");

        // an unsanitized non-finite float serializes as null → not a number
        let mut poisoned = sample_report();
        poisoned.co_hz = f64::NAN;
        let json = serde_json::to_string(&poisoned).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let err = validate_perf_json(&v).unwrap_err();
        assert!(err.contains("co_hz"), "names the null field: {err}");
    }

    fn sample_serve_report() -> ServeReport {
        ServeReport {
            sessions_per_sec: 2.0,
            frames_per_sec: 120.0,
            il_p50_us: 400.0,
            il_p95_us: 900.0,
            il_p99_us: 1500.0,
            co_p50_us: 9000.0,
            co_p95_us: 30000.0,
            co_p99_us: 60000.0,
            batch_size_mean: 5.5,
            batch_size_max: 8.0,
            shed_rate_low: 0.0,
            shed_rate_overload: 0.6,
            sweep_sessions_per_sec_s1: 150.0,
            sweep_sessions_per_sec_s2: 280.0,
            sweep_sessions_per_sec_s4: 500.0,
            sweep_sessions_per_sec_s8: 700.0,
            sweep_batch_mean_s1: 6.0,
            sweep_batch_mean_s2: 4.5,
            sweep_batch_mean_s4: 3.2,
            sweep_batch_mean_s8: 2.1,
            adapt_il_share_g0: 0.0,
            adapt_il_share_g1: 0.1,
            adapt_il_share_g2: 0.25,
            adapt_co_shed_share_g0: 1.0,
            adapt_co_shed_share_g1: 0.9,
            adapt_co_shed_share_g2: 0.75,
            adapt_collisions: 0.0,
            adapt_dataset_frames: 600.0,
            adapt_safety_projections: 3.0,
            co_admitted_reverse_in: 10.0,
            co_admitted_parallel_curb: 80.0,
            co_admitted_angled_echelon: 10.0,
            co_admitted_pillared_garage: 10.0,
            co_admitted_dead_end_stub: 80.0,
            co_admitted_crowded_lot: 80.0,
            co_shed_reverse_in: 2.0,
            co_shed_parallel_curb: 0.0,
            co_shed_angled_echelon: 1.0,
            co_shed_pillared_garage: 0.0,
            co_shed_dead_end_stub: 0.0,
            co_shed_crowded_lot: 3.0,
            had_nonfinite: false,
            sessions: 8,
            frames_per_session: 50,
            co_workers: 2,
            sweep_sessions: 2000,
            sweep_frames: 8,
            adapt_sessions: 6,
            adapt_frames_per_session: 40,
            adapt_generations: 3,
        }
    }

    #[test]
    fn serve_report_sanitizes_and_validates() {
        let mut clean = sample_serve_report();
        assert!(!clean.sanitize());
        let json = serde_json::to_string(&clean).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        validate_serve_json(&v).expect("clean report validates");

        let mut poisoned = sample_serve_report();
        poisoned.co_p99_us = f64::INFINITY;
        assert!(poisoned.sanitize());
        assert!(poisoned.had_nonfinite);
        let json = serde_json::to_string(&poisoned).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        validate_serve_json(&v).expect("sanitized report validates");
    }

    #[test]
    fn validate_serve_rejects_bad_reports() {
        let report = sample_serve_report();
        let json = serde_json::to_string(&report).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let mut map = match v {
            serde_json::Value::Map(m) => m,
            other => panic!("report is an object, got {other:?}"),
        };
        map.retain(|(k, _)| k != "co_p50_us");
        let err = validate_serve_json(&serde_json::Value::Map(map)).unwrap_err();
        assert!(err.contains("co_p50_us"), "names the missing field: {err}");

        let mut out_of_range = sample_serve_report();
        out_of_range.shed_rate_overload = 1.5;
        let json = serde_json::to_string(&out_of_range).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let err = validate_serve_json(&v).unwrap_err();
        assert!(err.contains("shed_rate_overload"), "names the field: {err}");

        // mode shares are rates too
        let mut bad_share = sample_serve_report();
        bad_share.adapt_il_share_g1 = 1.5;
        let json = serde_json::to_string(&bad_share).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let err = validate_serve_json(&v).unwrap_err();
        assert!(err.contains("adapt_il_share_g1"), "names the field: {err}");

        // an unsanitized non-finite float serializes as null → not a number
        let mut poisoned = sample_serve_report();
        poisoned.frames_per_sec = f64::NAN;
        let json = serde_json::to_string(&poisoned).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let err = validate_serve_json(&v).unwrap_err();
        assert!(
            err.contains("frames_per_sec"),
            "names the null field: {err}"
        );
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
