//! Serving load generator — emits `BENCH_serve.json`.
//!
//! Drives the `icoil-serve` engine through five phases and reports
//! sessions/sec, per-lane frame-latency percentiles, IL micro-batch
//! statistics, and the shed rate at two offered loads:
//!
//! 1. **IL phase** — the HSA threshold is forced to `+∞` so every frame
//!    stays on the IL lane: clean micro-batch latency and batch-width
//!    numbers with zero CO contention;
//! 2. **CO phase (provisioned)** — an untrained model keeps every
//!    session on the CO lane with a generous deadline and queue: CO-lane
//!    latency under a load the lane can carry, `shed_rate_low` must be 0;
//! 3. **Overload phase** — one worker, a queue of 2 and a 1 ms deadline
//!    against twice the sessions: the lane must shed (degraded
//!    full-brake responses) instead of blocking, `shed_rate_overload`
//!    must be positive;
//! 4. **Shard sweep** — IL-only sessions replayed at 1, 2, 4 and 8
//!    engine shards with the *offered load scaled by the shard count*
//!    (a flat load would leave added shards idle and remeasure the
//!    1-shard rate), recording sessions/sec and the mean per-shard IL
//!    micro-batch width at each point. One point's stepping loop lasts
//!    well under a second, so each point is timed on
//!    [`SWEEP_REPEATS`] fresh servers serving the same sessions; the
//!    report keeps the medians and the console line prints each rate's
//!    min and max beside it;
//! 5. **Adapt phase** — the online-adaptation flywheel on the hard
//!    family tail (`parallel_curb`, `dead_end_stub`, `crowded_lot`):
//!    a fixed evaluation scenario set served three times against a
//!    shared weight store, with a DAgger-style retraining round (warm-
//!    started from the previous weights, fed by the harvested CO-expert
//!    labels) hot-swapped in between. Safety projection is enabled
//!    throughout. The report must show the IL mode share strictly
//!    rising and the CO + shed load strictly falling generation over
//!    generation at zero collisions, plus per-family CO admit/shed
//!    counters (attributed here and in the overload phase — seeded
//!    scenarios carry no family).
//!
//! The file lands in the working directory (the repo root under
//! `cargo run`). Run sizes honor `ICOIL_SERVE_SESSIONS` (default 8),
//! `ICOIL_SERVE_FRAMES` (default 50), `ICOIL_SERVE_SWEEP_SESSIONS`
//! (default 2000), `ICOIL_SERVE_SWEEP_FRAMES` (default 8),
//! `ICOIL_ADAPT_SESSIONS` (episodes per family per generation, default
//! 2), `ICOIL_ADAPT_FRAMES` (default 40) and `ICOIL_ADAPT_EPOCHS`
//! (retraining passes per round, default 8):
//!
//! ```text
//! cargo run --release -p icoil-bench --bin loadgen
//! ```
//!
//! An untrained IL model is used throughout: inference cost does not
//! depend on the weight values, and it keeps the bin self-contained.

use icoil_adapt::WeightStore;
use icoil_bench::adapt::{run_adapt_phase, AdaptOptions};
use icoil_bench::ServeReport;
use icoil_core::ICoilConfig;
use icoil_hsa::HsaConfig;
use icoil_il::IlModel;
use icoil_perception::BevConfig;
use icoil_serve::{Serve, ServeConfig, SessionConfig, SessionSpec};
use icoil_telemetry::{Counter, Metrics, Series};
use icoil_vehicle::ActionCodec;
use icoil_world::{Difficulty, MapFamilyKind, ProcGen, ProcGenConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fresh servers each shard-sweep point is timed on.
const SWEEP_REPEATS: usize = 5;

/// The median, min and max of a few samples.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut samples: Vec<f64>) -> Spread {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let median = if n % 2 == 1 {
            samples[n / 2]
        } else {
            (samples[n / 2 - 1] + samples[n / 2]) / 2.0
        };
        Spread {
            median,
            min: samples[0],
            max: samples[n - 1],
        }
    }
}

fn env_size(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `sessions` episodes of `frames` frames each against a fresh
/// server; returns the server's final telemetry snapshot and the
/// wall-clock seconds of the stepping loop alone (startup and session
/// creation excluded).
fn run_phase(config: ServeConfig, sessions: u64, frames: u64, seed0: u64) -> (Metrics, f64) {
    let specs = (0..sessions)
        .map(|i| {
            SessionSpec::Seeded(SessionConfig {
                difficulty: Difficulty::Normal,
                seed: seed0 + i,
            })
        })
        .collect();
    run_phase_specs(config, specs, frames)
}

/// [`run_phase`] with explicit session specs (the overload phase pins
/// procedural map families so the per-family shed counters attribute).
fn run_phase_specs(config: ServeConfig, specs: Vec<SessionSpec>, frames: u64) -> (Metrics, f64) {
    let model = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 1);
    let server = Serve::start(config, model);
    let handle = server.handle();
    let ids: Vec<u64> = specs
        .into_iter()
        .map(|spec| handle.create(spec).expect("create session"))
        .collect();
    let t0 = Instant::now();
    for _ in 0..frames {
        for result in handle.step_many(&ids) {
            result.expect("serving must answer every step");
        }
    }
    let stepping_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let metrics = handle.metrics().expect("metrics snapshot");
    server.shutdown();
    (metrics, stepping_secs)
}

fn shed_rate(metrics: &Metrics) -> f64 {
    let shed = metrics.counter(Counter::CoShed) as f64;
    let admitted = metrics.counter(Counter::CoAdmitted) as f64;
    if shed + admitted == 0.0 {
        0.0
    } else {
        shed / (shed + admitted)
    }
}

fn main() {
    let sessions = env_size("ICOIL_SERVE_SESSIONS", 8);
    let frames = env_size("ICOIL_SERVE_FRAMES", 50);
    let base = ServeConfig {
        co_deadline: Duration::from_secs(30),
        queue_capacity: 64,
        ..ServeConfig::default()
    };

    let t0 = Instant::now();

    // phase 1: pure IL lane (ratio ≤ λ always holds at λ = +∞)
    let il_config = ServeConfig {
        icoil: ICoilConfig {
            hsa: HsaConfig {
                lambda: f64::INFINITY,
                initial_mode: icoil_hsa::Mode::Il,
                ..HsaConfig::default()
            },
            ..ICoilConfig::default()
        },
        ..base
    };
    let (il_metrics, _) = run_phase(il_config, sessions, frames, 9000);

    // phase 2: pure CO lane (untrained model → high uncertainty), carried
    let (co_metrics, _) = run_phase(base, sessions, frames, 9100);

    // phase 3: deliberate overload — must shed, never block. Sessions
    // cycle the procedural map families so the per-family admit/shed
    // counters attribute the pressure (seeded scenarios carry no family).
    let overload_config = ServeConfig {
        co_workers: 1,
        queue_capacity: 2,
        co_deadline: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let overload_frames = (frames / 4).max(5);
    let overload_specs: Vec<SessionSpec> = (0..sessions * 2)
        .map(|i| {
            let family = MapFamilyKind::ALL[i as usize % MapFamilyKind::ALL.len()];
            let gen = ProcGen::new(ProcGenConfig {
                family: Some(family),
                ..ProcGenConfig::default()
            });
            SessionSpec::Scenario(Box::new(gen.generate(9200 + i).build()))
        })
        .collect();
    let (overload_metrics, _) = run_phase_specs(overload_config, overload_specs, overload_frames);

    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    let total_sessions = sessions * 2 + sessions * 2;
    let total_frames = sessions * frames * 2 + sessions * 2 * overload_frames;

    // phase 4: shard-scaling sweep — thousands of sessions, IL lane only
    // (λ = +∞ keeps the CO pool idle), so the measured curve is the
    // sharded engine's own session-handling throughput. The offered load
    // scales with the shard count: at a fixed load the per-shard session
    // slice shrinks as shards are added, added shards idle between the
    // same number of ticks, and the sweep flatlines at the 1-shard rate.
    let sweep_sessions = env_size("ICOIL_SERVE_SWEEP_SESSIONS", 2000);
    let sweep_frames = env_size("ICOIL_SERVE_SWEEP_FRAMES", 8);
    let mut sweep_rates = Vec::with_capacity(4);
    let mut sweep_batch_means = Vec::with_capacity(4);
    for (slot, shards) in [1usize, 2, 4, 8].into_iter().enumerate() {
        let offered = sweep_sessions * shards as u64;
        // the cap is enforced globally at the handle, so offered load
        // can size it exactly — hash skew never rejects early
        let sweep_config = ServeConfig {
            shards,
            max_sessions: offered as usize,
            ..il_config
        };
        let mut rates = Vec::with_capacity(SWEEP_REPEATS);
        let mut batch_means = Vec::with_capacity(SWEEP_REPEATS);
        for _ in 0..SWEEP_REPEATS {
            let (sweep_metrics, sweep_secs) = run_phase(
                sweep_config,
                offered,
                sweep_frames,
                9300 + slot as u64 * 10_000,
            );
            rates.push(offered as f64 / sweep_secs);
            // each shard records the width of its own micro-batches, so
            // the merged histogram's mean is the per-shard mean batch width
            batch_means.push(sweep_metrics.series(Series::IlBatchSize).mean());
            assert_eq!(
                sweep_metrics.counter(Counter::ServeSessions),
                offered,
                "sweep at {shards} shard(s) lost sessions"
            );
        }
        sweep_rates.push(Spread::of(rates));
        sweep_batch_means.push(Spread::of(batch_means).median);
    }

    // phase 5: online adaptation — the DAgger flywheel on the hard
    // family tail (parallel_curb, dead_end_stub, crowded_lot). A fixed
    // evaluation scenario set is served three times against a shared
    // weight store: generation 0 rides untrained seed weights, then each
    // retraining round consumes the harvested CO-expert labels, warm-
    // starts from the previous generation and hot-swaps the result in.
    // Safety projection is on throughout, so the mode-share trend is
    // priced at a fixed safety bar (zero collisions, asserted below).
    let adapt_opts = AdaptOptions {
        sessions_per_family: env_size("ICOIL_ADAPT_SESSIONS", 2),
        frames_per_session: env_size("ICOIL_ADAPT_FRAMES", 40),
        epochs_per_generation: env_size("ICOIL_ADAPT_EPOCHS", 8) as usize,
        ..AdaptOptions::default()
    };
    let adapt_generations = 3u64;
    let mut adapt_icoil = ICoilConfig::default();
    adapt_icoil.safety.enabled = true;
    let adapt_config = ServeConfig {
        icoil: adapt_icoil,
        co_deadline: Duration::from_secs(30),
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let store = Arc::new(WeightStore::new(IlModel::untrained(
        ActionCodec::default(),
        adapt_config.icoil.bev,
        1,
    )));
    let adapt = run_adapt_phase(
        &store,
        &adapt_config,
        &adapt_opts,
        adapt_generations as usize,
        1,
        400,
    );
    assert_eq!(
        adapt.generations.len(),
        3,
        "the adapt phase runs three generations"
    );
    let adapt_metrics = adapt.merged_metrics();
    let adapt_collisions: u64 = adapt.generations.iter().map(|g| g.collisions).sum();
    let family_counter = |metrics: &Metrics, table: &[Counter; 6], kind: MapFamilyKind| {
        metrics.counter(table[kind.index()]) as f64
    };
    let admits = |kind| {
        family_counter(&adapt_metrics, &Counter::CO_ADMITTED_BY_FAMILY, kind)
            + family_counter(&overload_metrics, &Counter::CO_ADMITTED_BY_FAMILY, kind)
    };
    let sheds = |kind| {
        family_counter(&adapt_metrics, &Counter::CO_SHED_BY_FAMILY, kind)
            + family_counter(&overload_metrics, &Counter::CO_SHED_BY_FAMILY, kind)
    };

    let il_lane = il_metrics.series(Series::ServeIlLane);
    let co_lane = co_metrics.series(Series::ServeCoLane);
    let batches = il_metrics.series(Series::IlBatchSize);
    let mut report = ServeReport {
        sessions_per_sec: total_sessions as f64 / elapsed,
        frames_per_sec: total_frames as f64 / elapsed,
        il_p50_us: il_lane.quantile(0.50) * 1e6,
        il_p95_us: il_lane.quantile(0.95) * 1e6,
        il_p99_us: il_lane.quantile(0.99) * 1e6,
        co_p50_us: co_lane.quantile(0.50) * 1e6,
        co_p95_us: co_lane.quantile(0.95) * 1e6,
        co_p99_us: co_lane.quantile(0.99) * 1e6,
        batch_size_mean: batches.mean(),
        batch_size_max: batches.max(),
        shed_rate_low: shed_rate(&co_metrics),
        shed_rate_overload: shed_rate(&overload_metrics),
        sweep_sessions_per_sec_s1: sweep_rates[0].median,
        sweep_sessions_per_sec_s2: sweep_rates[1].median,
        sweep_sessions_per_sec_s4: sweep_rates[2].median,
        sweep_sessions_per_sec_s8: sweep_rates[3].median,
        sweep_batch_mean_s1: sweep_batch_means[0],
        sweep_batch_mean_s2: sweep_batch_means[1],
        sweep_batch_mean_s4: sweep_batch_means[2],
        sweep_batch_mean_s8: sweep_batch_means[3],
        adapt_il_share_g0: adapt.generations[0].il_share(),
        adapt_il_share_g1: adapt.generations[1].il_share(),
        adapt_il_share_g2: adapt.generations[2].il_share(),
        adapt_co_shed_share_g0: adapt.generations[0].co_shed_share(),
        adapt_co_shed_share_g1: adapt.generations[1].co_shed_share(),
        adapt_co_shed_share_g2: adapt.generations[2].co_shed_share(),
        adapt_collisions: adapt_collisions as f64,
        adapt_dataset_frames: adapt.dataset_len as f64,
        adapt_safety_projections: adapt_metrics.counter(Counter::SafetyProjections) as f64,
        co_admitted_reverse_in: admits(MapFamilyKind::ReverseIn),
        co_admitted_parallel_curb: admits(MapFamilyKind::ParallelCurb),
        co_admitted_angled_echelon: admits(MapFamilyKind::AngledEchelon),
        co_admitted_pillared_garage: admits(MapFamilyKind::PillaredGarage),
        co_admitted_dead_end_stub: admits(MapFamilyKind::DeadEndStub),
        co_admitted_crowded_lot: admits(MapFamilyKind::CrowdedLot),
        co_shed_reverse_in: sheds(MapFamilyKind::ReverseIn),
        co_shed_parallel_curb: sheds(MapFamilyKind::ParallelCurb),
        co_shed_angled_echelon: sheds(MapFamilyKind::AngledEchelon),
        co_shed_pillared_garage: sheds(MapFamilyKind::PillaredGarage),
        co_shed_dead_end_stub: sheds(MapFamilyKind::DeadEndStub),
        co_shed_crowded_lot: sheds(MapFamilyKind::CrowdedLot),
        had_nonfinite: false,
        sessions,
        frames_per_session: frames,
        co_workers: base.co_workers as u64,
        sweep_sessions,
        sweep_frames,
        adapt_sessions: adapt_opts.sessions_per_family * adapt_opts.families.len() as u64,
        adapt_frames_per_session: adapt_opts.frames_per_session,
        adapt_generations,
    };
    report.sanitize();

    assert_eq!(
        report.shed_rate_low, 0.0,
        "the provisioned CO phase must not shed"
    );
    assert!(
        report.shed_rate_overload > 0.0,
        "the overload phase must shed instead of blocking"
    );
    assert!(
        report.adapt_il_share_g0 < report.adapt_il_share_g1
            && report.adapt_il_share_g1 < report.adapt_il_share_g2,
        "the IL mode share must rise strictly across retraining generations: \
         {:.3} / {:.3} / {:.3}",
        report.adapt_il_share_g0,
        report.adapt_il_share_g1,
        report.adapt_il_share_g2,
    );
    assert!(
        report.adapt_co_shed_share_g0 > report.adapt_co_shed_share_g1
            && report.adapt_co_shed_share_g1 > report.adapt_co_shed_share_g2,
        "the CO + shed load must fall strictly across retraining generations: \
         {:.3} / {:.3} / {:.3}",
        report.adapt_co_shed_share_g0,
        report.adapt_co_shed_share_g1,
        report.adapt_co_shed_share_g2,
    );
    assert_eq!(
        report.adapt_collisions, 0.0,
        "the adaptation trend is only admissible at zero collisions"
    );

    println!(
        "serve load: {} sessions x {} frames | IL p50/p95/p99 {:.0}/{:.0}/{:.0} us \
         (batch mean {:.1}, max {:.0}) | CO p50/p95/p99 {:.0}/{:.0}/{:.0} us | \
         shed {:.3} low, {:.3} overload | {:.1} frames/s",
        report.sessions,
        report.frames_per_session,
        report.il_p50_us,
        report.il_p95_us,
        report.il_p99_us,
        report.batch_size_mean,
        report.batch_size_max,
        report.co_p50_us,
        report.co_p95_us,
        report.co_p99_us,
        report.shed_rate_low,
        report.shed_rate_overload,
        report.frames_per_sec,
    );
    println!(
        "adapt phase: {} generations x {} sessions x {} frames (hard families, safety on) | \
         IL share {:.3} -> {:.3} -> {:.3} | CO+shed {:.3} -> {:.3} -> {:.3} | \
         {} dataset frames | {} safety clips | {} collisions",
        report.adapt_generations,
        report.adapt_sessions,
        report.adapt_frames_per_session,
        report.adapt_il_share_g0,
        report.adapt_il_share_g1,
        report.adapt_il_share_g2,
        report.adapt_co_shed_share_g0,
        report.adapt_co_shed_share_g1,
        report.adapt_co_shed_share_g2,
        report.adapt_dataset_frames,
        report.adapt_safety_projections,
        report.adapt_collisions,
    );
    let rates: Vec<String> = sweep_rates
        .iter()
        .map(|r| format!("{:.0} [{:.0}, {:.0}]", r.median, r.min, r.max))
        .collect();
    println!(
        "shard sweep: {} sessions/shard x {} frames (IL lane, load scaled by shard count) | \
         sessions/s at 1/2/4/8 shards, median [min, max] of {SWEEP_REPEATS} servers: {} | \
         median mean per-shard batch width: {:.1}/{:.1}/{:.1}/{:.1}",
        report.sweep_sessions,
        report.sweep_frames,
        rates.join(" / "),
        report.sweep_batch_mean_s1,
        report.sweep_batch_mean_s2,
        report.sweep_batch_mean_s4,
        report.sweep_batch_mean_s8,
    );

    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
