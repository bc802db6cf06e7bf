//! Serving load generator — emits `BENCH_serve.json`.
//!
//! Drives the `icoil-serve` engine through the three phases that no
//! other tool measures, and asserts what each must show:
//!
//! 1. **CO phase (provisioned)** — an untrained model keeps every
//!    session on the CO lane with a generous deadline and queue:
//!    `shed_rate_low` must be 0;
//! 2. **Overload phase** — one worker, a queue of 2 and a 1 ms deadline
//!    against twice the sessions: the lane must shed (degraded
//!    full-brake responses) instead of blocking, `shed_rate_overload`
//!    must be positive;
//! 3. **Adapt phase** — the online-adaptation flywheel on the hard
//!    family tail (`parallel_curb`, `dead_end_stub`, `crowded_lot`):
//!    a fixed evaluation scenario set served three times against a
//!    shared weight store, with a DAgger-style retraining round (warm-
//!    started from the previous weights, fed by the harvested CO-expert
//!    labels) hot-swapped in between. Safety projection is enabled
//!    throughout. The report must show the IL mode share strictly
//!    rising and the CO + shed load strictly falling generation over
//!    generation at zero collisions.
//!
//! The overload and adapt sessions run procedural scenarios of known
//! map families, and the client counts each family's solved and shed
//! CO replies from the responses it reads (`co_by_family`); the shed
//! counts must sum to the server's own `co_shed` counter in each of
//! those phases. IL-lane latency, batch width and served frame rate
//! belong to the repository benchmark's `fleet_il` workload.
//!
//! The file lands in the working directory (the repo root under
//! `cargo run`). Run sizes honor `ICOIL_SERVE_SESSIONS` (default 8),
//! `ICOIL_SERVE_FRAMES` (default 50), `ICOIL_ADAPT_SESSIONS` (episodes
//! per family per generation, default 2), `ICOIL_ADAPT_FRAMES` (default
//! 40) and `ICOIL_ADAPT_EPOCHS` (retraining passes per round, default
//! 8):
//!
//! ```text
//! cargo run --release -p icoil-bench --bin loadgen
//! ```
//!
//! An untrained IL model is used throughout: inference cost does not
//! depend on the weight values, and it keeps the bin self-contained.

use icoil_adapt::WeightStore;
use icoil_bench::adapt::{run_adapt_phase, AdaptOptions};
use icoil_bench::{FamilyCoCounts, ServeReport};
use icoil_core::ICoilConfig;
use icoil_il::IlModel;
use icoil_perception::BevConfig;
use icoil_serve::{Serve, ServeConfig, SessionConfig, SessionSpec};
use icoil_telemetry::{Counter, Metrics};
use icoil_vehicle::ActionCodec;
use icoil_world::{Difficulty, MapFamilyKind, ProcGen, ProcGenConfig};
use std::sync::Arc;
use std::time::Duration;

fn env_size(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Steps every session of `specs` through `frames` `step_many` calls on
/// a fresh server; returns the server's final telemetry snapshot and
/// the CO-lane replies of the sessions whose scenario carries a map
/// family, counted per family from the responses.
fn run_phase(
    config: ServeConfig,
    specs: Vec<SessionSpec>,
    frames: u64,
) -> (Metrics, Vec<FamilyCoCounts>) {
    let model = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 1);
    let server = Serve::start(config, model);
    let handle = server.handle();
    let mut ids = Vec::with_capacity(specs.len());
    let mut families = Vec::with_capacity(specs.len());
    for spec in specs {
        families.push(match &spec {
            SessionSpec::Scenario(scenario) => scenario.family,
            SessionSpec::Seeded(_) => None,
        });
        ids.push(handle.create(spec).expect("create session"));
    }
    let mut co_by_family = FamilyCoCounts::zeroed();
    for _ in 0..frames {
        for (result, family) in handle.step_many(&ids).into_iter().zip(&families) {
            let resp = result.expect("serving must answer every step");
            if let Some(family) = family {
                FamilyCoCounts::record(&mut co_by_family, *family, &resp);
            }
        }
    }
    let metrics = handle.metrics().expect("metrics snapshot");
    server.shutdown();
    (metrics, co_by_family)
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

/// Asserts that the client's per-family shed counts of one phase sum to
/// the server's `co_shed` counter: every session of the phase carries a
/// family, so no shed may go uncounted or be counted twice.
fn assert_sheds_match(phase: &str, co_by_family: &[FamilyCoCounts], metrics: &Metrics) {
    assert_eq!(
        FamilyCoCounts::total_shed(co_by_family),
        metrics.counter(Counter::CoShed),
        "{phase}: the per-family shed counts must sum to the server's co_shed counter"
    );
}

fn main() {
    let sessions = env_size("ICOIL_SERVE_SESSIONS", 8);
    let frames = env_size("ICOIL_SERVE_FRAMES", 50);
    let base = ServeConfig {
        co_deadline: Duration::from_secs(30),
        queue_capacity: 64,
        ..ServeConfig::default()
    };

    // phase 1: pure CO lane (untrained model → high uncertainty), carried
    let seeded = (0..sessions)
        .map(|i| {
            SessionSpec::Seeded(SessionConfig {
                difficulty: Difficulty::Normal,
                seed: 9100 + i,
            })
        })
        .collect();
    let (co_metrics, _) = run_phase(base, seeded, frames);

    // phase 2: deliberate overload — must shed, never block. Sessions
    // cycle the procedural map families so the client's per-family
    // counts cover every family.
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
    let (overload_metrics, mut co_by_family) =
        run_phase(overload_config, overload_specs, overload_frames);
    assert_sheds_match("overload phase", &co_by_family, &overload_metrics);

    // phase 3: online adaptation — the DAgger flywheel on the hard
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
    for (g, stats) in adapt.generations.iter().enumerate() {
        assert_sheds_match(
            &format!("adapt generation {g}"),
            &stats.co_by_family,
            &stats.metrics,
        );
        FamilyCoCounts::merge(&mut co_by_family, &stats.co_by_family);
    }

    let mut report = ServeReport {
        shed_rate_low: shed_rate(&co_metrics),
        shed_rate_overload: shed_rate(&overload_metrics),
        adapt_il_share_g0: adapt.generations[0].il_share(),
        adapt_il_share_g1: adapt.generations[1].il_share(),
        adapt_il_share_g2: adapt.generations[2].il_share(),
        adapt_co_shed_share_g0: adapt.generations[0].co_shed_share(),
        adapt_co_shed_share_g1: adapt.generations[1].co_shed_share(),
        adapt_co_shed_share_g2: adapt.generations[2].co_shed_share(),
        adapt_collisions: adapt_collisions as f64,
        adapt_dataset_frames: adapt.dataset_len as f64,
        adapt_safety_projections: adapt_metrics.counter(Counter::SafetyProjections) as f64,
        co_by_family,
        had_nonfinite: false,
        sessions,
        frames_per_session: frames,
        co_workers: base.co_workers as u64,
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
        "serve load: {} sessions x {} frames | shed {:.3} provisioned, {:.3} overload",
        report.sessions, report.frames_per_session, report.shed_rate_low, report.shed_rate_overload,
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
    let rows: Vec<String> = report
        .co_by_family
        .iter()
        .map(|row| format!("{} {}/{}", row.family, row.co_solved, row.co_shed))
        .collect();
    println!(
        "CO replies solved/shed by family (overload + adapt): {}",
        rows.join(" | ")
    );

    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
