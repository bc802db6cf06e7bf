//! Seeded batch evaluation: the statistics machinery behind Table II and
//! the sensitivity figures.
//!
//! Batches fan out across OS threads (see [`EvalConfig::parallelism`]):
//! each seeded episode is a pure function of its `ScenarioConfig` plus a
//! private clone of the IL model, so workers pull episode indices from a
//! shared atomic counter and the reassembled result vector is bit-identical
//! to a serial run regardless of worker count or scheduling.

use crate::config::ICoilConfig;
use crate::policies::{ICoilPolicy, PureCoPolicy, PureIlPolicy};
use icoil_il::IlModel;
use icoil_telemetry::{EpisodeEvent, Metrics};
use icoil_world::episode::{run_episode, EpisodeConfig, EpisodeResult, Policy};
use icoil_world::{Difficulty, ParkingStats, Scenario, ScenarioConfig, World};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Execution knobs for batch evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Worker threads episodes are fanned across; `1` runs serially on the
    /// calling thread. Results are bit-identical at any setting.
    pub parallelism: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig { parallelism: 1 }
    }
}

/// Validates a worker count, clamping `0` up to `1`.
///
/// Pure counterpart of [`EvalConfig::with_parallelism`]: returns the
/// effective count plus a diagnostic when the input had to be adjusted.
pub fn clamp_parallelism(parallelism: usize) -> (usize, Option<String>) {
    if parallelism == 0 {
        (
            1,
            Some("icoil: parallelism 0 is meaningless; clamped to 1".to_string()),
        )
    } else {
        (parallelism, None)
    }
}

/// Parses an `ICOIL_PARALLELISM` value, falling back to `default`.
///
/// Pure counterpart of [`EvalConfig::from_env`]: `raw = None` means the
/// variable was unset (silent fallback); a set-but-malformed value also
/// falls back but returns a diagnostic so the caller can warn once.
pub fn parse_parallelism(raw: Option<&str>, default: usize) -> (usize, Option<String>) {
    match raw {
        None => (default, None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) => (n, None),
            Err(_) => (
                default,
                Some(format!(
                    "icoil: ICOIL_PARALLELISM={v:?} is not a worker count; using {default}"
                )),
            ),
        },
    }
}

/// Emits a parallelism diagnostic to stderr at most once per process.
fn warn_once(once: &'static Once, message: &str) {
    once.call_once(|| eprintln!("{message}"));
}

static CLAMP_WARNING: Once = Once::new();
static PARSE_WARNING: Once = Once::new();

impl EvalConfig {
    /// A config with the given worker count (`0` is clamped to `1`, with
    /// a one-shot stderr diagnostic).
    pub fn with_parallelism(parallelism: usize) -> Self {
        let (parallelism, warning) = clamp_parallelism(parallelism);
        if let Some(w) = warning {
            warn_once(&CLAMP_WARNING, &w);
        }
        EvalConfig { parallelism }
    }

    /// Reads `ICOIL_PARALLELISM` from the environment, defaulting to the
    /// number of available cores. A set-but-malformed value falls back to
    /// the default with a one-shot stderr diagnostic instead of silently.
    pub fn from_env() -> Self {
        let default = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let raw = std::env::var("ICOIL_PARALLELISM").ok();
        let (parallelism, warning) = parse_parallelism(raw.as_deref(), default);
        if let Some(w) = warning {
            warn_once(&PARSE_WARNING, &w);
        }
        EvalConfig::with_parallelism(parallelism)
    }
}

/// The parking method under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// The proposed hybrid (eq. 1).
    ICoil,
    /// The conventional-IL baseline \[2\].
    Il,
    /// Optimization-only reference.
    Co,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Method::ICoil => write!(f, "iCOIL"),
            Method::Il => write!(f, "IL"),
            Method::Co => write!(f, "CO"),
        }
    }
}

/// Builds the policy for a method and scenario.
///
/// The IL model is cloned per episode so policies never share mutable
/// state across seeds.
pub fn make_policy(
    method: Method,
    config: &ICoilConfig,
    model: &IlModel,
    scenario: &Scenario,
) -> Box<dyn Policy> {
    match method {
        Method::ICoil => Box::new(ICoilPolicy::new(config, model.clone(), scenario)),
        Method::Il => Box::new(PureIlPolicy::new(config, model.clone(), scenario)),
        Method::Co => Box::new(PureCoPolicy::new(config, scenario)),
    }
}

/// Runs one seeded episode of `method` on a scenario config.
pub fn run_one(
    method: Method,
    config: &ICoilConfig,
    model: &IlModel,
    scenario_config: &ScenarioConfig,
    episode: &EpisodeConfig,
) -> EpisodeResult {
    let scenario = scenario_config.build();
    let mut policy = make_policy(method, config, model, &scenario);
    let mut world = World::new(scenario);
    run_episode(&mut world, policy.as_mut(), episode)
}

/// Runs a batch of seeded episodes serially and returns the raw results.
///
/// Equivalent to [`run_batch_with`] at `parallelism = 1`; batch regenerators
/// should prefer `run_batch_with(.., &EvalConfig::from_env())`.
pub fn run_batch(
    method: Method,
    config: &ICoilConfig,
    model: &IlModel,
    scenario_configs: &[ScenarioConfig],
    episode: &EpisodeConfig,
) -> Vec<EpisodeResult> {
    run_batch_with(
        method,
        config,
        model,
        scenario_configs,
        episode,
        &EvalConfig::default(),
    )
}

/// Runs a batch of seeded episodes across `eval.parallelism` workers.
///
/// Workers steal episode indices from a shared counter and return
/// `(index, result)` pairs, which are reassembled in seed order — so the
/// output is bit-identical to the serial path for every worker count.
pub fn run_batch_with(
    method: Method,
    config: &ICoilConfig,
    model: &IlModel,
    scenario_configs: &[ScenarioConfig],
    episode: &EpisodeConfig,
    eval: &EvalConfig,
) -> Vec<EpisodeResult> {
    fan_out(scenario_configs.len(), eval.parallelism, |idx| {
        run_one(method, config, model, &scenario_configs[idx], episode)
    })
}

/// Closes out an episode in the policy's recorder and drains the
/// accumulated [`Metrics`].
///
/// Records the outcome summary (an `episode` trace event plus the
/// episode/outcome counters), flushes the trace sink, and takes the
/// metrics — leaving the recorder empty for the next episode. Policies
/// without a recorder yield empty metrics.
pub fn drain_episode_metrics(policy: &mut dyn Policy, result: &EpisodeResult) -> Metrics {
    match policy.recorder_mut() {
        Some(recorder) => {
            recorder.episode(&EpisodeEvent {
                outcome: match result.outcome {
                    icoil_world::episode::Outcome::Success => "success",
                    icoil_world::episode::Outcome::Collision => "collision",
                    icoil_world::episode::Outcome::Timeout => "timeout",
                },
                frames: result.frames,
                time: result.parking_time,
                path_length: result.path_length,
            });
            recorder.flush();
            recorder.take_metrics()
        }
        None => Metrics::new(),
    }
}

/// Runs one seeded episode and returns its result plus drained telemetry.
pub fn run_one_telemetry(
    method: Method,
    config: &ICoilConfig,
    model: &IlModel,
    scenario_config: &ScenarioConfig,
    episode: &EpisodeConfig,
) -> (EpisodeResult, Metrics) {
    let scenario = scenario_config.build();
    let mut policy = make_policy(method, config, model, &scenario);
    let mut world = World::new(scenario);
    let result = run_episode(&mut world, policy.as_mut(), episode);
    let metrics = drain_episode_metrics(policy.as_mut(), &result);
    (result, metrics)
}

/// Runs a batch of seeded episodes across workers, returning the results
/// plus the batch-wide merged [`Metrics`].
///
/// Per-episode metrics are merged in seed order after the fan-out
/// completes, so the merged aggregate is bit-identical for every worker
/// count — the same determinism contract as [`run_batch_with`]. (Timing
/// histograms still vary run to run, of course; use
/// [`Metrics::deterministic_eq`] to compare the machine-independent
/// part.)
pub fn run_batch_telemetry(
    method: Method,
    config: &ICoilConfig,
    model: &IlModel,
    scenario_configs: &[ScenarioConfig],
    episode: &EpisodeConfig,
    eval: &EvalConfig,
) -> (Vec<EpisodeResult>, Metrics) {
    let pairs = fan_out(scenario_configs.len(), eval.parallelism, |idx| {
        run_one_telemetry(method, config, model, &scenario_configs[idx], episode)
    });
    let mut merged = Metrics::new();
    let mut results = Vec::with_capacity(pairs.len());
    for (result, metrics) in pairs {
        merged.merge(&metrics);
        results.push(result);
    }
    (results, merged)
}

/// Runs prebuilt scenarios (e.g. procedurally generated ones that exist
/// outside the `ScenarioConfig` seed space) across workers, constructing
/// each episode's policy with `policy_for`.
///
/// Same determinism contract as [`run_batch_with`]: results are
/// reassembled in input order and bit-identical for every worker count,
/// provided `policy_for` is a pure function of the scenario.
pub fn run_scenarios_with<F>(
    scenarios: &[Scenario],
    policy_for: F,
    episode: &EpisodeConfig,
    eval: &EvalConfig,
) -> Vec<EpisodeResult>
where
    F: Fn(&Scenario) -> Box<dyn Policy> + Sync,
{
    fan_out(scenarios.len(), eval.parallelism, |idx| {
        let scenario = scenarios[idx].clone();
        let mut policy = policy_for(&scenario);
        let mut world = World::new(scenario);
        run_episode(&mut world, policy.as_mut(), episode)
    })
}

/// Fans `n` independent jobs across `workers` threads.
///
/// Workers steal job indices from a shared counter and return
/// `(index, result)` pairs, which are reassembled in job order — so the
/// output is bit-identical to a serial run for every worker count and
/// any scheduling. `workers <= 1` (or a single job) runs inline on the
/// calling thread with no thread machinery at all.
fn fan_out<T, F>(n: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        local.push((idx, job(idx)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (idx, result) in handle.join().expect("episode worker panicked") {
                slots[idx] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every job index was claimed by a worker"))
        .collect()
}

/// Convenience wrapper: evaluates `method` on `difficulty` over a seed
/// range with default configs, returning Table-II-style statistics.
///
/// Episodes run across the worker count given by [`EvalConfig::from_env`]
/// (the `ICOIL_PARALLELISM` knob); the statistics are unaffected by the
/// worker count because per-seed results are bit-identical.
pub fn evaluate(
    method: Method,
    difficulty: Difficulty,
    seeds: std::ops::Range<u64>,
    model: &IlModel,
) -> ParkingStats {
    evaluate_with(method, difficulty, seeds, model, &EvalConfig::from_env())
}

/// [`evaluate`] with an explicit [`EvalConfig`].
pub fn evaluate_with(
    method: Method,
    difficulty: Difficulty,
    seeds: std::ops::Range<u64>,
    model: &IlModel,
    eval: &EvalConfig,
) -> ParkingStats {
    let config = ICoilConfig::default();
    let scenario_configs: Vec<ScenarioConfig> =
        seeds.map(|s| ScenarioConfig::new(difficulty, s)).collect();
    let results = run_batch_with(
        method,
        &config,
        model,
        &scenario_configs,
        &EpisodeConfig {
            max_time: 60.0,
            record_trace: false,
        },
        eval,
    );
    ParkingStats::from_results(&results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_vehicle::ActionCodec;

    #[test]
    fn run_batch_is_deterministic() {
        let config = ICoilConfig::default();
        let model = IlModel::untrained(ActionCodec::default(), config.bev, 3);
        let scenario_configs = vec![
            ScenarioConfig::new(Difficulty::Easy, 1),
            ScenarioConfig::new(Difficulty::Easy, 2),
        ];
        let episode = EpisodeConfig {
            max_time: 3.0,
            record_trace: false,
        };
        let a = run_batch(Method::Il, &config, &model, &scenario_configs, &episode);
        let b = run_batch(Method::Il, &config, &model, &scenario_configs, &episode);
        assert_eq!(a, b);
    }

    #[test]
    fn co_method_beats_untrained_il() {
        let config = ICoilConfig::default();
        let model = IlModel::untrained(ActionCodec::default(), config.bev, 3);
        let episode = EpisodeConfig {
            max_time: 60.0,
            record_trace: false,
        };
        let scenario_configs = vec![ScenarioConfig::new(Difficulty::Easy, 6)];
        let co = run_batch(Method::Co, &config, &model, &scenario_configs, &episode);
        let il = run_batch(Method::Il, &config, &model, &scenario_configs, &episode);
        assert!(co[0].is_success());
        assert!(!il[0].is_success(), "an untrained IL policy cannot park");
    }

    #[test]
    fn parallel_run_batch_matches_serial() {
        let config = ICoilConfig::default();
        let model = IlModel::untrained(ActionCodec::default(), config.bev, 3);
        let scenario_configs: Vec<ScenarioConfig> = (0..6)
            .map(|s| ScenarioConfig::new(Difficulty::Easy, s))
            .collect();
        let episode = EpisodeConfig {
            max_time: 2.0,
            record_trace: false,
        };
        let serial = run_batch_with(
            Method::ICoil,
            &config,
            &model,
            &scenario_configs,
            &episode,
            &EvalConfig::with_parallelism(1),
        );
        for workers in [2, 4, 8] {
            let parallel = run_batch_with(
                Method::ICoil,
                &config,
                &model,
                &scenario_configs,
                &episode,
                &EvalConfig::with_parallelism(workers),
            );
            assert_eq!(serial, parallel, "parallelism={workers} diverged");
        }
    }

    #[test]
    fn eval_config_clamps_and_defaults() {
        assert_eq!(EvalConfig::default().parallelism, 1);
        assert_eq!(EvalConfig::with_parallelism(0).parallelism, 1);
        assert_eq!(EvalConfig::with_parallelism(7).parallelism, 7);
    }

    #[test]
    fn clamp_parallelism_diagnoses_zero() {
        assert_eq!(clamp_parallelism(4), (4, None));
        let (p, warning) = clamp_parallelism(0);
        assert_eq!(p, 1);
        assert!(warning.expect("diagnostic").contains("clamped to 1"));
    }

    #[test]
    fn parse_parallelism_falls_back_loudly_on_garbage() {
        assert_eq!(parse_parallelism(None, 8), (8, None));
        assert_eq!(parse_parallelism(Some("3"), 8), (3, None));
        assert_eq!(parse_parallelism(Some(" 3 "), 8), (3, None));
        for garbage in ["three", "-1", "2.5", ""] {
            let (p, warning) = parse_parallelism(Some(garbage), 8);
            assert_eq!(p, 8, "fallback for {garbage:?}");
            let w = warning.expect("malformed values must carry a diagnostic");
            assert!(w.contains("ICOIL_PARALLELISM"), "names the knob: {w}");
        }
    }

    #[test]
    fn batch_telemetry_merges_deterministically() {
        use icoil_telemetry::Counter;
        let config = ICoilConfig::default();
        let model = IlModel::untrained(ActionCodec::default(), config.bev, 3);
        let scenario_configs: Vec<ScenarioConfig> = (0..4)
            .map(|s| ScenarioConfig::new(Difficulty::Easy, s))
            .collect();
        let episode = EpisodeConfig {
            max_time: 2.0,
            record_trace: false,
        };
        let (serial_results, serial_metrics) = run_batch_telemetry(
            Method::ICoil,
            &config,
            &model,
            &scenario_configs,
            &episode,
            &EvalConfig::with_parallelism(1),
        );
        assert_eq!(serial_metrics.counter(Counter::Episodes), 4);
        let frames: usize = serial_results.iter().map(|r| r.frames).sum();
        assert_eq!(serial_metrics.counter(Counter::Frames) as usize, frames);
        for workers in [2, 4] {
            let (results, metrics) = run_batch_telemetry(
                Method::ICoil,
                &config,
                &model,
                &scenario_configs,
                &episode,
                &EvalConfig::with_parallelism(workers),
            );
            assert_eq!(serial_results, results, "parallelism={workers} diverged");
            assert!(
                serial_metrics.deterministic_eq(&metrics),
                "parallelism={workers} telemetry diverged"
            );
        }
    }

    #[test]
    fn method_display() {
        assert_eq!(Method::ICoil.to_string(), "iCOIL");
        assert_eq!(Method::Il.to_string(), "IL");
        assert_eq!(Method::Co.to_string(), "CO");
    }
}
