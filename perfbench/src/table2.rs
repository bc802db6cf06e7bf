//! `table2_icoil`: the paper's Table II loop — `Method::ICoil` through
//! `icoil_core::eval` with the committed model, across easy, normal and
//! hard scenarios, fanned over `nproc` workers.
//!
//! The untraced pass times every `Policy::decide` by wrapping the policy
//! `eval::make_policy` builds. In a traced run the wrapper also decides
//! every frame again, call by call in `ICoilPolicy::decide`'s order with a
//! span around every call, and steps a replica world with those actions:
//! every action must match `eval`'s bit for bit, and the replica must end
//! with the episode's outcome, frame count, parking time and driven path
//! length.

use crate::layers::{il_flops_per_row, path_key, self_time_notes, set_layer_metrics, LayerCounts};
use crate::report::Report;
use crate::stats::{hex, mean, median, mix, percentile, share};
use crate::trace::{Layer, LayerTable, Tracer};
use crate::{load_model, Budget, RunArgs};
use icoil_co::CoController;
use icoil_core::eval::{make_policy, Method};
use icoil_core::ICoilConfig;
use icoil_hsa::{Hsa, Mode};
use icoil_il::IlModel;
use icoil_perception::Perception;
use icoil_vehicle::Action;
use icoil_world::episode::{Decision, Observation, Policy};
use icoil_world::{run_episode, Difficulty, EpisodeConfig, Outcome, ScenarioConfig, World};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Table II's episode budget in simulated seconds.
const MAX_TIME: f64 = 60.0;

/// Episodes whose results enter the printed trajectory digest.
const DIGEST_EPISODES: usize = 8;

/// Episode `i` of the seeded stream: difficulties rotate easy, normal,
/// hard, and each episode draws its own scenario seed.
fn scenario_config(seed: u64, i: usize) -> ScenarioConfig {
    let difficulty = [Difficulty::Easy, Difficulty::Normal, Difficulty::Hard][i % 3];
    ScenarioConfig::new(difficulty, mix(seed, i as u64) % 1_000_000)
}

/// What both passes must agree on, per episode.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    outcome: Outcome,
    frames: usize,
    parking_time: f64,
    path_length: f64,
}

impl Summary {
    fn same_bits(&self, other: &Summary) -> bool {
        self.outcome == other.outcome
            && self.frames == other.frames
            && self.parking_time.to_bits() == other.parking_time.to_bits()
            && self.path_length.to_bits() == other.path_length.to_bits()
    }
}

/// Times every decision of the policy it wraps. In a traced run a
/// [`Shadow`] decides each frame again, right after the timed decision.
struct TimedPolicy<'a> {
    inner: Box<dyn Policy>,
    decide_secs: Vec<f64>,
    shadow: Option<Shadow<'a>>,
}

impl Policy for TimedPolicy<'_> {
    fn decide(&mut self, obs: &Observation) -> Decision {
        let t0 = Instant::now();
        let decision = self.inner.decide(obs);
        self.decide_secs.push(t0.elapsed().as_secs_f64());
        if let Some(shadow) = &mut self.shadow {
            shadow.decide(obs, &decision.action);
        }
        decision
    }

    fn begin_episode(&mut self, obs: &Observation) {
        self.inner.begin_episode(obs);
    }

    fn recorder_mut(&mut self) -> Option<&mut icoil_telemetry::Recorder> {
        self.inner.recorder_mut()
    }
}

/// The traced run's copy of `ICoilPolicy::decide`: the same crate calls
/// in the same order, each inside a span, fed the observation `eval`'s
/// policy has just decided on, and a replica world stepped with its
/// actions. Deciding each frame microseconds after the timed decision
/// keeps changes in machine speed out of the comparison of the two.
struct Shadow<'a> {
    id: u64,
    perception: Perception,
    model: IlModel,
    co: CoController,
    hsa: Hsa,
    world: World,
    path_length: f64,
    /// Frames whose action differed from `eval`'s, bit for bit.
    mismatches: usize,
    tracer: &'a mut Tracer,
    counts: &'a mut LayerCounts,
}

impl Shadow<'_> {
    fn decide(&mut self, obs: &Observation, served: &Action) {
        let (id, tracer, counts) = (self.id, &mut *self.tracer, &mut *self.counts);
        tracer.open(Layer::Decide, id);
        let sensing = tracer.span(Layer::Perception, id, || self.perception.observe(obs));
        let il = tracer.span(Layer::Il, id, || self.model.infer(&sensing.bev));
        let decision = tracer.span(Layer::Hsa, id, || {
            self.hsa.set_ego_position(obs.ego().pose.position());
            self.hsa.update(&il.probs, &sensing.boxes)
        });
        counts.frames += 1;
        counts.boxes += sensing.boxes.len() as u64;
        counts.il_single_rows += 1;
        // Table II runs without the safety projection
        let action = match decision.mode {
            Mode::Il => il.action,
            Mode::Co => {
                let before = path_key(&self.co);
                let t0 = Instant::now();
                let out = tracer.span(Layer::Co, id, || self.co.control(obs, &sensing.boxes));
                let secs = t0.elapsed().as_secs_f64();
                counts.co_frame(&out, secs, path_key(&self.co) != before);
                out.action
            }
        };
        tracer.close();
        self.mismatches += usize::from(action_bits(&action) != action_bits(served));
        let last = self.world.ego().pose.position();
        tracer.span(Layer::World, id, || self.world.step(&action));
        self.path_length += self.world.ego().pose.position().distance(last);
    }

    /// The replica's outcome, as `run_episode` would judge it.
    fn summary(&self) -> Summary {
        let w = &self.world;
        let outcome = if w.collision_cause().is_some() {
            Outcome::Collision
        } else if w.at_goal() {
            Outcome::Success
        } else {
            Outcome::Timeout
        };
        Summary {
            outcome,
            frames: w.frame(),
            parking_time: w.time(),
            path_length: self.path_length,
        }
    }
}

fn action_bits(a: &Action) -> [u64; 4] {
    [
        a.throttle.to_bits(),
        a.brake.to_bits(),
        a.steer.to_bits(),
        u64::from(a.reverse),
    ]
}

/// One episode through `eval`'s policy, every decision timed. With a
/// tracer, a [`Shadow`] decides every frame again; its replica's summary
/// and its count of frames whose action differed come back too.
fn run_episode_timed(
    config: &ICoilConfig,
    model: &IlModel,
    seed: u64,
    i: usize,
    traced: Option<(&mut Tracer, &mut LayerCounts)>,
) -> (Summary, Vec<f64>, Option<(Summary, usize)>) {
    let scenario = scenario_config(seed, i).build();
    let shadow = traced.map(|(tracer, counts)| {
        let mut co = CoController::new(config.co, scenario.vehicle_params);
        let mut hsa = Hsa::new(config.hsa);
        co.reset();
        hsa.reset();
        Shadow {
            id: i as u64,
            perception: Perception::new(config.bev, &scenario),
            model: model.clone(),
            co,
            hsa,
            world: World::new(scenario.clone()),
            path_length: 0.0,
            mismatches: 0,
            tracer,
            counts,
        }
    });
    let mut policy = TimedPolicy {
        inner: make_policy(Method::ICoil, config, model, &scenario),
        decide_secs: Vec::new(),
        shadow,
    };
    let mut world = World::new(scenario);
    let result = run_episode(
        &mut world,
        &mut policy,
        &EpisodeConfig {
            max_time: MAX_TIME,
            record_trace: false,
        },
    );
    let summary = Summary {
        outcome: result.outcome,
        frames: result.frames,
        parking_time: result.parking_time,
        path_length: result.path_length,
    };
    let shadow = policy.shadow.map(|s| (s.summary(), s.mismatches));
    (summary, policy.decide_secs, shadow)
}

/// Fans episodes `0..` over `workers` threads, each with its own state
/// from `init`, claiming episodes until the budget's time and sample
/// floor are met. `job` returns an episode's result, its frame count and
/// its latency samples. Returns the results in episode order, every
/// sample, each worker's final state and the frame rate: each worker's
/// frames over the time until its last episode ended, summed over
/// workers, so the drain after the deadline (when workers finish their
/// last episodes one by one) does not count as idle time.
fn fan_out<S: Send, T: Send>(
    workers: usize,
    budget: &Budget,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> (T, usize, Vec<f64>) + Sync,
) -> (Vec<T>, Vec<f64>, Vec<S>, f64) {
    let next = AtomicUsize::new(0);
    let frames_done = AtomicUsize::new(0);
    let start = Instant::now();
    let claim = || {
        let elapsed = start.elapsed();
        let done = elapsed >= budget.cap
            || (elapsed >= budget.run_for
                && frames_done.load(Ordering::SeqCst) >= budget.min_samples);
        (!done).then(|| next.fetch_add(1, Ordering::SeqCst))
    };
    let mut slots: Vec<Option<(T, Vec<f64>)>> = Vec::new();
    let mut states = Vec::with_capacity(workers);
    let mut frames_per_s = 0.0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local = Vec::new();
                    let mut frames_here = 0;
                    while let Some(i) = claim() {
                        let (result, frames, samples) = job(&mut state, i);
                        frames_done.fetch_add(frames, Ordering::SeqCst);
                        frames_here += frames;
                        local.push((i, result, samples));
                    }
                    let rate = frames_here as f64 / start.elapsed().as_secs_f64().max(1e-9);
                    (state, local, rate)
                })
            })
            .collect();
        for handle in handles {
            let (state, local, rate) = handle.join().expect("episode worker panicked");
            frames_per_s += rate;
            states.push(state);
            for (i, result, samples) in local {
                if slots.len() <= i {
                    slots.resize_with(i + 1, || None);
                }
                slots[i] = Some((result, samples));
            }
        }
    });
    let mut results = Vec::with_capacity(slots.len());
    let mut samples = Vec::new();
    for slot in slots {
        let (result, s) = slot.expect("claimed episodes are contiguous");
        results.push(result);
        samples.extend(s);
    }
    (results, samples, states, frames_per_s)
}

/// Runs the workload and fills `report`.
pub fn run(args: &RunArgs, budget: &Budget, report: &mut Report) -> Result<(), String> {
    let config = ICoilConfig::default();
    let workers = budget.nproc;
    report.meta_count("parallelism", workers as u64);

    // set-up: model load, then each worker's first policy and world
    let mut setup = Vec::with_capacity(budget.setup_reps);
    let mut model = None;
    for _ in 0..budget.setup_reps {
        let t0 = Instant::now();
        let loaded = load_model()?;
        let firsts: Vec<_> = (0..workers)
            .map(|i| {
                let scenario = scenario_config(args.seed, i).build();
                let policy = make_policy(Method::ICoil, &config, &loaded, &scenario);
                (policy, World::new(scenario))
            })
            .collect();
        setup.push(t0.elapsed().as_secs_f64());
        drop(firsts);
        model = Some(loaded);
    }
    let model = model.expect("at least one set-up repetition");

    // In a traced run every frame is decided twice, so the claim budget
    // doubles.
    let seed = args.seed;
    let epoch = Instant::now();
    let claim_budget = if args.trace {
        Budget {
            run_for: budget.run_for * 2,
            cap: budget.cap * 2,
            ..budget.clone()
        }
    } else {
        budget.clone()
    };
    let (results, decide_secs, states, frames_per_s) = fan_out(
        workers,
        &claim_budget,
        || (Tracer::new(epoch), LayerCounts::default()),
        |(tracer, counts), i| {
            let shadow = args.trace.then_some((tracer, counts));
            let (summary, secs, traced) = run_episode_timed(&config, &model, seed, i, shadow);
            ((summary, traced), summary.frames, secs)
        },
    );
    let untraced: Vec<Summary> = results.iter().map(|r| r.0).collect();
    let episodes = untraced.len();
    let frames: usize = untraced.iter().map(|s| s.frames).sum();
    // An episode that collides or times out is a completed evaluation,
    // not a failed operation: `failed` stays for calls that error, which
    // `eval` has none of. Outcomes are in the metadata and the digest.
    report.attempted = episodes as u64;

    let parked: Vec<&Summary> = untraced
        .iter()
        .filter(|s| s.outcome == Outcome::Success)
        .collect();
    let collisions = untraced
        .iter()
        .filter(|s| s.outcome == Outcome::Collision)
        .count();
    let mut bytes = Vec::new();
    for s in untraced.iter().take(DIGEST_EPISODES) {
        let words = [
            s.outcome as u64,
            s.frames as u64,
            s.parking_time.to_bits(),
            s.path_length.to_bits(),
        ];
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
    let timeouts = episodes - parked.len() - collisions;
    report.meta_count("episodes", episodes as u64);
    report.meta_count("frames", frames as u64);
    report.meta_count("decide_samples", decide_secs.len() as u64);
    report.meta_count("parked", parked.len() as u64);
    report.meta_count("collisions", collisions as u64);
    report.meta_count("timeouts", timeouts as u64);
    report.meta_num(
        "failed_share",
        Some(share((collisions + timeouts) as u64, episodes as u64)),
    );
    report.meta_num(
        "parking_time_s",
        Some(mean(
            &parked.iter().map(|s| s.parking_time).collect::<Vec<_>>(),
        )),
    );
    report.meta_str(
        "digest",
        &format!(
            "{} over episodes 0..{}",
            hex(&bytes),
            episodes.min(DIGEST_EPISODES)
        ),
    );
    report.note(format!(
        "table2_icoil: {episodes} episodes, {frames} frames on {workers} workers; \
         parked {}, collided {collisions}, timed out {timeouts}",
        parked.len()
    ));
    if !args.trace {
        // a traced run's workers also replay, so its rates mean nothing
        report.meta_num("frames_per_s", Some(frames_per_s));
        report.meta_num(
            "episodes_per_s",
            Some(frames_per_s * episodes as f64 / frames.max(1) as f64),
        );
    }

    report.set("setup_s", median(&setup));
    let pct_us = |q| percentile(&decide_secs, q).map(|s| s * 1e6);
    report.meta_num("step_p50_us", pct_us(0.5));
    report.meta_num("step_p99_us", pct_us(0.99));
    report.set_pct("step_us", pct_us(0.99), decide_secs.len());

    if !args.trace {
        return Ok(());
    }

    let mut tracers = Vec::with_capacity(workers);
    let mut counts = LayerCounts::default();
    for (tracer, c) in states {
        tracers.push(tracer);
        counts.merge(c);
    }

    let mut mismatches = 0;
    for (i, (a, b)) in results.iter().enumerate() {
        let (mut b, frames_off) = b.expect("a traced run replays every episode");
        if args.inject_mismatch && i == 0 {
            b.frames += 1;
        }
        if !a.same_bits(&b) || frames_off > 0 {
            mismatches += 1;
            if mismatches <= 3 {
                report.fail(format!(
                    "episode {i}: traced replay {b:?} ({frames_off} actions differ) \
                     differs from eval {a:?}"
                ));
            }
        }
    }
    if mismatches > 0 {
        report.fail(format!(
            "{mismatches} of {episodes} episodes did not replay"
        ));
    }

    let table = LayerTable::from_tracers(&tracers);
    set_layer_metrics(report, &table, &counts, il_flops_per_row(&model));
    let decide_total: f64 = decide_secs.iter().sum();
    let layer_self = table.crate_self_secs() - table.self_secs(Layer::World);
    report.set(
        "unattributed_share",
        1.0 - layer_self / decide_total.max(1e-12),
    );
    report.set(
        "tracing_overhead",
        table.total_secs(Layer::Decide) / decide_total.max(1e-12),
    );
    for name in [
        "serve.overhead_us_per_frame",
        "serve.il_batch_width_mean",
        "serve.evict_p50_us",
        "serve.restore_p50_us",
        "serve.migrate_p50_us",
        "serve.migrate_p99_us",
        "serve.snapshot_bytes",
        "serve.create_p50_us",
    ] {
        report.set(name, 0.0);
    }
    self_time_notes(report, &table);
    crate::write_trace(args, &tracers);
    Ok(())
}
