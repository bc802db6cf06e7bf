//! `fleet_il`: one `Serve` stepped in lockstep by a single client through
//! `ServeHandle`, every frame on the IL lane. Vehicles cycle the six
//! procedural map families and are replaced by the next seeded scenario
//! when they finish; after every tick one live vehicle is evicted and
//! restored, so serve's state path runs beside its step path.
//!
//! The untraced pass times each lockstep `step_many` (the co-simulation
//! frame). The traced run serves the same work again with a span around
//! every `ServeHandle` call, reading the server's IL batch count after
//! every tick, then replays the same sessions in process through the
//! crates' public calls — `infer_batch` over chunks of [`MAX_BATCH`]
//! rows, then `SafetyProjector::project` per frame — and requires every
//! served frame's pose and action bits from all three.

use crate::layers::{il_flops_per_row, self_time_notes, set_layer_metrics, LayerCounts};
use crate::report::Report;
use crate::stats::{hex, mean, median, mix, percentile, permutation, share};
use crate::trace::{Layer, LayerTable, Tracer};
use crate::{load_model, Budget, RunArgs};
use icoil_adapt::{SafetyConfig, SafetyProjector};
use icoil_core::ICoilConfig;
use icoil_hsa::{Hsa, HsaConfig, Mode};
use icoil_il::IlModel;
use icoil_perception::{BevImage, Perception, Sensing};
use icoil_serve::{Serve, ServeConfig, SessionSpec, StepResponse};
use icoil_telemetry::{Counter, Series};
use icoil_vehicle::Action;
use icoil_world::episode::Observation;
use icoil_world::{MapFamilyKind, ProcGen, ProcGenConfig, Scenario, World};
use std::time::{Duration, Instant};

/// Ticks whose frames enter the printed trajectory-prefix digest.
const DIGEST_TICKS: usize = 200;

/// Seed stream of the migration order.
const MIGRATION_STREAM: u64 = 0x6d69_6772;

/// Vehicles in the fleet.
const VEHICLES: usize = 32;

/// The server's IL micro-batch limit. The shard ends a batch early when
/// its queue runs dry, and on this workload the scheduler lets it catch
/// up with the client's `step_many` on about half the ticks, so with one
/// batch of 32 the split of a tick into batches is set by timing. With
/// batches of 8 a tick takes four full batches, or five when such a
/// split happens (about one tick in five), and the replay's chunks of 8
/// match the server's widths on the other ticks.
const MAX_BATCH: usize = 8;

/// The server: one shard, f32, safety projection on, and HSA λ = +∞ so
/// every frame takes the IL lane. Deadlines are far beyond any solve, so
/// nothing sheds and every trajectory is a pure function of the seed.
fn serve_config() -> ServeConfig {
    ServeConfig {
        icoil: ICoilConfig {
            hsa: HsaConfig {
                lambda: f64::INFINITY,
                initial_mode: Mode::Il,
                ..HsaConfig::default()
            },
            safety: SafetyConfig {
                enabled: true,
                ..SafetyConfig::default()
            },
            ..ICoilConfig::default()
        },
        shards: 1,
        co_deadline: Duration::from_secs(60),
        max_batch: MAX_BATCH,
        ..ServeConfig::default()
    }
}

/// The seeded scenario stream: scenario `m` is a procedural lot of
/// family `m mod 6`.
struct Specs {
    seed: u64,
    scenarios: Vec<Scenario>,
}

impl Specs {
    fn get(&mut self, m: usize) -> &Scenario {
        while self.scenarios.len() <= m {
            let k = self.scenarios.len();
            let family = MapFamilyKind::ALL[k % MapFamilyKind::ALL.len()];
            let scenario = ProcGen::new(ProcGenConfig {
                family: Some(family),
                ..ProcGenConfig::default()
            })
            .generate(mix(self.seed, k as u64))
            .build();
            self.scenarios.push(scenario);
        }
        &self.scenarios[m]
    }

    fn spec(&mut self, m: usize) -> SessionSpec {
        SessionSpec::Scenario(Box::new(self.get(m).clone()))
    }
}

/// The deterministic content of one served frame, as raw bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameBits {
    spec: u32,
    frame: u32,
    /// 0 IL, 1 CO, 2 DONE, 3 a failed call.
    mode: u8,
    /// 0 running, 1 success, 2 collision, 3 timeout.
    outcome: u8,
    /// x, y, heading, velocity after the step.
    pose: [u64; 4],
    /// throttle, brake, steer, reverse.
    action: [u64; 4],
    /// HSA uncertainty and complexity.
    hsa: [u64; 2],
}

fn outcome_code(outcome: Option<&str>) -> u8 {
    match outcome {
        None => 0,
        Some("success") => 1,
        Some("collision") => 2,
        Some(_) => 3,
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

impl FrameBits {
    fn served(spec: usize, r: &StepResponse) -> FrameBits {
        FrameBits {
            spec: spec as u32,
            frame: r.frame as u32,
            mode: match r.mode.as_str() {
                "IL" => 0,
                "CO" => 1,
                _ => 2,
            },
            outcome: outcome_code(r.outcome.as_deref()),
            pose: [
                r.x.to_bits(),
                r.y.to_bits(),
                r.heading.to_bits(),
                r.velocity.to_bits(),
            ],
            action: action_bits(&r.action),
            hsa: [r.uncertainty.to_bits(), r.complexity.to_bits()],
        }
    }

    fn replayed(
        spec: usize,
        mode: u8,
        outcome: u8,
        world: &World,
        action: &Action,
        hsa: [f64; 2],
    ) -> FrameBits {
        let ego = world.ego();
        FrameBits {
            spec: spec as u32,
            frame: world.frame() as u32,
            mode,
            outcome,
            pose: [
                ego.pose.x.to_bits(),
                ego.pose.y.to_bits(),
                ego.pose.theta.to_bits(),
                ego.velocity.to_bits(),
            ],
            action: action_bits(action),
            hsa: [hsa[0].to_bits(), hsa[1].to_bits()],
        }
    }

    fn failed(spec: usize) -> FrameBits {
        FrameBits {
            spec: spec as u32,
            frame: 0,
            mode: 3,
            outcome: 0,
            pose: [0; 4],
            action: [0; 4],
            hsa: [0; 2],
        }
    }

    fn fold(&self, bytes: &mut Vec<u8>) {
        let head = [
            u64::from(self.spec) << 32 | u64::from(self.frame),
            u64::from(self.mode) << 8 | u64::from(self.outcome),
        ];
        for w in head
            .iter()
            .chain(&self.pose)
            .chain(&self.action)
            .chain(&self.hsa)
        {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
}

/// Everything one served pass observed.
#[derive(Default)]
struct Served {
    tick_secs: Vec<f64>,
    /// Per tick, the scenario index each slot was serving.
    tick_specs: Vec<Vec<u32>>,
    /// Per tick, per slot, the served frame.
    stream: Vec<FrameBits>,
    frames: u64,
    co_frames: u64,
    calls: u64,
    errors: u64,
    sheds: u64,
    degraded: u64,
    episodes: u64,
    parked: u64,
    create_secs: Vec<f64>,
    evict_secs: Vec<f64>,
    restore_secs: Vec<f64>,
    migrate_secs: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    il_batch_width_mean: f64,
    /// Per tick, the IL batches the server ran for it (traced pass only).
    tick_batches: Vec<u64>,
    first_errors: Vec<String>,
}

impl Served {
    fn error(&mut self, what: String) {
        self.errors += 1;
        if self.first_errors.len() < 3 {
            self.first_errors.push(what);
        }
    }

    fn frames_per_s(&self) -> f64 {
        self.frames as f64 / self.tick_secs.iter().sum::<f64>().max(1e-12)
    }
}

/// Times one client call, inside a span when tracing.
fn call<R>(
    tracer: &mut Option<&mut Tracer>,
    layer: Layer,
    id: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    if let Some(t) = tracer.as_deref_mut() {
        t.open(layer, id);
    }
    let t0 = Instant::now();
    let r = f();
    let secs = t0.elapsed().as_secs_f64();
    if let Some(t) = tracer.as_deref_mut() {
        t.close();
    }
    (r, secs)
}

/// Per slot, the live session's id and the index of its scenario.
type Slots = Vec<(u64, usize)>;

/// Starts a server and opens the first [`VEHICLES`] sessions: model
/// load, `Serve::start` and every `create`. Returns the server, the
/// `(session id, scenario index)` per slot and the set-up seconds.
fn start(specs: &mut Specs, served: &mut Served) -> Result<(Serve, Slots, f64), String> {
    let inputs: Vec<SessionSpec> = (0..VEHICLES).map(|m| specs.spec(m)).collect();
    let t0 = Instant::now();
    let server = Serve::start(serve_config(), load_model()?);
    let handle = server.handle();
    let mut slots = Vec::with_capacity(VEHICLES);
    for (m, spec) in inputs.into_iter().enumerate() {
        let c0 = Instant::now();
        let id = handle
            .create(spec)
            .map_err(|e| format!("create of scenario {m} failed: {e}"))?;
        served.create_secs.push(c0.elapsed().as_secs_f64());
        served.calls += 1;
        slots.push((id, m));
    }
    Ok((server, slots, t0.elapsed().as_secs_f64()))
}

/// When a served pass stops.
enum Stop<'a> {
    /// After the budget's time and tick floor.
    Budget(&'a Budget),
    /// After exactly this many ticks.
    Ticks(usize),
}

/// Steps the fleet in lockstep until `stop`, replacing finished vehicles
/// and evicting and restoring one live vehicle, in seeded round-robin
/// order, after every tick.
fn serve_pass(
    seed: u64,
    specs: &mut Specs,
    server: Serve,
    mut slots: Slots,
    stop: Stop,
    out: &mut Served,
    mut tracer: Option<&mut Tracer>,
) {
    let handle = server.handle();
    let order = permutation(mix(seed, MIGRATION_STREAM), VEHICLES);
    let mut next_spec = VEHICLES;
    let start = Instant::now();
    let mut tick = 0;
    loop {
        let done = match stop {
            Stop::Budget(b) => {
                let elapsed = start.elapsed();
                elapsed >= b.cap || (elapsed >= b.run_for && tick >= b.min_samples)
            }
            Stop::Ticks(n) => tick >= n,
        };
        if done {
            break;
        }
        let ids: Vec<u64> = slots.iter().map(|s| s.0).collect();
        let (responses, secs) = call(&mut tracer, Layer::ServeStep, tick as u64, || {
            handle.step_many(&ids)
        });
        out.tick_secs.push(secs);
        if tracer.is_some() {
            let (metrics, _) = call(&mut tracer, Layer::ServeMetrics, tick as u64, || {
                handle.metrics()
            });
            out.calls += 1;
            match metrics {
                Ok(m) => {
                    let total = m.counter(Counter::IlBatches);
                    let before: u64 = out.tick_batches.iter().sum();
                    out.tick_batches.push(total - before);
                }
                Err(e) => out.error(format!("metrics after tick {tick} failed: {e}")),
            }
        }
        out.tick_specs
            .push(slots.iter().map(|s| s.1 as u32).collect());
        let mut finished = Vec::new();
        for (k, response) in responses.into_iter().enumerate() {
            out.calls += 1;
            match response {
                Ok(r) => {
                    out.stream.push(FrameBits::served(slots[k].1, &r));
                    if r.mode != "DONE" {
                        out.frames += 1;
                    }
                    out.co_frames += u64::from(r.mode == "CO");
                    out.sheds += u64::from(r.shed);
                    out.degraded += u64::from(r.degraded);
                    if r.outcome.is_some() {
                        out.episodes += 1;
                        out.parked += u64::from(r.outcome.as_deref() == Some("success"));
                        finished.push(k);
                    }
                }
                Err(e) => {
                    out.stream.push(FrameBits::failed(slots[k].1));
                    out.error(format!("step of session {} failed: {e}", slots[k].0));
                }
            }
        }
        for k in finished {
            let id = slots[k].0;
            let (closed, _) = call(&mut tracer, Layer::ServeClose, id, || handle.close(id));
            out.calls += 1;
            if let Err(e) = closed {
                out.error(format!("close of session {id} failed: {e}"));
            }
            let spec = specs.spec(next_spec);
            let (created, secs) = call(&mut tracer, Layer::ServeCreate, next_spec as u64, || {
                handle.create(spec)
            });
            out.calls += 1;
            match created {
                Ok(new_id) => {
                    out.create_secs.push(secs);
                    slots[k] = (new_id, next_spec);
                }
                Err(e) => out.error(format!("create of scenario {next_spec} failed: {e}")),
            }
            next_spec += 1;
        }
        let id = slots[order[tick % VEHICLES]].0;
        let (evicted, evict_secs) = call(&mut tracer, Layer::ServeEvict, id, || handle.evict(id));
        out.calls += 2;
        match evicted {
            Ok(bytes) => {
                let (restored, restore_secs) = call(&mut tracer, Layer::ServeRestore, id, || {
                    handle.restore(&bytes)
                });
                match restored {
                    Ok(back) if back == id => {
                        out.evict_secs.push(evict_secs);
                        out.restore_secs.push(restore_secs);
                        out.migrate_secs.push(evict_secs + restore_secs);
                        out.snapshot_bytes.push(bytes.len() as f64);
                    }
                    Ok(back) => out.error(format!("restore of session {id} came back as {back}")),
                    Err(e) => out.error(format!("restore of session {id} failed: {e}")),
                }
            }
            Err(e) => out.error(format!("evict of session {id} failed: {e}")),
        }
        tick += 1;
    }
    let (metrics, _) = call(&mut tracer, Layer::ServeMetrics, 0, || handle.metrics());
    out.calls += 1;
    match metrics {
        Ok(m) => {
            let widths = m.series(Series::IlBatchSize);
            if widths.count() > 0 {
                out.il_batch_width_mean = widths.mean();
            }
        }
        Err(e) => out.error(format!("metrics failed: {e}")),
    }
    server.shutdown();
}

/// One in-process session of the replay, built as `Serve` builds it.
struct Replayed {
    spec: usize,
    world: World,
    perception: Perception,
    hsa: Hsa,
    done: bool,
}

/// Replays the served ticks in process: per tick, every live vehicle's
/// perception, `infer_batch` over chunks of [`MAX_BATCH`] of them, then
/// per vehicle HSA, the safety projection and the world step. Each tick
/// is one span, so its time compares with the served tick's. Returns the
/// replayed frames and, per tick, how many vehicles were live.
/// (λ = +∞ keeps HSA on IL; a CO decision would show as a mismatch.)
fn replay(
    model: &IlModel,
    specs: &mut Specs,
    tick_specs: &[Vec<u32>],
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> (Vec<FrameBits>, Vec<usize>) {
    let config = serve_config();
    let mut model = model.clone();
    let projector = SafetyProjector::new(config.icoil.safety);
    let mut slots: Vec<Option<Replayed>> = (0..VEHICLES).map(|_| None).collect();
    let mut stream = Vec::with_capacity(tick_specs.len() * VEHICLES);
    let mut live_per_tick = Vec::with_capacity(tick_specs.len());
    for (t, tick_specs) in tick_specs.iter().enumerate() {
        for (slot, &m) in slots.iter_mut().zip(tick_specs) {
            let m = m as usize;
            if slot.as_ref().map(|s| s.spec) != Some(m) {
                let scenario = specs.get(m);
                let world = World::new(scenario.clone());
                *slot = Some(Replayed {
                    spec: m,
                    perception: Perception::new(config.icoil.bev, scenario),
                    hsa: Hsa::new(config.icoil.hsa),
                    done: world.collision_cause().is_some(),
                    world,
                });
            }
        }
        tracer.open(Layer::Tick, t as u64);
        let sensings: Vec<Option<Sensing>> = slots
            .iter_mut()
            .map(|slot| {
                let s = slot.as_mut().expect("every slot holds a session");
                (!s.done).then(|| {
                    tracer.span(Layer::Perception, s.spec as u64, || {
                        s.perception.observe(&Observation::new(&s.world))
                    })
                })
            })
            .collect();
        let bevs: Vec<&BevImage> = sensings.iter().flatten().map(|s| &s.bev).collect();
        live_per_tick.push(bevs.len());
        let mut ils = Vec::with_capacity(bevs.len());
        for chunk in bevs.chunks(MAX_BATCH) {
            counts.il_batch_rows += chunk.len() as u64;
            ils.extend(tracer.span(Layer::IlBatch, chunk.len() as u64, || {
                model.infer_batch(chunk)
            }));
        }
        let mut ils = ils.into_iter();
        for (slot, sensing) in slots.iter_mut().zip(&sensings) {
            let s = slot.as_mut().expect("every slot holds a session");
            let id = s.spec as u64;
            let Some(sensing) = sensing else {
                stream.push(FrameBits::replayed(
                    s.spec,
                    2,
                    2,
                    &s.world,
                    &Action::full_brake(),
                    [0.0; 2],
                ));
                continue;
            };
            let il = ils.next().expect("one IL result per live vehicle");
            let decision = tracer.span(Layer::Hsa, id, || {
                s.hsa.set_ego_position(s.world.ego().pose.position());
                s.hsa.update(&il.probs, &sensing.boxes)
            });
            counts.frames += 1;
            counts.co_frames += u64::from(decision.mode == Mode::Co);
            counts.boxes += sensing.boxes.len() as u64;
            let params = s.world.scenario().vehicle_params;
            let proj = tracer.span(Layer::Adapt, id, || {
                projector.project(s.world.ego(), &params, &sensing.boxes, il.action)
            });
            counts.projections += 1;
            counts.clipped += u64::from(proj.clipped);
            let action = proj.action;
            let mode = u8::from(decision.mode == Mode::Co);
            tracer.span(Layer::World, id, || s.world.step(&action));
            let outcome = if s.world.collision_cause().is_some() {
                2
            } else if s.world.at_goal() {
                1
            } else if s.world.time() >= config.max_time {
                3
            } else {
                0
            };
            s.done = outcome != 0;
            stream.push(FrameBits::replayed(
                s.spec,
                mode,
                outcome,
                &s.world,
                &action,
                [decision.uncertainty, decision.complexity],
            ));
        }
        tracer.close();
    }
    (stream, live_per_tick)
}

/// Counts frames two streams disagree on, noting the first few.
fn compare(report: &mut Report, what: &str, reference: &[FrameBits], other: &[FrameBits]) {
    if reference.len() != other.len() {
        report.fail(format!(
            "{what}: {} frames against the untraced pass's {}",
            other.len(),
            reference.len()
        ));
        return;
    }
    let mut mismatches = 0;
    for (i, (a, b)) in reference.iter().zip(other).enumerate() {
        if a != b {
            mismatches += 1;
            if mismatches <= 3 {
                report.fail(format!(
                    "{what}: frame {i} is {b:?}, untraced pass served {a:?}"
                ));
            }
        }
    }
    if mismatches > 0 {
        report.fail(format!(
            "{what}: {mismatches} of {} frames differ",
            reference.len()
        ));
    }
}

fn pct_us(samples: &[f64], q: f64) -> Option<f64> {
    percentile(samples, q).map(|s| s * 1e6)
}

/// Runs the workload and fills `report`.
pub fn run(args: &RunArgs, budget: &Budget, report: &mut Report) -> Result<(), String> {
    let mut specs = Specs {
        seed: args.seed,
        scenarios: Vec::new(),
    };
    report.meta_count("vehicles", VEHICLES as u64);
    report.meta_count("max_batch", MAX_BATCH as u64);

    // untraced pass; its set-up is repeated and the median reported
    let mut a = Served::default();
    let mut setup = Vec::with_capacity(budget.setup_reps);
    let mut live = None;
    for _ in 0..budget.setup_reps {
        let (server, slots, secs) = start(&mut specs, &mut a)?;
        setup.push(secs);
        if let Some((old, _)) = live.replace((server, slots)) {
            Serve::shutdown(old);
        }
    }
    let (server, slots) = live.expect("at least one set-up repetition");
    serve_pass(
        args.seed,
        &mut specs,
        server,
        slots,
        Stop::Budget(budget),
        &mut a,
        None,
    );

    check_served(report, "untraced pass", &a);
    let ticks = a.tick_secs.len();
    let prefix = (DIGEST_TICKS.min(ticks) * VEHICLES).min(a.stream.len());
    let mut bytes = Vec::new();
    for f in &a.stream[..prefix] {
        f.fold(&mut bytes);
    }
    let prefix_hex = hex(&bytes);
    for f in &a.stream[prefix..] {
        f.fold(&mut bytes);
    }
    report.attempted = a.calls;
    report.failed = a.errors + a.sheds + a.degraded;
    report.meta_count("ticks", ticks as u64);
    report.meta_count("frames", a.frames);
    report.meta_num("frames_per_s", Some(a.frames_per_s()));
    report.meta_count("episodes", a.episodes);
    report.meta_count("parked", a.parked);
    report.meta_count("sheds", a.sheds);
    report.meta_count("degraded", a.degraded);
    report.meta_count("errors", a.errors);
    report.meta_count("migrations", a.migrate_secs.len() as u64);
    report.meta_num("migrate_p50_us", pct_us(&a.migrate_secs, 0.5));
    report.meta_num("migrate_p99_us", pct_us(&a.migrate_secs, 0.99));
    report.meta_num("snapshot_bytes_mean", Some(mean(&a.snapshot_bytes)));
    report.meta_num("il_batch_width_mean", Some(a.il_batch_width_mean));
    report.meta_str(
        "digest",
        &format!("{prefix_hex} over ticks 0..{}", DIGEST_TICKS.min(ticks)),
    );
    report.meta_str(
        "digest_full",
        &format!("{} over {ticks} ticks", hex(&bytes)),
    );
    report.note(format!(
        "fleet_il: {VEHICLES} vehicles, {ticks} ticks, {} frames in {:.2} s of ticks \
         ({:.1} frames/s); {} episodes finished, {} parked",
        a.frames,
        a.tick_secs.iter().sum::<f64>(),
        a.frames_per_s(),
        a.episodes,
        a.parked
    ));

    report.set("setup_s", median(&setup));
    report.meta_num("step_p50_us", pct_us(&a.tick_secs, 0.5));
    report.meta_num("step_p99_us", pct_us(&a.tick_secs, 0.99));
    report.set_pct("step_us", pct_us(&a.tick_secs, 0.5), ticks);

    if !args.trace {
        return Ok(());
    }

    // traced served pass: the same ticks, a span around every call
    let epoch = Instant::now();
    let mut client = Tracer::new(epoch);
    let mut b = Served::default();
    let (server, slots, _) = start(&mut specs, &mut b)?;
    serve_pass(
        args.seed,
        &mut specs,
        server,
        slots,
        Stop::Ticks(ticks),
        &mut b,
        Some(&mut client),
    );
    check_served(report, "traced pass", &b);
    compare(report, "traced served pass", &a.stream, &b.stream);

    // in-process replay of the same sessions, a span around every call
    let model = load_model()?;
    let mut inproc = Tracer::new(epoch);
    let mut counts = LayerCounts::default();
    let (mut replayed, live) = replay(&model, &mut specs, &a.tick_specs, &mut inproc, &mut counts);
    if args.inject_mismatch {
        if let Some(f) = replayed.first_mut() {
            f.pose[0] ^= 1;
        }
    }
    compare(report, "in-process replay", &a.stream, &replayed);
    if counts.co_frames > 0 {
        report.fail(format!(
            "in-process replay: {} of {} frames went to CO; hsa.co_share must be 0",
            counts.co_frames, counts.frames
        ));
    }

    let tracers = [client, inproc];
    let table = LayerTable::from_tracers(&tracers[1..]);
    set_layer_metrics(report, &table, &counts, il_flops_per_row(&model));

    // Served and replayed ticks compare only where the server ran as
    // many IL batches as the replay's chunks of MAX_BATCH.
    let replay_ticks = table.durations(Layer::Tick);
    let (mut matched, mut served_secs, mut replay_secs, mut frames) = (0, 0.0, 0.0, 0);
    for (t, &rows) in live.iter().enumerate() {
        if b.tick_batches.get(t) == Some(&(rows.div_ceil(MAX_BATCH) as u64)) {
            matched += 1;
            served_secs += b.tick_secs[t];
            replay_secs += replay_ticks[t];
            frames += rows;
        }
    }
    report.meta_num("matched_tick_share", Some(share(matched, ticks as u64)));
    report.set(
        "serve.overhead_us_per_frame",
        (served_secs - replay_secs) * 1e6 / frames.max(1) as f64,
    );
    report.set("serve.il_batch_width_mean", b.il_batch_width_mean);
    report.set_pct(
        "serve.evict_p50_us",
        pct_us(&b.evict_secs, 0.5),
        b.evict_secs.len(),
    );
    report.set_pct(
        "serve.restore_p50_us",
        pct_us(&b.restore_secs, 0.5),
        b.restore_secs.len(),
    );
    report.set_pct(
        "serve.migrate_p50_us",
        pct_us(&b.migrate_secs, 0.5),
        b.migrate_secs.len(),
    );
    report.set_pct(
        "serve.migrate_p99_us",
        pct_us(&b.migrate_secs, 0.99),
        b.migrate_secs.len(),
    );
    report.set("serve.snapshot_bytes", mean(&b.snapshot_bytes));
    let creates: Vec<f64> = a
        .create_secs
        .iter()
        .chain(&b.create_secs)
        .copied()
        .collect();
    report.set_pct("serve.create_p50_us", pct_us(&creates, 0.5), creates.len());
    let replay_total = table.total_secs(Layer::Tick);
    report.set(
        "unattributed_share",
        1.0 - table.crate_self_secs() / replay_total.max(1e-12),
    );
    report.set("tracing_overhead", a.frames_per_s() / b.frames_per_s());
    report.meta_num("traced_frames_per_s", Some(b.frames_per_s()));
    report.meta_num(
        "replay_frames_per_s",
        Some(counts.frames as f64 / replay_total.max(1e-12)),
    );
    self_time_notes(report, &table);
    crate::write_trace(args, &tracers);
    Ok(())
}

/// The output checks every served pass must pass.
fn check_served(report: &mut Report, what: &str, s: &Served) {
    if s.errors > 0 {
        report.fail(format!(
            "{what}: {} ServeHandle calls failed: {:?}",
            s.errors, s.first_errors
        ));
    }
    if s.sheds > 0 {
        report.fail(format!("{what}: {} CO requests were shed", s.sheds));
    }
    if s.co_frames > 0 {
        report.fail(format!(
            "{what}: {} of {} frames went to CO; hsa.co_share must be 0",
            s.co_frames, s.frames
        ));
    }
}
