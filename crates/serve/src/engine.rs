//! The serving engine: N shard threads owning disjoint session sets,
//! each micro-batching its own IL lane, all feeding one deadline-ordered
//! CO worker pool.
//!
//! Threading model: sessions are pinned to shards by consistent hashing
//! on the session id ([`ShardRouter`]), and each shard thread owns its
//! session table outright — commands arrive over a per-shard mpsc
//! channel, so session state is never behind a lock. A session whose
//! frame needs a CO solve is *moved* (world, HSA window, warm-start
//! memory and all) into the lane job; the worker replies to the client
//! directly and mails the session back to its home shard as a
//! [`Command::CoDone`]. Requests that land while a session is in flight
//! are deferred and replayed in arrival order when it returns.
//!
//! Shard assignment is invisible to the computation: shards share no
//! per-session state, so trajectories are bit-identical at any shard
//! count. Checkpoint/restore rides the same command loop — a snapshot
//! is taken between frames on the owning shard, and a restore may land
//! on any shard of any process.

use crate::queue::DeadlineQueue;
use crate::session::{ServeError, Session, SessionSnapshot, SessionSpec, StepResponse};
use crate::shard::ShardRouter;
use crate::snapshot::{decode_snapshot, encode_snapshot};
use crate::ServeConfig;
use icoil_adapt::{SafetyProjector, WeightStore};
use icoil_co::CoOutput;
use icoil_hsa::{HsaDecision, Mode};
use icoil_il::{IlModel, IlPrecision, InferResult};
use icoil_perception::{BevImage, Perception, Sensing};
use icoil_telemetry::{Counter, Metrics, Series};
use icoil_vehicle::Action;
use icoil_world::episode::Observation;
use icoil_world::{Difficulty, ScenarioConfig, World};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

type Reply<T> = Sender<Result<T, ServeError>>;

enum Command {
    Create {
        id: u64,
        spec: Box<SessionSpec>,
        reply: Reply<u64>,
    },
    Step {
        id: u64,
        reply: Reply<StepResponse>,
    },
    Close {
        id: u64,
        reply: Reply<()>,
    },
    Snapshot {
        id: u64,
        reply: Reply<Vec<u8>>,
    },
    Evict {
        id: u64,
        reply: Reply<Vec<u8>>,
    },
    Restore {
        snapshot: Box<SessionSnapshot>,
        reply: Reply<u64>,
    },
    Metrics {
        reply: Sender<Metrics>,
    },
    CoDone {
        session: Box<Session>,
        latency_s: f64,
        shed: bool,
    },
    Shutdown,
}

impl Command {
    /// Answers a command's reply channel with an error — how deferred
    /// commands are settled when their session vanishes mid-flight.
    fn reject(self, err: ServeError) {
        match self {
            Command::Create { reply, .. } => {
                let _ = reply.send(Err(err));
            }
            Command::Step { reply, .. } => {
                let _ = reply.send(Err(err));
            }
            Command::Close { reply, .. } => {
                let _ = reply.send(Err(err));
            }
            Command::Snapshot { reply, .. } => {
                let _ = reply.send(Err(err));
            }
            Command::Evict { reply, .. } => {
                let _ = reply.send(Err(err));
            }
            Command::Restore { reply, .. } => {
                let _ = reply.send(Err(err));
            }
            Command::Metrics { .. } | Command::CoDone { .. } | Command::Shutdown => {}
        }
    }
}

/// A CO-lane work item: the session itself plus everything its solve
/// frame needs. Deadline-keyed in the queue; `home` is the owning
/// shard's command channel (the lane is shared by every shard).
struct CoJob {
    session: Box<Session>,
    sensing: Sensing,
    hsa: HsaDecision,
    reply: Reply<StepResponse>,
    t0: Instant,
    deadline: Instant,
    home: Sender<Command>,
}

struct LaneState {
    queue: DeadlineQueue<Instant, Box<CoJob>>,
    closed: bool,
}

/// The shared CO lane: a bounded earliest-deadline queue behind one
/// mutex (jobs are coarse — a full path + MPC solve — so the lock is
/// never contended for long) plus a condvar waking idle workers.
struct Lane {
    state: Mutex<LaneState>,
    ready: Condvar,
}

impl Lane {
    fn new(capacity: usize) -> Self {
        Lane {
            state: Mutex::new(LaneState {
                queue: DeadlineQueue::new(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admits a job or returns it when the queue is full (the caller
    /// sheds). Never blocks.
    fn submit(&self, job: Box<CoJob>) -> Result<(), Box<CoJob>> {
        let mut state = self.state.lock().expect("lane lock");
        if state.closed {
            return Err(job);
        }
        state.queue.push(job.deadline, job)?;
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    fn len(&self) -> usize {
        self.state.lock().expect("lane lock").queue.len()
    }

    /// Blocks until a job is available (earliest deadline first) or the
    /// lane is closed *and* drained — queued jobs are always finished,
    /// never dropped.
    fn pop_blocking(&self) -> Option<Box<CoJob>> {
        let mut state = self.state.lock().expect("lane lock");
        loop {
            if let Some((_, job)) = state.queue.pop() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("lane lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("lane lock").closed = true;
        self.ready.notify_all();
    }
}

/// A CO worker: pops the earliest-deadline job, sheds it if its deadline
/// has passed and otherwise solves it on the session's own state, then
/// replies to the client and mails the session back to its home shard.
/// Each job is solved alone, so an idle worker takes the next queued job
/// as soon as it frees up. A panic inside the solve degrades that frame
/// to the full-brake response, so one poisoned scenario cannot take the
/// worker — let alone the server — down.
fn worker_loop(lane: Arc<Lane>) {
    while let Some(job) = lane.pop_blocking() {
        let CoJob {
            mut session,
            sensing,
            hsa,
            reply,
            t0,
            deadline,
            home,
        } = *job;
        // an expired job never consumes solve budget
        let shed = Instant::now() > deadline;
        let out = if shed {
            CoOutput::degraded_brake()
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.solve_co(&sensing)))
                .unwrap_or_else(|_| CoOutput::degraded_brake())
        };
        let resp = session.advance(out.action, &hsa, Some(&out), shed);
        let latency_s = t0.elapsed().as_secs_f64();
        // mail the session home BEFORE replying: commands and CoDone
        // share the shard's FIFO channel, so a client that has seen
        // this reply is guaranteed the shard settles this frame's
        // bookkeeping (shed counters, in-flight state) before
        // processing any command the client sends afterwards — e.g.
        // a metrics or snapshot request
        let _ = home.send(Command::CoDone {
            session,
            latency_s,
            shed,
        });
        let _ = reply.send(Ok(resp));
    }
}

/// The fixed BEV frame set the server calibrates int8 quantization on:
/// a few stepped frames from seeded scenarios cycling every difficulty
/// tier, rendered through the config's own perception pipeline. Purely
/// a function of `config.icoil`, so every shard of every process
/// derives the identical activation scales — a session migrated across
/// servers meets the same quantized network on both sides.
pub(crate) fn calibration_frames(config: &ServeConfig) -> Vec<BevImage> {
    let mut frames = Vec::new();
    for (tier, difficulty) in Difficulty::ALL.into_iter().enumerate() {
        for seed in 0..3u64 {
            let scenario = ScenarioConfig::new(difficulty, 100 + 10 * tier as u64 + seed).build();
            let mut perception = Perception::new(config.icoil.bev, &scenario);
            let mut world = World::new(scenario);
            for _ in 0..4 {
                let sensing = perception.observe(&Observation::new(&world));
                frames.push(sensing.bev);
                world.step(&Action::forward(0.3, 0.05));
            }
        }
    }
    frames
}

/// Calibrates `model` for the int8 lane on the deterministic
/// [`calibration_frames`] set.
fn calibrate_model(config: &ServeConfig, model: &mut IlModel) {
    let frames = calibration_frames(config);
    let refs: Vec<&BevImage> = frames.iter().collect();
    model.calibrate_int8(&refs);
}

/// A step request drained from the channel, sensed and awaiting the IL
/// micro-batch.
struct PendingStep {
    session: Session,
    sensing: Sensing,
    reply: Reply<StepResponse>,
    t0: Instant,
}

/// One engine shard: owns the sessions routed to it, runs their IL
/// micro-batches, and submits their CO solves to the shared lane.
struct Shard {
    config: ServeConfig,
    /// Backstop session cap (the global limit; the handle enforces it
    /// *before* routing, so under hash skew one shard may legitimately
    /// hold most of it).
    limit: usize,
    /// The shared versioned weight store new sessions pin from.
    store: Arc<WeightStore>,
    /// Generations this shard has materialized (cloned out of the
    /// store), keyed by version. A shard serving sessions pinned to
    /// different generations holds one working copy per generation;
    /// int8 calibration happens per copy, on the same deterministic
    /// frame set everywhere.
    models: HashMap<u32, IlModel>,
    /// Safety projection for IL-mode actions, present only when
    /// `config.icoil.safety.enabled`.
    projector: Option<SafetyProjector>,
    rx: Receiver<Command>,
    /// This shard's own command sender — workers mail sessions home
    /// through a clone carried in each [`CoJob`].
    home: Sender<Command>,
    lane: Arc<Lane>,
    sessions: HashMap<u64, Session>,
    in_flight: HashSet<u64>,
    /// Commands against in-flight sessions, replayed in arrival order
    /// when the session lands.
    deferred: HashMap<u64, VecDeque<Command>>,
    pending_close: HashMap<u64, Vec<Reply<()>>>,
    backlog: VecDeque<Command>,
    metrics: Metrics,
    shutting_down: bool,
    /// Whether this shard has published its model's quantization
    /// abs-error profile into [`Series::IlQuantAbsErr`] yet — recorded
    /// once per shard, the first time the int8 lane actually runs here.
    quant_err_recorded: bool,
}

impl Shard {
    fn run(mut self) {
        loop {
            // one blocking command starts the tick; everything already
            // queued behind it joins the same IL micro-batch
            let first = match self.backlog.pop_front() {
                Some(cmd) => cmd,
                None => match self.rx.recv() {
                    Ok(cmd) => cmd,
                    Err(_) => break,
                },
            };
            let mut steps: Vec<PendingStep> = Vec::new();
            self.dispatch(first, &mut steps);
            while steps.len() < self.config.max_batch {
                match self.rx.try_recv() {
                    Ok(cmd) => self.dispatch(cmd, &mut steps),
                    Err(_) => break,
                }
            }
            if !steps.is_empty() {
                self.run_batch(steps);
            }
            if self.shutting_down && self.in_flight.is_empty() {
                break;
            }
        }
    }

    fn dispatch(&mut self, cmd: Command, steps: &mut Vec<PendingStep>) {
        match cmd {
            Command::Create { id, spec, reply } => {
                if self.shutting_down {
                    let _ = reply.send(Err(ServeError::ShuttingDown));
                } else if self.sessions.len() + self.in_flight.len() >= self.limit {
                    let _ = reply.send(Err(ServeError::SessionLimit));
                } else {
                    // the session pins the newest generation at this
                    // instant for its whole episode; later publishes
                    // affect only sessions created after them
                    let version = self.store.published();
                    self.sessions
                        .insert(id, Session::new(id, &self.config, &spec, version));
                    self.metrics.add(Counter::ServeSessions, 1);
                    let _ = reply.send(Ok(id));
                }
            }
            Command::Step { id, reply } => {
                if self.shutting_down {
                    let _ = reply.send(Err(ServeError::ShuttingDown));
                    return;
                }
                if self.in_flight.contains(&id) {
                    self.defer(Command::Step { id, reply });
                    return;
                }
                let Some(mut session) = self.sessions.remove(&id) else {
                    let _ = reply.send(Err(ServeError::UnknownSession(id)));
                    return;
                };
                if session.is_done() {
                    let resp = session.terminal_response();
                    self.sessions.insert(id, session);
                    let _ = reply.send(Ok(resp));
                    return;
                }
                let t0 = Instant::now();
                let sensing = session.sense();
                steps.push(PendingStep {
                    session,
                    sensing,
                    reply,
                    t0,
                });
            }
            Command::Close { id, reply } => {
                if self.in_flight.contains(&id) {
                    self.pending_close.entry(id).or_default().push(reply);
                } else if self.sessions.remove(&id).is_some() {
                    let _ = reply.send(Ok(()));
                } else {
                    let _ = reply.send(Err(ServeError::UnknownSession(id)));
                }
            }
            Command::Snapshot { id, reply } => {
                if self.in_flight.contains(&id) {
                    self.defer(Command::Snapshot { id, reply });
                } else if let Some(session) = self.sessions.get(&id) {
                    self.metrics.add(Counter::ServeSnapshots, 1);
                    let _ = reply.send(Ok(encode_snapshot(&session.snapshot())));
                } else {
                    let _ = reply.send(Err(ServeError::UnknownSession(id)));
                }
            }
            Command::Evict { id, reply } => {
                if self.in_flight.contains(&id) {
                    self.defer(Command::Evict { id, reply });
                } else if let Some(session) = self.sessions.remove(&id) {
                    self.metrics.add(Counter::ServeSnapshots, 1);
                    self.metrics.add(Counter::ServeEvictions, 1);
                    let _ = reply.send(Ok(encode_snapshot(&session.snapshot())));
                } else {
                    let _ = reply.send(Err(ServeError::UnknownSession(id)));
                }
            }
            Command::Restore { snapshot, reply } => {
                let id = snapshot.id;
                if self.shutting_down {
                    let _ = reply.send(Err(ServeError::ShuttingDown));
                } else if self.sessions.contains_key(&id) || self.in_flight.contains(&id) {
                    let _ = reply.send(Err(ServeError::SessionExists(id)));
                } else if self.sessions.len() + self.in_flight.len() >= self.limit {
                    let _ = reply.send(Err(ServeError::SessionLimit));
                } else if self.store.get(snapshot.weight_version).is_none() {
                    // replaying under different weights would diverge
                    // silently — refuse instead
                    let _ = reply.send(Err(ServeError::UnknownWeightVersion(
                        snapshot.weight_version,
                    )));
                } else {
                    if snapshot.il_precision == IlPrecision::Int8 {
                        // an int8-pinned episode may migrate into an
                        // f32-default server: make the lane ready now so
                        // its first step isn't a calibration stall inside
                        // a latency-measured batch
                        self.ensure_calibrated(snapshot.weight_version);
                    }
                    self.sessions
                        .insert(id, Session::restore(&self.config, &snapshot));
                    self.metrics.add(Counter::ServeRestores, 1);
                    let _ = reply.send(Ok(id));
                }
            }
            Command::Metrics { reply } => {
                let _ = reply.send(self.metrics.clone());
            }
            Command::CoDone {
                session,
                latency_s,
                shed,
            } => {
                let id = session.id;
                self.in_flight.remove(&id);
                self.metrics.observe(Series::ServeCoLane, latency_s);
                if shed {
                    self.metrics.add(Counter::CoShed, 1);
                    if let Some(f) = session.family_index() {
                        self.metrics.add(Counter::CO_SHED_BY_FAMILY[f], 1);
                    }
                }
                if let Some(replies) = self.pending_close.remove(&id) {
                    // the client closed the session mid-flight: drop it
                    for r in replies {
                        let _ = r.send(Ok(()));
                    }
                    if let Some(queue) = self.deferred.remove(&id) {
                        for cmd in queue {
                            cmd.reject(ServeError::UnknownSession(id));
                        }
                    }
                    return;
                }
                self.sessions.insert(id, *session);
                if let Some(mut queue) = self.deferred.remove(&id) {
                    while let Some(cmd) = queue.pop_front() {
                        self.backlog.push_back(cmd);
                    }
                }
            }
            Command::Shutdown => {
                self.shutting_down = true;
            }
        }
    }

    fn defer(&mut self, cmd: Command) {
        let id = match &cmd {
            Command::Step { id, .. } | Command::Snapshot { id, .. } | Command::Evict { id, .. } => {
                *id
            }
            _ => unreachable!("only id-keyed commands are deferred"),
        };
        self.deferred.entry(id).or_default().push_back(cmd);
    }

    /// Materializes a weight generation into this shard's working set.
    /// The first copy beyond the shard's initial one counts as a hot
    /// swap — the shard is now serving weights it was not started with.
    fn ensure_model(&mut self, version: u32) {
        if self.models.contains_key(&version) {
            return;
        }
        let generation = self
            .store
            .get(version)
            .expect("sessions only pin published generations");
        if !self.models.is_empty() {
            self.metrics.add(Counter::WeightSwaps, 1);
        }
        self.models.insert(version, generation.model.clone());
    }

    /// Readies generation `version` for the int8 lane on this shard.
    /// Calibration runs per materialized generation, on the same
    /// deterministic [`calibration_frames`] set everywhere, so every
    /// shard of every process derives identical scales for a given
    /// generation. The first time a shard is int8-ready it also
    /// publishes the calibration's per-logit abs-error profile into
    /// [`Series::IlQuantAbsErr`].
    fn ensure_calibrated(&mut self, version: u32) {
        self.ensure_model(version);
        let model = self.models.get_mut(&version).expect("materialized above");
        if !model.is_calibrated() {
            calibrate_model(&self.config, model);
        }
        if !self.quant_err_recorded {
            self.quant_err_recorded = true;
            if let Some(errs) = model.quant_calibration_errors() {
                for &e in errs {
                    self.metrics.observe(Series::IlQuantAbsErr, f64::from(e));
                }
            }
        }
    }

    /// One shard tick over the drained step requests: a single blocked
    /// IL pass over the pending frames (the HSA needs the softmax on
    /// every frame regardless of mode), then per-session HSA decisions —
    /// IL-mode frames finish inline, CO-mode frames go to the lane.
    ///
    /// A frame whose BEV image repeats its session's last inferred one
    /// bit for bit reuses that inference ([`Session::recalls_il`]) and
    /// stays out of the pass. The rest split into one sub-batch per
    /// `(precision, version)` pair present, since sessions pin both
    /// (each sub-batch counted as its own `IlBatches` entry); a tick of
    /// all-f32 sessions on one generation runs at most one pass.
    /// Batching stays bit-identical per row because rows never cross
    /// models.
    fn run_batch(&mut self, steps: Vec<PendingStep>) {
        let recalled: Vec<bool> = steps
            .iter()
            .map(|s| s.session.recalls_il(&s.sensing.bev))
            .collect();
        let hits = recalled.iter().filter(|&&r| r).count();
        self.metrics.add(Counter::IlMemoHits, hits as u64);
        let mut fresh: Vec<Option<InferResult>> = Vec::new();
        fresh.resize_with(steps.len(), || None);
        for precision in [IlPrecision::F32, IlPrecision::Int8] {
            let mut versions: Vec<u32> = steps
                .iter()
                .filter(|s| s.session.precision == precision)
                .map(|s| s.session.weight_version)
                .collect();
            versions.sort_unstable();
            versions.dedup();
            for version in versions {
                let rows: Vec<usize> = steps
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| {
                        s.session.precision == precision && s.session.weight_version == version
                    })
                    .map(|(i, _)| i)
                    .collect();
                if precision == IlPrecision::Int8 {
                    // every int8-pinned frame counts, recalled or inferred
                    self.metrics.add(Counter::IlFramesInt8, rows.len() as u64);
                }
                let picked: Vec<usize> = rows.into_iter().filter(|&i| !recalled[i]).collect();
                if picked.is_empty() {
                    continue;
                }
                if precision == IlPrecision::Int8 {
                    self.ensure_calibrated(version);
                } else {
                    self.ensure_model(version);
                }
                let model = self.models.get_mut(&version).expect("materialized above");
                model.set_precision(precision);
                let bevs: Vec<&BevImage> = picked.iter().map(|&i| &steps[i].sensing.bev).collect();
                let il_results = model.infer_batch(&bevs);
                self.metrics.add(Counter::IlBatches, 1);
                self.metrics.observe(Series::IlBatchSize, bevs.len() as f64);
                for (&i, il) in picked.iter().zip(il_results) {
                    fresh[i] = Some(il);
                }
            }
        }
        for (mut step, il) in steps.into_iter().zip(fresh) {
            if let Some(il) = il {
                // the rest of the frame reads only the boxes, so the
                // image moves into the memo rather than being copied
                let bev = std::mem::take(&mut step.sensing.bev);
                step.session.remember_il(bev, il);
            }
            let (hsa, il_action) = step.session.plan(&step.sensing);
            match hsa.mode {
                Mode::Il => {
                    let mut action = il_action;
                    if let Some(projector) = &self.projector {
                        let world = step.session.world();
                        let proj = projector.project(
                            world.ego(),
                            &world.scenario().vehicle_params,
                            &step.sensing.boxes,
                            action,
                        );
                        if proj.clipped {
                            self.metrics.add(Counter::SafetyProjections, 1);
                            self.metrics
                                .observe(Series::SafetyClipMag, proj.clip_magnitude);
                        }
                        action = proj.action;
                    }
                    let resp = step.session.advance(action, &hsa, None, false);
                    self.metrics
                        .observe(Series::ServeIlLane, step.t0.elapsed().as_secs_f64());
                    self.sessions.insert(step.session.id, step.session);
                    let _ = step.reply.send(Ok(resp));
                }
                Mode::Co => {
                    let id = step.session.id;
                    let family = step.session.family_index();
                    self.metrics
                        .observe(Series::CoQueueDepth, self.lane.len() as f64);
                    let job = Box::new(CoJob {
                        session: Box::new(step.session),
                        sensing: step.sensing,
                        hsa,
                        reply: step.reply,
                        t0: step.t0,
                        deadline: Instant::now() + self.config.co_deadline,
                        home: self.home.clone(),
                    });
                    match self.lane.submit(job) {
                        Ok(()) => {
                            self.metrics.add(Counter::CoAdmitted, 1);
                            if let Some(f) = family {
                                self.metrics.add(Counter::CO_ADMITTED_BY_FAMILY[f], 1);
                            }
                            self.in_flight.insert(id);
                        }
                        Err(job) => {
                            // admission control: the queue is full, shed
                            // now rather than block the shard
                            let CoJob {
                                mut session,
                                hsa,
                                reply,
                                t0,
                                ..
                            } = *job;
                            let out = CoOutput::degraded_brake();
                            let resp = session.advance(out.action, &hsa, Some(&out), true);
                            self.metrics.add(Counter::CoShed, 1);
                            if let Some(f) = family {
                                self.metrics.add(Counter::CO_SHED_BY_FAMILY[f], 1);
                            }
                            self.metrics
                                .observe(Series::ServeCoLane, t0.elapsed().as_secs_f64());
                            self.sessions.insert(id, *session);
                            let _ = reply.send(Ok(resp));
                        }
                    }
                }
            }
        }
    }
}

/// A running policy server: owns the shard and worker threads. Dropping
/// (or calling [`Serve::shutdown`]) drains in-flight solves, stops the
/// workers and joins everything.
pub struct Serve {
    handle: ServeHandle,
    shards: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    lane: Arc<Lane>,
}

impl Serve {
    /// Starts the shard and CO worker threads with `model` as the sole
    /// (generation-0) entry of a fresh weight store.
    ///
    /// # Panics
    ///
    /// Panics when a thread cannot be spawned.
    pub fn start(config: ServeConfig, mut model: IlModel) -> Serve {
        if config.il_precision == IlPrecision::Int8 {
            // calibrate the prototype once, before it enters the store:
            // every shard materializes the identical quantized network
            // and scales for generation 0
            calibrate_model(&config, &mut model);
        }
        Serve::start_with_store(config, Arc::new(WeightStore::new(model)))
    }

    /// Starts the shard and CO worker threads against an existing
    /// versioned weight store — the online-adaptation entry point.
    ///
    /// Each session pins [`WeightStore::published`] at creation for its
    /// whole episode; publishing a retrained generation to `store`
    /// hot-swaps the weights **between** episodes, never within one.
    /// Shards materialize (and, for the int8 lane, calibrate) each
    /// generation lazily the first time one of their sessions needs it.
    ///
    /// # Panics
    ///
    /// Panics when a thread cannot be spawned.
    pub fn start_with_store(config: ServeConfig, store: Arc<WeightStore>) -> Serve {
        let lane = Arc::new(Lane::new(config.queue_capacity));
        let workers = (0..config.co_workers.max(1))
            .map(|i| {
                let lane = Arc::clone(&lane);
                std::thread::Builder::new()
                    .name(format!("icoil-co-{i}"))
                    .spawn(move || worker_loop(lane))
                    .expect("spawn CO lane worker")
            })
            .collect();
        let shard_count = config.shards.max(1);
        // the global cap is enforced handle-side before routing; each
        // shard keeps the full limit as a backstop so consistent-hash
        // skew can never produce a spurious per-shard rejection
        let limit = config.max_sessions;
        let mut txs = Vec::with_capacity(shard_count);
        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let (tx, rx) = channel();
            let shard = Shard {
                config,
                limit,
                store: Arc::clone(&store),
                models: HashMap::new(),
                projector: config
                    .icoil
                    .safety
                    .enabled
                    .then(|| SafetyProjector::new(config.icoil.safety)),
                rx,
                home: tx.clone(),
                lane: Arc::clone(&lane),
                sessions: HashMap::new(),
                in_flight: HashSet::new(),
                deferred: HashMap::new(),
                pending_close: HashMap::new(),
                backlog: VecDeque::new(),
                metrics: Metrics::new(),
                shutting_down: false,
                quant_err_recorded: false,
            };
            txs.push(tx);
            shards.push(
                std::thread::Builder::new()
                    .name(format!("icoil-serve-{i}"))
                    .spawn(move || shard.run())
                    .expect("spawn serve shard"),
            );
        }
        Serve {
            handle: ServeHandle {
                txs: Arc::new(txs),
                router: Arc::new(ShardRouter::new(shard_count)),
                next_id: Arc::new(AtomicU64::new(1)),
                live: Arc::new(AtomicUsize::new(0)),
                max_sessions: config.max_sessions,
                il_precision: config.il_precision,
                store,
            },
            shards,
            workers,
            lane,
        }
    }

    /// A client handle; clone freely across threads and connections.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Stops accepting work, drains in-flight CO solves, and joins the
    /// shard and worker threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shards.is_empty() {
            return;
        }
        for tx in self.handle.txs.iter() {
            let _ = tx.send(Command::Shutdown);
        }
        // a shard exits only once its in-flight set is empty, i.e. every
        // one of its lane jobs has come home — so after joining all
        // shards the lane is drained and the workers park on the
        // (now-closed) condvar
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
        self.lane.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The in-process client API: every method is a blocking round-trip to
/// the owning shard thread. Tests and the bench harness use this
/// directly; the TCP front end is one more caller of the same handle.
///
/// Session ids are allocated handle-side from one shared counter, then
/// routed: the id → shard mapping is a pure function of the id and the
/// shard count, so every handle (and every process with the same shard
/// count) agrees where a session lives.
#[derive(Clone)]
pub struct ServeHandle {
    txs: Arc<Vec<Sender<Command>>>,
    router: Arc<ShardRouter>,
    next_id: Arc<AtomicU64>,
    /// Live-session count across all shards, maintained handle-side so
    /// the global `max_sessions` cap holds exactly no matter how the
    /// id → shard hash distributes sessions.
    live: Arc<AtomicUsize>,
    max_sessions: usize,
    il_precision: IlPrecision,
    store: Arc<WeightStore>,
}

impl ServeHandle {
    /// The number of engine shards behind this handle.
    pub fn shards(&self) -> usize {
        self.txs.len()
    }

    /// The versioned weight store behind this server. Publish a
    /// retrained generation here to hot-swap: sessions created after
    /// the publish pin the new generation; running sessions finish on
    /// the one they started with.
    pub fn weight_store(&self) -> &Arc<WeightStore> {
        &self.store
    }

    /// The IL-lane precision sessions created through this handle pin
    /// (the server config's [`ServeConfig::il_precision`]). Restored
    /// sessions keep whatever precision their snapshot carries instead.
    pub fn il_precision(&self) -> IlPrecision {
        self.il_precision
    }

    fn tx_for(&self, id: u64) -> &Sender<Command> {
        &self.txs[self.router.route(id)]
    }

    fn request<T>(
        &self,
        id: u64,
        make: impl FnOnce(Reply<T>) -> Command,
    ) -> Result<T, ServeError> {
        let (reply, rx) = channel();
        self.tx_for(id)
            .send(make(reply))
            .map_err(|_| ServeError::Disconnected)?;
        rx.recv().map_err(|_| ServeError::Disconnected)?
    }

    /// Opens a session; returns its id.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionLimit`] at capacity,
    /// [`ServeError::ShuttingDown`] / [`ServeError::Disconnected`]
    /// around shutdown.
    pub fn create(&self, spec: impl Into<SessionSpec>) -> Result<u64, ServeError> {
        self.reserve_slot()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let spec = Box::new(spec.into());
        let result = self.request(id, |reply| Command::Create { id, spec, reply });
        if result.is_err() {
            self.release_slot();
        }
        result
    }

    /// Advances a session one frame and returns the served action and
    /// resulting state. Stepping a finished episode reports the terminal
    /// state again without advancing.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a dead id, shutdown errors as
    /// on [`ServeHandle::create`].
    pub fn step(&self, id: u64) -> Result<StepResponse, ServeError> {
        self.request(id, |reply| Command::Step { id, reply })
    }

    /// Steps many sessions "concurrently" from one caller: all requests
    /// are enqueued before any reply is awaited, so same-shard sessions
    /// land in the same engine tick and share one IL micro-batch.
    /// Results are in input order.
    pub fn step_many(&self, ids: &[u64]) -> Vec<Result<StepResponse, ServeError>> {
        let receivers: Vec<_> = ids
            .iter()
            .map(|&id| {
                let (reply, rx) = channel();
                self.tx_for(id)
                    .send(Command::Step { id, reply })
                    .ok()
                    .map(|_| rx)
            })
            .collect();
        receivers
            .into_iter()
            .map(|rx| match rx {
                None => Err(ServeError::Disconnected),
                Some(rx) => rx
                    .recv()
                    .map_err(|_| ServeError::Disconnected)
                    .and_then(|r| r),
            })
            .collect()
    }

    /// Closes a session, releasing its state. A session in flight on
    /// the CO lane is released as soon as its solve lands.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a dead id.
    pub fn close(&self, id: u64) -> Result<(), ServeError> {
        let result = self.request(id, |reply| Command::Close { id, reply });
        if result.is_ok() {
            self.release_slot();
        }
        result
    }

    /// Serializes a session's complete state into the versioned binary
    /// snapshot format without disturbing it. The snapshot is taken
    /// between frames (after any in-flight solve lands), so restoring it
    /// replays the remaining episode bit-identically.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a dead id.
    pub fn snapshot(&self, id: u64) -> Result<Vec<u8>, ServeError> {
        self.request(id, |reply| Command::Snapshot { id, reply })
    }

    /// Snapshots a session and removes it from the server — the idle
    /// eviction / migration primitive. The returned bytes restore the
    /// session (here or elsewhere) exactly where it left off.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a dead id.
    pub fn evict(&self, id: u64) -> Result<Vec<u8>, ServeError> {
        let result = self.request(id, |reply| Command::Evict { id, reply });
        if result.is_ok() {
            self.release_slot();
        }
        result
    }

    /// Restores a session from snapshot bytes, keeping its original id,
    /// and routes it to that id's home shard. The restored session
    /// replays bit-identically to the uninterrupted one — on any shard
    /// count and in any process with the same `icoil` config.
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] for malformed bytes,
    /// [`ServeError::SessionExists`] when the id is already live,
    /// [`ServeError::SessionLimit`] at capacity.
    pub fn restore(&self, bytes: &[u8]) -> Result<u64, ServeError> {
        let snapshot: SessionSnapshot =
            decode_snapshot(bytes).map_err(|e| ServeError::Snapshot(e.to_string()))?;
        let id = snapshot.id;
        self.reserve_slot()?;
        // keep the allocator ahead of every restored id so future
        // creates never collide
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        let result = self.request(id, |reply| Command::Restore {
            snapshot: Box::new(snapshot),
            reply,
        });
        if result.is_err() {
            self.release_slot();
        }
        result
    }

    /// Atomically claims one of the `max_sessions` slots, or reports
    /// [`ServeError::SessionLimit`] when the server is full.
    fn reserve_slot(&self) -> Result<(), ServeError> {
        self.live
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |live| {
                (live < self.max_sessions).then_some(live + 1)
            })
            .map(|_| ())
            .map_err(|_| ServeError::SessionLimit)
    }

    fn release_slot(&self) {
        self.live.fetch_sub(1, Ordering::AcqRel);
    }

    /// A snapshot of the server's telemetry, merged across shards in
    /// shard order (counters sum; histograms merge element-wise).
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] after shutdown.
    pub fn metrics(&self) -> Result<Metrics, ServeError> {
        let mut merged = Metrics::new();
        for shard in self.shard_metrics()? {
            merged.merge(&shard);
        }
        Ok(merged)
    }

    /// Per-shard telemetry, indexed by shard.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] after shutdown.
    pub fn shard_metrics(&self) -> Result<Vec<Metrics>, ServeError> {
        // enqueue every request before awaiting any reply
        let receivers: Vec<_> = self
            .txs
            .iter()
            .map(|tx| {
                let (reply, rx) = channel();
                tx.send(Command::Metrics { reply }).ok().map(|_| rx)
            })
            .collect();
        receivers
            .into_iter()
            .map(|rx| {
                rx.ok_or(ServeError::Disconnected)?
                    .recv()
                    .map_err(|_| ServeError::Disconnected)
            })
            .collect()
    }
}
