//! The serving engine: N shard threads owning disjoint session sets,
//! each ticking its IL frames on itself plus a few tick helpers, all
//! feeding one deadline-ordered CO worker pool.
//!
//! Threading model: sessions are pinned to shards by consistent hashing
//! on the session id ([`ShardRouter`]), and each shard thread owns its
//! session table outright — commands arrive over a per-shard mpsc
//! channel, so session state is never behind a lock. A `step_many` call
//! sends each shard one command holding all of the call's steps for it,
//! so they join one tick. A tick drains the queued step requests, moves
//! their sessions out of the table and cuts the rows into contiguous
//! guided units ([`guided_units`]); the shard and its tick helpers claim
//! units in order from a shared cursor, and each runs a unit's whole IL
//! frame (sense, CNN, HSA, safety projection, world step, reply) on
//! sessions it owns for the moment. Helpers are spawned once with their
//! shard and park between ticks; a shard has `available_parallelism() /
//! shards - 1` of them, so with as many shards as cores none. A session
//! whose frame needs a CO solve is *moved* (world, HSA window,
//! warm-start memory and all) into the lane job; the worker replies to
//! the client directly and mails the session back to its home shard as
//! a [`Command::CoDone`]. Requests that land while a session is out —
//! in the current tick or on the lane — are deferred and replayed in
//! arrival order when it returns.
//!
//! Shard, unit and thread assignment are invisible to the computation:
//! sessions share no state and a CNN row is bit-identical at any batch
//! width, so trajectories are bit-identical at any shard or thread count.
//! Checkpoint/restore rides the same command loop — a snapshot is taken
//! between frames on the owning shard, and a restore may land on any
//! shard of any process.

use crate::queue::DeadlineQueue;
use crate::session::{ServeError, Session, SessionSnapshot, SessionSpec, StepResponse};
use crate::shard::ShardRouter;
use crate::snapshot::encode_snapshot;
use crate::ServeConfig;
use icoil_adapt::{SafetyProjector, WeightGeneration, WeightStore};
use icoil_co::CoOutput;
use icoil_hsa::{HsaDecision, Mode};
use icoil_il::{IlModel, IlScratch, InferResult};
use icoil_perception::{BevImage, Sensing};
use icoil_telemetry::{Counter, Metrics, Series};
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
    /// One `step_many` call's steps for this shard, in call order. The
    /// drain dispatches them as consecutive `Step`s.
    StepMany {
        steps: Vec<(u64, Reply<StepResponse>)>,
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

/// The safety projection for IL-mode actions, when
/// `config.icoil.safety.enabled`.
fn safety_projector(config: &ServeConfig) -> Option<SafetyProjector> {
    config
        .icoil
        .safety
        .enabled
        .then(|| SafetyProjector::new(config.icoil.safety))
}

/// Threads one shard's tick runs on: the cores split evenly between the
/// shards, at least one. With as many shards as cores, each shard ticks
/// on its own thread alone.
fn tick_threads(shards: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    (cores / shards).max(1)
}

/// A step request drained into the current tick. Its session is out of
/// the table and counted in flight until the tick lands it, so a command
/// for it that arrives meanwhile is deferred.
struct Drained {
    session: Session,
    reply: Reply<StepResponse>,
    t0: Instant,
}

/// A drained step whose HSA decision is CO, handed back to the shard
/// for the lane.
struct CoRow {
    session: Session,
    sensing: Sensing,
    hsa: HsaDecision,
    reply: Reply<StepResponse>,
    t0: Instant,
}

/// The weight generations a tick's rows pin, in version order, fetched
/// before the tick forks.
type TickModels = Vec<Arc<WeightGeneration>>;

/// Cuts a tick's `rows` into contiguous guided units, in row order:
/// each unit takes the rows not yet in a unit divided by the tick's
/// `threads`, at least one and at most `max_batch` (0 counts as 1).
/// Early units are wide, so few claims cover most rows; the narrow tail
/// lets whichever thread runs out first take the last rows instead of
/// waiting on the others.
fn guided_units<T>(rows: Vec<T>, threads: usize, max_batch: usize) -> Vec<Vec<T>> {
    let mut left = rows.len();
    let mut rows = rows.into_iter();
    let mut units = Vec::new();
    while left > 0 {
        let width = (left / threads).clamp(1, max_batch.max(1));
        units.push(rows.by_ref().take(width).collect());
        left -= width;
    }
    units
}

/// One tick's work, shared by the shard and the helpers it forks: the
/// guided units, a cursor they claim them from in order, and the
/// weights the rows run on.
struct Tick {
    /// Each unit's rows until a thread claims it. A lock is held only to
    /// take a unit out, never while it runs.
    units: Vec<Mutex<Option<Vec<Drained>>>>,
    /// The next unit to claim; at or past `units.len()` none is left.
    cursor: AtomicUsize,
    models: TickModels,
}

/// What one guided unit finished, tagged with its place in the tick.
struct UnitDone {
    unit: usize,
    /// Sessions whose frame finished on the IL lane, in row order.
    landed: Vec<Session>,
    /// CO-mode rows, in row order.
    co: Vec<CoRow>,
}

impl Tick {
    /// Claims units in order until none is left and runs each through
    /// [`run_chunk`]; returns what each finished.
    fn run_claims(
        &self,
        projector: Option<&SafetyProjector>,
        scratch: &mut IlScratch,
        metrics: &mut Metrics,
    ) -> Vec<UnitDone> {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor publishes no data. The rows behind a
            // unit reach other threads through the channel send that
            // forks the tick and the lock on the unit's slot.
            let unit = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.units.get(unit) else {
                return done;
            };
            let rows = slot
                .lock()
                .expect("unit lock")
                .take()
                .expect("the cursor hands each unit out once");
            let (landed, co) = run_chunk(rows, &self.models, projector, scratch, metrics);
            done.push(UnitDone { unit, landed, co });
        }
    }
}

/// What a helper hands back for a tick.
struct HelperDone {
    units: Vec<UnitDone>,
    /// What its units recorded.
    metrics: Metrics,
}

/// The shard's ends of one tick helper's channels. Only the helper
/// holds the sender of `done`, so a helper that dies hangs it up and
/// the shard's wait on it returns instead of blocking.
struct Helper {
    jobs: Sender<Arc<Tick>>,
    done: Receiver<HelperDone>,
}

/// A tick helper: parks on its job channel and claims units of each tick
/// its shard forks onto it, on its own scratch, until the shard hangs
/// up. Returns how many units it ran.
fn helper_loop(config: ServeConfig, jobs: Receiver<Arc<Tick>>, done: Sender<HelperDone>) -> usize {
    let projector = safety_projector(&config);
    let mut scratch = IlScratch::new();
    let mut ran = 0;
    while let Ok(tick) = jobs.recv() {
        let mut metrics = Metrics::new();
        let units = tick.run_claims(projector.as_ref(), &mut scratch, &mut metrics);
        ran += units.len();
        if done.send(HelperDone { units, metrics }).is_err() {
            break;
        }
    }
    ran
}

/// Runs one chunk of a tick's rows (a guided unit) through the whole IL
/// frame: sense, the memo check, one CNN pass per weight generation
/// present among the fresh rows (the HSA needs the softmax on every
/// frame regardless of mode), then the HSA decision. An IL-mode row
/// also gets the safety projection, the world step and its reply here.
/// Returns the sessions it finished and its CO-mode rows, both in row
/// order.
///
/// A frame whose BEV image repeats its session's last inferred one bit
/// for bit reuses that inference ([`Session::recalls_il`]) and stays out
/// of the pass. A row's result depends on its own session alone:
/// sessions share no state, a pass never mixes models, and a CNN row is
/// bit-identical at any batch width. So neither the unit a row lands
/// in, nor the thread that claims it, nor the rows beside it can change
/// it.
fn run_chunk(
    mut rows: Vec<Drained>,
    models: &TickModels,
    projector: Option<&SafetyProjector>,
    scratch: &mut IlScratch,
    metrics: &mut Metrics,
) -> (Vec<Session>, Vec<CoRow>) {
    let sensings: Vec<Sensing> = rows.iter_mut().map(|r| r.session.sense()).collect();
    let recalled: Vec<bool> = rows
        .iter()
        .zip(&sensings)
        .map(|(r, s)| r.session.recalls_il(&s.bev))
        .collect();
    let hits = recalled.iter().filter(|&&r| r).count();
    metrics.add(Counter::IlMemoHits, hits as u64);
    let mut fresh: Vec<Option<InferResult>> = Vec::new();
    fresh.resize_with(rows.len(), || None);
    for generation in models {
        let picked: Vec<usize> = (0..rows.len())
            .filter(|&i| rows[i].session.weight_version == generation.version && !recalled[i])
            .collect();
        if picked.is_empty() {
            continue;
        }
        let bevs: Vec<&BevImage> = picked.iter().map(|&i| &sensings[i].bev).collect();
        let il_results = generation.model.infer_batch_with(&bevs, scratch);
        metrics.add(Counter::IlBatches, 1);
        metrics.observe(Series::IlBatchSize, bevs.len() as f64);
        for (&i, il) in picked.iter().zip(il_results) {
            fresh[i] = Some(il);
        }
    }
    let mut landed = Vec::with_capacity(rows.len());
    let mut co = Vec::new();
    for ((row, mut sensing), il) in rows.into_iter().zip(sensings).zip(fresh) {
        let Drained {
            mut session,
            reply,
            t0,
        } = row;
        if let Some(il) = il {
            // the rest of the frame reads only the boxes, so the image
            // moves into the memo rather than being copied
            let bev = std::mem::take(&mut sensing.bev);
            session.remember_il(bev, il);
        }
        let (hsa, il_action) = session.plan(&sensing);
        match hsa.mode {
            Mode::Il => {
                let mut action = il_action;
                if let Some(projector) = projector {
                    let world = session.world();
                    let proj = projector.project(
                        world.ego(),
                        &world.scenario().vehicle_params,
                        &sensing.boxes,
                        action,
                    );
                    if proj.clipped {
                        metrics.add(Counter::SafetyProjections, 1);
                        metrics.observe(Series::SafetyClipMag, proj.clip_magnitude);
                    }
                    action = proj.action;
                }
                let resp = session.advance(action, &hsa, None, false);
                metrics.observe(Series::ServeIlLane, t0.elapsed().as_secs_f64());
                // the shard lands the session before it reads another
                // command, so replying first cannot reorder this client
                landed.push(session);
                let _ = reply.send(Ok(resp));
            }
            Mode::Co => co.push(CoRow {
                session,
                sensing,
                hsa,
                reply,
                t0,
            }),
        }
    }
    (landed, co)
}

/// One engine shard: owns the sessions routed to it, runs their IL
/// frames on its own thread and its tick helpers, and submits their CO
/// solves to the shared lane.
struct Shard {
    config: ServeConfig,
    /// Backstop session cap (the global limit; the handle enforces it
    /// *before* routing, so under hash skew one shard may legitimately
    /// hold most of it).
    limit: usize,
    /// The shared versioned weight store new sessions pin from.
    store: Arc<WeightStore>,
    /// Generations this shard has fetched from the store, keyed by
    /// version. Generations are immutable, so the shard, its tick
    /// helpers and every other shard share the store's own copy.
    models: HashMap<u32, Arc<WeightGeneration>>,
    /// Safety projection for IL-mode actions, present only when
    /// `config.icoil.safety.enabled`.
    projector: Option<SafetyProjector>,
    /// The shard thread's inference scratch (each helper has its own).
    scratch: IlScratch,
    /// The tick helpers a tick forks onto, besides the shard thread.
    helpers: Vec<Helper>,
    rx: Receiver<Command>,
    /// This shard's own command sender — workers mail sessions home
    /// through a clone carried in each [`CoJob`].
    home: Sender<Command>,
    lane: Arc<Lane>,
    sessions: HashMap<u64, Session>,
    /// Sessions out of the table: drained into the current tick or on
    /// the CO lane.
    in_flight: HashSet<u64>,
    /// Commands against in-flight sessions, replayed in arrival order
    /// when the session lands.
    deferred: HashMap<u64, VecDeque<Command>>,
    /// Landed sessions' deferred commands, taken before the channel.
    backlog: VecDeque<Command>,
    metrics: Metrics,
    shutting_down: bool,
}

impl Shard {
    /// Serves commands until shutdown; returns how many ticks it ran.
    fn run(mut self) -> usize {
        // stop draining at `max_batch` rows per tick thread; a
        // `step_many` call taken before then joins whole
        let window = (self.helpers.len() + 1) * self.config.max_batch.max(1);
        let mut ticks = 0;
        loop {
            // one blocking command starts the tick; everything already
            // queued behind it joins the same tick
            let first = match self.backlog.pop_front() {
                Some(cmd) => cmd,
                None => match self.rx.recv() {
                    Ok(cmd) => cmd,
                    Err(_) => break,
                },
            };
            let mut rows: Vec<Drained> = Vec::new();
            self.dispatch(first, &mut rows);
            while rows.len() < window {
                match self.backlog.pop_front().or_else(|| self.rx.try_recv().ok()) {
                    Some(cmd) => self.dispatch(cmd, &mut rows),
                    None => break,
                }
            }
            if !rows.is_empty() {
                self.run_tick(rows);
                ticks += 1;
            }
            if self.shutting_down && self.in_flight.is_empty() {
                break;
            }
        }
        ticks
    }

    fn dispatch(&mut self, cmd: Command, rows: &mut Vec<Drained>) {
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
                    self.defer(id, Command::Step { id, reply });
                    return;
                }
                let Some(session) = self.sessions.remove(&id) else {
                    let _ = reply.send(Err(ServeError::UnknownSession(id)));
                    return;
                };
                if session.is_done() {
                    let resp = session.terminal_response();
                    self.sessions.insert(id, session);
                    let _ = reply.send(Ok(resp));
                    return;
                }
                self.in_flight.insert(id);
                rows.push(Drained {
                    session,
                    reply,
                    t0: Instant::now(),
                });
            }
            Command::StepMany { steps } => {
                // an id listed twice is in flight by its second step,
                // which is deferred until the first lands
                for (id, reply) in steps {
                    self.dispatch(Command::Step { id, reply }, rows);
                }
            }
            Command::Close { id, reply } => {
                if self.in_flight.contains(&id) {
                    self.defer(id, Command::Close { id, reply });
                } else if self.sessions.remove(&id).is_some() {
                    let _ = reply.send(Ok(()));
                } else {
                    let _ = reply.send(Err(ServeError::UnknownSession(id)));
                }
            }
            Command::Snapshot { id, reply } => {
                if self.in_flight.contains(&id) {
                    self.defer(id, Command::Snapshot { id, reply });
                } else if let Some(session) = self.sessions.get(&id) {
                    self.metrics.add(Counter::ServeSnapshots, 1);
                    let _ = reply.send(Ok(encode_snapshot(&session.snapshot())));
                } else {
                    let _ = reply.send(Err(ServeError::UnknownSession(id)));
                }
            }
            Command::Evict { id, reply } => {
                if self.in_flight.contains(&id) {
                    self.defer(id, Command::Evict { id, reply });
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
                self.metrics.observe(Series::ServeCoLane, latency_s);
                if shed {
                    self.metrics.add(Counter::CoShed, 1);
                }
                self.land(*session);
            }
            Command::Shutdown => {
                self.shutting_down = true;
            }
        }
    }

    /// Holds a command for an in-flight session until it lands.
    fn defer(&mut self, id: u64, cmd: Command) {
        self.deferred.entry(id).or_default().push_back(cmd);
    }

    /// Puts a session whose frame is done (in a tick or on the CO lane)
    /// back in the table, and queues the commands that waited for it, in
    /// arrival order, ahead of the channel.
    fn land(&mut self, session: Session) {
        let id = session.id;
        self.in_flight.remove(&id);
        self.sessions.insert(id, session);
        if let Some(queue) = self.deferred.remove(&id) {
            self.backlog.extend(queue);
        }
    }

    /// Fetches a weight generation into this shard's working set. The
    /// first generation beyond the shard's initial one counts as a hot
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
        self.models.insert(version, generation);
    }

    /// Fetches every generation the rows pin and hands out shared
    /// references to them, in version order.
    fn ready_models(&mut self, rows: &[Drained]) -> TickModels {
        let mut versions: Vec<u32> = rows.iter().map(|r| r.session.weight_version).collect();
        versions.sort_unstable();
        versions.dedup();
        versions
            .into_iter()
            .map(|version| {
                self.ensure_model(version);
                Arc::clone(&self.models[&version])
            })
            .collect()
    }

    /// One shard tick over the drained step requests. The shard readies
    /// the rows' generations and cuts the rows into [`guided_units`];
    /// then it forks the tick onto as many helpers as there are units
    /// beyond the first, and it and they claim units in order until none
    /// is left, each unit one [`run_chunk`]. Once every helper is back
    /// it merges their metrics, lands the IL-mode sessions and submits
    /// the CO-mode rows to the lane, in row order.
    ///
    /// # Panics
    ///
    /// Panics when a helper has died. Its hung-up channel ends the wait,
    /// so the shard goes down as a panic in its own unit takes it down,
    /// and every client it still owes a reply sees `Disconnected`.
    fn run_tick(&mut self, rows: Vec<Drained>) {
        self.metrics
            .observe(Series::ServeTickRows, rows.len() as f64);
        let threads = self.helpers.len() + 1;
        let tick = Arc::new(Tick {
            models: self.ready_models(&rows),
            units: guided_units(rows, threads, self.config.max_batch)
                .into_iter()
                .map(|unit| Mutex::new(Some(unit)))
                .collect(),
            cursor: AtomicUsize::new(0),
        });
        let forked = self.helpers.len().min(tick.units.len() - 1);
        for helper in &self.helpers[..forked] {
            if helper.jobs.send(Arc::clone(&tick)).is_err() {
                panic!("a tick helper died");
            }
        }
        let mut done = tick.run_claims(
            self.projector.as_ref(),
            &mut self.scratch,
            &mut self.metrics,
        );
        let joined = Instant::now();
        for helper in &self.helpers[..forked] {
            let helper = helper.done.recv().expect("a tick helper died mid-tick");
            self.metrics.merge(&helper.metrics);
            done.extend(helper.units);
        }
        self.metrics.observe(
            Series::ServeTickJoinWait,
            joined.elapsed().as_secs_f64() * 1e6,
        );
        done.sort_unstable_by_key(|unit| unit.unit);
        for unit in done {
            for session in unit.landed {
                self.land(session);
            }
            for row in unit.co {
                self.submit_co(row);
            }
        }
    }

    /// Submits a CO-mode row to the lane; its session stays in flight
    /// until the worker mails it home. When the queue is full the frame
    /// sheds here instead, and the session lands at once.
    fn submit_co(&mut self, row: CoRow) {
        let CoRow {
            session,
            sensing,
            hsa,
            reply,
            t0,
        } = row;
        self.metrics
            .observe(Series::CoQueueDepth, self.lane.len() as f64);
        let job = Box::new(CoJob {
            session: Box::new(session),
            sensing,
            hsa,
            reply,
            t0,
            deadline: Instant::now() + self.config.co_deadline,
            home: self.home.clone(),
        });
        match self.lane.submit(job) {
            Ok(()) => self.metrics.add(Counter::CoAdmitted, 1),
            Err(job) => {
                // admission control: the queue is full, shed now rather
                // than block the shard
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
                self.metrics
                    .observe(Series::ServeCoLane, t0.elapsed().as_secs_f64());
                self.land(*session);
                let _ = reply.send(Ok(resp));
            }
        }
    }
}

/// A running policy server: owns the shard, tick-helper and worker
/// threads. Dropping (or calling [`Serve::shutdown`]) drains in-flight
/// solves, stops the workers and joins everything.
pub struct Serve {
    handle: ServeHandle,
    /// Shards; each returns how many ticks it ran.
    shards: Vec<JoinHandle<usize>>,
    /// Tick helpers; each returns how many guided units it ran.
    helpers: Vec<JoinHandle<usize>>,
    workers: Vec<JoinHandle<()>>,
    lane: Arc<Lane>,
}

impl Serve {
    /// Starts the shard, tick-helper and CO worker threads with `model`
    /// as the sole (generation-0) entry of a fresh weight store.
    ///
    /// # Panics
    ///
    /// Panics when a thread cannot be spawned.
    pub fn start(config: ServeConfig, model: IlModel) -> Serve {
        Serve::start_with_store(config, Arc::new(WeightStore::new(model)))
    }

    /// Starts the shard, tick-helper and CO worker threads against an
    /// existing versioned weight store — the online-adaptation entry
    /// point.
    ///
    /// Each session pins [`WeightStore::published`] at creation for its
    /// whole episode; publishing a retrained generation to `store`
    /// hot-swaps the weights **between** episodes, never within one.
    /// Shards fetch each generation the first time one of their
    /// sessions needs it.
    ///
    /// Each shard ticks on `available_parallelism() / shards` threads,
    /// at least one: its own plus that many less one tick helpers.
    ///
    /// # Panics
    ///
    /// Panics when a thread cannot be spawned.
    pub fn start_with_store(config: ServeConfig, store: Arc<WeightStore>) -> Serve {
        let threads = tick_threads(config.shards.max(1));
        Serve::start_ticking_on(config, store, threads)
    }

    /// [`Serve::start_with_store`] with each shard ticking on `threads`
    /// threads (at least one).
    pub(crate) fn start_ticking_on(
        config: ServeConfig,
        store: Arc<WeightStore>,
        threads: usize,
    ) -> Serve {
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
        let mut helper_threads = Vec::new();
        for i in 0..shard_count {
            let helpers = (1..threads)
                .map(|j| {
                    let (jobs, job_rx) = channel();
                    let (done_tx, done) = channel();
                    helper_threads.push(
                        std::thread::Builder::new()
                            .name(format!("icoil-serve-{i}-tick-{j}"))
                            .spawn(move || helper_loop(config, job_rx, done_tx))
                            .expect("spawn tick helper"),
                    );
                    Helper { jobs, done }
                })
                .collect();
            let (tx, rx) = channel();
            let shard = Shard {
                config,
                limit,
                store: Arc::clone(&store),
                models: HashMap::new(),
                projector: safety_projector(&config),
                scratch: IlScratch::new(),
                helpers,
                rx,
                home: tx.clone(),
                lane: Arc::clone(&lane),
                sessions: HashMap::new(),
                in_flight: HashSet::new(),
                deferred: HashMap::new(),
                backlog: VecDeque::new(),
                metrics: Metrics::new(),
                shutting_down: false,
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
                store,
            },
            shards,
            helpers: helper_threads,
            workers,
            lane,
        }
    }

    /// A client handle; clone freely across threads and connections.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Stops accepting work, drains in-flight CO solves, and joins the
    /// shard, tick-helper and worker threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// [`Serve::shutdown`], returning how many ticks the shards ran and
    /// how many guided units their helpers ran.
    #[cfg(test)]
    pub(crate) fn shutdown_counting_ticks(mut self) -> (usize, usize) {
        self.stop()
    }

    /// Stops and joins everything; returns how many ticks the shards ran
    /// and how many guided units their helpers ran.
    fn stop(&mut self) -> (usize, usize) {
        if self.shards.is_empty() {
            return (0, 0);
        }
        for tx in self.handle.txs.iter() {
            let _ = tx.send(Command::Shutdown);
        }
        // a shard exits only once its in-flight set is empty, i.e. every
        // one of its lane jobs has come home — so after joining all
        // shards the lane is drained and the workers park on the
        // (now-closed) condvar. A shard that exits, or dies, hangs up
        // its helpers' job channels, which ends them.
        let ticks = self
            .shards
            .drain(..)
            .map(|shard| shard.join().unwrap_or(0))
            .sum();
        let units = self
            .helpers
            .drain(..)
            .map(|helper| helper.join().unwrap_or(0))
            .sum();
        self.lane.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        (ticks, units)
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

    fn tx_for(&self, id: u64) -> &Sender<Command> {
        &self.txs[self.router.route(id)]
    }

    fn request<T>(&self, id: u64, make: impl FnOnce(Reply<T>) -> Command) -> Result<T, ServeError> {
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

    /// Steps many sessions "concurrently" from one caller: the ids are
    /// grouped by shard in call order, and each shard gets one command
    /// for its group before any reply is awaited, so all of a call's
    /// sessions on one shard join the same engine tick, whose threads
    /// claim them in IL micro-batches. Results are in input order; an id
    /// listed twice is stepped twice, in that order.
    pub fn step_many(&self, ids: &[u64]) -> Vec<Result<StepResponse, ServeError>> {
        let mut groups: Vec<Vec<(u64, Reply<StepResponse>)>> = vec![Vec::new(); self.txs.len()];
        let receivers: Vec<_> = ids
            .iter()
            .map(|&id| {
                let (reply, rx) = channel();
                groups[self.router.route(id)].push((id, reply));
                rx
            })
            .collect();
        for (tx, steps) in self.txs.iter().zip(groups) {
            if !steps.is_empty() {
                // a shard that is gone drops the command and its reply
                // senders with it, so those receivers read Disconnected
                let _ = tx.send(Command::StepMany { steps });
            }
        }
        receivers
            .into_iter()
            .map(|rx| {
                rx.recv()
                    .map_err(|_| ServeError::Disconnected)
                    .and_then(|r| r)
            })
            .collect()
    }

    /// Closes a session, releasing its state. A session that is out of
    /// its shard's table — in the current tick or on the CO lane — is
    /// released when it lands, after the commands sent before the close.
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
    /// [`ServeError::UnsupportedPrecision`] for a snapshot that pins an
    /// IL precision other than f32,
    /// [`ServeError::SessionExists`] when the id is already live,
    /// [`ServeError::SessionLimit`] at capacity.
    pub fn restore(&self, bytes: &[u8]) -> Result<u64, ServeError> {
        let snapshot = SessionSnapshot::decode(bytes)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::decode_snapshot;
    use crate::SessionConfig;
    use icoil_hsa::HsaConfig;
    use icoil_perception::BevConfig;
    use icoil_vehicle::ActionCodec;
    use icoil_world::Difficulty;
    use std::time::Duration;

    /// An untrained model: its near-uniform softmax keeps the HSA
    /// uncertainty high, so sessions go to CO once the guard lets them.
    fn untrained(seed: u64) -> IlModel {
        IlModel::untrained(ActionCodec::default(), BevConfig::default(), seed)
    }

    fn seeded(seed: u64) -> SessionSpec {
        SessionSpec::Seeded(SessionConfig {
            difficulty: Difficulty::Easy,
            seed,
        })
    }

    /// Sessions start on IL and switch to CO after an 8-frame guard, so
    /// a run serves both lanes; safety projection is on, deadlines
    /// never shed, and batches of 2 make every tick thread's window
    /// count.
    fn mixed_config() -> ServeConfig {
        let mut config = ServeConfig {
            co_deadline: Duration::from_secs(60),
            max_batch: 2,
            ..ServeConfig::default()
        };
        config.icoil.hsa = HsaConfig {
            initial_mode: Mode::Il,
            guard_time: 8,
            ..HsaConfig::default()
        };
        config.icoil.safety.enabled = true;
        config
    }

    /// Serves one fleet on one shard ticking on `threads` threads:
    /// sessions created on and restored from snapshots onto two
    /// published generations, 14 frames each, with one session evicted
    /// and restored halfway. Returns every session's response stream
    /// and how many guided units the helpers ran.
    fn serve_mixed_fleet(threads: usize) -> (Vec<Vec<StepResponse>>, usize) {
        let config = mixed_config();
        let store = Arc::new(WeightStore::new(untrained(1)));
        let server = Serve::start_ticking_on(config, Arc::clone(&store), threads);
        let handle = server.handle();
        let mut ids = Vec::new();
        for seed in [11, 12] {
            ids.push(handle.create(seeded(seed)).expect("create on generation 0"));
        }
        assert_eq!(store.publish(untrained(2), 0), 1);
        for seed in [13, 14] {
            ids.push(handle.create(seeded(seed)).expect("create on generation 1"));
        }
        for (id, seed, version) in [(100, 15, 0), (101, 16, 1)] {
            let snapshot = Session::new(id, &config, &seeded(seed), version).snapshot();
            ids.push(
                handle
                    .restore(&encode_snapshot(&snapshot))
                    .expect("restore a session"),
            );
        }
        let mut streams = vec![Vec::new(); ids.len()];
        for frame in 0..14 {
            if frame == 7 {
                let bytes = handle.evict(ids[4]).expect("evict");
                assert_eq!(handle.restore(&bytes), Ok(ids[4]));
            }
            for (stream, result) in streams.iter_mut().zip(handle.step_many(&ids)) {
                stream.push(result.expect("step"));
            }
        }
        (streams, server.shutdown_counting_ticks().1)
    }

    #[test]
    fn split_ticks_serve_the_same_streams_at_any_thread_count() {
        let (one, units_one) = serve_mixed_fleet(1);
        let modes: HashSet<&str> = one.iter().flatten().map(|r| r.mode.as_str()).collect();
        assert!(
            modes.contains("IL") && modes.contains("CO"),
            "the fleet must serve both lanes, got {modes:?}"
        );
        assert!(one.iter().flatten().all(|r| !r.shed));
        assert_eq!(units_one, 0, "one tick thread has no helpers");
        for threads in [2, 3] {
            let (split, units) = serve_mixed_fleet(threads);
            assert_eq!(one, split, "{threads} tick threads");
            assert!(
                units > 0,
                "the helpers of {threads} tick threads ran no unit"
            );
        }
    }

    #[test]
    fn one_step_many_call_is_one_tick_per_shard() {
        for threads in [1, 2] {
            let store = Arc::new(WeightStore::new(untrained(1)));
            // 12 rows against a drain window of 2 or 4: a call joins whole
            let server = Serve::start_ticking_on(mixed_config(), store, threads);
            let handle = server.handle();
            let ids: Vec<u64> = (0..12)
                .map(|k| handle.create(seeded(40 + k)).expect("create"))
                .collect();
            for _ in 0..3 {
                for result in handle.step_many(&ids) {
                    result.expect("step");
                }
            }
            let metrics = handle.metrics().expect("metrics");
            let rows = metrics.series(Series::ServeTickRows);
            assert_eq!((rows.count(), rows.max()), (3, 12.0), "{threads} threads");
            assert_eq!(metrics.series(Series::ServeTickJoinWait).count(), 3);
            let (ticks, _) = server.shutdown_counting_ticks();
            assert_eq!(ticks, 3, "{threads} tick threads");
        }
    }

    /// Steps six sessions on a 2-shard server whose shards tick on
    /// `threads` threads each, 12 calls that span both shards and list
    /// one id twice. Returns every call's responses, in call order.
    fn serve_two_shards(threads: usize) -> Vec<Vec<StepResponse>> {
        let config = ServeConfig {
            shards: 2,
            ..mixed_config()
        };
        let store = Arc::new(WeightStore::new(untrained(1)));
        let server = Serve::start_ticking_on(config, store, threads);
        let handle = server.handle();
        let ids: Vec<u64> = (200..206)
            .map(|seed| handle.create(seeded(seed)).expect("create"))
            .collect();
        let mut call = ids.clone();
        call.insert(3, ids[1]);
        let calls: Vec<Vec<StepResponse>> = (0..12)
            .map(|_| {
                let responses: Vec<StepResponse> = handle
                    .step_many(&call)
                    .into_iter()
                    .map(|r| r.expect("step"))
                    .collect();
                assert_eq!(responses[3].frame, responses[1].frame + 1);
                responses
            })
            .collect();
        // every call's rows ticked on both shards
        for (shard, metrics) in handle.shard_metrics().expect("metrics").iter().enumerate() {
            let ticks = metrics.series(Series::ServeTickRows).count();
            assert!(ticks >= 12, "shard {shard} ticked {ticks} times");
        }
        server.shutdown();
        calls
    }

    #[test]
    fn calls_across_two_shards_serve_the_same_streams_at_any_thread_count() {
        let one = serve_two_shards(1);
        let modes: HashSet<&str> = one.iter().flatten().map(|r| r.mode.as_str()).collect();
        assert!(
            modes.contains("IL") && modes.contains("CO"),
            "the calls must serve both lanes, got {modes:?}"
        );
        for threads in [2, 3] {
            assert_eq!(one, serve_two_shards(threads), "{threads} tick threads");
        }
    }

    #[test]
    fn commands_behind_a_drained_step_wait_their_turn() {
        for threads in [1, 2] {
            let store = Arc::new(WeightStore::new(untrained(1)));
            let server = Serve::start_ticking_on(mixed_config(), store, threads);
            let handle = server.handle();
            let id = handle.create(seeded(21)).expect("create");
            let first = handle.step(id).expect("step");
            // queued back to back, so the shard usually drains them all
            // into one tick; every order of arrival must reply the same
            let tx = handle.tx_for(id);
            let (reply, step_a) = channel();
            tx.send(Command::Step { id, reply }).unwrap();
            let (reply, snapshot) = channel();
            tx.send(Command::Snapshot { id, reply }).unwrap();
            let (reply, step_b) = channel();
            tx.send(Command::Step { id, reply }).unwrap();
            let (reply, close) = channel();
            tx.send(Command::Close { id, reply }).unwrap();
            let (reply, step_c) = channel();
            tx.send(Command::Step { id, reply }).unwrap();
            let a = step_a.recv().unwrap().expect("the first queued step");
            let bytes = snapshot.recv().unwrap().expect("the snapshot");
            let b = step_b.recv().unwrap().expect("the second queued step");
            assert_eq!(close.recv().unwrap(), Ok(()));
            assert_eq!(step_c.recv().unwrap(), Err(ServeError::UnknownSession(id)));
            assert_eq!((a.frame, b.frame), (first.frame + 1, first.frame + 2));
            let snapshot: SessionSnapshot = decode_snapshot(&bytes).expect("snapshot decodes");
            assert_eq!(snapshot.world.frame(), a.frame, "{threads} tick threads");
            server.shutdown();
        }
    }

    #[test]
    fn a_panicking_chunk_disconnects_its_clients_without_a_hang() {
        for threads in [1, 2] {
            let mut config = ServeConfig::default();
            // the model expects 32 × 32 images: every CNN pass asserts
            config.icoil.bev.size = 40;
            let store = Arc::new(WeightStore::new(untrained(1)));
            let server = Serve::start_ticking_on(config, store, threads);
            let handle = server.handle();
            let ids: Vec<u64> = (0..4)
                .map(|k| handle.create(seeded(30 + k)).expect("create"))
                .collect();
            for result in handle.step_many(&ids) {
                assert_eq!(
                    result,
                    Err(ServeError::Disconnected),
                    "{threads} tick threads"
                );
            }
            server.shutdown();
        }
    }

    #[test]
    fn guided_units_cover_every_row_in_order_within_max_batch() {
        let widths = |rows: u32, threads, max_batch| -> Vec<usize> {
            let units = guided_units((0..rows).collect::<Vec<u32>>(), threads, max_batch);
            units.iter().map(Vec::len).collect()
        };
        assert_eq!(widths(32, 2, 8), [8, 8, 8, 4, 2, 1, 1]);
        assert_eq!(widths(32, 1, 8), [8, 8, 8, 8]);
        assert_eq!(widths(12, 3, 4), [4, 2, 2, 1, 1, 1, 1]);
        assert_eq!(widths(3, 2, 0), [1, 1, 1]);
        assert_eq!(widths(1, 2, 8), [1]);
        assert!(widths(0, 2, 8).is_empty());
        for rows in 0..70u32 {
            for threads in 1..5 {
                for max_batch in 0..10 {
                    let units = guided_units((0..rows).collect::<Vec<u32>>(), threads, max_batch);
                    assert!(units
                        .iter()
                        .all(|unit| (1..=max_batch.max(1)).contains(&unit.len())));
                    let rejoined: Vec<u32> = units.into_iter().flatten().collect();
                    assert_eq!(rejoined, (0..rows).collect::<Vec<u32>>());
                }
            }
        }
    }
}
