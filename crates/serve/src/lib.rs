//! Multi-session policy serving for the iCOIL stack.
//!
//! The paper's hybrid split — a cheap IL network queried every frame and
//! an expensive CO solve queried only when the scenario demands it — is
//! exactly the shape of a policy *server*: the IL lane batches trivially
//! across clients, while the CO lane is the slow, contended resource
//! that needs admission control. This crate turns the offline library
//! into that long-running, multi-tenant server:
//!
//! * [`Serve`] / [`ServeHandle`] — N shard threads, each owning the
//!   sessions consistent-hashed to it ([`ShardRouter`]) with their full
//!   state (world, HSA window, warm-start `MpcMemory`) behind a
//!   per-shard command channel; the handle is the in-process client API
//!   (create/step/snapshot/evict/restore/close/metrics) that tests and
//!   the bench harness use directly.
//! * **Checkpoint/restore** — [`ServeHandle::snapshot`] serializes a
//!   session's complete state ([`SessionSnapshot`]) into a versioned
//!   binary format (raw IEEE-754 bit patterns, FNV-1a checksummed;
//!   see [`icoil_adapt::ContainerError`] for the typed rejection set), and
//!   [`ServeHandle::restore`] resumes it — on any shard, at any shard
//!   count, in any process — with a bit-identical remaining trajectory.
//! * **Micro-batched IL lane** — [`ServeHandle::step_many`] sends each
//!   shard one command with all of a call's steps for it, so they join
//!   one engine tick. Each tick drains the pending step requests and
//!   cuts them into contiguous *guided units* (the rows left divided by
//!   the tick threads, at least one and at most
//!   [`ServeConfig::max_batch`]), which the shard thread and its tick
//!   helpers claim in order until none is left: with
//!   `available_parallelism() / shards` tick threads, the cores a shard
//!   would leave idle run frames too, and a thread that runs out first
//!   takes the narrow last units instead of waiting. Each unit senses
//!   its rows, stacks their BEV images and runs one blocked
//!   [`icoil_nn::Network::forward_batch_into`] pass, then the rest of
//!   each IL frame. Batching is bit-identical per row to
//!   single-sample inference and sessions share no state, so
//!   per-session trajectories depend neither on who else is being
//!   served nor on which unit or thread served them. A frame whose
//!   image repeats, bit for bit, the one its session last inferred reuses
//!   that result and stays out of the batch.
//! * **Deadline-aware CO lane** — sessions whose HSA decision is CO
//!   mode are handed (state and all) to a worker pool draining a
//!   bounded [`DeadlineQueue`] in earliest-deadline order. A worker
//!   takes one job at a time and solves it on that session's own state
//!   ([`icoil_co::CoController::control`]), so the next queued job goes
//!   to whichever worker frees up first. A full queue or an expired
//!   deadline sheds the request with the existing
//!   [`icoil_co::CoOutput::degraded_brake`] full-brake response — the
//!   lane never blocks the engine and never panics under overload.
//! * **NDJSON TCP front end** ([`run_server`]) — newline-delimited
//!   JSON requests/responses over `std::net`, mirroring the telemetry
//!   `FrameEvent` conventions, for clients that are not in-process.
//!
//! Determinism contract: a session's trajectory is a pure function of
//! its own `(difficulty, seed)` as long as none of its frames are shed
//! — batch composition cannot change IL rows (bit-identical batching),
//! and each CO solve runs alone on session-local state wherever the
//! worker happens to be scheduled. Sharding and the split tick add
//! nothing to this list — shards and tick threads share no per-session
//! state — and checkpoint/restore removes
//! nothing: a snapshot carries every bit of episode state the next
//! frame reads (the IL memo is a cache whose reuse equals re-inference,
//! so a restored session just infers again). `scripts/check.sh` holds
//! the server to that standard across worker counts, shard counts and a
//! kill-snapshot-restore cycle.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod engine;
mod net;
mod proto;
mod queue;
mod session;
mod shard;
mod snapshot;

pub use engine::{Serve, ServeHandle};
pub use net::{run_server, MAX_REQUEST_LINE};
pub use proto::{Request, Response};
pub use queue::DeadlineQueue;
pub use session::{ServeError, SessionConfig, SessionSnapshot, SessionSpec, StepResponse};
pub use shard::ShardRouter;
pub use snapshot::{decode_snapshot, encode_snapshot};

use icoil_core::ICoilConfig;
use std::time::Duration;

/// Server-wide tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// The policy configuration every session runs with.
    pub icoil: ICoilConfig,
    /// Engine shard threads; sessions are consistent-hashed across them
    /// by id. `1` reproduces the single-engine behaviour exactly. Each
    /// shard's tick runs on `available_parallelism() / shards` threads
    /// (at least one): its own and that many less one tick helpers.
    pub shards: usize,
    /// Worker threads draining the CO lane (shared by all shards).
    pub co_workers: usize,
    /// Bound of the CO lane queue; admission beyond it sheds.
    pub queue_capacity: usize,
    /// Per-request CO deadline: a queued request still unserved past it
    /// is shed by the worker that pops it.
    pub co_deadline: Duration,
    /// Most rows in one IL micro-batch (one CNN pass). A shard tick
    /// stops draining commands once it holds `max_batch` step requests
    /// per tick thread (a `step_many` call's steps for the shard arrive
    /// as one command and join whole, so a tick may hold more), then
    /// cuts its rows into guided units of at most `max_batch` rows that
    /// its threads claim in order. `0` behaves as `1`.
    pub max_batch: usize,
    /// Most concurrently live sessions; creation beyond it is refused.
    /// Enforced globally at the handle *before* routing, so the limit
    /// holds exactly however consistent hashing skews sessions across
    /// shards.
    pub max_sessions: usize,
    /// Simulated-seconds budget per session episode.
    pub max_time: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            icoil: ICoilConfig::default(),
            shards: 1,
            co_workers: 2,
            queue_capacity: 64,
            co_deadline: Duration::from_millis(250),
            max_batch: 32,
            max_sessions: 256,
            max_time: 60.0,
        }
    }
}
