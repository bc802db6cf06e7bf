//! Serving smoke check, wired into `scripts/check.sh`.
//!
//! Holds the serving engine to its determinism contract end to end:
//!
//! * 8 concurrent sessions × 50 `step_many` calls through the
//!   in-process [`icoil_serve::ServeHandle`], comfortably provisioned —
//!   zero sheds allowed. Every call lists one session twice (a
//!   different one each call), so a call's second step of a session
//!   waits for its first and every comparison below covers that
//!   deferral too;
//! * the full response streams (every pose, action, HSA value, bit for
//!   bit) must be identical between a 1-worker and a 4-worker server,
//!   and between a 1-shard and a 4-shard engine: neither worker
//!   scheduling nor shard assignment may leak into any session's
//!   trajectory, and the multi-shard runs must really tick on more
//!   than one shard;
//! * a kill-snapshot-restore cycle — every session evicted mid-episode,
//!   the whole server torn down, and every snapshot restored into a
//!   fresh server at a different shard count — must replay the
//!   remaining frames bit-identically too;
//! * every session's stream must also differ from its neighbours'
//!   (distinct seeds ⇒ distinct episodes — a stuck engine replaying one
//!   session 8 times would otherwise pass).
//!
//! Exits non-zero on the first violation, printing what broke.

use icoil_il::IlModel;
use icoil_perception::BevConfig;
use icoil_serve::{Serve, ServeConfig, ServeHandle, SessionConfig, StepResponse};
use icoil_telemetry::{Counter, Series};
use icoil_vehicle::ActionCodec;
use icoil_world::Difficulty;
use std::ops::Range;
use std::process::ExitCode;
use std::time::Duration;

const SESSIONS: usize = 8;
/// `step_many` calls per run; a session listed twice in a call steps
/// two frames in it.
const CALLS: usize = 50;
/// Call at which the kill-snapshot-restore cycle interrupts every
/// session: late enough that warm starts and HSA windows carry real
/// state, early enough to leave a meaningful remainder to replay.
const KILL_AT: usize = 20;

fn config(shards: usize, co_workers: usize) -> ServeConfig {
    ServeConfig {
        shards,
        co_workers,
        co_deadline: Duration::from_secs(60),
        queue_capacity: 64,
        ..ServeConfig::default()
    }
}

// untrained model: near-uniform softmax keeps the HSA in CO mode, so
// the smoke exercises the contended lane, not the trivial one
fn model() -> IlModel {
    IlModel::untrained(ActionCodec::default(), BevConfig::default(), 1)
}

fn create_all(handle: &ServeHandle) -> Result<Vec<u64>, String> {
    (0..SESSIONS)
        .map(|i| {
            handle
                .create(SessionConfig {
                    difficulty: Difficulty::Easy,
                    seed: 100 + i as u64,
                })
                .map_err(|e| format!("create session {i}: {e}"))
        })
        .collect()
}

/// Makes one `step_many` call over every session per index `c` in
/// `calls`, listing session `c mod SESSIONS` a second time at its end,
/// and appends each session's responses to its stream in order.
fn step_all(
    handle: &ServeHandle,
    ids: &[u64],
    streams: &mut [Vec<StepResponse>],
    calls: Range<usize>,
    what: &str,
) -> Result<(), String> {
    for call in calls {
        let twice = call % ids.len();
        let listed = (0..ids.len()).chain([twice]);
        let stepped: Vec<u64> = listed.clone().map(|i| ids[i]).collect();
        for (i, result) in listed.zip(handle.step_many(&stepped)) {
            let resp = result.map_err(|e| format!("{what}: step call {call} session {i}: {e}"))?;
            streams[i].push(resp);
        }
    }
    Ok(())
}

fn no_sheds(handle: &ServeHandle, what: &str) -> Result<(), String> {
    let metrics = handle
        .metrics()
        .map_err(|e| format!("{what}: metrics: {e}"))?;
    let shed = metrics.counter(Counter::CoShed);
    if shed != 0 {
        return Err(format!(
            "{what}: {shed} sheds at low load: the provisioned lane must not shed"
        ));
    }
    Ok(())
}

/// On a multi-shard server the sessions must spread: at least two
/// shards ticked, or the shard-count comparison compares one shard with
/// one shard.
fn spans_shards(handle: &ServeHandle, what: &str) -> Result<(), String> {
    if handle.shards() < 2 {
        return Ok(());
    }
    let ticked = handle
        .shard_metrics()
        .map_err(|e| format!("{what}: shard metrics: {e}"))?
        .iter()
        .filter(|m| m.series(Series::ServeTickRows).count() > 0)
        .count();
    if ticked < 2 {
        return Err(format!(
            "{what}: the sessions ticked on {ticked} of {} shards",
            handle.shards()
        ));
    }
    Ok(())
}

fn run_once(shards: usize, co_workers: usize) -> Result<Vec<Vec<StepResponse>>, String> {
    let server = Serve::start(config(shards, co_workers), model());
    let handle = server.handle();
    let ids = create_all(&handle)?;
    let mut streams: Vec<Vec<StepResponse>> = vec![Vec::new(); SESSIONS];
    step_all(&handle, &ids, &mut streams, 0..CALLS, "uninterrupted run")?;
    no_sheds(&handle, "uninterrupted run")?;
    spans_shards(&handle, "uninterrupted run")?;
    server.shutdown();
    Ok(streams)
}

/// The kill-snapshot-restore cycle: run to [`KILL_AT`], evict every
/// session, shut the server down entirely, then restore every snapshot
/// into a fresh server at a different shard count and finish the
/// episodes there.
fn run_interrupted() -> Result<Vec<Vec<StepResponse>>, String> {
    let server = Serve::start(config(1, 2), model());
    let handle = server.handle();
    let ids = create_all(&handle)?;
    let mut streams: Vec<Vec<StepResponse>> = vec![Vec::new(); SESSIONS];
    step_all(&handle, &ids, &mut streams, 0..KILL_AT, "pre-kill run")?;
    let snapshots: Vec<Vec<u8>> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            handle
                .evict(id)
                .map_err(|e| format!("evict session {i}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    no_sheds(&handle, "pre-kill run")?;
    server.shutdown();

    let server = Serve::start(config(4, 2), model());
    let handle = server.handle();
    for (i, bytes) in snapshots.iter().enumerate() {
        let restored = handle
            .restore(bytes)
            .map_err(|e| format!("restore session {i}: {e}"))?;
        if restored != ids[i] {
            return Err(format!("restore renamed session {} to {restored}", ids[i]));
        }
    }
    step_all(
        &handle,
        &ids,
        &mut streams,
        KILL_AT..CALLS,
        "post-restore run",
    )?;
    no_sheds(&handle, "post-restore run")?;
    spans_shards(&handle, "post-restore run")?;
    server.shutdown();
    Ok(streams)
}

fn run() -> Result<(), String> {
    let serial = run_once(1, 1)?;
    let variants = [
        ("4 CO workers", run_once(1, 4)?),
        ("4 engine shards", run_once(4, 2)?),
        ("a kill-snapshot-restore cycle", run_interrupted()?),
    ];
    for (label, stream) in &variants {
        for (i, (s, p)) in serial.iter().zip(stream).enumerate() {
            if s != p {
                let frame = s
                    .iter()
                    .zip(p)
                    .position(|(a, b)| a != b)
                    .unwrap_or(s.len().min(p.len()));
                return Err(format!(
                    "session {i} diverged between the serial baseline and {label} at frame {frame}"
                ));
            }
        }
    }
    for i in 1..serial.len() {
        if serial[i] == serial[0] {
            return Err(format!(
                "sessions 0 and {i} produced identical streams despite distinct seeds"
            ));
        }
    }
    println!(
        "serve smoke: {SESSIONS} sessions x {CALLS} calls (one session listed twice per \
         call) bit-identical across 1 vs 4 CO workers, 1 vs 4 shards, and a \
         kill-snapshot-restore cycle at call {KILL_AT}; zero sheds"
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("serve smoke FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}
