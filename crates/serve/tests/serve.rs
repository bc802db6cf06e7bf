//! End-to-end server tests: determinism across worker counts, overload
//! shedding, and the TCP NDJSON front end.

use icoil_il::IlModel;
use icoil_perception::BevConfig;
use icoil_serve::{
    decode_snapshot, encode_snapshot, Request, Response, Serve, ServeConfig, ServeError,
    SessionConfig, ShardRouter, StepResponse, MAX_REQUEST_LINE,
};
use icoil_telemetry::Counter;
use icoil_vehicle::ActionCodec;
use icoil_world::Difficulty;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn test_model() -> IlModel {
    // untrained → near-uniform softmax → high uncertainty → the HSA
    // keeps sessions on the CO lane, which is the lane worth stressing
    IlModel::untrained(ActionCodec::default(), BevConfig::default(), 1)
}

/// Runs `sessions` episodes for `frames` frames each through one server
/// and returns every session's full response stream.
fn run_once(co_workers: usize, sessions: usize, frames: usize) -> (Vec<Vec<StepResponse>>, u64) {
    run_sharded(1, co_workers, sessions, frames)
}

/// [`run_once`] with an explicit shard count.
fn run_sharded(
    shards: usize,
    co_workers: usize,
    sessions: usize,
    frames: usize,
) -> (Vec<Vec<StepResponse>>, u64) {
    let config = ServeConfig {
        shards,
        co_workers,
        // generous deadline and queue: zero sheds, so trajectories are
        // the pure function of (difficulty, seed) the contract promises
        co_deadline: Duration::from_secs(30),
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let server = Serve::start(config, test_model());
    let handle = server.handle();
    let ids: Vec<u64> = (0..sessions)
        .map(|i| {
            handle
                .create(SessionConfig {
                    difficulty: Difficulty::Easy,
                    seed: 100 + i as u64,
                })
                .expect("create session")
        })
        .collect();
    let mut streams: Vec<Vec<StepResponse>> = vec![Vec::new(); sessions];
    for _ in 0..frames {
        for (i, result) in handle.step_many(&ids).into_iter().enumerate() {
            streams[i].push(result.expect("step"));
        }
    }
    let shed = handle.metrics().expect("metrics").counter(Counter::CoShed);
    server.shutdown();
    (streams, shed)
}

#[test]
fn trajectories_are_identical_across_worker_counts() {
    let (serial, shed_serial) = run_once(1, 3, 20);
    let (parallel, shed_parallel) = run_once(4, 3, 20);
    assert_eq!(shed_serial, 0, "low load must not shed");
    assert_eq!(shed_parallel, 0, "low load must not shed");
    // StepResponse is PartialEq over every f64 it carries: this is a
    // bitwise trajectory comparison, not a tolerance check
    assert_eq!(serial, parallel);
    for stream in &serial {
        assert!(stream.iter().all(|r| !r.shed && !r.degraded));
    }
}

#[test]
fn trajectories_are_identical_across_shard_counts() {
    let (one, shed_one) = run_sharded(1, 2, 4, 15);
    let (four, shed_four) = run_sharded(4, 2, 4, 15);
    assert_eq!(shed_one, 0, "low load must not shed");
    assert_eq!(shed_four, 0, "low load must not shed");
    assert_eq!(
        one, four,
        "shard assignment must be invisible to trajectories"
    );
}

/// A deadline-generous config for checkpoint tests (zero sheds keep the
/// replay deterministic).
fn snapshot_config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        co_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

#[test]
fn a_session_stepped_twice_in_one_call_advances_twice() {
    let server = Serve::start(snapshot_config(1), test_model());
    let handle = server.handle();
    let spec = SessionConfig {
        difficulty: Difficulty::Easy,
        seed: 808,
    };
    let id = handle.create(spec).expect("create");
    let twin = handle.create(spec).expect("create twin");
    // both requests reach the shard before it replies to either, so
    // the second usually lands in the tick that drained the first
    for round in 0..5 {
        let pair = handle.step_many(&[id, id]);
        let singles = [handle.step(twin), handle.step(twin)];
        for (k, (paired, single)) in pair.into_iter().zip(singles).enumerate() {
            let mut paired = paired.unwrap_or_else(|e| panic!("round {round} step {k}: {e}"));
            let single = single.expect("single step");
            paired.session = single.session;
            assert_eq!(paired, single, "round {round} step {k}");
        }
    }
    server.shutdown();
}

#[test]
fn restored_session_replays_bit_identically() {
    // reference: one uninterrupted session
    let server = Serve::start(snapshot_config(1), test_model());
    let handle = server.handle();
    let spec = SessionConfig {
        difficulty: Difficulty::Easy,
        seed: 314,
    };
    let id = handle.create(spec).expect("create");
    let reference: Vec<StepResponse> = (0..30).map(|_| handle.step(id).expect("step")).collect();

    // checkpointed twin: same spec, snapshot mid-episode…
    let id2 = handle.create(spec).expect("create twin");
    let mut twin: Vec<StepResponse> = (0..12).map(|_| handle.step(id2).expect("step")).collect();
    let bytes = handle.evict(id2).expect("evict");
    assert!(handle.step(id2).is_err(), "an evicted session must be gone");

    // …restored into a FRESH server at a DIFFERENT shard count
    let server2 = Serve::start(snapshot_config(4), test_model());
    let handle2 = server2.handle();
    let restored = handle2.restore(&bytes).expect("restore");
    assert_eq!(restored, id2, "restore keeps the session id");
    twin.extend((0..18).map(|_| handle2.step(id2).expect("step restored")));

    // the twin's stream must match the reference frame-for-frame except
    // the session id field
    assert_eq!(reference.len(), twin.len());
    for (a, b) in reference.iter().zip(&twin) {
        let mut b = b.clone();
        b.session = a.session;
        assert_eq!(*a, b, "restored replay must be bit-identical");
    }
    let m2 = handle2.metrics().expect("metrics");
    assert_eq!(m2.counter(Counter::ServeRestores), 1);
    server2.shutdown();
    server.shutdown();
}

#[test]
fn snapshot_without_evict_leaves_the_session_live() {
    let server = Serve::start(snapshot_config(2), test_model());
    let handle = server.handle();
    let id = handle
        .create(SessionConfig {
            difficulty: Difficulty::Easy,
            seed: 77,
        })
        .expect("create");
    for _ in 0..5 {
        handle.step(id).expect("step");
    }
    let a = handle.snapshot(id).expect("snapshot");
    let b = handle.snapshot(id).expect("snapshot again");
    assert_eq!(a, b, "snapshotting must not disturb the session");
    handle.step(id).expect("still steppable");
    let metrics = handle.metrics().expect("metrics");
    assert_eq!(metrics.counter(Counter::ServeSnapshots), 2);
    assert_eq!(metrics.counter(Counter::ServeEvictions), 0);
    // restoring over a live id is refused
    assert_eq!(handle.restore(&a), Err(ServeError::SessionExists(id)));
    server.shutdown();
}

#[test]
fn malformed_snapshots_are_typed_errors() {
    let server = Serve::start(snapshot_config(1), test_model());
    let handle = server.handle();
    assert!(matches!(
        handle.restore(b"not a snapshot at all"),
        Err(ServeError::Snapshot(_))
    ));
    let id = handle
        .create(SessionConfig {
            difficulty: Difficulty::Easy,
            seed: 5,
        })
        .expect("create");
    handle.step(id).expect("step");
    let mut bytes = handle.evict(id).expect("evict");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    assert!(matches!(
        handle.restore(&bytes),
        Err(ServeError::Snapshot(_))
    ));
    assert!(matches!(
        handle.restore(&bytes[..bytes.len() / 2]),
        Err(ServeError::Snapshot(_))
    ));
    assert_eq!(handle.snapshot(99), Err(ServeError::UnknownSession(99)));
    assert_eq!(handle.evict(99), Err(ServeError::UnknownSession(99)));
    server.shutdown();
}

#[test]
fn overload_sheds_degraded_full_brake_instead_of_blocking() {
    let config = ServeConfig {
        co_workers: 1,
        queue_capacity: 1,
        co_deadline: Duration::ZERO,
        ..ServeConfig::default()
    };
    let server = Serve::start(config, test_model());
    let handle = server.handle();
    let ids: Vec<u64> = (0..8)
        .map(|i| {
            handle
                .create(SessionConfig {
                    difficulty: Difficulty::Normal,
                    seed: 500 + i,
                })
                .expect("create session")
        })
        .collect();
    let mut shed_frames = 0usize;
    for _ in 0..6 {
        // every request is answered — shedding degrades, it never blocks
        for result in handle.step_many(&ids) {
            let resp = result.expect("overloaded step still answers");
            if resp.shed {
                shed_frames += 1;
                assert!(resp.degraded, "a shed frame must carry the degraded brake");
                assert_eq!(resp.action, icoil_vehicle::Action::full_brake());
            }
        }
    }
    assert!(shed_frames > 0, "capacity 1 + zero deadline must shed");
    let metrics = handle.metrics().expect("metrics");
    assert_eq!(metrics.counter(Counter::CoShed), shed_frames as u64);
    server.shutdown();
}

/// A deadline-generous config: nothing sheds.
fn generous_config() -> ServeConfig {
    ServeConfig {
        co_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

#[test]
fn trajectories_are_unchanged_by_restored_batchmates() {
    // a snapshot frozen at frame 0 on another server
    let donor_server = Serve::start(generous_config(), test_model());
    let donor_handle = donor_server.handle();
    let spec42 = SessionConfig {
        difficulty: Difficulty::Easy,
        seed: 42,
    };
    // burn id 1 so the donor's preserved id can't collide with the
    // mixed server's first create
    donor_handle.create(spec42).expect("create id burner");
    let donor = donor_handle.create(spec42).expect("create donor");
    let donor_bytes = donor_handle.evict(donor).expect("evict donor");
    donor_server.shutdown();

    // reference: the session alone on its server
    let spec = SessionConfig {
        difficulty: Difficulty::Easy,
        seed: 777,
    };
    let solo_server = Serve::start(generous_config(), test_model());
    let solo_handle = solo_server.handle();
    let solo_id = solo_handle.create(spec).expect("create solo");
    let solo: Vec<StepResponse> = (0..15)
        .map(|_| solo_handle.step(solo_id).expect("step solo"))
        .collect();
    solo_server.shutdown();

    // the same session sharing every tick with the restored donor
    let mixed_server = Serve::start(generous_config(), test_model());
    let mixed_handle = mixed_server.handle();
    let id = mixed_handle.create(spec).expect("create mixed");
    let donor_id = mixed_handle.restore(&donor_bytes).expect("restore donor");
    let mut mixed: Vec<StepResponse> = Vec::new();
    for _ in 0..15 {
        let mut results = mixed_handle.step_many(&[id, donor_id]).into_iter();
        mixed.push(results.next().unwrap().expect("step session"));
        results.next().unwrap().expect("step donor");
    }
    mixed_server.shutdown();

    // batching is per-row: who shares the tick must not change the
    // session's trajectory
    for (a, b) in solo.iter().zip(&mixed) {
        let mut b = b.clone();
        b.session = a.session;
        assert_eq!(*a, b, "a restored batchmate must not perturb a session");
    }
}

/// `bytes` re-encoded with an `il_precision` entry ahead of
/// `weight_version`, where servers that ran an int8 IL lane wrote it.
fn with_precision_entry(bytes: &[u8], precision: Value) -> Vec<u8> {
    let Value::Map(mut entries) = decode_snapshot(bytes).expect("decode") else {
        panic!("a snapshot encodes a map");
    };
    let at = entries
        .iter()
        .position(|(key, _)| key == "weight_version")
        .expect("a weight_version entry");
    entries.insert(at, ("il_precision".to_string(), precision));
    encode_snapshot(&Value::Map(entries))
}

#[test]
fn f32_pinned_snapshots_restore_and_int8_pinned_ones_are_refused() {
    // reference: one uninterrupted episode
    let server = Serve::start(generous_config(), test_model());
    let handle = server.handle();
    let spec = SessionConfig {
        difficulty: Difficulty::Normal,
        seed: 606,
    };
    let id = handle.create(spec).expect("create");
    let reference: Vec<StepResponse> = (0..24).map(|_| handle.step(id).expect("step")).collect();

    // twin: snapshot mid-episode
    let id2 = handle.create(spec).expect("create twin");
    let mut twin: Vec<StepResponse> = (0..9)
        .map(|_| handle.step(id2).expect("step twin"))
        .collect();
    let bytes = handle.evict(id2).expect("evict twin");
    server.shutdown();

    let server2 = Serve::start(generous_config(), test_model());
    let handle2 = server2.handle();
    let int8 = with_precision_entry(&bytes, Value::Str("int8".to_string()));
    assert_eq!(
        handle2.restore(&int8),
        Err(ServeError::UnsupportedPrecision("int8".to_string()))
    );
    assert!(matches!(
        handle2.restore(&with_precision_entry(&bytes, Value::U64(8))),
        Err(ServeError::UnsupportedPrecision(_))
    ));
    assert_eq!(handle2.step(id2), Err(ServeError::UnknownSession(id2)));
    let f32_bytes = with_precision_entry(&bytes, Value::Str("f32".to_string()));
    assert_eq!(handle2.restore(&f32_bytes), Ok(id2));
    twin.extend((0..15).map(|_| handle2.step(id2).expect("step restored")));
    assert_eq!(
        handle2
            .metrics()
            .expect("metrics")
            .counter(Counter::ServeRestores),
        1,
        "refused restores restore nothing"
    );

    assert_eq!(reference.len(), twin.len());
    for (a, b) in reference.iter().zip(&twin) {
        let mut b = b.clone();
        b.session = a.session;
        assert_eq!(*a, b, "an f32-pinned snapshot must replay bit-identically");
    }
    server2.shutdown();
}

#[test]
fn session_lifecycle_errors() {
    let config = ServeConfig {
        max_sessions: 2,
        ..ServeConfig::default()
    };
    let server = Serve::start(config, test_model());
    let handle = server.handle();
    let spec = SessionConfig {
        difficulty: Difficulty::Easy,
        seed: 1,
    };
    assert_eq!(handle.step(99), Err(ServeError::UnknownSession(99)));
    let a = handle.create(spec).unwrap();
    let b = handle.create(spec).unwrap();
    assert_ne!(a, b);
    assert_eq!(handle.create(spec), Err(ServeError::SessionLimit));
    handle.close(a).unwrap();
    assert_eq!(handle.close(a), Err(ServeError::UnknownSession(a)));
    let c = handle.create(spec).unwrap();
    assert_ne!(c, a, "session ids are never reused");
    server.shutdown();
    assert_eq!(handle.step(b), Err(ServeError::Disconnected));
}

#[test]
fn global_session_cap_survives_shard_hash_skew() {
    // Find a prefix of the id sequence whose 4-shard routing is skewed:
    // some shard holding more than the old per-shard quota of
    // div_ceil(n, shards). The handle allocates ids sequentially from 1,
    // so this is exactly the id set a filled server holds.
    let shards = 4;
    let router = ShardRouter::new(shards);
    let n = (2..=32)
        .find(|&n: &usize| {
            let mut counts = vec![0usize; shards];
            for id in 1..=n as u64 {
                counts[router.route(id)] += 1;
            }
            counts.iter().any(|&c| c > n.div_ceil(shards))
        })
        .expect("some prefix of ids 1.. must route unevenly across 4 shards");

    let config = ServeConfig {
        shards,
        max_sessions: n,
        ..ServeConfig::default()
    };
    let server = Serve::start(config, test_model());
    let handle = server.handle();
    let spec = SessionConfig {
        difficulty: Difficulty::Easy,
        seed: 11,
    };
    // fill to exactly max_sessions: under the split per-shard cap the
    // overloaded shard would reject before the server is actually full
    let ids: Vec<u64> = (0..n)
        .map(|i| {
            handle
                .create(spec)
                .unwrap_or_else(|e| panic!("create {i} rejected under hash skew: {e}"))
        })
        .collect();
    assert_eq!(handle.create(spec), Err(ServeError::SessionLimit));

    // close frees exactly one slot
    handle.close(ids[0]).unwrap();
    let refill = handle.create(spec).expect("slot freed by close");
    assert_eq!(handle.create(spec), Err(ServeError::SessionLimit));

    // evict frees a slot; restore takes one back and respects the cap
    let bytes = handle.evict(ids[1]).expect("evict");
    let again = handle.create(spec).expect("slot freed by evict");
    assert_eq!(
        handle.restore(&bytes),
        Err(ServeError::SessionLimit),
        "restore must respect the global cap"
    );
    handle.close(again).unwrap();
    handle.restore(&bytes).expect("restore into the freed slot");

    // every live session still steps
    for id in ids.iter().skip(2).chain([&refill, &ids[1]]) {
        handle.step(*id).expect("step live session");
    }
    server.shutdown();
}

#[test]
fn tcp_front_end_round_trips() {
    let server = Serve::start(ServeConfig::default(), test_model());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let handle = server.handle();
    std::thread::spawn(move || {
        let _ = icoil_serve::run_server(listener, handle);
    });

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut exchange = |req: &Request| -> Response {
        let mut line = serde_json::to_string(req).expect("encode");
        line.push('\n');
        writer.write_all(line.as_bytes()).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("recv");
        serde_json::from_str(&reply).expect("decode")
    };

    let created = exchange(&Request::create(Difficulty::Easy, 7));
    assert!(created.ok, "create failed: {:?}", created.error);
    let id = created.session.expect("session id");

    let stepped = exchange(&Request::step(id));
    assert!(stepped.ok);
    let frame = stepped.frame.expect("frame payload");
    assert_eq!(frame.session, id);
    assert_eq!(frame.frame, 1);

    let metrics = exchange(&Request::metrics());
    assert!(metrics.ok);
    assert_eq!(
        metrics.kernel_backend.as_deref(),
        Some(icoil_nn::simd::dispatch_target())
    );
    assert_eq!(
        metrics
            .metrics
            .expect("metrics payload")
            .counter(Counter::ServeSessions),
        1
    );

    let closed = exchange(&Request::close(id));
    assert!(closed.ok);
    let gone = exchange(&Request::step(id));
    assert!(!gone.ok);
    assert_eq!(
        gone.error.as_deref(),
        Some(&*format!("unknown session {id}"))
    );

    let malformed_reply = exchange(&Request {
        op: "reboot".to_string(),
        difficulty: None,
        seed: None,
        session: None,
        snapshot: None,
    });
    assert!(
        !malformed_reply.ok,
        "unknown op must fail, not kill the connection"
    );

    server.shutdown();
}

#[test]
fn over_long_request_line_is_refused_without_stopping_the_server() {
    let server = Serve::start(ServeConfig::default(), test_model());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let handle = server.handle();
    std::thread::spawn(move || {
        let _ = icoil_serve::run_server(listener, handle);
    });

    // one byte past the cap, then the newline
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut line = vec![b'x'; MAX_REQUEST_LINE + 1];
    line.push(b'\n');
    // the server stops reading at the cap, so the tail may go unread
    let _ = writer.write_all(&line);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("recv refusal");
    let refused: Response = serde_json::from_str(&reply).expect("decode refusal");
    assert!(!refused.ok, "an over-long line must be refused");
    assert_eq!(
        refused.error.as_deref(),
        Some(&*format!("request line exceeds {MAX_REQUEST_LINE} bytes"))
    );
    reply.clear();
    assert!(
        matches!(reader.read_line(&mut reply), Ok(0) | Err(_)),
        "the refused connection must be closed, got {reply:?}"
    );

    // a second connection is served as usual
    let stream = TcpStream::connect(addr).expect("connect again");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut request = serde_json::to_string(&Request::create(Difficulty::Easy, 7)).expect("encode");
    request.push('\n');
    writer.write_all(request.as_bytes()).expect("send");
    reply.clear();
    reader.read_line(&mut reply).expect("recv");
    let created: Response = serde_json::from_str(&reply).expect("decode");
    assert!(created.ok, "create failed: {:?}", created.error);
    server.shutdown();
}

#[test]
fn non_utf8_request_line_is_refused_and_the_connection_survives() {
    let server = Serve::start(ServeConfig::default(), test_model());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let handle = server.handle();
    std::thread::spawn(move || {
        let _ = icoil_serve::run_server(listener, handle);
    });

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let metrics = serde_json::to_string(&Request::metrics()).expect("encode");
    let mut lines = Vec::new();
    for line in [metrics.as_bytes(), &[0xFF], metrics.as_bytes()] {
        lines.extend_from_slice(line);
        lines.push(b'\n');
    }
    writer.write_all(&lines).expect("send");
    let replies: Vec<bool> = (0..3)
        .map(|_| {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("recv");
            let response: Response = serde_json::from_str(&reply).expect("decode");
            response.ok
        })
        .collect();
    assert_eq!(
        replies,
        [true, false, true],
        "ok, failure, ok on one connection"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Weight hot-swap: sessions pin their generation for the whole episode.
// ---------------------------------------------------------------------------

#[test]
fn hot_swap_pins_running_sessions_and_versions_new_ones() {
    use icoil_adapt::WeightStore;
    use std::sync::Arc;

    let spec = SessionConfig {
        difficulty: Difficulty::Easy,
        seed: 314,
    };

    // reference: a server that never learns anything new
    let reference_server = Serve::start(snapshot_config(1), test_model());
    let reference_handle = reference_server.handle();
    let rid = reference_handle.create(spec).expect("create reference");
    let reference: Vec<StepResponse> = (0..30)
        .map(|_| reference_handle.step(rid).expect("step reference"))
        .collect();
    reference_server.shutdown();

    // hot-swap server: generation 1 (different weights) is published while
    // a generation-0 session is mid-episode
    let store = Arc::new(WeightStore::new(test_model()));
    let server = Serve::start_with_store(snapshot_config(1), Arc::clone(&store));
    let handle = server.handle();
    let pinned = handle.create(spec).expect("create pinned");
    let mut stream: Vec<StepResponse> = (0..10)
        .map(|_| handle.step(pinned).expect("step pinned"))
        .collect();

    let swapped = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 2);
    let published = store.publish(swapped, 64);
    assert_eq!(published, 1);
    assert_eq!(store.published(), 1);

    // a session created after the publish rides the new generation…
    let fresh = handle.create(spec).expect("create fresh");
    let fresh_step = handle.step(fresh).expect("step fresh");
    assert_eq!(fresh_step.weight_version, 1);

    // …while the pinned session finishes its episode on generation 0,
    // bit-identical to the server that never swapped
    stream.extend((0..20).map(|_| handle.step(pinned).expect("step pinned")));
    assert_eq!(reference.len(), stream.len());
    for (a, b) in reference.iter().zip(&stream) {
        let mut b = b.clone();
        b.session = a.session;
        assert_eq!(*a, b, "pinned session must be immune to the hot swap");
        assert_eq!(a.weight_version, 0);
    }
    server.shutdown();
}

#[test]
fn snapshots_carry_the_weight_version_and_refuse_unknown_generations() {
    use icoil_adapt::WeightStore;
    use std::sync::Arc;

    let store = Arc::new(WeightStore::new(test_model()));
    store.publish(
        IlModel::untrained(ActionCodec::default(), BevConfig::default(), 2),
        64,
    );
    let server = Serve::start_with_store(snapshot_config(1), Arc::clone(&store));
    let handle = server.handle();
    let spec = SessionConfig {
        difficulty: Difficulty::Easy,
        seed: 271,
    };
    // created after the publish → pinned to generation 1
    let id = handle.create(spec).expect("create");
    let reference: Vec<StepResponse> = (0..24).map(|_| handle.step(id).expect("step")).collect();

    let twin = handle.create(spec).expect("create twin");
    let mut stream: Vec<StepResponse> = (0..9)
        .map(|_| handle.step(twin).expect("step twin"))
        .collect();
    let bytes = handle.evict(twin).expect("evict");

    // a server without generation 1 must refuse the snapshot outright
    let stale = Serve::start(snapshot_config(1), test_model());
    match stale.handle().restore(&bytes) {
        Err(ServeError::UnknownWeightVersion(1)) => {}
        other => panic!("expected UnknownWeightVersion(1), got {other:?}"),
    }
    stale.shutdown();

    // a server sharing the store replays the rest of the episode bitwise
    let server2 = Serve::start_with_store(snapshot_config(2), Arc::clone(&store));
    let handle2 = server2.handle();
    let restored = handle2.restore(&bytes).expect("restore");
    assert_eq!(restored, twin);
    stream.extend((0..15).map(|_| handle2.step(twin).expect("step restored")));
    assert_eq!(reference.len(), stream.len());
    for (a, b) in reference.iter().zip(&stream) {
        let mut b = b.clone();
        b.session = a.session;
        assert_eq!(*a, b, "restored replay must be bit-identical");
        assert_eq!(
            a.weight_version, 1,
            "snapshot must carry the pinned generation"
        );
    }
    server2.shutdown();
    server.shutdown();
}
