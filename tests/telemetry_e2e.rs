//! End-to-end telemetry contracts across the full stack.
//!
//! * merged batch metrics are bit-identical for every worker count
//!   (the same determinism contract `run_batch_with` gives episode
//!   results);
//! * a traced episode produces NDJSON that re-parses and agrees with
//!   the aggregated counters.

use icoil_core::eval::{drain_episode_metrics, run_batch_telemetry, EvalConfig};
use icoil_core::{ICoilConfig, ICoilPolicy, Method};
use icoil_il::IlModel;
use icoil_telemetry::{Counter, MemorySink, Series};
use icoil_vehicle::ActionCodec;
use icoil_world::episode::{run_episode, EpisodeConfig, Policy};
use icoil_world::{Difficulty, ScenarioConfig, World};

fn untrained(config: &ICoilConfig) -> IlModel {
    IlModel::untrained(ActionCodec::default(), config.bev, 1)
}

#[test]
fn merged_metrics_are_identical_at_any_parallelism() {
    let config = ICoilConfig::default();
    let model = untrained(&config);
    let scenario_configs: Vec<ScenarioConfig> = [
        (Difficulty::Easy, 11),
        (Difficulty::Easy, 3),
        (Difficulty::Easy, 1),
        (Difficulty::Normal, 5),
        (Difficulty::Normal, 7),
        (Difficulty::Easy, 2),
    ]
    .iter()
    .map(|&(d, s)| ScenarioConfig::new(d, s))
    .collect();
    let episode = EpisodeConfig {
        max_time: 3.0,
        record_trace: false,
    };
    for method in [Method::ICoil, Method::Co] {
        let (serial_results, serial_metrics) = run_batch_telemetry(
            method,
            &config,
            &model,
            &scenario_configs,
            &episode,
            &EvalConfig::with_parallelism(1),
        );
        assert_eq!(
            serial_metrics.counter(Counter::Episodes) as usize,
            scenario_configs.len()
        );
        let frames: usize = serial_results.iter().map(|r| r.frames).sum();
        assert_eq!(serial_metrics.counter(Counter::Frames) as usize, frames);
        for workers in [2, 3, 8] {
            let (results, metrics) = run_batch_telemetry(
                method,
                &config,
                &model,
                &scenario_configs,
                &episode,
                &EvalConfig::with_parallelism(workers),
            );
            assert_eq!(
                serial_results, results,
                "{method}: results diverged at {workers}"
            );
            assert!(
                serial_metrics.deterministic_eq(&metrics),
                "{method}: merged telemetry diverged at parallelism {workers}"
            );
        }
    }
}

#[test]
fn traced_episode_ndjson_reparses_and_matches_counters() {
    let config = ICoilConfig::default();
    let scenario = ScenarioConfig::new(Difficulty::Easy, 11).build();
    let mut policy = ICoilPolicy::new(&config, untrained(&config), &scenario);
    let mut world = World::new(scenario);
    let (sink, lines) = MemorySink::new();
    policy
        .recorder_mut()
        .expect("iCOIL policy is instrumented")
        .set_sink(Box::new(sink));

    let result = run_episode(
        &mut world,
        &mut policy,
        &EpisodeConfig {
            max_time: 3.0,
            record_trace: false,
        },
    );
    let metrics = drain_episode_metrics(&mut policy, &result);

    let lines = lines.lock().expect("sink lines");
    // one line per frame plus the episode summary
    assert_eq!(lines.len(), result.frames + 1);
    let mut frame_events = 0usize;
    let mut solve_events = 0usize;
    for line in lines.iter() {
        let v: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad NDJSON ({e:?}): {line}"));
        match v.get("t").and_then(serde_json::Value::as_str) {
            Some("frame") => {
                frame_events += 1;
                assert!(v.get("mode").and_then(serde_json::Value::as_str).is_some());
                assert!(v
                    .get("total_us")
                    .and_then(serde_json::Value::as_f64)
                    .is_some());
                if v.get("solve").is_some() {
                    solve_events += 1;
                }
            }
            Some("episode") => {
                assert!(v
                    .get("outcome")
                    .and_then(serde_json::Value::as_str)
                    .is_some());
            }
            other => panic!("unexpected event tag {other:?}: {line}"),
        }
    }
    assert_eq!(frame_events, result.frames);
    assert_eq!(metrics.counter(Counter::Frames) as usize, frame_events);
    assert_eq!(metrics.counter(Counter::MpcSolves) as usize, solve_events);
    assert_eq!(
        metrics.series(Series::FrameTotal).count() as usize,
        frame_events
    );
}
