//! End-to-end telemetry smoke check, wired into `scripts/check.sh`.
//!
//! Runs one traced iCOIL episode with an NDJSON sink attached, then
//! verifies the observability contract end to end:
//!
//! * every emitted trace line re-parses as JSON and carries the event
//!   tag plus the per-frame fields downstream tooling keys on;
//! * the trace agrees with the aggregated metrics (frame counts, solve
//!   counts, episode summary);
//! * `BENCH_perf.json`, `BENCH_serve.json` and `BENCH_scenarios.json`
//!   (when present in the working directory) pass the
//!   [`icoil_bench::validate_perf_json`] /
//!   [`icoil_bench::validate_serve_json`] /
//!   [`icoil_bench::validate_scenarios_json`] schema checks and
//!   round-trip through the JSON layer.
//!
//! Exits non-zero on the first violation, printing what broke.

use icoil_bench::{
    validate_perf_json, validate_scenarios_json, validate_serve_json, ScenariosReport, ServeReport,
};
use icoil_core::eval::drain_episode_metrics;
use icoil_core::{ICoilConfig, ICoilPolicy};
use icoil_il::IlModel;
use icoil_telemetry::{Counter, NdjsonSink, Series};
use icoil_vehicle::ActionCodec;
use icoil_world::episode::{run_episode, EpisodeConfig, Policy};
use icoil_world::{Difficulty, ScenarioConfig, World};
use serde_json::Value;
use std::process::ExitCode;

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key)
        .ok_or_else(|| format!("trace line is missing {key:?}"))
}

fn check_trace(lines: &[String]) -> Result<(usize, usize), String> {
    let mut frames = 0;
    let mut solves = 0;
    let mut episodes = 0;
    for line in lines {
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("trace line does not re-parse ({e:?}): {line}"))?;
        let tag = field(&v, "t")?
            .as_str()
            .ok_or_else(|| format!("event tag is not a string: {line}"))?
            .to_string();
        match tag.as_str() {
            "frame" => {
                frames += 1;
                for key in [
                    "frame", "time", "mode", "raw_mode", "u", "c", "ratio", "total_us",
                ] {
                    let value = field(&v, key)?;
                    if value.as_f64().is_none() && value.as_str().is_none() {
                        return Err(format!("frame field {key:?} is null: {line}"));
                    }
                }
                if let Some(solve) = v.get("solve") {
                    solves += 1;
                    for key in ["scp", "admm"] {
                        field(solve, key)?;
                    }
                }
            }
            "episode" => {
                episodes += 1;
                for key in ["outcome", "frames", "time", "path_length"] {
                    field(&v, key)?;
                }
            }
            other => return Err(format!("unknown event tag {other:?}: {line}")),
        }
    }
    if episodes != 1 {
        return Err(format!(
            "expected exactly one episode event, saw {episodes}"
        ));
    }
    Ok((frames, solves))
}

fn run() -> Result<(), String> {
    // 1) one traced episode through the full iCOIL policy
    let config = ICoilConfig::default();
    let model = IlModel::untrained(ActionCodec::default(), config.bev, 1);
    let scenario = ScenarioConfig::new(Difficulty::Easy, 11).build();
    let mut policy = ICoilPolicy::new(&config, model, &scenario);
    let mut world = World::new(scenario);

    let trace_path = std::env::temp_dir().join("icoil_telemetry_smoke.ndjson");
    let sink = NdjsonSink::to_file(&trace_path)
        .map_err(|e| format!("cannot create {}: {e}", trace_path.display()))?;
    policy
        .recorder_mut()
        .expect("iCOIL policy is instrumented")
        .set_sink(Box::new(sink));

    let result = run_episode(
        &mut world,
        &mut policy,
        &EpisodeConfig {
            max_time: 5.0,
            record_trace: false,
        },
    );
    let metrics = drain_episode_metrics(&mut policy, &result);

    // 2) the trace re-parses and agrees with the aggregated metrics
    let raw = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("cannot read {}: {e}", trace_path.display()))?;
    let lines: Vec<String> = raw.lines().map(str::to_string).collect();
    let (frames, solves) = check_trace(&lines)?;
    if frames != result.frames {
        return Err(format!(
            "trace has {frames} frame events but the episode ran {} frames",
            result.frames
        ));
    }
    if metrics.counter(Counter::Frames) as usize != frames {
        return Err(format!(
            "metrics count {} frames but the trace has {frames}",
            metrics.counter(Counter::Frames)
        ));
    }
    if metrics.counter(Counter::MpcSolves) as usize != solves {
        return Err(format!(
            "metrics count {} MPC solves but the trace has {solves}",
            metrics.counter(Counter::MpcSolves)
        ));
    }
    if metrics.counter(Counter::Episodes) != 1 {
        return Err("metrics did not record the episode summary".to_string());
    }
    if metrics.series(Series::FrameTotal).count() as usize != frames {
        return Err("frame-latency histogram disagrees with the frame count".to_string());
    }
    println!(
        "telemetry smoke: {frames} frames, {solves} solves, trace re-parsed from {}",
        trace_path.display()
    );
    let _ = std::fs::remove_file(&trace_path);

    // 3) BENCH_perf.json schema, when the baseline is present
    match std::fs::read_to_string("BENCH_perf.json") {
        Ok(raw) => {
            let v: Value = serde_json::from_str(&raw)
                .map_err(|e| format!("BENCH_perf.json does not parse: {e:?}"))?;
            validate_perf_json(&v)?;
            println!("telemetry smoke: BENCH_perf.json schema OK");
        }
        Err(_) => println!("telemetry smoke: no BENCH_perf.json in cwd, schema check skipped"),
    }

    // 4) BENCH_serve.json schema + round-trip, when present
    match std::fs::read_to_string("BENCH_serve.json") {
        Ok(raw) => {
            let v: Value = serde_json::from_str(&raw)
                .map_err(|e| format!("BENCH_serve.json does not parse: {e:?}"))?;
            validate_serve_json(&v)?;
            let report: ServeReport = serde_json::from_str(&raw)
                .map_err(|e| format!("BENCH_serve.json does not deserialize: {e:?}"))?;
            let reencoded = serde_json::to_string(&report)
                .map_err(|e| format!("BENCH_serve.json does not re-serialize: {e:?}"))?;
            let v2: Value = serde_json::from_str(&reencoded)
                .map_err(|e| format!("re-serialized BENCH_serve.json does not parse: {e:?}"))?;
            validate_serve_json(&v2)?;
            println!("telemetry smoke: BENCH_serve.json schema + round-trip OK");
        }
        Err(_) => println!("telemetry smoke: no BENCH_serve.json in cwd, schema check skipped"),
    }

    // 5) BENCH_scenarios.json schema + round-trip, when present
    match std::fs::read_to_string("BENCH_scenarios.json") {
        Ok(raw) => {
            let v: Value = serde_json::from_str(&raw)
                .map_err(|e| format!("BENCH_scenarios.json does not parse: {e:?}"))?;
            validate_scenarios_json(&v)?;
            let report: ScenariosReport = serde_json::from_str(&raw)
                .map_err(|e| format!("BENCH_scenarios.json does not deserialize: {e:?}"))?;
            let reencoded = serde_json::to_string(&report)
                .map_err(|e| format!("BENCH_scenarios.json does not re-serialize: {e:?}"))?;
            let v2: Value = serde_json::from_str(&reencoded)
                .map_err(|e| format!("re-serialized BENCH_scenarios.json does not parse: {e:?}"))?;
            validate_scenarios_json(&v2)?;
            println!("telemetry smoke: BENCH_scenarios.json schema + round-trip OK");
        }
        Err(_) => {
            println!("telemetry smoke: no BENCH_scenarios.json in cwd, schema check skipped")
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("telemetry smoke FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}
