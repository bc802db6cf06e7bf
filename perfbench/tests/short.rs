//! The benchmark's own tests: every workload in short mode, checked
//! against the definitions in `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Output;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn benchmark() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
}

fn text(v: &Value, key: &str) -> String {
    field(v, key).as_str().expect("a string").to_string()
}

fn workloads(bench: &Value) -> Vec<String> {
    field(bench, "workloads")
        .as_seq()
        .expect("workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect()
}

/// `(name, unit)` of every metric of one kind.
fn declared(bench: &Value, kind: &str) -> Vec<(String, String)> {
    field(bench, kind)
        .as_seq()
        .expect("metric list")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_icoil-perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--short",
        ])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .output()
        .expect("the benchmark runs")
}

/// The result object on the last line of standard output.
fn result(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line {last:?} is not JSON: {e}"))
}

/// Runs one workload briefly, untraced and traced: each run prints every
/// metric `BENCHMARK.json` declares for it, with its unit, and a traced
/// run whose replay is corrupted fails. Each workload is its own test, so
/// no two concurrent runs write the same trace file.
fn check_workload(workload: &str) {
    let bench = benchmark();
    assert!(
        workloads(&bench).iter().any(|w| w == workload),
        "{workload} is declared"
    );
    for (trace, kind) in [(0, "end_to_end"), (1, "per_layer")] {
        let out = run(workload, trace, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{workload} --trace {trace} failed: {stderr}"
        );
        let r = result(&out);
        assert_eq!(
            field(&r, "correct").as_bool(),
            Some(true),
            "{workload} --trace {trace}"
        );
        assert!(field(&r, "attempted").as_u64().expect("attempted") >= 1);
        assert!(field(&r, "failed").as_u64().is_some());
        let metrics = field(&r, "metrics");
        let want = declared(&bench, kind);
        assert_eq!(
            metrics.as_map().expect("metrics object").len(),
            want.len(),
            "{workload} --trace {trace} prints undeclared metrics"
        );
        for (name, unit) in want {
            let m = field(metrics, &name);
            assert_eq!(text(m, "unit"), unit, "{workload}: unit of {name}");
            assert!(
                field(m, "value").as_f64().is_some_and(f64::is_finite),
                "{workload}: {name}"
            );
        }
    }
    let out = run(workload, 1, &["--inject-mismatch"]);
    assert!(
        !out.status.success(),
        "{workload}: a corrupted replay must fail the run"
    );
    assert_eq!(
        field(&result(&out), "correct").as_bool(),
        Some(false),
        "{workload}"
    );
}

#[test]
fn table2_icoil_short_run() {
    check_workload("table2_icoil");
}

#[test]
fn fleet_il_short_run() {
    check_workload("fleet_il");
}

#[test]
fn every_declared_workload_is_tested() {
    assert_eq!(workloads(&benchmark()), ["table2_icoil", "fleet_il"]);
}

#[test]
fn malformed_command_lines_are_refused() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_icoil-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", "table2_icoil", "--seed", "x"])
        .output()
        .expect("the benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
