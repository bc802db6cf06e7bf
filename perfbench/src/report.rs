//! Metric definitions and the result lines every run prints.

use serde_json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs (`--trace 0`) on every
/// workload: `(name, unit)`. `step_us` is each workload's headline step
/// latency, the statistic of it that repeats from seed to seed: the p99
/// of one `Policy::decide` on `table2_icoil` (a capped ADMM solve, against
/// the 50 ms control period) and the p50 of one lockstep tick on
/// `fleet_il`. Both percentiles of both workloads are in the metadata.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("step_us", "us")];

/// Per-layer metrics, printed by traced runs (`--trace 1`) on every
/// workload: `(name, unit)`. A layer a workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("perception.observe_p50_us", "us"),
    ("perception.boxes_per_frame", "count"),
    ("il.infer_p50_us", "us"),
    ("il.batch_row_us", "us"),
    ("il.gflops", "GFLOP/s"),
    ("hsa.update_p50_us", "us"),
    ("hsa.co_share", "fraction"),
    ("adapt.project_p50_us", "us"),
    ("adapt.clip_share", "fraction"),
    ("co.control_p50_us", "us"),
    ("co.control_p99_us", "us"),
    ("co.admm_iters_per_solve", "count"),
    ("co.admm_iters_p99", "count"),
    ("co.capped_solve_share", "fraction"),
    ("co.cold_restart_share", "fraction"),
    ("co.scp_passes_per_solve", "count"),
    ("co.emergency_share", "fraction"),
    ("planner.replans", "count"),
    ("planner.replan_frame_us", "us"),
    ("solver.factor_cache_hit_share", "fraction"),
    ("solver.symbolic_rebuilds_per_solve", "count"),
    ("solver.reg_bumps", "count"),
    ("solver.sparse_share", "fraction"),
    ("serve.overhead_us_per_frame", "us"),
    ("serve.il_batch_width_mean", "count"),
    ("serve.evict_p50_us", "us"),
    ("serve.restore_p50_us", "us"),
    ("serve.migrate_p50_us", "us"),
    ("serve.migrate_p99_us", "us"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.create_p50_us", "us"),
    ("world.step_p50_us", "us"),
    ("unattributed_share", "fraction"),
    ("tracing_overhead", "ratio"),
];

/// What one run found: its operation counts, failed checks, metric
/// values, run metadata and human-readable notes.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (episodes on table2; steps, migrations and
    /// session calls on the fleet).
    pub attempted: u64,
    /// Operations that errored, were shed or returned the degraded brake.
    pub failed: u64,
    /// Violated output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    meta: Vec<(String, Value)>,
    /// Lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets a percentile metric; a tail too thin to report reads 0 and
    /// is noted.
    pub fn set_pct(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        if value.is_none() && samples > 0 {
            self.note(format!(
                "{name}: {samples} samples are too few for this percentile"
            ));
        }
        self.set(name, value.unwrap_or(0.0));
    }

    /// Records a violated check.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Adds a metadata field.
    pub fn meta(&mut self, key: &str, value: Value) {
        self.meta.push((key.to_string(), value));
    }

    /// Adds a numeric metadata field; `None` (a percentile with too thin
    /// a tail) is written as `null`.
    pub fn meta_num(&mut self, key: &str, value: Option<f64>) {
        self.meta(key, value.map_or(Value::Null, Value::F64));
    }

    /// Adds a count metadata field.
    pub fn meta_count(&mut self, key: &str, value: u64) {
        self.meta(key, Value::U64(value));
    }

    /// Adds a string metadata field.
    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta(key, Value::Str(value.to_string()));
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The metadata line, with the failed checks appended.
    pub fn meta_line(&self) -> String {
        let mut fields = self.meta.clone();
        fields.push((
            "problems".to_string(),
            Value::Seq(self.problems.iter().cloned().map(Value::Str).collect()),
        ));
        let line = Value::Map(vec![("meta".to_string(), Value::Map(fields))]);
        serde_json::to_string(&line).expect("a value tree always serializes")
    }

    /// The result line: the declared metric set in declaration order.
    /// A declared metric the run did not produce, or a non-finite value,
    /// is a failed check (reported as 0 so the line stays well-formed).
    pub fn result_line(&mut self, declared: &[(&'static str, &'static str)]) -> String {
        let mut metrics = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.fail(format!("{name} is not finite ({v})"));
                    0.0
                }
                None => {
                    self.fail(format!("{name} was not measured"));
                    0.0
                }
            };
            metrics.push((
                name.to_string(),
                Value::Map(vec![
                    // an empty float sum is -0.0; print it as 0
                    ("value".to_string(), Value::F64(value + 0.0)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]),
            ));
        }
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree always serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_flags_missing_metrics() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.25);
        let line = r.result_line(&END_TO_END[..2]);
        assert!(line.contains("\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}"));
        assert!(line.starts_with("{\"correct\":false"));
        assert_eq!(r.problems, vec!["step_us was not measured".to_string()]);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
