//! The per-policy recorder and trace sinks.

use crate::metrics::{Counter, Metrics, Series};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::{Arc, Mutex};

/// Destination of NDJSON trace lines.
///
/// The contract behind "zero overhead when disabled": a [`Recorder`]
/// consults [`Sink::enabled`] (one boolean) before doing *any* event
/// formatting. The default implementations make a no-op sink three empty
/// methods — [`NullSink`] is `impl Sink for NullSink {}`.
pub trait Sink: Send {
    /// Whether trace events should be formatted and delivered at all.
    fn enabled(&self) -> bool {
        false
    }

    /// Receives one NDJSON line (no trailing newline).
    fn line(&mut self, _line: &str) {}

    /// Flushes buffered output (episode end).
    fn flush(&mut self) {}
}

/// The default sink: disabled, drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {}

/// Writes NDJSON lines through a buffered writer (typically a file).
pub struct NdjsonSink {
    writer: std::io::BufWriter<Box<dyn std::io::Write + Send>>,
}

impl NdjsonSink {
    /// A sink writing to `writer`.
    pub fn new(writer: Box<dyn std::io::Write + Send>) -> Self {
        NdjsonSink {
            writer: std::io::BufWriter::new(writer),
        }
    }

    /// A sink writing to the file at `path` (truncating it).
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn to_file(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(NdjsonSink::new(Box::new(file)))
    }
}

impl Sink for NdjsonSink {
    fn enabled(&self) -> bool {
        true
    }

    fn line(&mut self, line: &str) {
        // trace output is advisory: losing lines on a full disk must not
        // take the episode down
        let _ = writeln!(self.writer, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Collects trace lines in memory behind a shared handle (tests,
/// conformance snapshots).
#[derive(Default)]
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    /// A sink plus the handle its lines can be read through.
    pub fn new() -> (Self, Arc<Mutex<Vec<String>>>) {
        let lines = Arc::new(Mutex::new(Vec::new()));
        (
            MemorySink {
                lines: lines.clone(),
            },
            lines,
        )
    }
}

impl Sink for MemorySink {
    fn enabled(&self) -> bool {
        true
    }

    fn line(&mut self, line: &str) {
        self.lines.lock().expect("sink lock").push(line.to_string());
    }
}

/// Solver-side content of a frame event (present when an MPC solve ran).
#[derive(Debug, Clone, Copy)]
pub struct SolveEvent {
    /// SCP linearization passes of this solve.
    pub scp_passes: u32,
    /// Total ADMM iterations of this solve.
    pub admm_iterations: u64,
    /// Diagonal regularization bumps while factorizing.
    pub reg_bumps: u32,
    /// Sparse symbolic analyses served from the cache.
    pub symbolic_cache_hits: u32,
    /// Sparse symbolic analyses computed fresh.
    pub symbolic_rebuilds: u32,
    /// Whether the warm-start pathology fallback re-solved the frame
    /// cold.
    pub cold_restart: bool,
    /// Whether the solve ended in a numerical error (the frame then
    /// degraded to the safe braking action).
    pub numerical_error: bool,
}

/// One policy decision, as handed to [`Recorder::frame`].
///
/// Stage timings are in seconds; pass a negative value for a stage that
/// did not run this frame (it is then neither aggregated nor traced).
#[derive(Debug, Clone, Copy)]
pub struct FrameEvent<'a> {
    /// Frame index within the episode.
    pub frame: usize,
    /// Simulation time (seconds).
    pub time: f64,
    /// Committed (debounced) HSA mode name (`"IL"` / `"CO"`).
    pub mode: &'a str,
    /// Raw (pre-debounce) HSA mode name.
    pub raw_mode: &'a str,
    /// HSA scenario uncertainty `U_i`.
    pub uncertainty: f64,
    /// HSA scenario complexity `C_i`.
    pub complexity: f64,
    /// HSA decision ratio `U_i / C_i`.
    pub ratio: f64,
    /// Perception stage latency (seconds; negative = did not run).
    pub perception_s: f64,
    /// IL forward-pass latency (seconds; negative = did not run).
    pub il_s: f64,
    /// HSA update latency (seconds; negative = did not run).
    pub hsa_s: f64,
    /// CO stage latency — planning + MPC (seconds; negative = did not
    /// run).
    pub co_s: f64,
    /// Whole-decision latency (seconds).
    pub total_s: f64,
    /// Emergency-brake fallback fired (no path / planner failure).
    pub emergency: bool,
    /// Numerical-failure safe-brake degradation fired.
    pub safe_brake: bool,
    /// The MPC solve of this frame, when one ran.
    pub solve: Option<SolveEvent>,
}

/// Episode summary, as handed to [`Recorder::episode`].
#[derive(Debug, Clone, Copy)]
pub struct EpisodeEvent<'a> {
    /// Outcome name (`"success"` / `"collision"` / `"timeout"`).
    pub outcome: &'a str,
    /// Simulated frames.
    pub frames: usize,
    /// Simulation time at termination (seconds).
    pub time: f64,
    /// Driven path length (meters).
    pub path_length: f64,
}

/// Accumulates [`Metrics`] and emits NDJSON trace events to a [`Sink`].
///
/// One recorder lives inside each policy instance — batch evaluation
/// clones policies per worker, so recording is lock-free by construction.
/// Metric updates are array writes; trace formatting reuses one line
/// buffer and is skipped entirely (a single boolean test) when the sink
/// is disabled.
pub struct Recorder {
    metrics: Metrics,
    sink: Box<dyn Sink>,
    trace: bool,
    line: String,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("trace", &self.trace)
            .finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with the no-op sink.
    pub fn new() -> Self {
        Recorder::with_sink(Box::new(NullSink))
    }

    /// A recorder emitting trace events to `sink`.
    pub fn with_sink(sink: Box<dyn Sink>) -> Self {
        let trace = sink.enabled();
        Recorder {
            metrics: Metrics::new(),
            sink,
            trace,
            line: String::with_capacity(if trace { 512 } else { 0 }),
        }
    }

    /// Replaces the sink (e.g. installing an [`NdjsonSink`] before a
    /// traced episode).
    pub fn set_sink(&mut self, sink: Box<dyn Sink>) {
        self.trace = sink.enabled();
        self.sink = sink;
        if self.trace && self.line.capacity() < 512 {
            self.line.reserve(512);
        }
    }

    /// Whether trace events are being emitted.
    pub fn tracing(&self) -> bool {
        self.trace
    }

    /// Increments a counter.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.metrics.add(c, n);
    }

    /// Records a histogram observation.
    pub fn observe(&mut self, s: Series, v: f64) {
        self.metrics.observe(s, v);
    }

    /// The metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Drains the accumulated metrics, leaving the recorder empty.
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.metrics)
    }

    /// Flushes the sink.
    pub fn flush(&mut self) {
        self.sink.flush();
    }

    /// Records one policy decision: updates counters and histograms
    /// always, and emits an NDJSON `frame` event when tracing.
    pub fn frame(&mut self, ev: &FrameEvent<'_>) {
        let m = &mut self.metrics;
        m.add(Counter::Frames, 1);
        if ev.mode == "IL" {
            m.add(Counter::IlFrames, 1);
        } else {
            m.add(Counter::CoFrames, 1);
        }
        if ev.emergency {
            m.add(Counter::EmergencyBrakes, 1);
        }
        if ev.safe_brake {
            m.add(Counter::SafeBrakes, 1);
        }
        if let Some(s) = &ev.solve {
            m.add(Counter::MpcSolves, 1);
            m.add(Counter::ScpPasses, u64::from(s.scp_passes));
            m.add(Counter::AdmmIterations, s.admm_iterations);
            m.add(Counter::RegBumps, u64::from(s.reg_bumps));
            m.add(Counter::SymbolicCacheHits, u64::from(s.symbolic_cache_hits));
            m.add(Counter::SymbolicRebuilds, u64::from(s.symbolic_rebuilds));
            if s.cold_restart {
                m.add(Counter::ColdRestarts, 1);
            }
            if s.numerical_error {
                m.add(Counter::NumericalErrors, 1);
            }
            m.observe(Series::AdmmPerSolve, s.admm_iterations as f64);
            m.observe(Series::ScpPerSolve, f64::from(s.scp_passes));
        }
        m.observe(Series::FrameTotal, ev.total_s);
        for (series, v) in [
            (Series::Perception, ev.perception_s),
            (Series::IlForward, ev.il_s),
            (Series::HsaUpdate, ev.hsa_s),
            (Series::CoSolve, ev.co_s),
        ] {
            if v >= 0.0 {
                m.observe(series, v);
            }
        }

        if !self.trace {
            return;
        }
        self.line.clear();
        let w = &mut self.line;
        let _ = write!(
            w,
            "{{\"t\":\"frame\",\"frame\":{},\"time\":{},\"mode\":\"{}\",\"raw_mode\":\"{}\",\
             \"u\":{},\"c\":{},\"ratio\":{}",
            ev.frame,
            json_f64(ev.time),
            ev.mode,
            ev.raw_mode,
            json_f64(ev.uncertainty),
            json_f64(ev.complexity),
            json_f64(ev.ratio),
        );
        for (key, v) in [
            ("perception_us", ev.perception_s),
            ("il_us", ev.il_s),
            ("hsa_us", ev.hsa_s),
            ("co_us", ev.co_s),
            ("total_us", ev.total_s),
        ] {
            if v >= 0.0 {
                let _ = write!(w, ",\"{key}\":{}", json_f64(v * 1e6));
            }
        }
        if ev.emergency || ev.safe_brake {
            let _ = write!(
                w,
                ",\"emergency\":{},\"safe_brake\":{}",
                ev.emergency, ev.safe_brake
            );
        }
        if let Some(s) = &ev.solve {
            let _ = write!(
                w,
                ",\"solve\":{{\"scp\":{},\"admm\":{},\"reg_bumps\":{},\
                 \"symbolic_cache_hits\":{},\"symbolic_rebuilds\":{},\
                 \"cold_restart\":{},\"numerical_error\":{}}}",
                s.scp_passes,
                s.admm_iterations,
                s.reg_bumps,
                s.symbolic_cache_hits,
                s.symbolic_rebuilds,
                s.cold_restart,
                s.numerical_error,
            );
        }
        let _ = write!(w, "}}");
        let line = std::mem::take(&mut self.line);
        self.sink.line(&line);
        self.line = line;
    }

    /// Records an episode summary: outcome counters plus an NDJSON
    /// `episode` event when tracing.
    pub fn episode(&mut self, ev: &EpisodeEvent<'_>) {
        let m = &mut self.metrics;
        m.add(Counter::Episodes, 1);
        match ev.outcome {
            "success" => m.add(Counter::Successes, 1),
            "collision" => m.add(Counter::Collisions, 1),
            _ => m.add(Counter::Timeouts, 1),
        }

        if !self.trace {
            return;
        }
        self.line.clear();
        let _ = write!(
            &mut self.line,
            "{{\"t\":\"episode\",\"outcome\":\"{}\",\"frames\":{},\"time\":{},\"path_length\":{}}}",
            ev.outcome,
            ev.frames,
            json_f64(ev.time),
            json_f64(ev.path_length),
        );
        let line = std::mem::take(&mut self.line);
        self.sink.line(&line);
        self.line = line;
    }
}

/// A finite `f64` for JSON embedding (non-finite values are clamped; JSON
/// has no representation for them).
fn json_f64(v: f64) -> f64 {
    crate::finite_or_clamp(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame<'a>(solve: Option<SolveEvent>) -> FrameEvent<'a> {
        FrameEvent {
            frame: 7,
            time: 0.35,
            mode: "CO",
            raw_mode: "IL",
            uncertainty: 0.42,
            complexity: 1.5e5,
            ratio: 2.8e-6,
            perception_s: 1.2e-5,
            il_s: 8.0e-5,
            hsa_s: 5.0e-7,
            co_s: 3.1e-4,
            total_s: 4.1e-4,
            emergency: false,
            safe_brake: false,
            solve,
        }
    }

    fn sample_solve() -> SolveEvent {
        SolveEvent {
            scp_passes: 2,
            admm_iterations: 112,
            reg_bumps: 0,
            symbolic_cache_hits: 2,
            symbolic_rebuilds: 0,
            cold_restart: false,
            numerical_error: false,
        }
    }

    #[test]
    fn null_sink_skips_trace_work_but_counts() {
        let mut r = Recorder::new();
        assert!(!r.tracing());
        r.frame(&sample_frame(Some(sample_solve())));
        assert_eq!(r.metrics().counter(Counter::Frames), 1);
        assert_eq!(r.metrics().counter(Counter::CoFrames), 1);
        assert_eq!(r.metrics().counter(Counter::MpcSolves), 1);
        assert_eq!(r.metrics().counter(Counter::AdmmIterations), 112);
        assert_eq!(r.metrics().series(Series::AdmmPerSolve).count(), 1);
        assert_eq!(r.metrics().series(Series::FrameTotal).count(), 1);
    }

    fn field<'v>(v: &'v serde_json::Value, key: &str) -> &'v serde_json::Value {
        v.get(key).unwrap_or_else(|| panic!("field {key} present"))
    }

    #[test]
    fn memory_sink_collects_valid_ndjson() {
        let (sink, lines) = MemorySink::new();
        let mut r = Recorder::with_sink(Box::new(sink));
        assert!(r.tracing());
        r.frame(&sample_frame(Some(sample_solve())));
        r.frame(&sample_frame(None));
        r.episode(&EpisodeEvent {
            outcome: "success",
            frames: 2,
            time: 0.1,
            path_length: 0.5,
        });
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 3);
        for line in lines.iter() {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
            assert!(v.get("t").is_some(), "event type tag present: {line}");
        }
        let first: serde_json::Value = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(field(&first, "t").as_str(), Some("frame"));
        assert_eq!(field(&first, "mode").as_str(), Some("CO"));
        assert_eq!(field(&first, "raw_mode").as_str(), Some("IL"));
        let solve = field(&first, "solve");
        assert_eq!(field(solve, "admm").as_u64(), Some(112));
        assert_eq!(field(solve, "symbolic_cache_hits").as_u64(), Some(2));
        assert!(field(&first, "total_us").as_f64().unwrap() > 0.0);
        let second: serde_json::Value = serde_json::from_str(&lines[1]).unwrap();
        assert!(
            second.get("solve").is_none(),
            "no solve block without a solve"
        );
        let third: serde_json::Value = serde_json::from_str(&lines[2]).unwrap();
        assert_eq!(field(&third, "t").as_str(), Some("episode"));
        assert_eq!(field(&third, "outcome").as_str(), Some("success"));
    }

    #[test]
    fn nonfinite_event_fields_stay_parseable() {
        let (sink, lines) = MemorySink::new();
        let mut r = Recorder::with_sink(Box::new(sink));
        let mut ev = sample_frame(None);
        ev.ratio = f64::INFINITY;
        ev.uncertainty = f64::NAN;
        r.frame(&ev);
        let lines = lines.lock().unwrap();
        let v: serde_json::Value = serde_json::from_str(&lines[0]).expect("still valid JSON");
        assert!(field(&v, "u").as_f64().unwrap().is_finite());
        assert!(field(&v, "ratio").as_f64().unwrap().is_finite());
    }

    #[test]
    fn negative_stage_timings_are_omitted() {
        let (sink, lines) = MemorySink::new();
        let mut r = Recorder::with_sink(Box::new(sink));
        let mut ev = sample_frame(None);
        ev.il_s = -1.0;
        ev.hsa_s = -1.0;
        ev.co_s = -1.0;
        r.frame(&ev);
        assert_eq!(r.metrics().series(Series::IlForward).count(), 0);
        assert_eq!(r.metrics().series(Series::CoSolve).count(), 0);
        assert_eq!(r.metrics().series(Series::Perception).count(), 1);
        let lines = lines.lock().unwrap();
        let v: serde_json::Value = serde_json::from_str(&lines[0]).unwrap();
        assert!(v.get("il_us").is_none());
        assert!(v.get("co_us").is_none());
        assert!(v.get("perception_us").is_some());
    }

    #[test]
    fn take_metrics_resets_the_recorder() {
        let mut r = Recorder::new();
        r.add(Counter::Frames, 5);
        let taken = r.take_metrics();
        assert_eq!(taken.counter(Counter::Frames), 5);
        assert!(r.metrics().is_empty());
    }

    #[test]
    fn episode_outcomes_map_to_counters() {
        let mut r = Recorder::new();
        for outcome in ["success", "collision", "timeout"] {
            r.episode(&EpisodeEvent {
                outcome,
                frames: 1,
                time: 0.1,
                path_length: 0.0,
            });
        }
        assert_eq!(r.metrics().counter(Counter::Episodes), 3);
        assert_eq!(r.metrics().counter(Counter::Successes), 1);
        assert_eq!(r.metrics().counter(Counter::Collisions), 1);
        assert_eq!(r.metrics().counter(Counter::Timeouts), 1);
    }
}
