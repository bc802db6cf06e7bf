//! In-memory span recording around calls into each crate's public API.
//!
//! A span is one call: its layer, start, end, the span it ran inside and
//! the episode or session it served. Spans stay in memory while the
//! traced pass runs; self times (a span minus its direct children) and
//! the per-layer tables are derived afterwards, and the raw spans are
//! written out as CSV when the run ends.

use std::io::Write;
use std::time::Instant;

/// The benchmark-side boundaries a span can sit on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One `Policy::decide`-equivalent frame of the Table II loop.
    Decide,
    /// One replayed lockstep tick of a fleet.
    Tick,
    /// `Perception::observe`.
    Perception,
    /// `IlModel::infer` (one sample).
    Il,
    /// `IlModel::infer_batch` (id = batch width).
    IlBatch,
    /// `Hsa::set_ego_position` + `Hsa::update`.
    Hsa,
    /// `SafetyProjector::project`.
    Adapt,
    /// `CoController::control`.
    Co,
    /// `World::step`.
    World,
    /// `ServeHandle::create`.
    ServeCreate,
    /// `ServeHandle::step_many`.
    ServeStep,
    /// `ServeHandle::evict`.
    ServeEvict,
    /// `ServeHandle::restore`.
    ServeRestore,
    /// `ServeHandle::close`.
    ServeClose,
    /// `ServeHandle::metrics`.
    ServeMetrics,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 15] = [
        Layer::Decide,
        Layer::Tick,
        Layer::Perception,
        Layer::Il,
        Layer::IlBatch,
        Layer::Hsa,
        Layer::Adapt,
        Layer::Co,
        Layer::World,
        Layer::ServeCreate,
        Layer::ServeStep,
        Layer::ServeEvict,
        Layer::ServeRestore,
        Layer::ServeClose,
        Layer::ServeMetrics,
    ];

    /// The span name: the crate and the public call it wraps.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Decide => "bench.decide",
            Layer::Tick => "bench.tick",
            Layer::Perception => "perception.observe",
            Layer::Il => "il.infer",
            Layer::IlBatch => "il.infer_batch",
            Layer::Hsa => "hsa.update",
            Layer::Adapt => "adapt.project",
            Layer::Co => "co.control",
            Layer::World => "world.step",
            Layer::ServeCreate => "serve.create",
            Layer::ServeStep => "serve.step_many",
            Layer::ServeEvict => "serve.evict",
            Layer::ServeRestore => "serve.restore",
            Layer::ServeClose => "serve.close",
            Layer::ServeMetrics => "serve.metrics",
        }
    }

    /// Whether the span is a call into one of the stack's crates, as
    /// opposed to a benchmark frame that groups such calls.
    pub fn is_crate_call(self) -> bool {
        !matches!(self, Layer::Decide | Layer::Tick)
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which boundary.
    pub layer: Layer,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: u32,
    /// Episode index or session id the call served.
    pub id: u64,
}

impl Span {
    /// Wall time of the call in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A single thread's span buffer.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty buffer timing against `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn open(&mut self, layer: Layer, id: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let idx = u32::try_from(self.spans.len()).expect("fewer than 4G spans per thread");
        self.open.push(idx);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("close matches an open span");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Records `f` as one span.
    pub fn span<R>(&mut self, layer: Layer, id: u64, f: impl FnOnce() -> R) -> R {
        self.open(layer, id);
        let r = f();
        self.close();
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer totals over every thread's spans.
#[derive(Debug, Default, Clone)]
pub struct LayerTable {
    /// Per [`Layer::ALL`] slot: call durations in seconds.
    pub durations: Vec<Vec<f64>>,
    /// Per [`Layer::ALL`] slot: summed self time in seconds.
    pub self_secs: Vec<f64>,
}

fn slot(layer: Layer) -> usize {
    Layer::ALL
        .iter()
        .position(|&l| l == layer)
        .expect("every layer is in ALL")
}

impl LayerTable {
    /// Builds the table from each thread's spans.
    pub fn from_tracers(tracers: &[Tracer]) -> Self {
        let mut table = LayerTable {
            durations: vec![Vec::new(); Layer::ALL.len()],
            self_secs: vec![0.0; Layer::ALL.len()],
        };
        for tracer in tracers {
            let spans = tracer.spans();
            let mut child_secs = vec![0.0_f64; spans.len()];
            for s in spans {
                if s.parent != NO_PARENT {
                    child_secs[s.parent as usize] += s.secs();
                }
            }
            for (s, children) in spans.iter().zip(child_secs) {
                let k = slot(s.layer);
                table.durations[k].push(s.secs());
                table.self_secs[k] += s.secs() - children;
            }
        }
        table
    }

    /// Call durations of one layer, in seconds.
    pub fn durations(&self, layer: Layer) -> &[f64] {
        &self.durations[slot(layer)]
    }

    /// Summed self time of one layer, in seconds.
    pub fn self_secs(&self, layer: Layer) -> f64 {
        self.self_secs[slot(layer)]
    }

    /// Summed self time of every crate call, in seconds.
    pub fn crate_self_secs(&self) -> f64 {
        Layer::ALL
            .iter()
            .filter(|l| l.is_crate_call())
            .map(|&l| self.self_secs(l))
            .sum()
    }

    /// Summed wall time of one layer's calls, in seconds.
    pub fn total_secs(&self, layer: Layer) -> f64 {
        self.durations(layer).iter().sum()
    }
}

/// Writes every span as CSV (`thread,layer,start_ns,end_ns,parent,id`).
pub fn write_csv(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,layer,start_ns,end_ns,parent,id")?;
    for (t, tracer) in tracers.iter().enumerate() {
        for s in tracer.spans() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{t},{},{},{},{parent},{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.id
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(Instant::now());
        t.open(Layer::Decide, 0);
        t.span(Layer::Perception, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span(Layer::Co, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close();
        let table = LayerTable::from_tracers(&[t]);
        let decide = table.total_secs(Layer::Decide);
        let children = table.total_secs(Layer::Perception) + table.total_secs(Layer::Co);
        assert!((table.self_secs(Layer::Decide) - (decide - children)).abs() < 1e-12);
        assert!(table.crate_self_secs() >= 0.004);
        assert_eq!(table.durations(Layer::Perception).len(), 1);
    }
}
