//! Counter/series identifiers and the mergeable [`Metrics`] store.

use crate::hist::Histogram;
use serde::{Deserialize, Serialize};

/// Monotone event counters recorded by the stack.
///
/// Every counter is a pure function of the (seeded, deterministic)
/// computation — no wall-clock content — so merged counters are
/// bit-identical across worker counts and schedulings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Policy decisions taken.
    Frames = 0,
    /// Frames whose action came from the IL mode.
    IlFrames,
    /// Frames whose action came from the CO mode.
    CoFrames,
    /// Committed (debounced) HSA mode changes.
    HsaSwitches,
    /// MPC solves performed.
    MpcSolves,
    /// SCP linearization passes across all solves.
    ScpPasses,
    /// ADMM iterations across all QP solves.
    AdmmIterations,
    /// Sparse symbolic analyses served from the workspace cache.
    SymbolicCacheHits,
    /// Sparse symbolic analyses computed fresh.
    SymbolicRebuilds,
    /// Diagonal regularization bumps while factorizing KKT matrices.
    RegBumps,
    /// Warm-start pathology fallbacks (cold re-solve of a frame).
    ColdRestarts,
    /// QP solves that ended in `QpStatus::NumericalError`.
    NumericalErrors,
    /// Frames degraded to the safe braking action after a numerical
    /// failure.
    SafeBrakes,
    /// Emergency-brake frames (no path / planner failure).
    EmergencyBrakes,
    /// Episodes completed.
    Episodes,
    /// Episodes that parked successfully.
    Successes,
    /// Episodes that ended in a collision.
    Collisions,
    /// Episodes that ran out of time.
    Timeouts,
    /// Serving sessions created.
    ServeSessions,
    /// Micro-batched IL inference passes run by the serving engine.
    IlBatches,
    /// CO solve requests admitted to the serving deadline lane.
    CoAdmitted,
    /// CO solve requests shed by the serving lane (queue full or
    /// deadline expired) and answered with the degraded full brake.
    CoShed,
    /// Session snapshots encoded by the serving engine.
    ServeSnapshots,
    /// Sessions restored from a snapshot by the serving engine.
    ServeRestores,
    /// Sessions evicted (snapshotted and removed) by the serving engine.
    ServeEvictions,
    /// Gear reversals executed (the served action flipping `reverse`
    /// relative to the previous frame) — the maneuver-taxonomy signal.
    GearReversals,
    /// Weight generations materialized by a serving shard from the
    /// versioned weight store (the hot-swap events of the adaptation
    /// loop: one per shard per generation it actually serves).
    WeightSwaps,
    /// IL-mode actions clipped by the safety projection layer (frames
    /// whose raw IL action violated an actuation bound or an obstacle
    /// half-space and was projected back into the feasible set).
    SafetyProjections,
    /// Served frames whose BEV image repeated, bit for bit, the one
    /// their session last sent through the CNN, and which reused that
    /// inference instead of joining the IL micro-batch.
    IlMemoHits,
}

/// Number of [`Counter`] variants (the fixed counter-array length).
pub const NUM_COUNTERS: usize = 29;

const COUNTER_NAMES: [&str; NUM_COUNTERS] = [
    "frames",
    "il_frames",
    "co_frames",
    "hsa_switches",
    "mpc_solves",
    "scp_passes",
    "admm_iterations",
    "symbolic_cache_hits",
    "symbolic_rebuilds",
    "reg_bumps",
    "cold_restarts",
    "numerical_errors",
    "safe_brakes",
    "emergency_brakes",
    "episodes",
    "successes",
    "collisions",
    "timeouts",
    "serve_sessions",
    "il_batches",
    "co_admitted",
    "co_shed",
    "serve_snapshots",
    "serve_restores",
    "serve_evictions",
    "gear_reversals",
    "weight_swaps",
    "safety_projections",
    "il_memo_hits",
];

impl Counter {
    /// The snake_case name used in reports and snapshots.
    pub fn name(self) -> &'static str {
        COUNTER_NAMES[self as usize]
    }
}

/// Histogram series recorded by the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Series {
    /// Whole-frame policy latency (seconds). Wall-clock.
    FrameTotal = 0,
    /// Perception stage latency (seconds). Wall-clock.
    Perception,
    /// IL forward-pass latency (seconds). Wall-clock.
    IlForward,
    /// HSA update latency (seconds). Wall-clock.
    HsaUpdate,
    /// CO solve latency — planning + MPC (seconds). Wall-clock.
    CoSolve,
    /// ADMM iterations per MPC solve. Deterministic.
    AdmmPerSolve,
    /// SCP passes per MPC solve. Deterministic.
    ScpPerSolve,
    /// Rows per micro-batched IL pass in the serving engine.
    /// Load-dependent (arrival timing decides batch composition).
    IlBatchSize,
    /// CO lane queue depth observed at admission. Load-dependent.
    CoQueueDepth,
    /// IL-lane frame latency in the serving engine, request receipt to
    /// reply (seconds). Wall-clock.
    ServeIlLane,
    /// CO-lane frame latency, request receipt to reply after the worker
    /// solve or shed (seconds). Wall-clock.
    ServeCoLane,
    /// Magnitude of a safety-projection clip: the command-space distance
    /// between the raw IL action and its projection onto the feasible
    /// set, recorded only on frames the projection actually clipped.
    /// A pure function of the seeded computation — deterministic.
    SafetyClipMag,
    /// Rows in one serving-engine shard tick, observed once per tick.
    /// Load-dependent (arrival timing decides what a tick drains).
    ServeTickRows,
    /// Microseconds a shard waits on its tick helpers after its own
    /// claims on a tick's units run out, observed once per tick (about
    /// 0 on a shard without helpers). Wall-clock.
    ServeTickJoinWait,
}

/// Number of [`Series`] variants (the fixed histogram-array length).
pub const NUM_SERIES: usize = 14;

impl Series {
    /// Whether the series holds wall-clock timings or load-dependent
    /// serving content. These series are excluded from
    /// [`Metrics::deterministic_eq`]: their content legitimately differs
    /// between runs (and, for the serving series, between schedulings).
    pub fn is_timing(self) -> bool {
        matches!(
            self,
            Series::FrameTotal
                | Series::Perception
                | Series::IlForward
                | Series::HsaUpdate
                | Series::CoSolve
                | Series::IlBatchSize
                | Series::CoQueueDepth
                | Series::ServeIlLane
                | Series::ServeCoLane
                | Series::ServeTickRows
                | Series::ServeTickJoinWait
        )
    }

    fn all() -> [Series; NUM_SERIES] {
        [
            Series::FrameTotal,
            Series::Perception,
            Series::IlForward,
            Series::HsaUpdate,
            Series::CoSolve,
            Series::AdmmPerSolve,
            Series::ScpPerSolve,
            Series::IlBatchSize,
            Series::CoQueueDepth,
            Series::ServeIlLane,
            Series::ServeCoLane,
            Series::SafetyClipMag,
            Series::ServeTickRows,
            Series::ServeTickJoinWait,
        ]
    }
}

/// Accumulated counters and histograms.
///
/// The storage (two fixed-length `Vec`s) is allocated once at
/// construction; [`Metrics::add`] and [`Metrics::observe`] never
/// allocate. Merging ([`Metrics::merge`]) is element-wise, so merging
/// per-episode metrics in episode order gives the same result at every
/// parallelism — integer content exactly, floating sums up to the one
/// fixed association order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    counters: Vec<u64>,
    series: Vec<Histogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Empty metrics with the fixed storage allocated.
    pub fn new() -> Self {
        Metrics {
            counters: vec![0; NUM_COUNTERS],
            series: (0..NUM_SERIES).map(|_| Histogram::new()).collect(),
        }
    }

    /// Increments a counter by `n`.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] += n;
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Records an observation into a series histogram.
    pub fn observe(&mut self, s: Series, v: f64) {
        self.series[s as usize].record(v);
    }

    /// The histogram of a series.
    pub fn series(&self, s: Series) -> &Histogram {
        &self.series[s as usize]
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0) && self.series.iter().all(|h| h.count() == 0)
    }

    /// Adds another metrics set into this one (element-wise).
    pub fn merge(&mut self, other: &Metrics) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.series.iter_mut().zip(&other.series) {
            a.merge(b);
        }
    }

    /// Compares only the deterministic content: all counters plus the
    /// non-timing ([`Series::is_timing`]) histograms. Two runs of the
    /// same seeded batch must agree under this comparison at any
    /// parallelism; the wall-clock series are exempt.
    pub fn deterministic_eq(&self, other: &Metrics) -> bool {
        self.counters == other.counters
            && Series::all()
                .into_iter()
                .filter(|s| !s.is_timing())
                .all(|s| self.series(s) == other.series(s))
    }

    /// Name/value pairs of every nonzero counter, for report snapshots.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        (0..NUM_COUNTERS)
            .filter(|&i| self.counters[i] > 0)
            .map(|i| (COUNTER_NAMES[i].to_string(), self.counters[i]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let mut m = Metrics::new();
        assert!(m.is_empty());
        m.add(Counter::Frames, 3);
        m.add(Counter::MpcSolves, 2);
        assert_eq!(m.counter(Counter::Frames), 3);
        let snap = m.counter_snapshot();
        assert_eq!(
            snap,
            vec![("frames".to_string(), 3), ("mpc_solves".to_string(), 2)]
        );
        assert!(!m.is_empty());
    }

    #[test]
    fn counter_names_cover_every_variant() {
        // a name lookup on the last variant proves the array length
        assert_eq!(Counter::IlMemoHits.name(), "il_memo_hits");
        assert_eq!(Counter::SafetyProjections.name(), "safety_projections");
        assert_eq!(Counter::WeightSwaps.name(), "weight_swaps");
        assert_eq!(Counter::GearReversals.name(), "gear_reversals");
        assert_eq!(Counter::ServeEvictions.name(), "serve_evictions");
        assert_eq!(Counter::ServeSnapshots.name(), "serve_snapshots");
        assert_eq!(Counter::CoShed.name(), "co_shed");
        assert_eq!(Counter::Timeouts.name(), "timeouts");
        assert_eq!(Counter::Frames.name(), "frames");
    }

    #[test]
    fn serving_series_are_exempt_from_deterministic_eq() {
        let mut a = Metrics::new();
        let b = Metrics::new();
        a.observe(Series::IlBatchSize, 8.0);
        a.observe(Series::CoQueueDepth, 3.0);
        a.observe(Series::ServeIlLane, 1e-4);
        a.observe(Series::ServeCoLane, 2e-3);
        a.observe(Series::ServeTickRows, 32.0);
        a.observe(Series::ServeTickJoinWait, 40.0);
        assert!(a.deterministic_eq(&b), "load-dependent content is exempt");
        a.observe(Series::SafetyClipMag, 0.25);
        assert!(
            !a.deterministic_eq(&b),
            "safety clip magnitudes are deterministic content"
        );
        let mut a = Metrics::new();
        a.add(Counter::CoShed, 1);
        assert!(!a.deterministic_eq(&b), "shed counters are not");
    }

    #[test]
    fn merge_is_elementwise_and_order_independent() {
        let mut a = Metrics::new();
        a.add(Counter::AdmmIterations, 100);
        a.observe(Series::AdmmPerSolve, 50.0);
        let mut b = Metrics::new();
        b.add(Counter::AdmmIterations, 40);
        b.observe(Series::AdmmPerSolve, 90.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counter(Counter::AdmmIterations), 140);
        assert!(ab.deterministic_eq(&ba));
    }

    #[test]
    fn deterministic_eq_ignores_timing_series() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.observe(Series::FrameTotal, 0.001);
        b.observe(Series::FrameTotal, 0.007);
        assert!(a.deterministic_eq(&b), "timing content must be exempt");
        a.observe(Series::AdmmPerSolve, 10.0);
        assert!(!a.deterministic_eq(&b), "work content must not be");
    }

    #[test]
    fn serde_roundtrip() {
        let mut m = Metrics::new();
        m.add(Counter::Episodes, 1);
        m.observe(Series::CoSolve, 0.0003);
        let json = serde_json::to_string(&m).unwrap();
        let back: Metrics = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
