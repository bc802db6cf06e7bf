//! Frame-level telemetry for the iCOIL stack.
//!
//! The paper's central claim is a latency/reliability trade (IL ~75 Hz vs
//! CO ~18 Hz, Fig. 5) decided per frame by runtime signals — evaluating
//! that trade honestly needs latency *distributions* and solver health
//! counters, not ad-hoc stopwatch means. This crate provides them with
//! the same discipline as the inference hot path (`InferBuffers`): **no
//! allocation on the record path after warm-up, and zero formatting work
//! unless a trace sink is installed**.
//!
//! Three layers:
//!
//! * [`Metrics`] — fixed arrays of [`Counter`]s and log-spaced-bucket
//!   [`Histogram`]s ([`Series`]). Recording is a couple of array writes;
//!   merging is element-wise and order-independent for the deterministic
//!   content, so per-episode metrics merged across `run_batch_with`
//!   workers are bit-identical at any parallelism.
//! * [`Recorder`] — owned by a policy (one per worker thread, hence
//!   lock-free), accumulates [`Metrics`] always and formats NDJSON trace
//!   events only when the installed [`Sink`] is enabled.
//! * [`Sink`] — where trace lines go: [`NullSink`] (the default; every
//!   event check is one boolean), [`NdjsonSink`] (buffered file/writer),
//!   [`MemorySink`] (tests and snapshots).
//!
//! Timing histograms are wall-clock and therefore *not* deterministic;
//! [`Metrics::deterministic_eq`] compares only the content that must be
//! bit-identical across runs (all counters plus work histograms such as
//! ADMM iterations per solve).

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod hist;
mod metrics;
mod recorder;

pub use hist::Histogram;
pub use metrics::{Counter, Metrics, Series, NUM_COUNTERS, NUM_SERIES};
pub use recorder::{
    EpisodeEvent, FrameEvent, MemorySink, NdjsonSink, NullSink, Recorder, Sink, SolveEvent,
};

/// Returns a finite stand-in for `v`: `NaN` maps to `0.0`, `±∞` to
/// `±f64::MAX`. Finite values pass through unchanged.
pub fn finite_or_clamp(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else if v == f64::INFINITY {
        f64::MAX
    } else if v == f64::NEG_INFINITY {
        f64::MIN
    } else {
        v
    }
}

/// Clamps `*v` to a finite value in place ([`finite_or_clamp`]) and sets
/// `*flag` when a repair was needed. JSON writers run every serialized
/// float through this so emitted reports re-parse with finite numbers.
pub fn sanitize_field(v: &mut f64, flag: &mut bool) {
    if !v.is_finite() {
        *flag = true;
        *v = finite_or_clamp(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_clamping() {
        assert_eq!(finite_or_clamp(1.5), 1.5);
        assert_eq!(finite_or_clamp(f64::NAN), 0.0);
        assert_eq!(finite_or_clamp(f64::INFINITY), f64::MAX);
        assert_eq!(finite_or_clamp(f64::NEG_INFINITY), f64::MIN);
    }

    #[test]
    fn sanitize_sets_flag_only_on_repair() {
        let mut flag = false;
        let mut v = 2.0;
        sanitize_field(&mut v, &mut flag);
        assert!(!flag);
        let mut bad = f64::NAN;
        sanitize_field(&mut bad, &mut flag);
        assert!(flag);
        assert_eq!(bad, 0.0);
    }
}
