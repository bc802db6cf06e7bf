//! Fixed log-spaced-bucket histogram.

use serde::{Deserialize, Serialize};

/// Number of buckets; fixed so merging is element-wise.
const BUCKETS: usize = 128;
/// Lower edge of bucket 0. Values below land in bucket 0.
const MIN_VALUE: f64 = 1e-7;
/// Upper edge of the last bucket. Values at or above land in the last
/// bucket.
const MAX_VALUE: f64 = 1e5;

/// `ln` of the per-bucket growth factor `(MAX/MIN)^(1/BUCKETS)`; 12
/// decades over 128 buckets is a ~1.24× resolution, i.e. quantiles are
/// exact to about ±11 %.
fn ln_growth() -> f64 {
    (MAX_VALUE / MIN_VALUE).ln() / BUCKETS as f64
}

/// A histogram with logarithmically spaced buckets over `[1e-7, 1e5)`,
/// sized for seconds-scale latencies and iteration counts alike.
///
/// Recording is branch-plus-array-write — no allocation ever happens on
/// the record path (the bucket storage is allocated once at
/// construction). Merging adds bucket counts element-wise, so a merge of
/// per-episode histograms is independent of merge order for the integer
/// content (`counts`, `count`) and reassociates only the floating `sum`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (allocates the fixed bucket storage).
    ///
    /// The empty-state `min`/`max` sentinels are `f64::MAX`/`f64::MIN`
    /// rather than infinities so every field stays finite and the struct
    /// survives a JSON round trip (recorded values are clamped finite,
    /// so the sentinels behave identically to ±∞).
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::MAX,
            max: f64::MIN,
        }
    }

    fn bucket(v: f64) -> usize {
        if v < MIN_VALUE {
            return 0;
        }
        let idx = ((v / MIN_VALUE).ln() / ln_growth()) as usize;
        idx.min(BUCKETS - 1)
    }

    /// Geometric midpoint of bucket `b` (the quantile estimate for
    /// values that landed there).
    fn midpoint(b: usize) -> f64 {
        MIN_VALUE * ((b as f64 + 0.5) * ln_growth()).exp()
    }

    /// Records one observation. Non-finite values are counted into the
    /// boundary buckets without poisoning `sum`.
    pub fn record(&mut self, v: f64) {
        let v = if v.is_finite() {
            v
        } else {
            crate::finite_or_clamp(v)
        };
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded observations (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded observation (`0.0` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded observation (`0.0` when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) estimated from the bucket
    /// boundaries, clamped to the recorded `[min, max]`. Returns `0.0`
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // rank of the target observation (1-based, nearest-rank rule)
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::midpoint(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Adds another histogram's observations into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let mut h = Histogram::new();
        // 100 observations spread over two decades
        for i in 1..=100 {
            h.record(i as f64 * 1e-4);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // log-bucket resolution is ~±11 %
        assert!((p50 / 5e-3 - 1.0).abs() < 0.15, "p50 = {p50}");
        assert!((p99 / 9.9e-3 - 1.0).abs() < 0.15, "p99 = {p99}");
        assert!(p50 < p99);
        assert!((h.mean() - 5.05e-3).abs() < 1e-5);
    }

    #[test]
    fn out_of_range_and_nonfinite_values_are_absorbed() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(1e12);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 5);
        assert!(h.sum().is_finite());
        assert!(h.quantile(0.5).is_finite());
    }

    #[test]
    fn merge_is_order_independent_on_integer_content() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..50 {
            a.record(1e-3 * (1.0 + i as f64));
            b.record(2e-2 * (1.0 + i as f64));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.count(), ba.count());
        assert_eq!(ab.counts, ba.counts);
        assert_eq!(ab.quantile(0.95), ba.quantile(0.95));
    }

    #[test]
    fn serde_roundtrip() {
        let mut h = Histogram::new();
        h.record(0.01);
        h.record(0.02);
        let json = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }
}
