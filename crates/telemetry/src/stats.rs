//! The plain (single-owner) duration accumulator and the histogram
//! bucket layout.
//!
//! [`DurationStats`] is the online mean/min/max accumulator Table IV's
//! per-epoch allocation runtimes are reported through (it used to live
//! in `mosaic_metrics::timing`; a re-export keeps those callers
//! compiling unchanged). Every shared [`crate::Recorder`] histogram
//! buckets its observations into the fixed log decades of
//! [`BUCKET_BOUNDS_NS`].

use std::time::Duration;

/// Upper bucket bounds in nanoseconds (inclusive, Prometheus `le`
/// semantics): one decade per bucket from 1µs to 10s. Observations
/// above the last bound land in the implicit overflow bucket, so every
/// histogram carries [`BUCKETS`] counts.
pub const BUCKET_BOUNDS_NS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Number of buckets per histogram: every bound plus the overflow
/// bucket.
pub const BUCKETS: usize = BUCKET_BOUNDS_NS.len() + 1;

/// The bucket an observation of `ns` nanoseconds falls into
/// (`ns <= bound`, overflow last).
pub(crate) fn bucket_index(ns: u64) -> usize {
    BUCKET_BOUNDS_NS
        .iter()
        .position(|&bound| ns <= bound)
        .unwrap_or(BUCKET_BOUNDS_NS.len())
}

/// Online mean/min/max accumulator for durations, used to report the
/// per-epoch average runtimes of Table IV.
#[derive(Debug, Clone, Default)]
pub struct DurationStats {
    count: u64,
    total: Duration,
    min: Option<Duration>,
    max: Option<Duration>,
}

impl DurationStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, d: Duration) {
        self.count += 1;
        self.total += d;
        self.min = Some(self.min.map_or(d, |m| m.min(d)));
        self.max = Some(self.max.map_or(d, |m| m.max(d)));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Mean observation, zero if empty.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count as u32
        }
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<Duration> {
        self.min
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<Duration> {
        self.max
    }

    /// Mean in seconds as `f64` — the unit of Table IV.
    pub fn mean_seconds(&self) -> f64 {
        self.mean().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_stats_accumulate() {
        let mut s = DurationStats::new();
        assert_eq!(s.mean(), Duration::ZERO);
        s.record(Duration::from_millis(10));
        s.record(Duration::from_millis(30));
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), Duration::from_millis(20));
        assert_eq!(s.min(), Some(Duration::from_millis(10)));
        assert_eq!(s.max(), Some(Duration::from_millis(30)));
        assert!((s.mean_seconds() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn bucket_bounds_are_inclusive_decades() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1_000), 0);
        assert_eq!(bucket_index(1_001), 1);
        assert_eq!(bucket_index(10_000_000_000), BUCKET_BOUNDS_NS.len() - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKET_BOUNDS_NS.len());
    }
}
