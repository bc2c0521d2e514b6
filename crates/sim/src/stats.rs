//! Streaming statistics used by the experiment harness.
//!
//! * [`Percentiles`] — exact percentile extraction from a retained sample
//!   (our experiments retain every query latency, as the paper's do).
//! * [`TimeSeries`] — fixed-width time-bucket accumulator for the
//!   throughput-over-time plots (paper Fig. 11).

use crate::time::{SimDuration, SimTime};

/// Exact percentiles over a retained sample.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean of the observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The `p`-th percentile (`0.0..=100.0`) by the nearest-rank method;
    /// `None` if empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = crate::num::saturating_usize(((p / 100.0) * self.samples.len() as f64).ceil());
        let idx = rank.saturating_sub(1).min(self.samples.len() - 1);
        Some(self.samples[idx])
    }

    /// Maximum observation; `None` if empty.
    pub fn max(&mut self) -> Option<f64> {
        self.percentile(100.0)
    }
}

/// Accumulates a quantity into fixed-width time buckets.
///
/// Used for throughput-over-time reporting: each completed scan adds its
/// tuple count at its completion time; [`TimeSeries::buckets`] then yields
/// `(bucket_start, total)` rows.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    width: SimDuration,
    buckets: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    /// Panics if `width` is zero.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "time series bucket width must be nonzero");
        TimeSeries {
            width,
            buckets: Vec::new(),
        }
    }

    /// Adds `amount` at time `at`.
    pub fn add(&mut self, at: SimTime, amount: f64) {
        let idx = crate::num::usize_from(at.as_nanos() / self.width.as_nanos());
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += amount;
    }

    /// Bucket width.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    /// Iterates `(bucket_start_time, total)` pairs, including empty buckets
    /// up to the last populated one.
    pub fn buckets(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        let width = self.width;
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &v)| (SimTime::from_nanos(i as u64 * width.as_nanos()), v))
    }

    /// Total across all buckets.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut p = Percentiles::new();
        for x in 1..=100 {
            p.push(x as f64);
        }
        assert_close(p.percentile(50.0).unwrap(), 50.0);
        assert_close(p.percentile(95.0).unwrap(), 95.0);
        assert_close(p.percentile(99.0).unwrap(), 99.0);
        assert_close(p.percentile(100.0).unwrap(), 100.0);
        assert_close(p.percentile(0.0).unwrap(), 1.0);
        assert_close(p.mean(), 50.5);
    }

    #[test]
    fn percentiles_empty_is_none() {
        let mut p = Percentiles::new();
        assert_eq!(p.percentile(50.0), None);
        assert_eq!(p.max(), None);
        assert_close(p.mean(), 0.0);
    }

    #[test]
    fn percentiles_interleaved_push_and_query() {
        let mut p = Percentiles::new();
        p.push(10.0);
        assert_close(p.percentile(50.0).unwrap(), 10.0);
        p.push(1.0);
        // Re-sorts after the new push.
        assert_close(p.percentile(0.0).unwrap(), 1.0);
    }

    #[test]
    fn timeseries_buckets_accumulate() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(60));
        ts.add(SimTime::from_secs(10), 5.0);
        ts.add(SimTime::from_secs(59), 5.0);
        ts.add(SimTime::from_secs(60), 7.0);
        ts.add(SimTime::from_secs(200), 1.0);
        let rows: Vec<(u64, f64)> = ts
            .buckets()
            .map(|(t, v)| (t.as_nanos() / 1_000_000_000, v))
            .collect();
        assert_eq!(rows, vec![(0, 10.0), (60, 7.0), (120, 0.0), (180, 1.0)]);
        assert_close(ts.total(), 18.0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn timeseries_zero_width_panics() {
        let _ = TimeSeries::new(SimDuration::ZERO);
    }
}
