//! Log-bucketed histograms of unsigned samples.
//!
//! Buckets are powers of two: bucket 0 holds the value 0 and bucket `b ≥ 1`
//! holds `2^(b-1) ..= 2^b - 1` (the values whose bit length is `b`), so a
//! `u64` sample always lands in one of 65 buckets. Recording is O(1) with no
//! allocation, and quantiles are estimated from the cumulative bucket counts
//! (exact for the maximum, within one power of two otherwise) — the same
//! scheme HdrHistogram-style recorders use for latency tracking, reduced to
//! what the pipeline needs.

use crate::HistogramSnapshot;

/// Number of buckets: one for zero plus one per possible bit length.
pub const NUM_BUCKETS: usize = 65;

/// A log-bucketed histogram of `u64` samples (see the module docs for the
/// bucket layout).
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field("nonzero_buckets", &self.nonzero_buckets().count())
            .finish()
    }
}

/// The bucket a value falls in: 0 for the value 0, else its bit length.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The inclusive `(low, high)` value range of bucket `index`; an index past
/// the last bucket reads as the last bucket.
fn bucket_bounds(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 0),
        1..=63 => (1 << (index - 1), (1 << index) - 1),
        _ => (1 << 63, u64::MAX),
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other`, as if each had been recorded here.
    /// Counts and the sum saturate, as [`record`](Self::record)'s do, so
    /// the result does not depend on the order histograms are merged in.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (slot, &c) in self.buckets.iter_mut().zip(&other.buckets) {
            *slot = slot.saturating_add(c);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `(bucket_index, sample_count)` pairs of every populated bucket,
    /// in ascending bucket order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// The histogram with these populated `(bucket_index, count)` pairs, sum
    /// and maximum, or `None` unless every index is in range, no count
    /// overflows, `max` lies in the highest populated bucket (bucket 0 when
    /// there is none), and `sum` lies between the least and the most the
    /// buckets' samples can add up to (both saturating, as
    /// [`record`](Self::record) does).
    pub(crate) fn from_parts(buckets: &[(u64, u64)], sum: u64, max: u64) -> Option<Histogram> {
        let mut h = Histogram {
            sum,
            max,
            ..Histogram::default()
        };
        let (mut least, mut most) = (0u64, 0u64);
        for &(index, count) in buckets {
            let index = usize::try_from(index).ok()?;
            let slot = h.buckets.get_mut(index)?;
            *slot = slot.checked_add(count)?;
            h.count = h.count.checked_add(count)?;
            let (low, high) = bucket_bounds(index);
            least = least.saturating_add(count.saturating_mul(low));
            most = most.saturating_add(count.saturating_mul(high));
        }
        let top = h.nonzero_buckets().last().map_or(0, |(i, _)| i);
        (bucket_index(max) == top && (least..=most).contains(&sum)).then_some(h)
    }

    /// The histogram's serialized form, under the metric name `name`.
    pub(crate) fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_owned(),
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.quantile(50.0).unwrap_or(0),
            p95: self.quantile(95.0).unwrap_or(0),
            p99: self.quantile(99.0).unwrap_or(0),
            buckets: self.nonzero_buckets().map(|(i, c)| (i as u64, c)).collect(),
        }
    }

    /// The `p`-th percentile (`0.0..=100.0`) by nearest rank over the bucket
    /// counts: the inclusive upper bound of the bucket holding that rank,
    /// clamped to the exact maximum. `None` if empty.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let target_rank = ((p / 100.0) * self.count as f64).ceil().max(1.0);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(c);
            if cumulative as f64 >= target_rank {
                return Some(bucket_bounds(i).1.min(self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(255), 8);
        assert_eq!(bucket_index(256), 9);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1 << 63), 64);
        // Every bucket's bounds agree with bucket_index at both ends.
        for b in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(bucket_index(lo), b, "low bound of bucket {b}");
            assert_eq!(bucket_index(hi), b, "high bound of bucket {b}");
            assert!(lo <= hi);
        }
        // Buckets tile the u64 range with no gaps.
        for b in 1..NUM_BUCKETS {
            assert_eq!(bucket_bounds(b - 1).1.wrapping_add(1), bucket_bounds(b).0);
        }
    }

    #[test]
    fn record_tracks_count_sum_max() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1011);
        assert_eq!(h.max(), 1000);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        // 0 -> bucket 0; 1 -> bucket 1; 5,5 -> bucket 3; 1000 -> bucket 10.
        assert_eq!(buckets, vec![(0, 1), (1, 1), (3, 2), (10, 1)]);
    }

    #[test]
    fn quantiles_bracket_the_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // p50 rank is 500, bucket 9 (256..=511): estimate 511.
        assert_eq!(h.quantile(50.0), Some(511));
        // p100 is the exact max.
        assert_eq!(h.quantile(100.0), Some(1000));
        // p99 rank is 990, bucket 10 (512..=1023) clamped to max 1000.
        assert_eq!(h.quantile(99.0), Some(1000));
        // p0 clamps the rank to 1: bucket 1 holds value 1.
        assert_eq!(h.quantile(0.0), Some(1));
    }

    #[test]
    fn quantile_of_empty_is_none() {
        assert_eq!(Histogram::new().quantile(50.0), None);
    }

    #[test]
    fn quantile_single_sample() {
        let mut h = Histogram::new();
        h.record(777);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.quantile(p), Some(777));
        }
    }

    #[test]
    fn merging_equals_recording_every_sample_in_one() {
        let (a, b) = ([0u64, 3, 900], [3u64, 70_000, u64::MAX]);
        let mut one = Histogram::new();
        let (mut left, mut right) = (Histogram::new(), Histogram::new());
        for v in a {
            one.record(v);
            left.record(v);
        }
        for v in b {
            one.record(v);
            right.record(v);
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, one);
        right.merge(&left);
        assert_eq!(right, one, "the merge order does not matter");
    }

    #[test]
    fn sum_saturates_instead_of_overflowing() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }
}
