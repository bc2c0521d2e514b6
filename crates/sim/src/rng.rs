//! Seeded random sampling utilities.
//!
//! The workload generators need a handful of distributions (zipf, geometric,
//! bounded uniform). To stay within the approved dependency set we
//! implement them here directly on top of [`rand`], with exact inverse-CDF
//! methods — no approximations that would complicate testing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic simulation RNG.
///
/// Thin wrapper around [`StdRng`] that carries the distribution helpers the
/// workload generators need. Two `SimRng`s built from the same seed produce
/// identical streams.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform draw in `[low, high)`.
    ///
    /// # Panics
    /// Panics if `low >= high`.
    pub fn uniform_u64(&mut self, low: u64, high: u64) -> u64 {
        self.inner.gen_range(low..high)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.inner.gen::<f64>() < p.clamp(0.0, 1.0)
    }

    /// Geometric draw: the number of failures before the first success of a
    /// Bernoulli(`p`) process, via inverse CDF. `p` must be in `(0, 1]`.
    ///
    /// Used for the paper's *Bernoulli* workload, where the probability a
    /// query reaches at least `n` GB back from the end of the table is
    /// `(19/20)^n`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(
            p > 0.0 && p <= 1.0,
            "geometric requires p in (0,1], got {p}"
        );
        if p >= 1.0 {
            return 0;
        }
        let u = self.open_unit();
        crate::num::saturating_u64((u.ln() / (1.0 - p).ln()).floor())
    }

    /// Uniform draw in `(0, 1)` — never exactly zero, safe for `ln`.
    fn open_unit(&mut self) -> f64 {
        loop {
            let u = self.inner.gen::<f64>();
            if u > 0.0 {
                return u;
            }
        }
    }
}

/// Precomputed Zipf CDF over `n` ranks with exponent `s`.
///
/// Sampling is a binary search on the CDF: O(log n) per draw after O(n)
/// setup, exact to floating-point rounding.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Builds a table for ranks `0..n` with exponent `s >= 0`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "zipf over zero ranks");
        let mut cdf = Vec::with_capacity(crate::num::usize_from(n));
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfTable { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True iff the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.uniform_f64();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1_000_000), b.uniform_u64(0, 1_000_000));
        }
    }

    #[test]
    fn geometric_mean_matches_theory() {
        let mut rng = SimRng::seed_from_u64(42);
        let p = 0.05; // mean failures = (1-p)/p = 19
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.geometric(p)).sum();
        let mean = total as f64 / n as f64;
        let expected = (1.0 - p) / p;
        assert!(
            (mean - expected).abs() < expected * 0.05,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn geometric_p_one_is_zero() {
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(rng.geometric(1.0), 0);
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let mut rng = SimRng::seed_from_u64(5);
        let table = ZipfTable::new(100, 1.1);
        let mut counts = vec![0u64; 100];
        for _ in 0..20_000 {
            counts[usize::try_from(table.sample(&mut rng)).unwrap()] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        assert_eq!(counts.iter().sum::<u64>(), 20_000);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let mut rng = SimRng::seed_from_u64(6);
        let table = ZipfTable::new(4, 0.0);
        let mut counts = vec![0u64; 4];
        for _ in 0..40_000 {
            counts[usize::try_from(table.sample(&mut rng)).unwrap()] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SimRng::seed_from_u64(2);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        // Out-of-range p is clamped rather than panicking.
        assert!(rng.bernoulli(2.0));
        assert!(!rng.bernoulli(-1.0));
    }
}
