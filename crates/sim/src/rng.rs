//! The workspace's one seeded random stream.
//!
//! [`SimRng`] is xoshiro256++ seeded through SplitMix64, with the samplers
//! the workload generators need (bounded uniform, unit float, Bernoulli,
//! geometric) and [`ZipfTable`] on top. The samplers are exact: integers are
//! drawn by rejection, so they carry no modulo bias, and the geometric draw
//! inverts its CDF. Every workload, fault schedule and property-test case is
//! drawn from this stream, so two runs with one seed see the same numbers.

/// A deterministic simulation RNG: xoshiro256++ seeded through SplitMix64.
///
/// Two `SimRng`s built from the same seed produce identical streams. Not
/// cryptographically secure: it drives simulation and test inputs only.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the full state, per the
        // xoshiro authors' recommendation.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64-bit word of the xoshiro256++ stream.
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, span)` by rejection, so the result is exact.
    fn uniform_u64_below(&mut self, span: u64) -> u64 {
        // Largest multiple of `span` that fits in u64; draws at or above it
        // are rejected to remove modulo bias.
        let zone = u64::MAX - u64::MAX.wrapping_rem(span);
        loop {
            let draw = self.next_u64();
            if draw < zone {
                return draw.wrapping_rem(span);
            }
        }
    }

    /// Uniform draw in `[low, high)`.
    ///
    /// # Panics
    /// Panics if `low >= high`.
    pub fn uniform_u64(&mut self, low: u64, high: u64) -> u64 {
        debug_assert!(low < high, "uniform_u64 over the empty range {low}..{high}");
        // An empty or inverted range leaves a zero span, and the remainder
        // by zero panics in every build.
        low + self.uniform_u64_below(high.saturating_sub(low))
    }

    /// Uniform draw in `[low, high)` over indices: the words and values of
    /// [`uniform_u64`](Self::uniform_u64) over the same range.
    ///
    /// # Panics
    /// Panics if `low >= high`.
    pub fn uniform_usize(&mut self, low: usize, high: usize) -> usize {
        crate::num::usize_from(self.uniform_u64(low as u64, high as u64))
    }

    /// Uniform draw in `[0, 1)`: the top 53 bits of one word.
    pub fn uniform_f64(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let mantissa = (self.next_u64() >> 11) as f64;
        mantissa * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform_f64() < p.clamp(0.0, 1.0)
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
            let u = self.uniform_f64();
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
            assert_eq!(a.uniform_f64().to_bits(), b.uniform_f64().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..16)
            .filter(|_| a.uniform_u64(0, u64::MAX) == b.uniform_u64(0, u64::MAX))
            .count();
        assert!(same < 4, "streams for different seeds look identical");
    }

    #[test]
    fn uniform_draws_respect_bounds() {
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!((3..17).contains(&rng.uniform_u64(3, 17)));
            assert!((5..10).contains(&rng.uniform_usize(5, 10)));
        }
    }

    #[test]
    fn uniform_draws_cover_every_value() {
        let mut rng = SimRng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.uniform_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some values never drawn: {seen:?}");
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = SimRng::seed_from_u64(11);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&rng.uniform_f64()));
        }
    }

    /// The first eight draws of every sampler for seeds 1 and 42. Every
    /// workload generator draws from these streams, so a change to the
    /// generator, its seeding or a sampler fails here first.
    #[test]
    fn streams_are_pinned() {
        type Sampler = fn(&mut SimRng) -> String;
        let samplers: [Sampler; 5] = [
            |r| r.uniform_u64(0, 1000).to_string(),
            |r| r.uniform_u64(3, 17).to_string(),
            |r| format!("{:?}", r.uniform_f64()),
            |r| r.geometric(0.05).to_string(),
            |r| r.bernoulli(0.3).to_string(),
        ];
        for (seed, want) in [(1, GOLDEN_SEED_1), (42, GOLDEN_SEED_42)] {
            for (sample, want) in samplers.iter().zip(want) {
                let mut rng = SimRng::seed_from_u64(seed);
                let got: Vec<String> = (0..8).map(|_| sample(&mut rng)).collect();
                assert_eq!(got.join(" "), want, "seed {seed}");
            }
        }
    }

    const GOLDEN_SEED_1: [&str; 5] = [
        "387 965 744 470 780 485 223 345",
        "4 12 7 3 7 10 4 10",
        "0.8116121588818848 0.7471047161582187 0.10015090353378375 0.7462168706168104 \
         0.18467857211916938 0.5904788847320792 0.9868740786414067 0.5234168639903058",
        "4 5 44 5 32 10 0 12",
        "false false true false true false false false",
    ];
    const GOLDEN_SEED_42: [&str; 5] = [
        "951 753 100 464 331 965 78 430",
        "6 10 15 13 12 10 3 5",
        "0.8143051451229099 0.3188210400616611 0.9838941681774888 0.7011355981347556 \
         0.793504489691729 0.5880984664675596 0.1253524420627421 0.6051224486571726",
        "4 22 0 6 4 10 40 9",
        "false false false false false false true false",
    ];

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
