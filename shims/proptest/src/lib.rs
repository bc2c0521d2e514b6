//! Offline stand-in for the subset of the [`proptest` 1.x](https://docs.rs/proptest)
//! API this workspace uses.
//!
//! The build environment has no network access to crates.io, so the workspace
//! vendors a minimal property-testing harness with the same surface syntax:
//! the [`proptest!`] macro, [`prop_assert!`] / [`prop_assert_eq!`], the
//! [`strategy::Strategy`] trait with `prop_map` / `prop_flat_map`, range
//! strategies over `u8`, `u32`, `u64`, `usize` and `f64`, tuple strategies,
//! and [`collection::vec`]. Every case is drawn from
//! [`nashdb_sim::SimRng`], the workspace's one seeded stream.
//!
//! Differences from real proptest, deliberately accepted:
//! - **No shrinking.** A failing case reports the generated input; it is not
//!   minimized.
//! - **Fixed derived seeds.** Each test function derives its case seeds from
//!   a hash of its own name, so runs are fully deterministic. Set
//!   `PROPTEST_CASES` to change the case count (default 64).

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use nashdb_sim::SimRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree: a strategy is just a
    /// deterministic sampler from an RNG stream.
    pub trait Strategy {
        /// The type of values this strategy generates.
        type Value;

        /// Draws one value from `rng`.
        fn sample(&self, rng: &mut SimRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then samples from the strategy `f` builds
        /// from it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut SimRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Strategy returned by [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;

        fn sample(&self, rng: &mut SimRng) -> Self::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                #[allow(clippy::cast_possible_truncation)]
                fn sample(&self, rng: &mut SimRng) -> $t {
                    rng.uniform_u64(self.start as u64, self.end as u64) as $t
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                #[allow(clippy::cast_possible_truncation)]
                fn sample(&self, rng: &mut SimRng) -> $t {
                    rng.uniform_u64(*self.start() as u64, *self.end() as u64 + 1) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u32, u64, usize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut SimRng) -> f64 {
            // May round to `end` for extreme spans; falling back to `start`
            // keeps the half-open contract.
            let v = self.start + (self.end - self.start) * rng.uniform_f64();
            if v >= self.end {
                self.start
            } else {
                v
            }
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut SimRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

pub mod collection {
    //! Strategies for collections.

    use super::strategy::Strategy;
    use nashdb_sim::SimRng;

    /// A length specification: a `usize` range a length is drawn from.
    pub trait SizeRange {
        /// Draws a length from `rng`.
        fn sample_len(&self, rng: &mut SimRng) -> usize;
    }

    impl SizeRange for core::ops::Range<usize> {
        fn sample_len(&self, rng: &mut SimRng) -> usize {
            rng.uniform_usize(self.start, self.end)
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut SimRng) -> usize {
            rng.uniform_usize(*self.start(), *self.end() + 1)
        }
    }

    /// Strategy for `Vec<T>` with element strategy `S` and length range `L`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// Generates a `Vec` whose length is drawn from `len` and whose elements
    /// are drawn from `element`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut SimRng) -> Self::Value {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! The case loop behind [`crate::proptest!`].

    use super::strategy::Strategy;
    use nashdb_sim::SimRng;

    /// Why a single test case failed: the assertion's message.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Builds a failure with the given message.
        #[must_use]
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Per-case result type the bodies of [`crate::proptest!`] return.
    pub type TestCaseResult = Result<(), TestCaseError>;

    fn default_cases() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(64)
    }

    /// FNV-1a over the test name, used to give every test its own stream.
    fn name_seed(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Runs `body` against `cases` inputs sampled from `strat`.
    ///
    /// # Panics
    /// Panics (failing the enclosing `#[test]`) on the first case whose body
    /// returns a [`TestCaseError`] or itself panics.
    pub fn run_cases<S, F>(name: &str, strat: &S, body: F)
    where
        S: Strategy,
        S::Value: core::fmt::Debug,
        F: Fn(S::Value) -> TestCaseResult,
    {
        let cases = default_cases();
        let base = name_seed(name);
        for case in 0..cases {
            let mut rng = SimRng::seed_from_u64(base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let value = strat.sample(&mut rng);
            let shown = format!("{value:?}");
            if let Err(msg) = body(value) {
                // Test-failure machinery: panicking is the contract by which
                // proptest reports a failing case to the harness.
                #[allow(clippy::panic)]
                {
                    panic!("{name}: case {case}/{cases} failed: {msg}\n  input: {shown}")
                }
            }
        }
    }
}

/// Everything a test module needs: the [`strategy::Strategy`] trait,
/// [`test_runner::TestCaseError`] and the macros.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Declares property tests.
///
/// Mirrors real proptest's surface syntax:
///
/// ```ignore
/// proptest! {
///     #[test]
///     fn my_property(x in 0u64..100, v in proptest::collection::vec(0f64..1.0, 1..10)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
///
/// Each declared function becomes a normal `#[test]` that samples inputs and
/// runs the body once per case. Bodies may `return Ok(())` early and use the
/// `prop_assert*` macros exactly as with real proptest.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            #[allow(unreachable_code)]
            fn $name() {
                let strat = ($($strat,)+);
                $crate::test_runner::run_cases(
                    stringify!($name),
                    &strat,
                    |($($arg,)+)| -> $crate::test_runner::TestCaseResult {
                        $body
                        Ok(())
                    },
                );
            }
        )*
    };
}

/// Fails the current case with an optional formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {:?} != {:?}: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use nashdb_sim::SimRng;

    #[test]
    fn vec_strategy_respects_len() {
        let strat = crate::collection::vec(0u64..10, 3..7usize);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = strat.sample(&mut rng);
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn flat_map_threads_dependent_values() {
        let strat = (2usize..8).prop_flat_map(|n| (0..n).prop_map(move |k| (n, k)));
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..200 {
            let (n, k) = strat.sample(&mut rng);
            assert!(k < n);
        }
    }

    /// One seed gives one stream of sampled values, and one test name gives
    /// the same cases on every run.
    #[test]
    fn deterministic_for_fixed_seed() {
        let strat = (
            0u64..u64::MAX,
            -1.0f64..1.0,
            crate::collection::vec(0u32..100, 0..6),
        );
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            let (x, y) = (strat.sample(&mut a), strat.sample(&mut b));
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }

        let run = || {
            let seen = std::cell::RefCell::new(Vec::new());
            crate::test_runner::run_cases("fixed", &strat, |v| {
                seen.borrow_mut().push(format!("{v:?}"));
                Ok(())
            });
            seen.into_inner()
        };
        let first = run();
        assert!(!first.is_empty());
        assert_eq!(first, run());
    }

    /// The values the first cases of one test name draw from a tuple of
    /// every range type the workspace uses and a `vec`. A change to the case
    /// seeding or to a strategy's sampler fails here before it silently
    /// changes what every property test checks.
    #[test]
    fn case_values_are_pinned() {
        let strat = (
            0u8..10,
            0u32..1000,
            0u64..u64::MAX,
            1usize..=9,
            -2.0f64..3.5,
            crate::collection::vec(0u64..5, 1..4),
        );
        let seen = std::cell::RefCell::new(Vec::new());
        crate::test_runner::run_cases("pinned", &strat, |v| {
            seen.borrow_mut().push(format!("{v:?}"));
            Ok(())
        });
        let seen = seen.into_inner();
        assert!(!seen.is_empty());
        for (got, want) in seen.iter().zip(PINNED_CASES) {
            assert_eq!(got, want);
        }
    }

    const PINNED_CASES: [&str; 4] = [
        "(7, 718, 17623489749994580543, 8, 3.3420864612888312, [4])",
        "(5, 21, 2966884724877587722, 9, 1.9913924298211336, [0])",
        "(6, 939, 12961966283101604636, 5, 1.426385068359048, [4, 0])",
        "(3, 30, 4868751590624588375, 3, 0.5379964490052087, [0])",
    ];

    proptest! {
        #[test]
        fn macro_smoke(x in 0u64..50, v in crate::collection::vec(0.0f64..1.0, 1..5usize)) {
            prop_assert!(x < 50);
            prop_assert_eq!(v.len(), v.len());
            if v.is_empty() {
                return Ok(());
            }
            prop_assert!(v.iter().all(|p| (0.0..1.0).contains(p)));
        }
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn failing_property_panics() {
        crate::test_runner::run_cases("always_fails", &(0u64..10), |_| {
            Err(TestCaseError::fail("boom"))
        });
    }
}
