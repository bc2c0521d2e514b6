//! Offline stand-in for the subset of the [`proptest` 1.x](https://docs.rs/proptest)
//! API this workspace uses.
//!
//! The build environment has no network access to crates.io, so the workspace
//! vendors a minimal property-testing harness with the same surface syntax:
//! the [`proptest!`] macro, [`prop_assert!`] / [`prop_assert_eq!`], the
//! [`strategy::Strategy`] trait with `prop_map` / `prop_flat_map`, range and
//! tuple strategies, and [`collection::vec`].
//!
//! Differences from real proptest, deliberately accepted:
//! - **No shrinking.** A failing case reports the generated input; it is not
//!   minimized.
//! - **Fixed derived seeds.** Each test function derives its case seeds from
//!   a hash of its own name, so runs are fully deterministic. Set
//!   `PROPTEST_CASES` to change the case count (default 64).

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use rand::rngs::StdRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree: a strategy is just a
    /// deterministic sampler from an RNG stream.
    pub trait Strategy {
        /// The type of values this strategy generates.
        type Value;

        /// Draws one value from `rng`.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

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

        /// Regenerates until `f` accepts the value (bounded retries).
        fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                whence,
                f,
            }
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

        fn sample(&self, rng: &mut StdRng) -> O {
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

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_filter`].
    #[derive(Debug, Clone)]
    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) whence: &'static str,
        pub(crate) f: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            for _ in 0..1_000 {
                let v = self.inner.sample(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            // Test-failure machinery: a filter this selective is a bug in the
            // test's strategy, and panicking is how proptest reports it.
            #[allow(clippy::panic)]
            {
                panic!(
                    "prop_filter({}) rejected 1000 samples in a row",
                    self.whence
                )
            }
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut StdRng) -> $t {
                    rand::Rng::gen_range(rng, self.clone())
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut StdRng) -> $t {
                    rand::Rng::gen_range(rng, self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
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

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            (**self).sample(rng)
        }
    }
}

pub mod collection {
    //! Strategies for collections.

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A length specification: anything a `usize` can be drawn from.
    pub trait SizeRange {
        /// Draws a length from `rng`.
        fn sample_len(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for core::ops::Range<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut StdRng) -> usize {
            *self
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

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! The case loop behind [`crate::proptest!`].

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Why a single test case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// An assertion failed; the case is a genuine failure.
        Fail(String),
        /// The input was rejected (e.g. by `prop_assume!`); not a failure.
        Reject(String),
    }

    impl TestCaseError {
        /// Builds a failure with the given message.
        #[must_use]
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// Builds a rejection with the given message.
        #[must_use]
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
            }
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
    /// returns [`TestCaseError::Fail`] or itself panics.
    pub fn run_cases<S, F>(name: &str, strat: &S, body: F)
    where
        S: Strategy,
        S::Value: core::fmt::Debug,
        F: Fn(S::Value) -> TestCaseResult,
    {
        let cases = default_cases();
        let base = name_seed(name);
        let mut rejected = 0u64;
        for case in 0..cases {
            let mut rng = StdRng::seed_from_u64(base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let value = strat.sample(&mut rng);
            let shown = format!("{value:?}");
            match body(value) {
                Ok(()) => {}
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    assert!(
                        rejected <= 16 * cases,
                        "{name}: too many rejected inputs ({rejected})"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    // Test-failure machinery: panicking is the contract by
                    // which proptest reports a failing case to the harness.
                    #[allow(clippy::panic)]
                    {
                        panic!("{name}: case {case}/{cases} failed: {msg}\n  input: {shown}")
                    }
                }
            }
        }
    }
}

/// Everything a test module needs: the [`strategy::Strategy`] trait, the
/// macros, and the `prop` alias for nested paths like `prop::collection`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Alias mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
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

/// Fails the current case if the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} == {:?}", l, r);
    }};
}

/// Rejects the current case (not a failure) unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::reject(stringify!(
                $cond
            )));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn vec_strategy_respects_len() {
        let strat = crate::collection::vec(0u64..10, 3..7usize);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = strat.sample(&mut rng);
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn flat_map_threads_dependent_values() {
        let strat = (2usize..8).prop_flat_map(|n| (Just(n), 0..n));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let (n, k) = strat.sample(&mut rng);
            assert!(k < n);
        }
    }

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
