//! Offline stand-in for the subset of the `proptest` 1.x API this
//! workspace uses. The build container has no crates.io access, so the
//! workspace vendors a tiny property-testing engine with the same surface:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(..)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`],
//! * [`strategy::Strategy`] with `prop_map`,
//! * range and tuple strategies, [`prop::collection::vec`], [`strategy::Just`],
//! * [`test_runner::ProptestConfig::with_cases`].
//!
//! Differences from upstream: no shrinking — a failing case reports its
//! deterministic case index and seed instead of a minimized input, and the
//! random streams differ from upstream proptest. Every run of a given test
//! binary explores the same deterministic sequence of cases.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Runner configuration and failure plumbing.

    /// Why a test case failed.
    #[derive(Clone, Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            Self(msg.into())
        }

        /// Alias used by upstream's `prop_assume!`; treated as a failure
        /// message here.
        pub fn reject(msg: impl Into<String>) -> Self {
            Self::fail(msg)
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Subset of upstream's `ProptestConfig`.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the property to pass.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    /// Deterministic per-case generator (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Generator for case number `case` (stable across runs).
        pub fn for_case(case: u64) -> Self {
            Self {
                state: case
                    .wrapping_mul(0x2545f4914f6cdd1d)
                    .wrapping_add(0x9e3779b97f4a7c15),
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform `usize` in `[lo, hi)`.
        pub fn index(&mut self, lo: usize, hi: usize) -> usize {
            assert!(lo < hi, "empty size range");
            lo + (self.next_u64() as usize) % (hi - lo)
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Keeps only values satisfying `f` (retries; upstream rejects).
        fn prop_filter<F>(self, _whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { inner: self, f }
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_filter`].
    #[derive(Clone, Debug)]
    pub struct Filter<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1_000 {
                let v = self.inner.sample(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter rejected 1000 candidates in a row");
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (rng.unit_f64() as $t) * (self.end - self.start)
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    lo + (rng.unit_f64() as $t) * (hi - lo)
                }
            }
        )*};
    }
    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);
    tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod prop {
    //! The `prop::` namespace (`prop::collection::vec` etc.).

    pub mod collection {
        //! Collection strategies.

        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Vectors of `element` with a length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        /// See [`vec()`].
        #[derive(Clone, Debug)]
        pub struct VecStrategy<S> {
            element: S,
            size: core::ops::Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = if self.size.start >= self.size.end {
                    self.size.start
                } else {
                    rng.index(self.size.start, self.size.end)
                };
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// The property-test entry point: same syntax as upstream `proptest!`.
///
/// Differences: failures are reported with the deterministic case index
/// (no shrinking), and generated inputs are not echoed.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            @cfg($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr)
     $($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                // Bind each strategy once, named after its argument; the
                // per-case `let` below shadows it with a sampled value.
                let ($($arg,)+) = ($($strat,)+);
                for __case in 0..u64::from(__config.cases) {
                    let mut __rng = $crate::test_runner::TestRng::for_case(__case);
                    $(let $arg =
                        $crate::strategy::Strategy::sample(&$arg, &mut __rng);)+
                    let __outcome: ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = __outcome {
                        panic!(
                            "proptest case #{} of {} failed: {}",
                            __case, __config.cases, e
                        );
                    }
                }
            }
        )*
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", args..)`: fails the
/// current case without aborting the whole process.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// `prop_assert_eq!(left, right)` with optional context message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`\n{}",
            __l,
            __r,
            format!($($fmt)*)
        );
    }};
}

/// `prop_assert_ne!(left, right)` with optional context message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            __l
        );
    }};
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u8..9, y in -5isize..5, f in -1.0f64..=1.0) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((-1.0..=1.0).contains(&f));
        }

        #[test]
        fn vec_and_map_compose(
            v in prop::collection::vec((0u8..4, 0u8..4).prop_map(|(a, b)| a + b), 0..6),
        ) {
            prop_assert!(v.len() < 6);
            for x in &v {
                prop_assert!(*x <= 6, "sum of two values < 4 each: {x}");
            }
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = (0.0f64..10.0, 0usize..100);
        let a: Vec<_> = (0..10)
            .map(|c| strat.sample(&mut TestRng::for_case(c)))
            .collect();
        let b: Vec<_> = (0..10)
            .map(|c| strat.sample(&mut TestRng::for_case(c)))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "proptest case #")]
    fn failures_report_case_number() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            #[allow(unused)]
            fn always_fails(x in 0u8..4) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        // The macro above only *defines* fns when used at item position;
        // at statement position it also defines them — call explicitly.
        always_fails();
    }
}
