//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of `proptest` its tests use: the
//! [`strategy::Strategy`] trait with `prop_map` / `prop_flat_map`, range and
//! tuple strategies, `prop::collection::vec`, `any::<T>()`, the
//! [`proptest!`] macro, and the `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from upstream: cases are generated from a fixed deterministic
//! seed (stable runs, no persistence files) and failing cases are **not
//! shrunk** — the failing value is printed as generated.

pub mod strategy {
    //! Value-generation strategies.

    use rand::rngs::StdRng;
    use rand::Rng;

    /// The RNG handed to strategies.
    pub type TestRng = StdRng;

    /// A recipe for generating random values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` returns.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Boxes the strategy (upstream-compatible convenience).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// A boxed, dynamically typed strategy.
    pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

    trait DynStrategy<T> {
        fn dyn_generate(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.dyn_generate(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
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
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
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
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H, I);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J);

    /// Types with a canonical "any value" strategy (see [`super::arbitrary::any`]).
    pub trait Arbitrary: Sized {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.random()
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.random()
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Strategy returned by [`super::arbitrary::any`].
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any(core::marker::PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod arbitrary {
    //! The `any::<T>()` entry point.

    use super::strategy::{Any, Arbitrary};

    /// A strategy producing arbitrary values of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any::default()
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use super::strategy::{Strategy, TestRng};
    use rand::Rng;

    /// A size specification: a fixed length or a range of lengths.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_inclusive: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
        }
    }

    /// Strategy for `Vec<T>` with element strategy `S` and a size range.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! The case loop behind [`crate::proptest!`].

    use super::strategy::TestRng;
    use rand::SeedableRng;

    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required.
        pub cases: u32,
        /// Maximum rejected cases (via `prop_assume!`) before giving up.
        pub max_global_rejects: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256, max_global_rejects: 65_536 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases, ..ProptestConfig::default() }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the test fails.
        Fail(String),
        /// `prop_assume!` rejected the inputs; the case is skipped.
        Reject,
    }

    /// Runs `case` until `config.cases` successes, a failure, or too many
    /// rejects. Deterministic: the RNG seed depends only on the test name.
    pub fn run<F>(config: ProptestConfig, file: &str, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let mut seed = 0xcbf29ce484222325u64;
        for b in file.bytes().chain(name.bytes()) {
            seed = (seed ^ b as u64).wrapping_mul(0x100000001b3);
        }
        let mut rng = TestRng::seed_from_u64(seed);
        let mut passed = 0u32;
        let mut rejected = 0u32;
        while passed < config.cases {
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject) => {
                    rejected += 1;
                    if rejected > config.max_global_rejects {
                        panic!(
                            "proptest {name}: too many rejected cases \
                             ({rejected} rejects, {passed} passes)"
                        );
                    }
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest {name} failed after {passed} passing case(s): {msg}");
                }
            }
        }
    }
}

/// Runs each contained `fn name(arg in strategy, ...) { body }` as a
/// property test. See the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            $crate::test_runner::run(__config, file!(), stringify!($name), |__rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
    )*};
}

/// Like `assert!` but fails the current property case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Like `assert_eq!` but fails the current property case with a message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Rejects the current case (it is skipped, not failed) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// The `prop::` namespace used by `use proptest::prelude::*` consumers.
pub mod prop {
    pub use crate::collection;
    pub use crate::strategy;
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3..10usize, y in -1.0f64..1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.0..1.0).contains(&y));
        }

        #[test]
        fn flat_map_vec_and_assume(v in (1..5usize).prop_flat_map(|n| prop::collection::vec(0..100u32, n))) {
            prop_assume!(!v.is_empty());
            prop_assert!(v.len() < 5);
            prop_assert_eq!(v.len(), v.iter().filter(|&&x| x < 100).count());
        }

        #[test]
        fn any_bool_and_tuples((a, b) in (any::<bool>(), 0..4u32)) {
            prop_assert!(b < 4 || a);
        }
    }
}
