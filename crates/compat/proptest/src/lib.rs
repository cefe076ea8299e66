//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! This environment builds with no network access, so the subset of the
//! proptest API the workspace uses is vendored here:
//!
//! * the [`proptest!`] macro (with the `#![proptest_config(..)]` header),
//! * [`prop_assert!`] / [`prop_assert_eq!`],
//! * [`Strategy`] with [`Strategy::prop_map`], range and tuple strategies,
//! * [`any`] and [`collection::vec`],
//! * [`ProptestConfig::with_cases`].
//!
//! Differences from the real crate: inputs are drawn from a
//! deterministic stream per test (seeded from the test name), and there
//! is **no shrinking** — a failing case reports its case number, the
//! seed and the formatted assertion message instead of a minimized
//! input. That trades debugging convenience for zero dependencies; the
//! generated coverage is equivalent.
//!
//! **Fresh seeds.** With the `PROPTEST_SEED` environment variable set to
//! an unsigned integer, that seed is mixed into every test's name seed,
//! so the same properties explore new inputs; a failure message names
//! the seed, and re-running with the same `PROPTEST_SEED` replays it.
//! Unset, every test replays its fixed name-seeded stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;

/// Deterministic generator feeding the strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator seeded from a test name (FNV-1a hash), so every
    /// test draws a reproducible input stream.
    pub fn from_name(name: &str) -> Self {
        Self::from_name_and_seed(name, None)
    }

    /// Creates a generator seeded from a test name with an optional run
    /// seed mixed in; `None` gives exactly [`TestRng::from_name`]'s
    /// stream.
    pub fn from_name_and_seed(name: &str, seed: Option<u64>) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        if let Some(seed) = seed {
            let mut mix = TestRng { state: seed };
            h ^= mix.next_u64();
        }
        TestRng { state: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        self.next_u64() % bound
    }
}

/// The run seed from the `PROPTEST_SEED` environment variable, if set.
///
/// # Panics
///
/// If the variable is set but is not an unsigned integer: a typo must
/// not silently replay the fixed streams.
pub fn env_seed() -> Option<u64> {
    let raw = std::env::var("PROPTEST_SEED").ok()?;
    match raw.trim().parse() {
        Ok(seed) => Some(seed),
        Err(_) => panic!("PROPTEST_SEED must be an unsigned integer, got {raw:?}"),
    }
}

/// Per-run configuration (`#![proptest_config(..)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Error produced by a failing `prop_assert!`-style check.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (the only combinator the
    /// workspace uses).
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.generate(rng))
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.end > self.start, "empty f64 range");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.end > self.start, "empty f32 range");
        self.start + (self.end - self.start) * rng.unit_f64() as f32
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128) - (self.start as i128);
                assert!(span > 0, "empty integer range");
                let offset = (u128::from(rng.next_u64()) % (span as u128)) as i128;
                (self.start as i128 + offset) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
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

/// Types with a canonical "any value" strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite values only: arbitrary bit patterns would mostly be
        // astronomically large; a mix of magnitudes is more useful.
        let exp = (rng.below(41) as i32) - 20;
        (rng.unit_f64() * 2.0 - 1.0) * 10f64.powi(exp)
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Default)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (`any::<u64>()`, `any::<bool>()`, …).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy returned by [`vec()`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Generates `Vec`s of `element` values with a length drawn from
    /// `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The usual imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Asserts a condition inside a [`proptest!`] body; on failure the current
/// case is reported (with its case number) and the test panics.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

/// Asserts two expressions are equal inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left_val = $left;
        let right_val = $right;
        $crate::prop_assert!(
            left_val == right_val,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
            left_val,
            right_val
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left_val = $left;
        let right_val = $right;
        $crate::prop_assert!(left_val == right_val, $($fmt)+);
    }};
}

/// Asserts two expressions differ inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left_val = $left;
        let right_val = $right;
        $crate::prop_assert!(
            left_val != right_val,
            "assertion failed: `left != right`\n  both: `{:?}`",
            left_val
        );
    }};
}

/// Defines property tests: each `#[test] fn name(arg in strategy, ..)`
/// item runs `config.cases` times over freshly drawn inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = ($cfg:expr); ) => {};
    (config = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let seed = $crate::env_seed();
            let mut rng = $crate::TestRng::from_name_and_seed(stringify!($name), seed);
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let run = move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                };
                if let ::std::result::Result::Err(e) = run() {
                    let replay = match seed {
                        ::std::option::Option::Some(s) => format!("PROPTEST_SEED={s}"),
                        ::std::option::Option::None => "PROPTEST_SEED unset".to_string(),
                    };
                    panic!(
                        "proptest `{}` failed at case {}/{} ({}): {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        replay,
                        e
                    );
                }
            }
        }
        $crate::__proptest_items!{ config = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges stay in bounds; tuples and maps compose.
        #[test]
        fn ranges_and_combinators(
            x in 1.5f64..2.5,
            n in 3usize..10,
            pair in (0u64..5, 10u64..20).prop_map(|(a, b)| a + b),
            bits in crate::collection::vec(any::<bool>(), 2..6),
        ) {
            prop_assert!((1.5..2.5).contains(&x), "x = {x}");
            prop_assert!((3..10).contains(&n));
            prop_assert!((10..25).contains(&pair), "pair = {pair}");
            prop_assert!(bits.len() >= 2 && bits.len() < 6);
            prop_assert_eq!(n, n);
            prop_assert_ne!(n, n + 1);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case_number() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            #[allow(dead_code)]
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 1_000, "x was only {x}");
            }
        }
        always_fails();
    }

    #[test]
    #[should_panic(expected = "PROPTEST_SEED")]
    fn failure_message_names_the_seed() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2))]

            #[allow(dead_code)]
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 1_000, "x was only {x}");
            }
        }
        always_fails();
    }

    #[test]
    fn run_seeds_give_fresh_replayable_streams() {
        let draw = |seed| crate::TestRng::from_name_and_seed("alpha", seed).next_u64();
        assert_eq!(draw(None), crate::TestRng::from_name("alpha").next_u64());
        assert_eq!(draw(Some(7)), draw(Some(7)));
        assert_ne!(draw(Some(7)), draw(Some(8)));
        assert_ne!(draw(Some(7)), draw(None));
    }

    #[test]
    fn deterministic_streams_per_name() {
        let mut a = crate::TestRng::from_name("alpha");
        let mut b = crate::TestRng::from_name("alpha");
        let mut c = crate::TestRng::from_name("beta");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
