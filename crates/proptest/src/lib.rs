//! Offline property-testing shim.
//!
//! This workspace's tier-1 verify (`cargo build --release && cargo test -q`)
//! must run on machines with **no crates.io access**, so the property tests
//! cannot depend on the real `proptest`. This crate implements the subset of
//! its API the tests actually use, with the same call-site syntax:
//!
//! * [`proptest!`] blocks of `#[test] fn name(arg in strategy, ...) { ... }`
//! * integer and float [`Range`] strategies (`0u64..100`)
//! * [`any`]`::<T>()` for the primitive types
//! * `prop::collection::vec(strategy, len_range)`
//! * [`prop_oneof!`] (uniform arms), [`Just`], and [`Strategy::prop_map`]
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`]
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case panics immediately with the generated
//!   inputs printed, which is enough to reproduce by hand: generation is
//!   deterministic per test (the RNG is seeded from the test's module path),
//!   so a failure recurs on every run until fixed.
//! * `proptest-regressions` files are ignored.
//! * The case count comes from `PROPTEST_CASES` (default 64).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use core::marker::PhantomData;
use core::ops::{Range, RangeInclusive};

/// How a generated case ended, other than by passing.
#[derive(Debug)]
pub enum TestCaseError {
    /// A `prop_assert!` failed; the string is the rendered assertion.
    Fail(String),
    /// A `prop_assume!` rejected the inputs; the case is re-drawn.
    Reject(String),
}

/// Number of passing cases each property must accumulate.
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Deterministic per-test generator (splitmix64 over a name hash).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from the test's fully-qualified name: every run of the same
    /// test draws the same case sequence.
    pub fn for_test(name: &str) -> Self {
        // FNV-1a over the name.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value generator. The `proptest!` macro calls
/// [`Strategy::generate`] once per argument per case.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Post-process every drawn value with `f` (mirrors the real crate's
    /// `Strategy::prop_map`).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] combinator.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of its value (mirrors the real
/// crate's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// One erased arm of a [`prop_oneof!`] union.
pub type OneOfArm<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// Uniform choice between strategies that generate the same type — the
/// backing type of [`prop_oneof!`]. (The real crate also supports weighted
/// arms; the shim draws uniformly.)
pub struct OneOf<V> {
    arms: Vec<OneOfArm<V>>,
}

impl<V> OneOf<V> {
    /// Build from the erased arms (used by [`prop_oneof!`]).
    pub fn new(arms: Vec<OneOfArm<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = (rng.next_u64() % self.arms.len() as u64) as usize;
        (self.arms[i])(rng)
    }
}

/// Box one [`prop_oneof!`] arm (a plain function so type inference can
/// unify the arms' value types across the built `Vec`).
pub fn oneof_arm<S: Strategy + 'static>(s: S) -> OneOfArm<S::Value> {
    Box::new(move |rng| s.generate(rng))
}

/// `prop_oneof![s1, s2, ...]`: draw each case from one of the listed
/// strategies, chosen uniformly. All arms must generate the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::oneof_arm($strat)),+])
    };
}

macro_rules! int_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as i128 - self.start as i128) as u128;
                let off = u128::from(rng.next_u64()) % width;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let width = (*self.end() as i128 - *self.start() as i128 + 1) as u128;
                let off = u128::from(rng.next_u64()) % width;
                (*self.start() as i128 + off as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let u = rng.f64_unit() as $t;
                // Clamp: rounding at the top of huge ranges must not
                // produce `end` itself (the range is half-open).
                let v = self.start + u * (self.end - self.start);
                if v >= self.end { self.start } else { v }
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let u = rng.f64_unit() as $t;
                self.start() + u * (self.end() - self.start())
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($($S:ident/$idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A / 0, B / 1);
tuple_strategy!(A / 0, B / 1, C / 2);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3);

/// Types with a whole-domain strategy, i.e. what `any::<T>()` draws from.
pub trait Arbitrary {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),* $(,)?) => {$(
        impl Arbitrary for $t {
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
        // Finite, broad, and sign-balanced; NaN/inf chaos is out of scope.
        (rng.f64_unit() - 0.5) * 2e12
    }
}

/// The `any::<T>()` strategy (see [`Arbitrary`]).
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

/// Whole-domain strategy for a primitive type.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Combinator namespace mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use core::ops::{Range, RangeInclusive};

        /// Accepted length specifications (only `usize` ranges convert, so
        /// unsuffixed literals like `1..50` infer `usize` at the call site,
        /// matching the real crate's `Into<SizeRange>` signature).
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // inclusive
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty length range");
                SizeRange {
                    lo: r.start,
                    hi: r.end - 1,
                }
            }
        }

        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> Self {
                assert!(r.start() <= r.end(), "empty length range");
                SizeRange {
                    lo: *r.start(),
                    hi: *r.end(),
                }
            }
        }

        /// Strategy for `Vec<S::Value>` with a length drawn from a range.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            elem: S,
            len: SizeRange,
        }

        /// `vec(element_strategy, len_range)`: a vector of `len_range`
        /// elements, each drawn from `element_strategy`.
        pub fn vec<S: Strategy>(elem: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                elem,
                len: len.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = (self.len.lo..=self.len.hi).generate(rng);
                (0..n).map(|_| self.elem.generate(rng)).collect()
            }
        }
    }
}

/// Everything a property-test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Arbitrary, Just,
        Strategy, TestCaseError,
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left != right {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        if left != right {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    }};
}

/// Discard the current case (re-draw) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject(stringify!($cond).to_string()));
        }
    };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over [`cases`] generated inputs.
#[macro_export]
macro_rules! proptest {
    ($($(#[$attr:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let cases = $crate::cases();
                let mut rng =
                    $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
                let mut accepted: u32 = 0;
                let mut rejected: u32 = 0;
                while accepted < cases {
                    // Arguments are patterns (`x` or `mut x`), so each value
                    // is drawn into a temporary — formatted into the failure
                    // report while still nameable — then bound.
                    let mut inputs = String::new();
                    $(
                        let generated = $crate::Strategy::generate(&($strat), &mut rng);
                        inputs.push_str(&format!(
                            "{} = {:?}  ",
                            stringify!($arg),
                            &generated
                        ));
                        let $arg = generated;
                    )+
                    let inputs = inputs;
                    let outcome = (move || -> ::core::result::Result<(), $crate::TestCaseError> {
                        $body
                        Ok(())
                    })();
                    match outcome {
                        Ok(()) => accepted += 1,
                        Err($crate::TestCaseError::Reject(_)) => {
                            rejected += 1;
                            assert!(
                                rejected < 65536,
                                "property '{}': too many prop_assume! rejections",
                                stringify!($name)
                            );
                        }
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property '{}' failed after {} passing case(s)\n  inputs: {}\n  {}",
                                stringify!($name),
                                accepted,
                                inputs,
                                msg
                            );
                        }
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::TestRng::for_test("x");
        let mut b = crate::TestRng::for_test("x");
        let mut c = crate::TestRng::for_test("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::for_test("bounds");
        for _ in 0..10_000 {
            let v = (5u64..17).generate(&mut rng);
            assert!((5..17).contains(&v));
            let f = (-2.0f64..3.0).generate(&mut rng);
            assert!((-2.0..3.0).contains(&f));
            let i = (-7i32..-3).generate(&mut rng);
            assert!((-7..-3).contains(&i));
        }
    }

    #[test]
    fn tuple_and_inclusive_strategies() {
        let mut rng = crate::TestRng::for_test("tuples");
        for _ in 0..1000 {
            let (a, b) = (0u32..5, 100u32..9000).generate(&mut rng);
            assert!(a < 5 && (100..9000).contains(&b));
            let q = (0.0f64..=1.0).generate(&mut rng);
            assert!((0.0..=1.0).contains(&q));
            let n = (3usize..=3).generate(&mut rng);
            assert_eq!(n, 3);
            let v = prop::collection::vec(0u64..9, 3..=3).generate(&mut rng);
            assert_eq!(v.len(), 3);
        }
    }

    #[test]
    fn vec_strategy_respects_length() {
        let mut rng = crate::TestRng::for_test("vec");
        for _ in 0..1000 {
            let v = prop::collection::vec(0u64..10, 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn oneof_map_and_just_combinators() {
        let mut rng = crate::TestRng::for_test("oneof");
        let s = prop_oneof![
            (0u64..10).prop_map(Some),
            Just(None),
            (100u64..110).prop_map(Some),
        ];
        let mut arms = [false; 3];
        for _ in 0..1000 {
            match s.generate(&mut rng) {
                Some(v) if v < 10 => arms[0] = true,
                None => arms[1] = true,
                Some(v) if (100..110).contains(&v) => arms[2] = true,
                Some(v) => panic!("out-of-arm value {v}"),
            }
        }
        assert_eq!(arms, [true; 3], "all arms must be drawn from");
    }

    proptest! {
        /// The macro itself: bodies run, assertions pass, assumptions skip.
        #[test]
        fn macro_end_to_end(x in 1u64..100, ys in prop::collection::vec(0u64..50, 1..10)) {
            prop_assume!(x != 13);
            prop_assert!((1..100).contains(&x));
            prop_assert!((1..10).contains(&ys.len()));
            prop_assert!(ys.iter().all(|&y| y < 50));
        }

        /// The combinators inside a proptest! argument position.
        #[test]
        fn oneof_in_argument_position(
            v in prop::collection::vec(prop_oneof![0u64..5, 1_000u64..1_005], 1..20),
        ) {
            prop_assert!(v.iter().all(|&x| x < 5 || (1_000..1_005).contains(&x)));
        }
    }

    #[test]
    fn failing_property_panics_with_inputs() {
        proptest! {
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        let err = std::panic::catch_unwind(always_fails).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always_fails"), "panic message: {msg}");
        assert!(msg.contains("x = "), "panic message: {msg}");
    }
}
