//! Offline stand-in for `proptest`.
//!
//! Supports the subset the workspace's property tests use: the
//! [`proptest!`] macro over functions whose arguments are drawn from
//! strategies, `prop_assert!`/`prop_assert_eq!`, numeric range strategies,
//! tuples of strategies, `any::<bool>()`, and `prop::collection::vec`.
//!
//! Unlike real proptest there is no shrinking: each test runs
//! [`NUM_CASES`] deterministic cases (seeded from the test name) and
//! panics with the case number on the first failure, which is enough to
//! reproduce — the stream is a pure function of the test name.

#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::ops::Range;

/// Cases generated per property test.
pub const NUM_CASES: u32 = 64;

/// Failure raised by `prop_assert!`-family macros inside a test case.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Deterministic per-test generator (SplitMix64 seeded from the test name).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the test name gives a stable per-test seed.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01B3);
        }
        TestRng { state: h }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value generator. Real proptest separates strategies from value trees
/// (for shrinking); without shrinking a strategy is just a generator.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

int_range_strategy!(usize, u64, u32, u16, u8);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, sign-symmetric, wide dynamic range.
        let mag = rng.unit_f64() * 1e6;
        if rng.next_u64() & 1 == 1 {
            mag
        } else {
            -mag
        }
    }
}

/// Strategy produced by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for vectors of `elem` with length drawn from `size`.
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.clone().generate(rng);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::{any, Arbitrary, Strategy, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, proptest};

    /// Mirror of real proptest's `prelude::prop` module alias.
    pub mod prop {
        pub use crate::collection;
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {:?} != {:?}",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)+)));
        }
    }};
}

/// The `proptest! { ... }` block: each contained `fn name(arg in strategy,
/// ...) { body }` becomes a test running [`NUM_CASES`] generated cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __rng = $crate::TestRng::from_name(stringify!($name));
                for __case in 0..$crate::NUM_CASES {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    let __result: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = __result {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name),
                            __case,
                            $crate::NUM_CASES,
                            e
                        );
                    }
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(n in 5usize..50, x in -3.0f64.. -1.0) {
            prop_assert!((5..50).contains(&n));
            prop_assert!((-3.0..-1.0).contains(&x), "x out of range: {x}");
        }

        #[test]
        fn vec_strategy_sizes(v in prop::collection::vec(0u32..10, 2..7)) {
            prop_assert!(v.len() >= 2 && v.len() < 7);
            prop_assert!(v.iter().all(|&e| e < 10));
        }

        #[test]
        fn tuples_generate(pair in (0.0f64..1.0, 1u32..4)) {
            let (a, b) = pair;
            prop_assert!((0.0..1.0).contains(&a));
            prop_assert!((1..4).contains(&b));
        }

        #[test]
        fn any_bool_varies(v in prop::collection::vec(any::<bool>(), 40..60)) {
            prop_assert!(v.iter().any(|&b| b) && v.iter().any(|&b| !b));
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        let mut c = crate::TestRng::from_name("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
