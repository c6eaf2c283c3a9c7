//! Offline stand-in for the `rand` crate.
//!
//! The workspace builds without network access, so instead of the real
//! `rand` this shim implements exactly the API surface the applications
//! use: `StdRng::seed_from_u64` plus `Rng::gen_range` over half-open
//! numeric ranges. The generator is SplitMix64 — deterministic across
//! platforms and plenty for seeded benchmark input generation (it is not,
//! and does not need to be, cryptographic).

#![forbid(unsafe_code)]

use std::ops::Range;

/// Seeding interface (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Raw generator interface (subset of `rand::RngCore`).
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// High-level sampling interface (subset of `rand::Rng`).
pub trait Rng: RngCore {
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

impl<T: RngCore> Rng for T {}

/// Types usable as the argument of [`Rng::gen_range`].
pub trait SampleRange {
    type Output;
    fn sample<R: RngCore>(self, rng: &mut R) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range needs a non-empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range needs a non-empty range");
                let span = (self.end - self.start) as u64;
                // Modulo bias is ~span/2^64 — irrelevant for input generation.
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

int_sample_range!(usize, u64, u32, u16, u8);

impl SampleRange for Range<i64> {
    type Output = i64;
    fn sample<R: RngCore>(self, rng: &mut R) -> i64 {
        assert!(self.start < self.end, "gen_range needs a non-empty range");
        let span = self.end.wrapping_sub(self.start) as u64;
        self.start.wrapping_add((rng.next_u64() % span) as i64)
    }
}

impl SampleRange for Range<i32> {
    type Output = i32;
    fn sample<R: RngCore>(self, rng: &mut R) -> i32 {
        assert!(self.start < self.end, "gen_range needs a non-empty range");
        let span = (self.end as i64 - self.start as i64) as u64;
        (self.start as i64 + (rng.next_u64() % span) as i64) as i32
    }
}

pub mod rngs {
    /// Deterministic SplitMix64 generator behind the `StdRng` name the
    /// applications import.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl crate::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl crate::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 (Steele, Lea & Flood 2014).
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(40.0..60.0);
            assert!((40.0..60.0).contains(&v));
        }
    }

    #[test]
    fn f64_range_covers_span() {
        let mut rng = StdRng::seed_from_u64(7);
        let vals: Vec<f64> = (0..1000).map(|_| rng.gen_range(0.0..1.0)).collect();
        assert!(vals.iter().any(|&v| v < 0.1));
        assert!(vals.iter().any(|&v| v > 0.9));
    }

    #[test]
    fn int_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = rng.gen_range(0usize..5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
