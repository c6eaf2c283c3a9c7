//! Per-lane helpers that call no library routine.
//!
//! The walk runs a few region-sized steps for every simulated lane: it
//! gathers the region's input vector, copies an output vector into or out of
//! a TAF or iACT pool, and stores it. These vectors are 1 to 5 scalars in
//! the seven applications, and their length is known only at run time, so
//! `copy_from_slice` compiles to a call into libc's `memcpy` — host work the
//! GPU model never charges, paid per lane. [`copy`] moves the short lengths
//! inline. The same holds for floating-point remainders: `x % 1.0` is a
//! software `fmod`, and `f64::trunc` is a libm call on the x86-64 baseline
//! (no `roundsd` before SSE4.1); [`rem_one`] computes `x % 1.0` exactly
//! with an integer conversion round trip instead.

/// `dst.copy_from_slice(src)`, with lengths 1 to 8 moved as fixed-size
/// arrays (inline loads and stores) and longer vectors handed to
/// `copy_from_slice`. Panics, as `copy_from_slice` does, when the lengths
/// differ.
#[inline(always)]
pub fn copy(dst: &mut [f64], src: &[f64]) {
    #[inline(always)]
    fn fixed<const N: usize>(dst: &mut [f64], src: &[f64]) {
        let src: &[f64; N] = src.try_into().expect("length matched above");
        let dst: &mut [f64; N] = dst
            .try_into()
            .expect("destination and source slices have different lengths");
        *dst = *src;
    }
    match src.len() {
        1 => fixed::<1>(dst, src),
        2 => fixed::<2>(dst, src),
        3 => fixed::<3>(dst, src),
        4 => fixed::<4>(dst, src),
        5 => fixed::<5>(dst, src),
        6 => fixed::<6>(dst, src),
        7 => fixed::<7>(dst, src),
        8 => fixed::<8>(dst, src),
        _ => dst.copy_from_slice(src),
    }
}

/// `x % 1.0`, bit for bit, without `fmod`: the fractional part of `x` with
/// `x`'s sign (`-3.0` gives `-0.0`). Below 2^52 the `i64` round trip
/// truncates and the subtraction is exact; at or above it every `f64` is an
/// integer, so the result is a signed zero. Non-finite input keeps `% 1.0`
/// (NaN either way).
#[inline(always)]
pub fn rem_one(x: f64) -> f64 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    if x.abs() < TWO_52 {
        (x - (x as i64) as f64).copysign(x)
    } else if x.is_finite() {
        0.0f64.copysign(x)
    } else {
        x % 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `rem_one(x)` and `x % 1.0` agree in every bit (in NaN-ness for NaN).
    fn agrees(x: f64) -> bool {
        let (got, want) = (rem_one(x), x % 1.0);
        if want.is_nan() {
            got.is_nan()
        } else {
            got.to_bits() == want.to_bits()
        }
    }

    #[test]
    fn rem_one_matches_fmod_at_the_edges() {
        let two_52 = 2f64.powi(52);
        let cases = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            -3.0,
            -17.0,
            0.5,
            -0.5,
            -2.75,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            two_52,
            -two_52,
            two_52 - 0.5,
            -(two_52 - 0.5),
            two_52 + 1.0,
            -(two_52 + 1.0),
            2f64.powi(53),
            2f64.powi(63),
            -2f64.powi(63),
            2f64.powi(64) + 4096.0,
            1e300,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for x in cases {
            assert!(agrees(x), "{x:e}: {:e} vs {:e}", rem_one(x), x % 1.0);
        }
        assert_eq!(rem_one(-3.0).to_bits(), (-0.0f64).to_bits());
    }

    proptest! {
        #[test]
        fn rem_one_matches_fmod_on_random_finite_values(
            patterns in prop::collection::vec((0u64..1 << 63, any::<bool>()), 256..257),
            scaled in prop::collection::vec((-1e6f64..1e6, 0u32..1100), 256..257),
        ) {
            // Any finite value, drawn by bit pattern (NaN and infinity
            // patterns skipped; half of the rest lie at or above 2^52) ...
            for (magnitude, negative) in patterns {
                let x = f64::from_bits(magnitude | (u64::from(negative) << 63));
                prop_assert!(!x.is_finite() || agrees(x), "{:e}", x);
            }
            // ... and values spread over the exponents on both sides of 1
            // and of 2^52.
            for (m, e) in scaled {
                let x = m * 2f64.powi(e as i32 - 550);
                prop_assert!(agrees(x), "{:e}", x);
            }
        }
    }

    #[test]
    fn copy_moves_every_length_including_the_fallback() {
        for n in 0..=9 {
            let src: Vec<f64> = (0..n).map(|i| i as f64 + 0.25).collect();
            let mut dst = vec![f64::NAN; n];
            copy(&mut dst, &src);
            assert_eq!(
                dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                src.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "length {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn copy_refuses_a_length_mismatch() {
        copy(&mut [0.0; 2], &[1.0; 3]);
    }
}
