//! Minimal floating-point abstraction for the `stencil-abft` workspace.
//!
//! Everything in the workspace is generic over [`Real`], implemented for
//! `f32` and `f64`. The paper's experiments use IEEE-754 binary32 (bit-flip
//! positions 0..=31); binary64 is supported throughout and is used by the
//! property-test suite where tight tolerances are required.
//!
//! The trait is deliberately tiny — just the operations the ABFT scheme
//! needs — so that the workspace does not depend on `num-traits`.

mod real;
mod sum;
mod ulp;

pub use real::Real;
pub use sum::{add_line, line_sum};
pub use ulp::{max_abs, relative_error, ulp_distance};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_f32() {
        assert_eq!(f32::ZERO, 0.0f32);
        assert_eq!(f32::ONE, 1.0f32);
        assert_eq!(<f32 as Real>::BITS, 32);
        assert_eq!(<f32 as Real>::MANTISSA_BITS, 23);
    }

    #[test]
    fn constants_f64() {
        assert_eq!(f64::ZERO, 0.0f64);
        assert_eq!(f64::ONE, 1.0f64);
        assert_eq!(<f64 as Real>::BITS, 64);
        assert_eq!(<f64 as Real>::MANTISSA_BITS, 52);
    }

    #[test]
    fn from_f64_roundtrip() {
        let x = f32::from_f64(1.5);
        assert_eq!(x, 1.5f32);
        assert_eq!(x.to_f64(), 1.5f64);
    }

    #[test]
    fn from_usize() {
        assert_eq!(f32::from_usize(7), 7.0f32);
        assert_eq!(f64::from_usize(123456), 123456.0f64);
    }

    #[test]
    fn bit_roundtrip_f32() {
        let x = 3.25f32;
        let bits = x.to_bits_u64();
        assert_eq!(f32::from_bits_u64(bits), x);
    }

    #[test]
    fn bit_roundtrip_f64() {
        let x = -17.125f64;
        let bits = x.to_bits_u64();
        assert_eq!(f64::from_bits_u64(bits), x);
    }

    #[test]
    fn flip_bit_sign_f32() {
        // Bit 31 of an f32 is the sign bit.
        let x = 2.0f32;
        assert_eq!(x.flip_bit(31), -2.0f32);
        // Flipping twice restores the value.
        assert_eq!(x.flip_bit(31).flip_bit(31), x);
    }

    #[test]
    fn flip_bit_sign_f64() {
        let x = 2.0f64;
        assert_eq!(x.flip_bit(63), -2.0f64);
    }

    #[test]
    fn flip_bit_mantissa_small_perturbation() {
        // Flipping the least-significant mantissa bit changes the value by
        // exactly one ulp.
        let x = 1.0f32;
        let y = x.flip_bit(0);
        assert_ne!(x, y);
        assert_eq!(ulp_distance(x, y), 1);
    }

    #[test]
    fn flip_bit_exponent_large_perturbation() {
        // Flipping the top exponent bit of 1.0f32 (bit 30) yields 2^128-ish
        // scale change: 1.0 -> 3.4e38 territory (exponent 127 -> 255 would be
        // inf; bit 30 flips exponent field 0111_1111 -> 1111_1111 => inf).
        let x = 1.0f32;
        let y = x.flip_bit(30);
        assert!(y.is_infinite() || y.abs() > 1e30);
    }

    #[test]
    #[should_panic]
    fn flip_bit_out_of_range_panics() {
        let _ = 1.0f32.flip_bit(32);
    }

    #[test]
    fn abs_sqrt() {
        assert_eq!((-3.0f64).abs_r(), 3.0);
        assert_eq!(9.0f64.sqrt_r(), 3.0);
    }

    #[test]
    fn relative_error_basic() {
        let e = relative_error(1.00001f64, 1.0f64);
        assert!((e - 1e-5).abs() < 1e-9, "e = {e}");
        assert_eq!(relative_error(5.0f64, 5.0f64), 0.0);
    }

    #[test]
    fn relative_error_near_zero_denominator() {
        // A zero reference with nonzero value must report a large error,
        // not NaN/inf-driven nonsense.
        let e = relative_error(1.0f64, 0.0f64);
        assert!(e > 1.0);
    }

    #[test]
    fn relative_error_both_zero() {
        assert_eq!(relative_error(0.0f64, 0.0f64), 0.0);
    }

    #[test]
    fn max_abs_works() {
        assert_eq!(max_abs(&[1.0f64, -5.0, 2.0]), 5.0);
        assert_eq!(max_abs::<f64>(&[]), 0.0);
    }

    #[test]
    fn mul_add_matches() {
        let x = 1.5f64;
        assert_eq!(x.mul_add_r(2.0, 1.0), 4.0);
    }

    /// A rough `f32` line spanning 2^±20, as multiples of 2^-43 so that
    /// integers hold its sums exactly.
    fn rough_line(n: usize) -> Vec<f32> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mantissa = 1.0 + ((state >> 40) & 0x7F_FFFF) as f32 / (1u32 << 23) as f32;
                mantissa * 2f32.powi(((state >> 33) % 41) as i32 - 20)
            })
            .collect()
    }

    /// `v · 2^43`, exact for every value and partial sum of a `rough_line`.
    fn scaled(v: f64) -> i128 {
        (v * 2f64.powi(43)) as i128
    }

    #[test]
    fn line_sum_is_the_plain_sum_when_nothing_rounds() {
        for n in [0, 1, 7, 15, 16, 17, 31, 32, 33, 512, 515] {
            let line: Vec<f64> = (0..n).map(|i| (i * i % 97) as f64 - 40.0).collect();
            assert_eq!(line_sum(&line), line.iter().sum::<f64>(), "n = {n}");
            let line: Vec<f32> = line.iter().map(|&v| v as f32).collect();
            assert_eq!(line_sum(&line), line.iter().map(|&v| v as f64).sum::<f64>());
        }
    }

    #[test]
    fn line_sum_of_a_short_line_is_sequential() {
        let line = rough_line(15);
        let sequential = line.iter().fold(0.0f64, |s, &v| s + v as f64);
        assert_eq!(line_sum(&line), sequential);
    }

    /// The fused sweep's comment argues that an `f64`-accumulated sum
    /// leaves the paper's ε = 1e-5 margin untouched on a 512-wide `f32`
    /// line. Splitting the sum into lanes must not weaken that: it is no
    /// further from the exact sum than the sequential `f64` sum, and both
    /// are within a few `f64` roundings of it.
    #[test]
    fn lane_split_sum_is_no_worse_than_sequential_on_a_wide_f32_line() {
        let line = rough_line(512);
        let exact: i128 = line.iter().map(|&v| scaled(v as f64)).sum();
        let sequential = line.iter().fold(0.0f64, |s, &v| s + v as f64);
        let split_err = (scaled(line_sum(&line)) - exact).abs();
        let sequential_err = (scaled(sequential) - exact).abs();
        assert!(
            split_err <= sequential_err,
            "lane-split off by {split_err}, sequential by {sequential_err} (units of 2^-43)"
        );
        // 512/16 adds per lane, four folding levels: 36 roundings at most.
        let bound = 36.0 * f64::EPSILON / 2.0 * exact as f64;
        assert!((split_err as f64) <= bound, "{split_err} > {bound}");
    }

    #[test]
    fn is_finite_checks() {
        assert!(1.0f32.is_finite_r());
        assert!(!f32::INFINITY.is_finite_r());
        assert!(!f32::NAN.is_finite_r());
    }
}
