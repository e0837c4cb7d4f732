//! Seeded fault plans that stay meaningful.
//!
//! A uniformly random bit flip is usually *benign*: below the protector's
//! detection floor it is neither detected nor harmful, and whether one
//! lands there depends on the seed — so a plan drawn from all bits makes
//! "was every injected flip detected and corrected?" flap. The plans here
//! draw sites and bits from `--seed`, but bits only from the band that
//! `abft_fault::first_detectable_bit` predicts detectable on every cell of
//! the grid, below the exponent (an exponent flip can overflow the
//! checksum the correction is computed from).

use std::ops::Range;

use abft_fault::{first_detectable_bit, BitFlip};
use abft_num::Real;

use crate::rng::Rng;

/// The fraction-bit positions whose flip the protector must detect
/// wherever it strikes in `values`, for checksum lines of `line_len`
/// cells compared at threshold `epsilon`.
///
/// # Panics
/// Panics when the band is empty — the workload's grid and ε would make
/// every planned fault meaningless.
pub fn detectable_bits<T: Real>(epsilon: f64, line_len: usize, values: &[T]) -> Range<u32> {
    let (lo, hi) = values
        .iter()
        .map(|v| v.to_f64().abs())
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
    assert!(
        lo > 0.0 && hi.is_finite(),
        "fault plans need non-zero finite data"
    );
    // The predictor takes one scale for both the line sum and the struck
    // value; lines are bounded by the largest value and the struck cell by
    // the smallest, so shift the band up by their ratio, plus one bit of
    // slack for the drift of values over a job's sweeps.
    let first = first_detectable_bit::<T>(epsilon, line_len, hi)
        .expect("some bit is detectable at a sane scale");
    let margin = (hi / lo).log2().ceil() as u32 + 1;
    let band = (first + margin)..T::MANTISSA_BITS;
    assert!(
        !band.is_empty(),
        "no fraction bit is safely detectable (first {first}, margin {margin})"
    );
    band
}

/// One flip at a seeded sweep, site and bit.
pub fn draw_flip(
    rng: &mut Rng,
    sweeps: Range<usize>,
    extent: (usize, usize, usize),
    bits: &Range<u32>,
) -> BitFlip {
    BitFlip {
        iteration: rng.range(sweeps.start, sweeps.end),
        x: rng.range(0, extent.0),
        y: rng.range(0, extent.1),
        z: rng.range(0, extent.2),
        bit: rng.range(bits.start as usize, bits.end as usize) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_sits_between_the_floor_and_the_exponent() {
        // HotSpot-like f32 data on 512-wide lines: the predictor's first
        // detectable bit is 16 at scale 330; values span 80..330 (ratio
        // 4.1 → 3 bits) plus one of slack.
        let values = [80.0f32, 200.0, 330.0];
        assert_eq!(detectable_bits(1e-5, 512, &values), 20..23);
        let values = [40.0f64, 80.0];
        let band = detectable_bits(1e-11, 160, &values);
        assert_eq!(band.end, 52);
        assert!(band.start > 20 && band.start < 30, "{band:?}");
    }

    #[test]
    fn flips_are_seeded_and_in_range() {
        let bits = 20..23;
        let a = draw_flip(&mut Rng::new(5, 9), 2..6, (8, 4, 2), &bits);
        let b = draw_flip(&mut Rng::new(5, 9), 2..6, (8, 4, 2), &bits);
        assert_eq!(a, b);
        assert!((2..6).contains(&a.iteration));
        assert!(a.x < 8 && a.y < 4 && a.z < 2 && bits.contains(&a.bit));
    }

    #[test]
    #[should_panic(expected = "no fraction bit")]
    fn an_empty_band_is_refused() {
        // ε so large that only exponent flips clear the floor.
        detectable_bits(1e-3, 512, &[1.0f32, 2.0]);
    }
}
