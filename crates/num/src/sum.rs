//! The one summation order of every checksum line in the workspace: a
//! column entry `b` (Eq. 3) is the [`line_sum`] of its x-line, and a row
//! vector `a` (Eq. 2) adds its layer's x-lines into `f64` lanes one by
//! one in `y` order with [`add_line`]. The fused sweep, the box builders
//! in `abft-grid` and the interpolation's phantom lines all sum through
//! these two, so "fused ≡ recomputed" holds bitwise by construction.

use crate::Real;

/// Independent partial sums of [`line_sum`]: enough to hide the latency of
/// a floating-point add, few enough to stay in registers.
const LANES: usize = 16;

/// Sum a contiguous line in `f64`: whole blocks of 16 go element-wise
/// into 16 partial sums, which are folded pairwise, and the remaining
/// `len % 16` elements are then added one by one.
///
/// This is *the* definition of a column checksum entry. Accumulating in
/// `f64` keeps an `f32` line's sum within one rounding of exact whatever
/// its length; splitting it into lanes shortens every dependent add chain
/// 16-fold, which only tightens that further.
///
/// Always inlined, so that the sweep's AVX2 instance sums its rows in
/// AVX2 code too; the order is in the source, so any instance gives the
/// same bits.
#[inline(always)]
pub fn line_sum<T: Real>(line: &[T]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let mut blocks = line.chunks_exact(LANES);
    for block in &mut blocks {
        for (lane, &v) in lanes.iter_mut().zip(block) {
            *lane += v.to_f64();
        }
    }
    let mut width = LANES / 2;
    while width > 0 {
        for i in 0..width {
            lanes[i] += lanes[i + width];
        }
        width /= 2;
    }
    blocks
        .remainder()
        .iter()
        .fold(lanes[0], |sum, &v| sum + v.to_f64())
}

/// Add one line element-wise into per-element `f64` lanes:
/// `acc[i] += line[i]`.
///
/// This is *the* definition of a row checksum vector's order: the lanes
/// start at zero and take a layer's x-lines one call each, in `y` order,
/// so each lane is the sequential `f64` sum of its column. Always
/// inlined, like [`line_sum`], because the sweep's AVX2 instance calls it
/// per output row.
#[inline(always)]
pub fn add_line<T: Real>(acc: &mut [f64], line: &[T]) {
    debug_assert_eq!(acc.len(), line.len(), "one lane per element");
    for (a, &v) in acc.iter_mut().zip(line) {
        *a += v.to_f64();
    }
}
