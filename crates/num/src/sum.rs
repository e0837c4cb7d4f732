//! The one summation order of every checksum line in the workspace.

use crate::Real;

/// Independent partial sums of [`line_sum`]: enough to hide the latency of
/// a floating-point add, few enough to stay in registers.
const LANES: usize = 16;

/// Sum a contiguous line in `f64`: whole blocks of 16 go element-wise
/// into 16 partial sums, which are folded pairwise, and the remaining
/// `len % 16` elements are then added one by one.
///
/// This is *the* definition of a checksum line sum: the fused sweep, the
/// direct recomputation in `abft-core` and the constant-field sums all
/// call it, so "fused ≡ recomputed" holds bitwise by construction.
/// Accumulating in `f64` keeps an `f32` line's sum within one rounding of
/// exact whatever its length; splitting it into lanes shortens every
/// dependent add chain 16-fold, which only tightens that further.
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
