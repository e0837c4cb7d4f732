//! The column checksums `b` of Eq. 3 of a whole grid. Both vectors of any
//! box are built by `abft_grid`'s two builders, [`box_col_sums`] and
//! [`abft_grid::box_row_sums`], each in its vector's one summation order.

use abft_grid::{box_col_sums, Grid3D};
use abft_num::Real;

/// Compute all column checksums into a flat `[z][y]` buffer: the column
/// builder over the whole grid.
///
/// Every line is summed by [`abft_num::line_sum`] — in `f64`, so that f32
/// checksums over long lines keep their full ε = 1e-5 detection margin
/// (§3.4 notes the approximation error grows with the domain size), and
/// in the very order the fused sweep uses, so the two agree bitwise.
pub fn compute_col_into<T: Real>(grid: &Grid3D<T>, out: &mut [T]) {
    let (nx, ny, nz) = grid.dims();
    box_col_sums(grid, [0, 0, 0], [nx, ny, nz], out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_grid::{box_row_sums, BoundarySpec};
    use abft_num::line_sum;
    use abft_stencil::{sweep, ChecksumMode, Exec, NoHook, Stencil3D, SweepHook};
    use proptest::prelude::*;

    fn grid() -> Grid3D<f64> {
        Grid3D::from_fn(3, 2, 2, |x, y, z| (x + 10 * y + 100 * z) as f64)
    }

    /// Every layer's row vector of the whole grid, flat `[z][x]`.
    fn rows_of<T: Real>(g: &Grid3D<T>) -> Vec<T> {
        let (nx, ny, nz) = g.dims();
        let (mut lanes, mut row) = (vec![0.0; nx], vec![T::ZERO; nz * nx]);
        for (z, r) in row.chunks_exact_mut(nx).enumerate() {
            box_row_sums(g, [0, 0, z], [nx, ny], &mut lanes, r);
        }
        row
    }

    #[test]
    fn column_checksums_match_eq3() {
        let mut col = [0.0; 4];
        compute_col_into(&grid(), &mut col);
        // b[z=0][y=0] = 0+1+2 = 3, b[0][1] = 10+11+12 = 33; z=1 adds 100
        // per point: 303, 333
        assert_eq!(col, [3.0, 33.0, 303.0, 333.0]);
    }

    #[test]
    fn row_checksums_match_eq2() {
        // a[0][x] = u[x,0,0] + u[x,1,0] = x + (x+10)
        assert_eq!(rows_of(&grid()), [10.0, 12.0, 14.0, 210.0, 212.0, 214.0]);
    }

    #[test]
    fn single_layer_helpers_agree_with_full() {
        let g = grid();
        let mut col = [0.0; 4];
        compute_col_into(&g, &mut col);
        let (mut lanes, mut row_1, mut col_1) = ([0.0; 3], [0.0; 3], [0.0; 2]);
        box_row_sums(&g, [0, 0, 1], [3, 2], &mut lanes, &mut row_1);
        box_col_sums(&g, [0, 0, 1], [3, 2, 1], &mut col_1);
        assert_eq!(&row_1[..], &rows_of(&g)[3..6]);
        assert_eq!(&col_1[..], &col[2..4]);
    }

    /// One sweep of a `nx × 3 × 2` grid under `hook`, fused both ways,
    /// against the builders' vectors recomputed from the result.
    fn assert_fused_equals_recomputed<T: Real, H: SweepHook<T>>(nx: usize, hook: &H) {
        let (ny, nz) = (3, 2);
        let w = T::from_f64;
        let src = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            w(40.0 + ((x * 31 + y * 17 + z * 7) % 23) as f64 * 0.37)
        });
        let stencil = if nx > 2 {
            Stencil3D::seven_point(w(0.4), w(0.11), w(0.09), w(0.1))
        } else {
            Stencil3D::from_tuples(&[(0, 0, 0, w(0.6)), (0, 1, 0, w(0.3)), (0, 0, -1, w(0.1))])
        };
        let run = |mode: ChecksumMode<'_, T>| {
            let mut dst = Grid3D::zeros(nx, ny, nz);
            sweep(
                &src,
                &mut dst,
                &stencil,
                &BoundarySpec::clamp(),
                None,
                hook,
                mode,
                Exec::Serial,
            );
            dst
        };
        let (mut col, mut col2) = (vec![T::ZERO; nz * ny], vec![T::ZERO; nz * ny]);
        let mut row = vec![T::ZERO; nz * nx];
        let dst = run(ChecksumMode::Col { col: &mut col });
        let dst2 = run(ChecksumMode::RowCol {
            row: &mut row,
            col: &mut col2,
        });
        assert_eq!(dst, dst2, "nx {nx}: checksum mode changed the data");

        let mut direct = vec![T::ZERO; nz * ny];
        compute_col_into(&dst, &mut direct);
        assert_eq!(col, direct, "nx {nx}: fused Col vs compute_col_into");
        assert_eq!(col2, direct, "nx {nx}: fused RowCol vs compute_col_into");
        assert_eq!(row, rows_of(&dst), "nx {nx}: fused vs box_row_sums");
        for z in 0..nz {
            let mut layer = vec![T::ZERO; ny];
            box_col_sums(&dst, [0, 0, z], [nx, ny, 1], &mut layer);
            assert_eq!(layer, direct[z * ny..(z + 1) * ny], "nx {nx}, layer {z}");
        }
    }

    fn fused_equals_recomputed_at_every_width<T: Real>() {
        // Below, at and above one summation block, the sweep kernel's
        // block edges (at this reach of 1 the widths up to 17 give narrow
        // blocks plus an overlapped one, 19 to 37 whole blocks plus an
        // overlapped one), and long lines with and without a remainder.
        for nx in [1, 7, 8, 9, 16, 17, 19, 21, 36, 37, 512, 515] {
            assert_fused_equals_recomputed::<T, _>(nx, &NoHook);
            let strike = move |x: usize, y: usize, z: usize, v: T| {
                if (x, y, z) == (nx / 2, 1, 1) {
                    v + T::from_f64(100.0)
                } else {
                    v
                }
            };
            assert_fused_equals_recomputed::<T, _>(nx, &strike);
        }
    }

    #[test]
    fn fused_checksums_equal_recomputed_bitwise_f32() {
        fused_equals_recomputed_at_every_width::<f32>();
    }

    #[test]
    fn fused_checksums_equal_recomputed_bitwise_f64() {
        fused_equals_recomputed_at_every_width::<f64>();
    }

    /// `[start, len]` on axis `a` of `n` cells for box `shape` (0 the
    /// whole grid, 1 one x-line, 2 one column along y, else any box),
    /// drawn from `seed`.
    fn axis(shape: usize, a: usize, n: usize, seed: u64) -> [usize; 2] {
        let h = seed
            .rotate_left(17 * a as u32)
            .wrapping_mul(0xD6E8FEB86659FD93)
            >> 8;
        let start = (h % n as u64) as usize;
        let len = 1 + ((h >> 20) % (n - start) as u64) as usize;
        match (shape, a) {
            (0, _) => [0, n],
            (1, 1 | 2) | (2, 0 | 2) => [start, 1],
            _ => [start, len],
        }
    }

    fn bits<T: Real>(v: &[T]) -> Vec<u64> {
        v.iter().map(|c| c.to_f64().to_bits()).collect()
    }

    /// The builders over box `shape` of a drawn grid, bitwise against
    /// their definitions; then both over the whole swept grid against the
    /// sweep's fused `RowCol` vectors.
    fn builders_match_definitions<T: Real>(
        n: [usize; 3],
        shape: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let w = T::from_f64;
        let src = Grid3D::from_fn(n[0], n[1], n[2], |x, y, z| {
            let h = seed.wrapping_add((x + 71 * y + 997 * z) as u64);
            w((h.wrapping_mul(0x9E3779B97F4A7C15) >> 11) as f64 / (1u64 << 40) as f64 - 2.0e3)
        });
        let [[x0, lx], [y0, ly], [z0, lz]] = std::array::from_fn(|a| axis(shape, a, n[a], seed));
        let ctx = format!("box {:?} at {:?} of {n:?}", [lx, ly, lz], [x0, y0, z0]);

        let mut col = vec![T::ZERO; lz * ly];
        box_col_sums(&src, [x0, y0, z0], [lx, ly, lz], &mut col);
        let g = &src;
        let lines = (z0..z0 + lz).flat_map(|z| (y0..y0 + ly).map(move |y| g.idx(x0, y, z)));
        let expect: Vec<T> = lines
            .map(|l| T::from_f64(line_sum(&src.as_slice()[l..l + lx])))
            .collect();
        prop_assert_eq!(bits(&col), bits(&expect), "column vector; {}", ctx);

        let (mut lanes, mut row) = (vec![0.0; lx], vec![T::ZERO; lx]);
        for z in z0..z0 + lz {
            box_row_sums(&src, [x0, y0, z], [lx, ly], &mut lanes, &mut row);
            let fold = |x| (y0..y0 + ly).fold(0.0, |a, y| a + src.at(x, y, z).to_f64());
            let expect: Vec<T> = (x0..x0 + lx).map(|x| T::from_f64(fold(x))).collect();
            prop_assert_eq!(
                bits(&row),
                bits(&expect),
                "layer {}'s row vector; {}",
                z,
                ctx
            );
        }

        let mut dst = Grid3D::zeros(n[0], n[1], n[2]);
        let mut fused_row = vec![T::ZERO; n[2] * n[0]];
        let mut fused_col = vec![T::ZERO; n[2] * n[1]];
        sweep(
            &src,
            &mut dst,
            &Stencil3D::seven_point(w(0.4), w(0.11), w(0.09), w(0.1)),
            &BoundarySpec::clamp(),
            None,
            &NoHook,
            ChecksumMode::RowCol {
                row: &mut fused_row,
                col: &mut fused_col,
            },
            Exec::Serial,
        );
        let mut direct = vec![T::ZERO; n[2] * n[1]];
        compute_col_into(&dst, &mut direct);
        prop_assert_eq!(bits(&direct), bits(&fused_col), "whole column vector");
        prop_assert_eq!(bits(&rows_of(&dst)), bits(&fused_row), "whole row vectors");
        Ok(())
    }

    proptest! {
        /// Random grids and boxes (the whole grid, one x-line, one column
        /// along y, any box), `f32` and `f64`: each column entry is the
        /// `line_sum` of its box line, each row entry the `y`-order `f64`
        /// fold of its box column, and over a swept whole grid both are
        /// the sweep's fused vectors, all bitwise.
        #[test]
        fn box_builders_match_their_definitions_bitwise(
            dims in (2usize..70, 2usize..10, 2usize..5),
            shape in 0usize..4,
            seed in any::<u64>(),
            wide in any::<bool>(),
        ) {
            let dims = [dims.0, dims.1, dims.2];
            if wide {
                builders_match_definitions::<f64>(dims, shape, seed)?;
            } else {
                builders_match_definitions::<f32>(dims, shape, seed)?;
            }
        }
    }
}
