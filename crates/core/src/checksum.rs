//! Checksum state: the per-layer row (`a`) and column (`b`) vectors of
//! Eqs. 2–3.

use abft_grid::Grid3D;
use abft_num::{line_sum, Real};
use abft_stencil::{InteriorWindow, LineSums};

/// Per-layer checksum vectors of a 3-D domain at one time step.
///
/// Stored flat: `col` is `[z][y]` (length `nz·ny`, the paper's `b`), `row`
/// is `[z][x]` (length `nz·nx`, the paper's `a`). Following §3.2 the row
/// side is optional — the online protector keeps only the column side
/// and builds rows for the layers whose columns mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct ChecksumState<T> {
    nx: usize,
    ny: usize,
    nz: usize,
    /// Column checksums `b[z][y] = Σ_x u[x,y,z]`.
    pub col: Vec<T>,
    /// Row checksums `a[z][x] = Σ_y u[x,y,z]`, if maintained.
    pub row: Option<Vec<T>>,
}

impl<T: Real> ChecksumState<T> {
    /// Compute the column checksums (and optionally the row checksums)
    /// directly from a grid (Eqs. 2–3).
    pub fn compute(grid: &Grid3D<T>, with_row: bool) -> Self {
        let (nx, ny, nz) = grid.dims();
        let mut col = vec![T::ZERO; nz * ny];
        compute_col_into(grid, &mut col);
        let row = with_row.then(|| {
            let mut r = vec![T::ZERO; nz * nx];
            compute_row_into(grid, &mut r);
            r
        });
        Self {
            nx,
            ny,
            nz,
            col,
            row,
        }
    }

    /// Zero-initialised state with the given dimensions.
    pub fn zeros(nx: usize, ny: usize, nz: usize, with_row: bool) -> Self {
        Self {
            nx,
            ny,
            nz,
            col: vec![T::ZERO; nz * ny],
            row: with_row.then(|| vec![T::ZERO; nz * nx]),
        }
    }

    pub fn nx(&self) -> usize {
        self.nx
    }

    pub fn ny(&self) -> usize {
        self.ny
    }

    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Column checksum vector of one layer.
    pub fn col_layer(&self, z: usize) -> &[T] {
        &self.col[z * self.ny..(z + 1) * self.ny]
    }

    /// Row checksum vector of one layer (panics if not maintained).
    pub fn row_layer(&self, z: usize) -> &[T] {
        let row = self.row.as_ref().expect("row checksums not maintained");
        &row[z * self.nx..(z + 1) * self.nx]
    }
}

/// Compute all column checksums into a flat `[z][y]` buffer.
///
/// Every line is summed by [`abft_num::line_sum`] — in `f64`, so that f32
/// checksums over long lines keep their full ε = 1e-5 detection margin
/// (§3.4 notes the approximation error grows with the domain size), and
/// in the very order the fused sweep uses, so the two agree bitwise.
pub fn compute_col_into<T: Real>(grid: &Grid3D<T>, out: &mut [T]) {
    let (_, ny, nz) = grid.dims();
    assert_eq!(out.len(), nz * ny, "column checksum buffer size");
    for (layer, o) in grid.layers().zip(out.chunks_exact_mut(ny)) {
        layer.col_checksums_into(o);
    }
}

/// Compute all row checksums into a flat `[z][x]` buffer (f64-accumulated,
/// see [`compute_col_into`]).
pub fn compute_row_into<T: Real>(grid: &Grid3D<T>, out: &mut [T]) {
    let (nx, _, nz) = grid.dims();
    assert_eq!(out.len(), nz * nx, "row checksum buffer size");
    for (layer, o) in grid.layers().zip(out.chunks_exact_mut(nx)) {
        layer.row_checksums_into(o);
    }
}

/// Compute the row checksums of a **single layer** into `out` (length `nx`).
pub fn compute_row_layer_into<T: Real>(grid: &Grid3D<T>, z: usize, out: &mut [T]) {
    grid.layer(z).row_checksums_into(out);
}

/// Compute the column checksums of a **single layer** into `out`
/// (length `ny`).
pub fn compute_col_layer_into<T: Real>(grid: &Grid3D<T>, z: usize, out: &mut [T]) {
    grid.layer(z).col_checksums_into(out);
}

/// The column checksums of the `domain` box of `grid`, flat `[z][y]` over
/// the box: each line's slice is summed by [`line_sum`] from its first
/// cell, exactly as a grid of the box's own shape sums its lines.
pub(crate) fn box_col_into<T: Real>(grid: &Grid3D<T>, domain: &InteriorWindow, out: &mut [T]) {
    let (nx, ny, _) = grid.dims();
    assert_eq!(
        out.len(),
        domain.z.len() * domain.y.len(),
        "box checksum size"
    );
    let (ys, xs) = (&domain.y, &domain.x);
    let lines = domain
        .z
        .clone()
        .flat_map(|z| ys.clone().map(move |y| (z * ny + y) * nx));
    for (o, line) in out.iter_mut().zip(lines) {
        *o = T::from_f64(line_sum(&grid.as_slice()[line + xs.start..line + xs.end]));
    }
}

/// The row checksums of layer `z` (counted within the box) of the
/// `domain` box of `grid`, accumulated in `f64` in `y` order like
/// [`compute_row_layer_into`].
pub(crate) fn box_row_layer_into<T: Real>(
    grid: &Grid3D<T>,
    domain: &InteriorWindow,
    z: usize,
    out: &mut [T],
) {
    let (nx, ny, _) = grid.dims();
    let mut acc = vec![0.0f64; domain.x.len()];
    for y in domain.y.clone() {
        let line = ((domain.z.start + z) * ny + y) * nx;
        let cells = &grid.as_slice()[line + domain.x.start..line + domain.x.end];
        for (a, &v) in acc.iter_mut().zip(cells) {
            *a += v.to_f64();
        }
    }
    for (o, &a) in out.iter_mut().zip(&acc) {
        *o = T::from_f64(a);
    }
}

/// Per-layer sums of the constant field: `c_x` and `c_y` of Theorem 1
/// (`cb[z][y] = Σ_x C[x,y,z]`, `ca[z][x] = Σ_y C[x,y,z]`).
pub fn constant_sums<T: Real>(
    constant: Option<&Grid3D<T>>,
    nx: usize,
    ny: usize,
    nz: usize,
) -> (Vec<T>, Vec<T>) {
    match constant {
        None => (vec![T::ZERO; nz * nx], vec![T::ZERO; nz * ny]),
        Some(c) => {
            assert_eq!(c.dims(), (nx, ny, nz), "constant-field dimension mismatch");
            let LineSums { row, col } = LineSums::of(c);
            (row, col)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_grid::BoundarySpec;
    use abft_stencil::{sweep, ChecksumMode, Exec, NoHook, Stencil3D, SweepHook};

    fn grid() -> Grid3D<f64> {
        Grid3D::from_fn(3, 2, 2, |x, y, z| (x + 10 * y + 100 * z) as f64)
    }

    #[test]
    fn column_checksums_match_eq3() {
        let g = grid();
        let cs = ChecksumState::compute(&g, false);
        // b[z=0][y=0] = 0+1+2 = 3, b[0][1] = 10+11+12 = 33
        assert_eq!(cs.col_layer(0), &[3.0, 33.0]);
        // z=1 adds 100 per point: 303, 333
        assert_eq!(cs.col_layer(1), &[303.0, 333.0]);
        assert!(cs.row.is_none());
    }

    #[test]
    fn row_checksums_match_eq2() {
        let g = grid();
        let cs = ChecksumState::compute(&g, true);
        // a[0][x] = u[x,0,0] + u[x,1,0] = x + (x+10)
        assert_eq!(cs.row_layer(0), &[10.0, 12.0, 14.0]);
        assert_eq!(cs.row_layer(1), &[210.0, 212.0, 214.0]);
    }

    #[test]
    fn single_layer_helpers_agree_with_full() {
        let g = grid();
        let cs = ChecksumState::compute(&g, true);
        let mut row = vec![0.0; 3];
        let mut col = vec![0.0; 2];
        compute_row_layer_into(&g, 1, &mut row);
        compute_col_layer_into(&g, 1, &mut col);
        assert_eq!(&row[..], cs.row_layer(1));
        assert_eq!(&col[..], cs.col_layer(1));
    }

    #[test]
    fn constant_sums_zero_when_absent() {
        let (ca, cb) = constant_sums::<f64>(None, 3, 2, 2);
        assert!(ca.iter().all(|&v| v == 0.0));
        assert_eq!(ca.len(), 6);
        assert_eq!(cb.len(), 4);
    }

    #[test]
    fn constant_sums_match_direct() {
        let c = grid();
        let (ca, cb) = constant_sums(Some(&c), 3, 2, 2);
        assert_eq!(&ca[0..3], &[10.0, 12.0, 14.0]);
        assert_eq!(&cb[2..4], &[303.0, 333.0]);
    }

    /// One sweep of a `nx × 3 × 2` grid under `hook`, fused both ways,
    /// against every way of recomputing the vectors from the result.
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

        let direct = ChecksumState::compute(&dst, true);
        assert_eq!(col, direct.col, "nx {nx}: fused Col vs compute_col_into");
        assert_eq!(
            col2, direct.col,
            "nx {nx}: fused RowCol vs compute_col_into"
        );
        assert_eq!(Some(row), direct.row, "nx {nx}: fused vs compute_row_into");
        for z in 0..nz {
            let mut layer = vec![T::ZERO; ny];
            compute_col_layer_into(&dst, z, &mut layer);
            assert_eq!(layer, direct.col_layer(z), "nx {nx}, layer {z}");
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

    #[test]
    #[should_panic]
    fn row_layer_panics_when_not_maintained() {
        let cs = ChecksumState::<f64>::compute(&grid(), false);
        let _ = cs.row_layer(0);
    }
}
