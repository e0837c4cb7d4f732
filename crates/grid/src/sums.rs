//! The two checksum builders of Eqs. 2–3, each over a box of a grid given
//! as origin + dims (as [`copy_box`](crate::copy_box) takes one); the
//! whole grid is the box at the origin. Each sums in its vector's one
//! order, [`line_sum`] or [`add_line`], which the fused sweep uses too,
//! so a recomputed vector equals a fused one bitwise.

use crate::Grid3D;
use abft_num::{add_line, line_sum, Real};

/// The column checksums `b[z][y] = Σ_x u[x, y, z]` of the box at `from`
/// with dims `[lx, ly, lz]`, flat `[z][y]` over the box: each entry is the
/// [`line_sum`] of its box line's slice of the grid's x-line.
pub fn box_col_sums<T: Real>(
    grid: &Grid3D<T>,
    from: [usize; 3],
    [lx, ly, lz]: [usize; 3],
    out: &mut [T],
) {
    assert_eq!(out.len(), lz * ly, "column checksum buffer size");
    let (nx, ny, nz) = grid.dims();
    debug_assert!(from[0] + lx <= nx && from[1] + ly <= ny && from[2] + lz <= nz);
    let cells = grid.as_slice();
    let lines = (from[2]..from[2] + lz)
        .flat_map(|z| (from[1]..from[1] + ly).map(move |y| (z * ny + y) * nx + from[0]));
    for (o, line) in out.iter_mut().zip(lines) {
        *o = T::from_f64(line_sum(&cells[line..line + lx]));
    }
}

/// The row checksums `a[x] = Σ_y u[x, y, z]` of one layer of a box: layer
/// `from[2]`, `lx` columns from `from[0]`, each over `ly` rows from
/// `from[1]`. The box's x-lines go into `lanes` (one `f64` per column,
/// held by the caller) with [`add_line`] in `y` order, and `out` gets
/// the lanes.
pub fn box_row_sums<T: Real>(
    grid: &Grid3D<T>,
    from: [usize; 3],
    [lx, ly]: [usize; 2],
    lanes: &mut [f64],
    out: &mut [T],
) {
    assert_eq!(out.len(), lx, "row checksum buffer size");
    assert_eq!(lanes.len(), lx, "one lane per column");
    let (nx, ny, nz) = grid.dims();
    debug_assert!(from[0] + lx <= nx && from[1] + ly <= ny && from[2] < nz);
    let cells = grid.as_slice();
    lanes.fill(0.0);
    for y in from[1]..from[1] + ly {
        let line = (from[2] * ny + y) * nx + from[0];
        add_line(lanes, &cells[line..line + lx]);
    }
    for (o, &a) in out.iter_mut().zip(lanes.iter()) {
        *o = T::from_f64(a);
    }
}
