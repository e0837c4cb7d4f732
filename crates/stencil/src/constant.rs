//! The per-cell constant term `C` of Eq. 1, shared between the clones of a
//! simulation together with its Theorem 1 line sums.

use abft_grid::{box_col_sums, box_row_sums, Grid3D};
use abft_num::Real;
use std::sync::{Arc, OnceLock};

/// Per-layer line sums of a field: `row` is flat `[z][x]` (`Σ_y`, the
/// paper's `c_x`), `col` is flat `[z][y]` (`Σ_x`, the paper's `c_y`),
/// summed exactly like the checksum vectors of a swept grid.
#[derive(Debug, Clone, PartialEq)]
pub struct LineSums<T> {
    pub row: Vec<T>,
    pub col: Vec<T>,
}

impl<T: Real> LineSums<T> {
    /// Sum every line of `grid` with the box builders, the whole grid
    /// as the box.
    pub fn of(grid: &Grid3D<T>) -> Self {
        let (nx, ny, nz) = grid.dims();
        let mut row = vec![T::ZERO; nz * nx];
        let mut col = vec![T::ZERO; nz * ny];
        let mut lanes = vec![0.0; nx];
        for (z, r) in row.chunks_exact_mut(nx).enumerate() {
            box_row_sums(grid, [0, 0, z], [nx, ny], &mut lanes, r);
        }
        box_col_sums(grid, [0, 0, 0], [nx, ny, nz], &mut col);
        Self { row, col }
    }
}

/// The constant field of a [`StencilSim`](crate::StencilSim). It never
/// changes after construction, so every clone of the simulation shares one
/// copy, and its line sums — which every protector built on any of those
/// clones needs — are computed once, on first request.
#[derive(Debug)]
pub struct ConstantField<T> {
    grid: Grid3D<T>,
    sums: OnceLock<Arc<LineSums<T>>>,
}

impl<T: Real> ConstantField<T> {
    pub(crate) fn new(grid: Grid3D<T>) -> Self {
        Self {
            grid,
            sums: OnceLock::new(),
        }
    }

    pub(crate) fn grid(&self) -> &Grid3D<T> {
        &self.grid
    }

    /// The field's line sums (`c_x`, `c_y` of Theorem 1).
    pub fn line_sums(&self) -> &Arc<LineSums<T>> {
        self.sums.get_or_init(|| Arc::new(LineSums::of(&self.grid)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_sums_are_computed_once_and_shared() {
        let field = ConstantField::new(Grid3D::from_fn(3, 2, 2, |x, y, z| {
            (x + 10 * y + 100 * z) as f64
        }));
        let sums = field.line_sums();
        assert_eq!(&sums.row[0..3], &[10.0, 12.0, 14.0]);
        assert_eq!(&sums.col[2..4], &[303.0, 333.0]);
        assert!(Arc::ptr_eq(sums, field.line_sums()));
    }
}
