//! The per-cell constant term `C` of Eq. 1, shared between the clones of a
//! simulation together with its Theorem 1 line sums.

use abft_grid::{box_col_sums, Grid3D};
use abft_num::Real;
use std::sync::{Arc, OnceLock};

/// The constant field of a [`StencilSim`](crate::StencilSim). It never
/// changes after construction, so every clone of the simulation shares one
/// copy, and its line sums — which every protector built on any of those
/// clones needs — are computed once, on first request.
#[derive(Debug)]
pub struct ConstantField<T> {
    grid: Grid3D<T>,
    sums: OnceLock<Arc<[T]>>,
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

    /// The sums of the field's x-lines, flat `[z][y]` (`c_y` of Theorem
    /// 1), summed by the column builder exactly like the checksum vector
    /// of a swept grid.
    pub fn line_sums(&self) -> &Arc<[T]> {
        self.sums.get_or_init(|| {
            let (nx, ny, nz) = self.grid.dims();
            let mut col = vec![T::ZERO; nz * ny];
            box_col_sums(&self.grid, [0; 3], [nx, ny, nz], &mut col);
            col.into()
        })
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
        assert_eq!(&sums[..], &[3.0, 33.0, 303.0, 333.0]);
        assert!(Arc::ptr_eq(sums, field.line_sums()));
    }
}
