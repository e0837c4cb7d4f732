//! Error correction (Eq. 10 and Fig. 6 of the paper).

use abft_grid::LayerMut;
use abft_num::Real;

/// Record of one corrected domain point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrectionEvent<T> {
    /// Layer of the corrected point.
    pub z: usize,
    /// Row of the corrected point.
    pub x: usize,
    /// Column of the corrected point.
    pub y: usize,
    /// Corrupted value found in the domain.
    pub old: T,
    /// Recovered value written back.
    pub new: T,
    /// Eq. 10's value for the point. [`correct_layer`] writes it, so it
    /// is `new` there; the online protector writes the recomputed cell
    /// instead, and `estimate − new` is the error Eq. 10 alone would have
    /// left (the paper's Fig. 9).
    pub estimate: T,
}

impl<T: Real> CorrectionEvent<T> {
    /// Magnitude of the repaired corruption.
    pub fn magnitude(&self) -> T {
        (self.new - self.old).abs_r()
    }
}

/// Correct a single corrupted point at `(ex, ey)` of layer `z` (Eq. 10)
/// of the box whose first cell sits at `(ox, oy)` of `layer`:
///
/// ```text
/// correct = a'[ex] − (a[ex] − u[ex,ey])     // recover via the row sum
///         = b'[ey] − (b[ey] − u[ex,ey])     // recover via the column sum
/// ```
///
/// Both recoveries are computed and averaged (the paper's Fig. 6), the
/// domain point is overwritten, and the *computed* checksum entries are
/// repaired in place so that they describe the corrected data — "checksums
/// also need to be updated to maintain stencil correctness for the next
/// iterations". The value is exact only to the rounding of the checksum
/// lines; the online protector keeps it as the estimate and writes the
/// recomputed cell over it.
#[allow(clippy::too_many_arguments)]
pub fn correct_layer<T: Real>(
    layer: &mut LayerMut<'_, T>,
    comp_row: &mut [T],
    comp_col: &mut [T],
    interp_row: &[T],
    interp_col: &[T],
    ex: usize,
    ey: usize,
    z: usize,
    (ox, oy): (usize, usize),
) -> CorrectionEvent<T> {
    let old = layer.at(ox + ex, oy + ey);
    let via_row = interp_row[ex] - (comp_row[ex] - old);
    let via_col = interp_col[ey] - (comp_col[ey] - old);
    let new = (via_row + via_col) / T::from_f64(2.0);
    layer.set(ox + ex, oy + ey, new);
    comp_row[ex] += new - old;
    comp_col[ey] += new - old;
    CorrectionEvent {
        z,
        x: ex,
        y: ey,
        old,
        new,
        estimate: new,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_grid::{box_col_sums, box_row_sums, Grid3D};

    /// The row and column checksum vectors of a one-layer grid.
    fn sums(g: &Grid3D<f64>) -> (Vec<f64>, Vec<f64>) {
        let (nx, ny, _) = g.dims();
        let (mut lanes, mut row, mut col) = (vec![0.0; nx], vec![0.0; nx], vec![0.0; ny]);
        box_row_sums(g, [0, 0, 0], [nx, ny], &mut lanes, &mut row);
        box_col_sums(g, [0, 0, 0], [nx, ny, 1], &mut col);
        (row, col)
    }

    /// Build a layer, corrupt one point, run Eq. 10, and check exact
    /// recovery (both recoveries agree, so the average is exact).
    #[test]
    fn recovers_exact_value() {
        let mut g = Grid3D::from_fn(4, 3, 1, |x, y, _| (x + 10 * y) as f64);
        // True checksums of the *clean* data play the role of the
        // interpolated vectors (Theorem 2: interpolation reproduces the
        // clean checksums).
        let (interp_row, interp_col) = sums(&g);

        // Corrupt (2, 1): 12 -> 512.
        let truth = g.at(2, 1, 0);
        g.set(2, 1, 0, 512.0);

        // Computed checksums over the corrupted data.
        let (mut comp_row, mut comp_col) = sums(&g);

        let mut layer = g.layer_mut(0);
        let ev = correct_layer(
            &mut layer,
            &mut comp_row,
            &mut comp_col,
            &interp_row,
            &interp_col,
            2,
            1,
            0,
            (0, 0),
        );
        assert_eq!(ev.old, 512.0);
        assert_eq!(ev.new, truth);
        assert_eq!(g.at(2, 1, 0), truth);
    }

    #[test]
    fn checksums_are_repaired() {
        let mut g = Grid3D::from_fn(4, 3, 1, |x, y, _| (x + y) as f64);
        let (interp_row, interp_col) = sums(&g);
        g.set(1, 2, 0, -100.0);
        let (mut comp_row, mut comp_col) = sums(&g);

        let mut layer = g.layer_mut(0);
        let _ = correct_layer(
            &mut layer,
            &mut comp_row,
            &mut comp_col,
            &interp_row,
            &interp_col,
            1,
            2,
            0,
            (0, 0),
        );
        // After correction the computed checksums must equal the clean ones.
        for (a, b) in comp_row.iter().zip(&interp_row) {
            assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in comp_col.iter().zip(&interp_col) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn magnitude_reports_repair_size() {
        let ev = CorrectionEvent {
            z: 0,
            x: 0,
            y: 0,
            old: 5.0f64,
            new: 2.0,
            estimate: 2.0,
        };
        assert_eq!(ev.magnitude(), 3.0);
    }
}
