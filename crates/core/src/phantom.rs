//! Sources of time-`t` near-boundary data for the α/β correction terms.

use abft_grid::{BoundaryStrips, Grid3D};
use abft_num::Real;

/// Where the interpolation's boundary-correction terms read time-`t`
/// domain values from.
///
/// * [`StripSet::Grid`] — the full time-`t` grid is still alive (the online
///   protector points this at the double buffer's previous grid). It is
///   the one source that can serve reads past a box of the grid: the
///   interpolator places its box and reads in grid coordinates;
/// * [`StripSet::Strips`] — only captured [`BoundaryStrips`] survive (the
///   offline protector records them per iteration, `O(k·(nx+ny))` each);
/// * [`StripSet::None`] — the zero-correction fast path (Eqs. 8–9) where no
///   boundary data is needed; any access panics.
#[derive(Debug, Clone, Copy)]
pub enum StripSet<'a, T> {
    /// No boundary data available (fast path only).
    None,
    /// Full grid access.
    Grid(&'a Grid3D<T>),
    /// Captured per-layer strips (index = `z`).
    Strips(&'a [BoundaryStrips<T>]),
}

impl<T: Real> StripSet<'_, T> {
    /// Time-`t` value at `(x, y, z)` where `x` lies within the captured
    /// strip width of an `x`-edge.
    #[inline]
    pub fn near_x(&self, x: usize, y: usize, z: usize, nx: usize) -> T {
        match self {
            StripSet::None => {
                panic!("boundary corrections require time-t data, but StripSet::None was supplied")
            }
            StripSet::Grid(g) => g.at(x, y, z),
            StripSet::Strips(s) => {
                let st = &s[z];
                let w = st.width_x();
                if x < w {
                    st.at_x_lo(x, y)
                } else {
                    let m = nx - 1 - x;
                    assert!(m < w, "x={x} outside captured strip width {w}");
                    st.at_x_hi(m, y)
                }
            }
        }
    }
}

/// Capture strips for every layer of a grid with the given widths.
pub fn capture_all_layers<T: Real>(
    grid: &Grid3D<T>,
    wx: usize,
    wy: usize,
) -> Vec<BoundaryStrips<T>> {
    grid.layers()
        .map(|l| BoundaryStrips::capture(l, wx, wy))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid3D<f64> {
        Grid3D::from_fn(5, 4, 2, |x, y, z| (x + 10 * y + 100 * z) as f64)
    }

    #[test]
    fn grid_source_reads_anywhere() {
        let g = grid();
        let s = StripSet::Grid(&g);
        assert_eq!(s.near_x(2, 3, 1, 5), 132.0);
        assert_eq!(s.near_x(4, 0, 0, 5), 4.0);
    }

    #[test]
    fn strip_source_matches_grid_near_edges() {
        let g = grid();
        let strips = capture_all_layers(&g, 2, 2);
        let by_strip = StripSet::Strips(&strips);
        let by_grid = StripSet::Grid(&g);
        for z in 0..2 {
            for y in 0..4 {
                for x in [0usize, 1, 3, 4] {
                    assert_eq!(
                        by_strip.near_x(x, y, z, 5),
                        by_grid.near_x(x, y, z, 5),
                        "near_x({x},{y},{z})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn none_source_panics() {
        let s = StripSet::<f64>::None;
        let _ = s.near_x(0, 0, 0, 5);
    }

    #[test]
    #[should_panic]
    fn strip_source_rejects_deep_interior() {
        let g = grid();
        let strips = capture_all_layers(&g, 1, 1);
        let s = StripSet::Strips(&strips);
        let _ = s.near_x(2, 0, 0, 5); // x=2 is 2 away from both edges, width 1
    }
}
