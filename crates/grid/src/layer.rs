//! Borrowed views of a single `z`-layer.

use abft_num::Real;

/// Shared view of one `nx × ny` layer (`x` contiguous).
#[derive(Debug, Clone, Copy)]
pub struct LayerRef<'a, T> {
    data: &'a [T],
    nx: usize,
    ny: usize,
}

impl<'a, T: Real> LayerRef<'a, T> {
    pub(crate) fn new(data: &'a [T], nx: usize, ny: usize) -> Self {
        debug_assert_eq!(data.len(), nx * ny);
        Self { data, nx, ny }
    }

    /// Wrap a raw slice as a layer view (for callers outside the grid).
    pub fn from_slice(data: &'a [T], nx: usize, ny: usize) -> Self {
        assert_eq!(data.len(), nx * ny, "layer slice length mismatch");
        Self { data, nx, ny }
    }

    pub fn nx(&self) -> usize {
        self.nx
    }

    pub fn ny(&self) -> usize {
        self.ny
    }

    #[inline(always)]
    pub fn at(&self, x: usize, y: usize) -> T {
        debug_assert!(x < self.nx && y < self.ny);
        self.data[x + y * self.nx]
    }

    pub fn as_slice(&self) -> &'a [T] {
        self.data
    }

    /// Contiguous line at fixed `y`.
    pub fn line_y(&self, y: usize) -> &'a [T] {
        assert!(y < self.ny);
        &self.data[y * self.nx..(y + 1) * self.nx]
    }

    /// Copy of the (strided) column at fixed `x`.
    pub fn column_x(&self, x: usize) -> Vec<T> {
        assert!(x < self.nx);
        (0..self.ny).map(|y| self.at(x, y)).collect()
    }
}

/// Mutable view of one `nx × ny` layer.
#[derive(Debug)]
pub struct LayerMut<'a, T> {
    data: &'a mut [T],
    nx: usize,
    ny: usize,
}

impl<'a, T: Real> LayerMut<'a, T> {
    pub(crate) fn new(data: &'a mut [T], nx: usize, ny: usize) -> Self {
        debug_assert_eq!(data.len(), nx * ny);
        Self { data, nx, ny }
    }

    /// Wrap a raw mutable slice as a layer view.
    pub fn from_slice(data: &'a mut [T], nx: usize, ny: usize) -> Self {
        assert_eq!(data.len(), nx * ny, "layer slice length mismatch");
        Self { data, nx, ny }
    }

    pub fn nx(&self) -> usize {
        self.nx
    }

    pub fn ny(&self) -> usize {
        self.ny
    }

    #[inline(always)]
    pub fn at(&self, x: usize, y: usize) -> T {
        debug_assert!(x < self.nx && y < self.ny);
        self.data[x + y * self.nx]
    }

    #[inline(always)]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        debug_assert!(x < self.nx && y < self.ny);
        self.data[x + y * self.nx] = v;
    }

    pub fn as_slice(&self) -> &[T] {
        self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.data
    }

    /// Mutable contiguous line at fixed `y`.
    pub fn line_y_mut(&mut self, y: usize) -> &mut [T] {
        assert!(y < self.ny);
        &mut self.data[y * self.nx..(y + 1) * self.nx]
    }

    /// Downgrade to a shared view.
    pub fn as_ref(&self) -> LayerRef<'_, T> {
        LayerRef::new(self.data, self.nx, self.ny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{box_col_sums, box_row_sums, Grid3D};

    fn layer_data() -> Vec<f64> {
        // 3 × 2 layer: values x + 10y
        vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    }

    #[test]
    fn ref_access() {
        let d = layer_data();
        let l = LayerRef::from_slice(&d, 3, 2);
        assert_eq!(l.at(2, 1), 12.0);
        assert_eq!(l.line_y(0), &[0.0, 1.0, 2.0]);
        assert_eq!(l.column_x(1), vec![1.0, 11.0]);
    }

    #[test]
    fn checksum_sums_match_paper_equations() {
        let g = Grid3D::from_vec(3, 2, 1, layer_data());
        let (mut lane, mut a, mut b) = ([0.0], [0.0], [0.0]);
        // a_x = Σ_y u[x,y]: the row vector of the one-column box at x
        box_row_sums(&g, [0, 0, 0], [1, 2], &mut lane, &mut a);
        assert_eq!(a, [10.0]);
        box_row_sums(&g, [2, 0, 0], [1, 2], &mut lane, &mut a);
        assert_eq!(a, [14.0]);
        // b_y = Σ_x u[x,y]: the column vector of the one-line box at y
        box_col_sums(&g, [0, 0, 0], [3, 1, 1], &mut b);
        assert_eq!(b, [3.0]);
        box_col_sums(&g, [0, 1, 0], [3, 1, 1], &mut b);
        assert_eq!(b, [33.0]);
    }

    #[test]
    fn checksum_vectors_match_the_entry_sums() {
        let g = Grid3D::from_vec(3, 2, 1, layer_data());
        let (mut lanes, mut row, mut col) = ([0.0; 3], [0.0; 3], [0.0; 2]);
        box_row_sums(&g, [0, 0, 0], [3, 2], &mut lanes, &mut row);
        box_col_sums(&g, [0, 0, 0], [3, 2, 1], &mut col);
        assert_eq!(row, [10.0, 12.0, 14.0]);
        assert_eq!(col, [3.0, 33.0]);
    }

    #[test]
    fn mut_access() {
        let mut d = layer_data();
        let mut l = LayerMut::from_slice(&mut d, 3, 2);
        l.set(0, 1, -1.0);
        assert_eq!(l.at(0, 1), -1.0);
        assert_eq!(l.as_ref().line_y(1), &[-1.0, 11.0, 12.0]);
        l.line_y_mut(0).fill(5.0);
        assert_eq!(l.at(2, 0), 5.0);
    }

    #[test]
    #[should_panic]
    fn from_slice_length_checked() {
        let d = [0.0f64; 5];
        let _ = LayerRef::from_slice(&d, 3, 2);
    }
}
