//! Borrowed views of a single `z`-layer.

use abft_num::{line_sum, Real};

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

    /// Row checksum entry: `a_x = Σ_y u[x,y]` (paper Eq. 2).
    pub fn sum_along_y(&self, x: usize) -> T {
        (0..self.ny).map(|y| self.at(x, y)).sum()
    }

    /// Column checksum entry: `b_y = Σ_x u[x,y]` (paper Eq. 3).
    pub fn sum_along_x(&self, y: usize) -> T {
        self.line_y(y).iter().copied().sum()
    }

    /// The layer's column checksum vector `b` (length `ny`), each line
    /// summed by [`abft_num::line_sum`] — the summation the fused sweep
    /// uses, so a recomputed vector equals a fused one bitwise.
    pub fn col_checksums_into(&self, out: &mut [T]) {
        assert_eq!(out.len(), self.ny, "column checksum layer buffer size");
        for (o, line) in out.iter_mut().zip(self.data.chunks_exact(self.nx)) {
            *o = T::from_f64(line_sum(line));
        }
    }

    /// The layer's row checksum vector `a` (length `nx`), accumulated in
    /// `f64` line by line in `y` order, as the fused sweep does.
    pub fn row_checksums_into(&self, out: &mut [T]) {
        assert_eq!(out.len(), self.nx, "row checksum layer buffer size");
        let mut acc = vec![0.0f64; self.nx];
        for line in self.data.chunks_exact(self.nx) {
            for (a, &v) in acc.iter_mut().zip(line) {
                *a += v.to_f64();
            }
        }
        for (o, &a) in out.iter_mut().zip(&acc) {
            *o = T::from_f64(a);
        }
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
        let d = layer_data();
        let l = LayerRef::from_slice(&d, 3, 2);
        // a_x = Σ_y u[x,y]
        assert_eq!(l.sum_along_y(0), 10.0);
        assert_eq!(l.sum_along_y(2), 14.0);
        // b_y = Σ_x u[x,y]
        assert_eq!(l.sum_along_x(0), 3.0);
        assert_eq!(l.sum_along_x(1), 33.0);
    }

    #[test]
    fn checksum_vectors_match_the_entry_sums() {
        let d = layer_data();
        let l = LayerRef::from_slice(&d, 3, 2);
        let (mut row, mut col) = ([0.0; 3], [0.0; 2]);
        l.row_checksums_into(&mut row);
        l.col_checksums_into(&mut col);
        assert_eq!(row, [10.0, 12.0, 14.0]);
        assert_eq!(col, [3.0, 33.0]);
    }

    #[test]
    fn mut_access() {
        let mut d = layer_data();
        let mut l = LayerMut::from_slice(&mut d, 3, 2);
        l.set(0, 1, -1.0);
        assert_eq!(l.at(0, 1), -1.0);
        assert_eq!(l.as_ref().sum_along_x(1), 22.0);
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
