//! Owned dense 3-D grid with per-layer views.

use crate::{LayerMut, LayerRef};
use abft_num::Real;

/// A dense `nx × ny × nz` grid stored row-major with `x` contiguous
/// (`idx = x + y*nx + z*nx*ny`), the exact layout of the paper's listings.
///
/// A `z`-layer (`nx × ny` plane) is the unit of parallelism: the paper
/// assigns one OpenMP thread per layer, we hand each layer to a rayon task.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3D<T> {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<T>,
}

impl<T: Real> Grid3D<T> {
    /// Grid filled with a single value.
    pub fn filled(nx: usize, ny: usize, nz: usize, value: T) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "grid dimensions must be positive"
        );
        Self {
            nx,
            ny,
            nz,
            data: vec![value; nx * ny * nz],
        }
    }

    /// Zero-filled grid.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Self::filled(nx, ny, nz, T::ZERO)
    }

    /// Build from a function of the coordinates.
    pub fn from_fn(
        nx: usize,
        ny: usize,
        nz: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "grid dimensions must be positive"
        );
        let mut data = Vec::with_capacity(nx * ny * nz);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    data.push(f(x, y, z));
                }
            }
        }
        Self { nx, ny, nz, data }
    }

    /// Wrap an existing row-major buffer (`len == nx*ny*nz`).
    pub fn from_vec(nx: usize, ny: usize, nz: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), nx * ny * nz, "buffer length mismatch");
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "grid dimensions must be positive"
        );
        Self { nx, ny, nz, data }
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

    /// `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of cells in one `z`-layer.
    pub fn layer_len(&self) -> usize {
        self.nx * self.ny
    }

    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        x + y * self.nx + z * self.nx * self.ny
    }

    #[inline(always)]
    pub fn at(&self, x: usize, y: usize, z: usize) -> T {
        self.data[self.idx(x, y, z)]
    }

    #[inline(always)]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        let i = self.idx(x, y, z);
        self.data[i] = v;
    }

    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Borrow one `z`-layer.
    pub fn layer(&self, z: usize) -> LayerRef<'_, T> {
        assert!(z < self.nz, "layer {z} out of range (nz = {})", self.nz);
        let l = self.layer_len();
        LayerRef::new(&self.data[z * l..(z + 1) * l], self.nx, self.ny)
    }

    /// Borrow one `z`-layer mutably.
    pub fn layer_mut(&mut self, z: usize) -> LayerMut<'_, T> {
        assert!(z < self.nz, "layer {z} out of range (nz = {})", self.nz);
        let l = self.layer_len();
        let (nx, ny) = (self.nx, self.ny);
        LayerMut::new(&mut self.data[z * l..(z + 1) * l], nx, ny)
    }

    /// Iterate over all layers.
    pub fn layers(&self) -> impl ExactSizeIterator<Item = LayerRef<'_, T>> {
        let (nx, ny) = (self.nx, self.ny);
        self.data
            .chunks_exact(self.layer_len())
            .map(move |c| LayerRef::new(c, nx, ny))
    }

    /// Iterate over all layers mutably (the basis of per-layer parallelism:
    /// the resulting views are disjoint and `Send`).
    pub fn layers_mut(&mut self) -> impl ExactSizeIterator<Item = LayerMut<'_, T>> {
        let (nx, ny) = (self.nx, self.ny);
        let l = nx * ny;
        self.data
            .chunks_exact_mut(l)
            .map(move |c| LayerMut::new(c, nx, ny))
    }

    /// Copy the contents of `other` into `self` (dims must match).
    pub fn copy_from(&mut self, other: &Grid3D<T>) {
        assert_eq!(self.dims(), other.dims(), "dimension mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Largest absolute element difference against another grid.
    pub fn max_abs_diff(&self, other: &Grid3D<T>) -> T {
        assert_eq!(self.dims(), other.dims(), "dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .fold(T::ZERO, |m, (&a, &b)| m.max_r((a - b).abs_r()))
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }
}

/// Copy the `size` box whose first cell is `from` in `src` to the box at
/// `to` in `dst`: one slice copy per x-line, or per layer when the box
/// spans whole x-lines of both grids.
pub fn copy_box<T: Real>(
    src: &Grid3D<T>,
    from: [usize; 3],
    dst: &mut Grid3D<T>,
    to: [usize; 3],
    [lx, ly, lz]: [usize; 3],
) {
    if lx * ly * lz == 0 {
        return;
    }
    if lx == src.nx && lx == dst.nx {
        for z in 0..lz {
            let (s, d, n) = (
                src.idx(0, from[1], from[2] + z),
                dst.idx(0, to[1], to[2] + z),
                lx * ly,
            );
            dst.data[d..d + n].copy_from_slice(&src.data[s..s + n]);
        }
        return;
    }
    for z in 0..lz {
        for y in 0..ly {
            let s = src.idx(from[0], from[1] + y, from[2] + z);
            let d = dst.idx(to[0], to[1] + y, to[2] + z);
            dst.data[d..d + lx].copy_from_slice(&src.data[s..s + lx]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Grid3D<f64> {
        Grid3D::from_fn(3, 2, 2, |x, y, z| (x + 10 * y + 100 * z) as f64)
    }

    #[test]
    fn linear_layout_matches_paper() {
        let g = sample();
        // idx = x + y*nx + z*nx*ny
        assert_eq!(g.idx(1, 1, 1), 1 + 3 + 6);
        assert_eq!(g.at(1, 1, 1), 111.0);
        assert_eq!(g.as_slice()[1 + 3 + 6], 111.0);
    }

    #[test]
    fn layer_views() {
        let g = sample();
        let l1 = g.layer(1);
        assert_eq!(l1.at(2, 1), 112.0);
        assert_eq!(g.layers().count(), 2);
        let sums: Vec<f64> = g.layers().map(|l| l.as_slice().iter().sum()).collect();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[1] - sums[0], 600.0); // 6 cells × 100
    }

    #[test]
    fn layer_mut_disjoint_iteration() {
        let mut g = sample();
        for (z, mut l) in g.layers_mut().enumerate() {
            let v = (z as f64) * 1000.0;
            l.set(0, 0, v);
        }
        assert_eq!(g.at(0, 0, 0), 0.0);
        assert_eq!(g.at(0, 0, 1), 1000.0);
    }

    #[test]
    fn copy_and_diff() {
        let g = sample();
        let mut h = Grid3D::zeros(3, 2, 2);
        h.copy_from(&g);
        assert_eq!(h, g);
        assert_eq!(g.max_abs_diff(&h), 0.0);
        h.set(2, 1, 1, h.at(2, 1, 1) + 2.5);
        assert_eq!(g.max_abs_diff(&h), 2.5);
    }

    #[test]
    fn bytes_accounting() {
        let g = Grid3D::<f32>::zeros(4, 4, 2);
        assert_eq!(g.bytes(), 4 * 4 * 2 * 4);
    }

    #[test]
    #[should_panic]
    fn layer_out_of_range() {
        let g = sample();
        let _ = g.layer(2);
    }
}
