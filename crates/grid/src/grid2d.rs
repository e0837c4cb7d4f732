//! A 2-D field is a one-layer [`Grid3D`]: `nz = 1`, `x` contiguous, then
//! `y` (`idx = x + y*nx`). These pin that layout, which every 2-D caller
//! (`Stencil2D::into_3d` kernels, the 2-D examples) relies on.

#[cfg(test)]
mod tests {
    use crate::Grid3D;

    #[test]
    fn construction_and_indexing() {
        let g = Grid3D::from_fn(3, 2, 1, |x, y, _| (x + 10 * y) as f64);
        assert_eq!(g.dims(), (3, 2, 1));
        assert_eq!(g.at(0, 0, 0), 0.0);
        assert_eq!(g.at(2, 0, 0), 2.0);
        assert_eq!(g.at(0, 1, 0), 10.0);
        assert_eq!(g.at(2, 1, 0), 12.0);
    }

    #[test]
    fn x_is_contiguous() {
        let g = Grid3D::from_fn(4, 3, 1, |x, y, _| (x + 100 * y) as f32);
        assert_eq!(g.as_slice()[4..8], [100.0, 101.0, 102.0, 103.0]);
        // storage order: y-major
        assert_eq!(g.as_slice()[0..4], [0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn set_and_get() {
        let mut g = Grid3D::zeros(3, 3, 1);
        g.set(1, 2, 0, 5.0f64);
        assert_eq!(g.at(1, 2, 0), 5.0);
        assert_eq!(g.as_slice()[1 + 2 * 3], 5.0);
    }

    #[test]
    fn into_grid3d_preserves_layout() {
        let rows: Vec<f64> = (0..2)
            .flat_map(|y| (0..3).map(move |x| (x + 10 * y) as f64))
            .collect();
        let g = Grid3D::from_vec(3, 2, 1, rows.clone());
        assert_eq!(g.as_slice(), &rows[..]);
        assert_eq!(g.at(2, 1, 0), 12.0);
    }

    #[test]
    fn iter_coords_order() {
        let g = Grid3D::from_fn(2, 2, 1, |x, y, _| (x + 2 * y) as f64);
        let v: Vec<_> = (0..g.len())
            .map(|i| (i % 2, i / 2, g.as_slice()[i]))
            .collect();
        assert_eq!(v, vec![(0, 0, 0.0), (1, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);
    }

    #[test]
    #[should_panic]
    fn from_vec_length_mismatch() {
        let _ = Grid3D::from_vec(2, 2, 1, vec![0.0f64; 3]);
    }

    #[test]
    #[should_panic]
    fn zero_dimension_rejected() {
        let _ = Grid3D::<f64>::zeros(0, 4, 1);
    }
}
