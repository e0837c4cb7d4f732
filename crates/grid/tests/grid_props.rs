//! Property-based tests of the grid substrate.

use abft_grid::{box_col_sums, box_row_sums, BoundaryStrips, DoubleBuffer, Grid3D};
use proptest::prelude::*;

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..10, 1usize..10, 1usize..6)
}

proptest! {
    #[test]
    fn linear_index_is_a_bijection((nx, ny, nz) in dims()) {
        let g = Grid3D::<f64>::zeros(nx, ny, nz);
        let mut seen = vec![false; nx * ny * nz];
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let i = g.idx(x, y, z);
                    prop_assert!(!seen[i], "index {i} hit twice");
                    seen[i] = true;
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn set_then_get_roundtrip(
        (nx, ny, nz) in dims(),
        xs in 0usize..1000,
        ys in 0usize..1000,
        zs in 0usize..1000,
        v in -1e6f64..1e6,
    ) {
        let (x, y, z) = (xs % nx, ys % ny, zs % nz);
        prop_assume!(v != 0.0);
        let mut g = Grid3D::zeros(nx, ny, nz);
        g.set(x, y, z, v);
        prop_assert_eq!(g.at(x, y, z), v);
        // every other cell is untouched
        let count = g.as_slice().iter().filter(|&&c| c != 0.0).count();
        prop_assert!(count <= 1);
    }

    #[test]
    fn layer_views_tile_the_grid((nx, ny, nz) in dims(), seed in any::<u64>()) {
        let g = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            (seed.wrapping_add((x + 10 * y + 100 * z) as u64) % 1000) as f64
        });
        let mut reassembled = Vec::new();
        for layer in g.layers() {
            reassembled.extend_from_slice(layer.as_slice());
        }
        prop_assert_eq!(&reassembled[..], g.as_slice());
    }

    #[test]
    fn checksum_sums_are_consistent((nx, ny, nz) in dims(), seed in any::<u64>()) {
        let g = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((seed.wrapping_add((x * 31 + y * 17 + z * 7) as u64) % 2000) as f64) / 100.0 - 10.0
        });
        // Σ_x b_y == Σ_y a_x == Σ of the layer, for every layer.
        let (mut lanes, mut row, mut col) = (vec![0.0; nx], vec![0.0; nx], vec![0.0; ny]);
        for (z, layer) in g.layers().enumerate() {
            box_row_sums(&g, [0, 0, z], [nx, ny], &mut lanes, &mut row);
            box_col_sums(&g, [0, 0, z], [nx, ny, 1], &mut col);
            let total: f64 = layer.as_slice().iter().sum();
            let via_rows: f64 = row.iter().sum();
            let via_cols: f64 = col.iter().sum();
            prop_assert!((total - via_rows).abs() < 1e-9);
            prop_assert!((total - via_cols).abs() < 1e-9);
        }
    }

    #[test]
    fn double_buffer_swap_is_involutive((nx, ny, nz) in dims()) {
        let g = Grid3D::from_fn(nx, ny, nz, |x, y, z| (x + y + z) as f32);
        let mut db = DoubleBuffer::new(g.clone());
        db.swap();
        db.swap();
        prop_assert_eq!(db.current(), &g);
    }

    #[test]
    fn strips_reproduce_edges((nx, ny, nz) in dims(), seed in any::<u64>()) {
        let g = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            (seed.wrapping_add((x * 3 + y * 5 + z * 11) as u64) % 97) as f64
        });
        let w = 2usize;
        for (z, layer) in g.layers().enumerate() {
            let s = BoundaryStrips::capture(layer, w, w);
            for m in 0..w.min(nx) {
                for y in 0..ny {
                    prop_assert_eq!(s.at_x_lo(m, y), g.at(m, y, z));
                    prop_assert_eq!(s.at_x_hi(m, y), g.at(nx - 1 - m, y, z));
                }
            }
            for m in 0..w.min(ny) {
                for x in 0..nx {
                    prop_assert_eq!(s.at_y_lo(m, x), g.at(x, m, z));
                    prop_assert_eq!(s.at_y_hi(m, x), g.at(x, ny - 1 - m, z));
                }
            }
        }
    }

    /// A 2-D field is a single-layer `Grid3D`: built cell by cell or
    /// from its row-major values, it is the same grid.
    #[test]
    fn grid2d_matches_single_layer_grid3d(
        nx in 1usize..12,
        ny in 1usize..12,
        seed in any::<u64>(),
    ) {
        let f = |x: usize, y: usize| (seed.wrapping_add((x + 100 * y) as u64) % 37) as f64;
        let rows = (0..ny).flat_map(|y| (0..nx).map(move |x| f(x, y))).collect();
        let g3 = Grid3D::from_fn(nx, ny, 1, |x, y, _| f(x, y));
        prop_assert_eq!(g3.dims(), (nx, ny, 1));
        prop_assert_eq!(g3, Grid3D::from_vec(nx, ny, 1, rows));
    }
}
