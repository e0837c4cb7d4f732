//! Property-based validation of Theorem 1: for *random* stencils, domains
//! and boundary conditions, the interpolated checksum vectors equal the
//! checksums computed from the swept data (up to floating-point rounding).
//!
//! This is the load-bearing invariant of the whole paper; everything else
//! (detection and repair) rests on it.

use proptest::prelude::*;
use stencil_abft::core::{capture_all_layers, Interpolator, StripSet};
use stencil_abft::grid::{box_col_sums, box_row_sums, Boundary, BoundarySpec, Grid3D, NoGhosts};
use stencil_abft::stencil::{sweep, ChecksumMode, Exec, NoHook, Stencil3D};

/// The column checksums of every layer of `g`, flat `[z][y]`.
fn col_sums(g: &Grid3D<f64>) -> Vec<f64> {
    let (nx, ny, nz) = g.dims();
    let mut col = vec![0.0; nz * ny];
    box_col_sums(g, [0, 0, 0], [nx, ny, nz], &mut col);
    col
}

/// The row checksums of every layer of `g`, flat `[z][x]`.
fn row_sums(g: &Grid3D<f64>) -> Vec<f64> {
    let (nx, ny, nz) = g.dims();
    let (mut row, mut lanes) = (vec![0.0; nz * nx], vec![0.0; nx]);
    for (z, r) in row.chunks_exact_mut(nx).enumerate() {
        box_row_sums(g, [0, 0, z], [nx, ny], &mut lanes, r);
    }
    row
}

/// Strategy: a random stencil with 1..=9 taps, offsets in [-2, 2], and
/// weights in [-1, 1].
fn stencil_strategy() -> impl Strategy<Value = Stencil3D<f64>> {
    proptest::collection::vec((-2isize..=2, -2isize..=2, -1isize..=1, -1.0f64..1.0), 1..=9)
        .prop_map(|taps| Stencil3D::from_tuples(&taps))
}

fn boundary_strategy() -> impl Strategy<Value = Boundary<f64>> {
    prop_oneof![
        Just(Boundary::Clamp),
        Just(Boundary::Periodic),
        Just(Boundary::Zero),
        (-3.0f64..3.0).prop_map(Boundary::Constant),
        Just(Boundary::Reflect),
    ]
}

fn grid_strategy() -> impl Strategy<Value = Grid3D<f64>> {
    // Dimensions comfortably above the maximum stencil extent (2).
    (5usize..=9, 5usize..=9, 3usize..=5, any::<u64>()).prop_map(|(nx, ny, nz, seed)| {
        Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            // Cheap deterministic pseudo-noise in [-2, 2].
            let h = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((x + 31 * y + 977 * z) as u64)
                .wrapping_mul(1442695040888963407);
            ((h >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interpolated_checksums_equal_computed_checksums(
        stencil in stencil_strategy(),
        bx in boundary_strategy(),
        by in boundary_strategy(),
        bz in boundary_strategy(),
        src in grid_strategy(),
        with_constant in any::<bool>(),
        use_strips in any::<bool>(),
    ) {
        let (nx, ny, nz) = src.dims();
        let bounds = BoundarySpec { x: bx, y: by, z: bz };
        let constant = with_constant.then(|| {
            Grid3D::from_fn(nx, ny, nz, |x, y, z| ((x * y + z) % 5) as f64 * 0.1)
        });

        let mut dst = Grid3D::zeros(nx, ny, nz);
        sweep(
            &src, &mut dst, &stencil, &bounds, constant.as_ref(),
            &NoHook, ChecksumMode::None, Exec::Serial,
        );

        let (cs_t, cs_t1) = (col_sums(&src), col_sums(&dst));
        let interp = Interpolator::new(&stencil, &bounds, constant.as_ref(), (nx, ny, nz));

        let strips;
        let source = if use_strips {
            strips = capture_all_layers(&src, interp.col_strip_width(), 0);
            StripSet::Strips(&strips)
        } else {
            StripSet::Grid(&src)
        };

        let mut col_i = vec![0.0; nz * ny];
        interp.interpolate_col(&cs_t, &source, &NoGhosts, &mut col_i);

        // Tolerance: values are O(1), vectors sum O(10) entries with up to
        // 9 taps; 1e-9 leaves ~1e5 ulps of headroom while catching any
        // structural error.
        for (k, (&a, &b)) in col_i.iter().zip(&cs_t1).enumerate() {
            prop_assert!((a - b).abs() < 1e-9,
                "col[{k}]: interpolated {a} vs computed {b} (bounds {bounds:?})");
        }
    }

    #[test]
    fn fused_checksums_equal_direct_sums(
        stencil in stencil_strategy(),
        bx in boundary_strategy(),
        src in grid_strategy(),
    ) {
        let (nx, ny, nz) = src.dims();
        let bounds = BoundarySpec { x: bx, y: Boundary::Clamp, z: Boundary::Clamp };
        let mut dst = Grid3D::zeros(nx, ny, nz);
        let mut row = vec![0.0; nz * nx];
        let mut col = vec![0.0; nz * ny];
        sweep(
            &src, &mut dst, &stencil, &bounds, None, &NoHook,
            ChecksumMode::RowCol { row: &mut row, col: &mut col }, Exec::Parallel,
        );
        // The builders sum in the sweep's own orders: equal bitwise.
        prop_assert_eq!(&col, &col_sums(&dst));
        prop_assert_eq!(&row, &row_sums(&dst));
    }

    #[test]
    fn serial_and_parallel_sweeps_agree_bitwise(
        stencil in stencil_strategy(),
        src in grid_strategy(),
    ) {
        let (nx, ny, nz) = src.dims();
        let bounds = BoundarySpec::<f64>::clamp();
        let run = |exec| {
            let mut dst = Grid3D::zeros(nx, ny, nz);
            sweep(&src, &mut dst, &stencil, &bounds, None, &NoHook,
                  ChecksumMode::None, exec);
            dst
        };
        prop_assert_eq!(run(Exec::Serial), run(Exec::Parallel));
    }
}
