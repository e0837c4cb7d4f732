//! Property-based tests of the sweep executor: linearity, locality and
//! execution-strategy equivalence.

use abft_grid::{Boundary, BoundarySpec, Grid3D};
use abft_stencil::{sweep, ChecksumMode, Exec, NoHook, Stencil3D};
use proptest::prelude::*;

fn stencil_strategy() -> impl Strategy<Value = Stencil3D<f64>> {
    proptest::collection::vec((-2isize..=2, -2isize..=2, -1isize..=1, -1.0f64..1.0), 1..=7)
        .prop_map(|taps| Stencil3D::from_tuples(&taps))
}

fn grid_from_seed(nx: usize, ny: usize, nz: usize, seed: u64) -> Grid3D<f64> {
    Grid3D::from_fn(nx, ny, nz, |x, y, z| {
        let h = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((x + 131 * y + 1009 * z) as u64)
            .wrapping_mul(0xD1B54A32D192ED03);
        ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

fn run_sweep(
    src: &Grid3D<f64>,
    stencil: &Stencil3D<f64>,
    bounds: &BoundarySpec<f64>,
    exec: Exec,
) -> Grid3D<f64> {
    let (nx, ny, nz) = src.dims();
    let mut dst = Grid3D::zeros(nx, ny, nz);
    sweep(
        src,
        &mut dst,
        stencil,
        bounds,
        None,
        &NoHook,
        ChecksumMode::None,
        exec,
    );
    dst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sweep is a linear operator for data-independent boundaries
    /// (zero/periodic/clamp/reflect): sweep(a·u + v) = a·sweep(u) + sweep(v).
    #[test]
    fn sweep_is_linear(
        stencil in stencil_strategy(),
        bound in prop_oneof![
            Just(Boundary::<f64>::Clamp),
            Just(Boundary::Periodic),
            Just(Boundary::Zero),
            Just(Boundary::Reflect),
        ],
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        a in -3.0f64..3.0,
    ) {
        let bounds = BoundarySpec { x: bound, y: bound, z: bound };
        let (nx, ny, nz) = (7usize, 6usize, 3usize);
        let u = grid_from_seed(nx, ny, nz, s1);
        let v = grid_from_seed(nx, ny, nz, s2);
        let combo = Grid3D::from_fn(nx, ny, nz, |x, y, z| a * u.at(x, y, z) + v.at(x, y, z));

        let su = run_sweep(&u, &stencil, &bounds, Exec::Serial);
        let sv = run_sweep(&v, &stencil, &bounds, Exec::Serial);
        let sc = run_sweep(&combo, &stencil, &bounds, Exec::Serial);

        for ((&x, &y), &z) in sc.as_slice().iter().zip(su.as_slice()).zip(sv.as_slice()) {
            prop_assert!((x - (a * y + z)).abs() < 1e-9, "{x} vs {}", a * y + z);
        }
    }

    /// A point perturbation propagates at most one stencil extent per sweep.
    #[test]
    fn sweep_locality(
        stencil in stencil_strategy(),
        seed in any::<u64>(),
        px in 0usize..7,
        py in 0usize..6,
        pz in 0usize..3,
    ) {
        let bounds = BoundarySpec::<f64>::zero();
        let (nx, ny, nz) = (7usize, 6usize, 3usize);
        let u = grid_from_seed(nx, ny, nz, seed);
        let mut w = u.clone();
        w.set(px, py, pz, w.at(px, py, pz) + 100.0);

        let su = run_sweep(&u, &stencil, &bounds, Exec::Serial);
        let sw = run_sweep(&w, &stencil, &bounds, Exec::Serial);

        let (ex, ey, ez) = (
            stencil.extent_x() as isize,
            stencil.extent_y() as isize,
            stencil.extent_z() as isize,
        );
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let changed = (su.at(x, y, z) - sw.at(x, y, z)).abs() > 1e-12;
                    if changed {
                        let dx = (x as isize - px as isize).abs();
                        let dy = (y as isize - py as isize).abs();
                        let dz = (z as isize - pz as isize).abs();
                        prop_assert!(
                            dx <= ex && dy <= ey && dz <= ez,
                            "change leaked to ({x},{y},{z}), extents ({ex},{ey},{ez})"
                        );
                    }
                }
            }
        }
    }

    /// Serial and parallel execution agree bitwise for every boundary kind.
    #[test]
    fn exec_strategies_agree(
        stencil in stencil_strategy(),
        bound in prop_oneof![
            Just(Boundary::<f64>::Clamp),
            Just(Boundary::Periodic),
            Just(Boundary::Zero),
            Just(Boundary::Constant(2.0)),
            Just(Boundary::Reflect),
        ],
        seed in any::<u64>(),
    ) {
        let bounds = BoundarySpec { x: bound, y: bound, z: bound };
        let u = grid_from_seed(8, 7, 4, seed);
        let a = run_sweep(&u, &stencil, &bounds, Exec::Serial);
        let b = run_sweep(&u, &stencil, &bounds, Exec::Parallel);
        prop_assert_eq!(a, b);
    }

    /// An identity stencil under any bounds is the identity map.
    #[test]
    fn identity_stencil(seed in any::<u64>()) {
        let id = Stencil3D::from_tuples(&[(0isize, 0isize, 0isize, 1.0f64)]);
        let u = grid_from_seed(6, 6, 2, seed);
        let s = run_sweep(&u, &id, &BoundarySpec::clamp(), Exec::Serial);
        prop_assert_eq!(s, u);
    }
}
