//! Property-based validation of detection (Theorem 2) and repair: a
//! corruption injected at a random point and
//! iteration is located at exactly its coordinates and corrected back to
//! the reference trajectory — for random stencils and boundary kinds.

use proptest::prelude::*;
use stencil_abft::core::{AbftConfig, OnlineAbft};
use stencil_abft::grid::{Boundary, BoundarySpec, Grid3D};
use stencil_abft::stencil::{Exec, NoHook, Stencil3D, StencilSim};

/// A *stable* random stencil: weights positive, normalised to sum 1, so
/// repeated application neither explodes nor destroys signal scale.
fn stable_stencil_strategy() -> impl Strategy<Value = Stencil3D<f64>> {
    proptest::collection::vec((-1isize..=1, -1isize..=1, -1isize..=1, 0.05f64..1.0), 3..=7)
        .prop_map(|mut taps| {
            let total: f64 = taps.iter().map(|t| t.3).sum();
            for t in &mut taps {
                t.3 /= total;
            }
            Stencil3D::from_tuples(&taps)
        })
}

fn boundary_strategy() -> impl Strategy<Value = Boundary<f64>> {
    prop_oneof![
        Just(Boundary::Clamp),
        Just(Boundary::Periodic),
        Just(Boundary::Zero),
        Just(Boundary::Constant(1.0)),
        Just(Boundary::Reflect),
    ]
}

fn base_grid(nx: usize, ny: usize, nz: usize, seed: u64) -> Grid3D<f64> {
    Grid3D::from_fn(nx, ny, nz, |x, y, z| {
        let h = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((x + 37 * y + 1009 * z) as u64)
            .wrapping_mul(0xBF58476D1CE4E5B9);
        50.0 + ((h >> 11) as f64 / (1u64 << 53) as f64) * 10.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn injected_error_is_located_and_corrected(
        stencil in stable_stencil_strategy(),
        bound in boundary_strategy(),
        seed in any::<u64>(),
        t_inj in 0usize..6,
        ex in 0usize..8,
        ey in 0usize..7,
        ez in 0usize..3,
        delta in prop_oneof![Just(10.0f64), Just(-25.0), Just(300.0)],
    ) {
        let (nx, ny, nz) = (8usize, 7usize, 3usize);
        let bounds = BoundarySpec { x: bound, y: bound, z: bound };
        let grid = base_grid(nx, ny, nz, seed);

        let mut sim = StencilSim::new(grid.clone(), stencil.clone(), bounds)
            .with_exec(Exec::Serial);
        let mut reference = StencilSim::new(grid, stencil, bounds).with_exec(Exec::Serial);
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());

        let hook = move |x: usize, y: usize, z: usize, v: f64| {
            if (x, y, z) == (ex, ey, ez) { v + delta } else { v }
        };

        let mut corrected_at = None;
        for t in 0..8 {
            let out = if t == t_inj {
                abft.step(&mut sim, &hook)
            } else {
                abft.step(&mut sim, &NoHook)
            };
            reference.step();
            if t == t_inj {
                prop_assert_eq!(out.detections, 1, "fault not detected");
                prop_assert_eq!(out.corrections.len(), 1);
                corrected_at = Some((out.corrections[0].x, out.corrections[0].y,
                                     out.corrections[0].z));
            } else {
                prop_assert!(out.is_clean(), "false positive at t={t}: {out:?}");
            }
        }
        prop_assert_eq!(corrected_at, Some((ex, ey, ez)), "wrong location");
        prop_assert_eq!(sim.current(), reference.current(), "repaired grid");
    }

    #[test]
    fn error_free_runs_never_flag(
        stencil in stable_stencil_strategy(),
        bound in boundary_strategy(),
        seed in any::<u64>(),
    ) {
        let bounds = BoundarySpec { x: bound, y: bound, z: bound };
        let grid = base_grid(9, 8, 3, seed);
        let mut sim = StencilSim::new(grid, stencil, bounds).with_exec(Exec::Serial);
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
        for t in 0..10 {
            let out = abft.step(&mut sim, &NoHook);
            prop_assert!(out.is_clean(), "false positive at t={t}");
        }
    }

    #[test]
    fn corruption_below_threshold_is_silent(
        seed in any::<u64>(),
        t_inj in 0usize..5,
    ) {
        // A perturbation far below ε·|checksum| must not fire — detection
        // honours its advertised sensitivity (no flaky thresholds).
        let grid = base_grid(8, 8, 2, seed);
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        let mut sim = StencilSim::new(grid, stencil, BoundarySpec::clamp())
            .with_exec(Exec::Serial);
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
        let hook = |x: usize, y: usize, z: usize, v: f64| {
            if (x, y, z) == (4, 4, 1) { v + 1e-13 } else { v }
        };
        for t in 0..6 {
            let out = if t == t_inj {
                abft.step(&mut sim, &hook)
            } else {
                abft.step(&mut sim, &NoHook)
            };
            prop_assert!(out.is_clean());
        }
    }
}
