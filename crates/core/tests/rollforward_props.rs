//! Property test of the offline scheme's Δ-step checksum rollforward
//! (§4.1, Fig. 7): interpolating the checksum vectors forward through the
//! 1-D kernel `Δ` times — using only the per-iteration boundary strips —
//! must land on the checksums of the actually evolved grid.

use abft_core::{capture_all_layers, compute_col_into, Interpolator, StripSet};
use abft_grid::{Boundary, BoundarySpec, BoundaryStrips, Grid3D, NoGhosts};
use abft_stencil::{Exec, NoHook, Stencil3D, StencilSim};
use proptest::prelude::*;

fn stable_stencil() -> impl Strategy<Value = Stencil3D<f64>> {
    proptest::collection::vec((-2isize..=2, -2isize..=2, -1isize..=1, 0.05f64..1.0), 2..=7)
        .prop_map(|mut taps| {
            let total: f64 = taps.iter().map(|t| t.3).sum();
            for t in &mut taps {
                t.3 /= total;
            }
            Stencil3D::from_tuples(&taps)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn delta_step_rollforward_matches_evolved_checksums(
        stencil in stable_stencil(),
        bound in prop_oneof![
            Just(Boundary::<f64>::Clamp),
            Just(Boundary::Periodic),
            Just(Boundary::Zero),
            Just(Boundary::Constant(0.5)),
            Just(Boundary::Reflect),
        ],
        seed in any::<u64>(),
        delta in 1usize..6,
    ) {
        let (nx, ny, nz) = (8usize, 7usize, 3usize);
        let bounds = BoundarySpec { x: bound, y: bound, z: bound };
        let initial = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            let h = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((x + 57 * y + 411 * z) as u64)
                .wrapping_mul(0xD6E8FEB86659FD93);
            1.0 + ((h >> 11) as f64 / (1u64 << 53) as f64)
        });

        let mut sim = StencilSim::new(initial, stencil.clone(), bounds)
            .with_exec(Exec::Serial);
        let interp = Interpolator::new(&stencil, &bounds, None, (nx, ny, nz));
        let w = interp.col_strip_width();

        // Checksums at t0, then evolve Δ steps recording strips.
        let mut cs0 = vec![0.0; nz * ny];
        compute_col_into(sim.current(), &mut cs0);
        let mut history: Vec<Vec<BoundaryStrips<f64>>> = Vec::new();
        for _ in 0..delta {
            if w > 0 {
                history.push(capture_all_layers(sim.current(), w, 0));
            }
            sim.step_hooked(&NoHook);
        }
        let mut truth = vec![0.0; nz * ny];
        compute_col_into(sim.current(), &mut truth);

        // Roll the t0 checksums forward Δ times (Fig. 7).
        let mut cur = cs0;
        let mut next = vec![0.0; nz * ny];
        for s in 0..delta {
            let source = if w > 0 {
                StripSet::Strips(&history[s])
            } else {
                StripSet::None
            };
            interp.interpolate_col(&cur, &source, &NoGhosts, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }

        for (k, (&rolled, &direct)) in cur.iter().zip(&truth).enumerate() {
            prop_assert!(
                (rolled - direct).abs() < 1e-8 * (1.0 + direct.abs()),
                "entry {k}: rolled {rolled} vs direct {direct} (Δ={delta}, {bounds:?})"
            );
        }
    }
}
