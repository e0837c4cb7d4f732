//! End-to-end check of the ghost read path on the kernels that need every
//! part of the halo shell: 9- and 27-point stencils, whose diagonal taps
//! read edge and corner boxes, stay bitwise equal to the serial reference
//! over slab, auto-factored, 2×2 and 2×2×2 rank grids in both halo modes.
//! That the boxes are exactly the rank's pad cells, one slot each, is
//! `index::tests::boxes_equal_cell_lists`; that one exchange fills the
//! pad with the global field is
//! `epoch::tests::pad_cells_hold_the_global_field_after_one_exchange`.
//! Debug builds run every pad landing under the grid's index bounds
//! checks.

use abft_dist::{run_distributed, DistConfig, GridSpec, HaloMode};
use abft_grid::{Boundary, BoundarySpec, Grid3D};
use abft_stencil::{Exec, Stencil2D, Stencil3D, StencilSim};
use proptest::prelude::*;

proptest! {
    // CI raises the case count through PROPTEST_CASES (the vendored shim
    // honours it, like real proptest); 8 keeps local `cargo test` quick.
    #![proptest_config(ProptestConfig::with_cases_env(8))]

    /// A corner-hungry kernel read through the halo boxes stays bitwise
    /// equal to the serial reference over sampled grid specs.
    #[test]
    fn corner_kernels_stay_bitwise_serial_through_the_strip_index(
        spec_kind in 0usize..4,
        use_27pt in proptest::prelude::any::<bool>(),
        boundary in prop_oneof![Just(Boundary::Clamp), Just(Boundary::Periodic)],
        mode in prop_oneof![Just(HaloMode::Pipelined), Just(HaloMode::Snapshot)],
    ) {
        let (nx, ny, nz) = (11, 13, 4);
        let (spec, ranks) = match spec_kind {
            0 => (GridSpec::Slabs, 4),
            1 => (GridSpec::Auto, 4),
            2 => (GridSpec::Explicit { rx: 2, ry: 2, rz: 1 }, 4),
            _ => (GridSpec::Explicit { rx: 2, ry: 2, rz: 2 }, 8),
        };
        let stencil = if use_27pt {
            Stencil3D::<f64>::diffusion_27pt(0.21)
        } else {
            Stencil2D::<f64>::convection_9pt(0.18, 0.08, -0.05).into_3d()
        };
        let initial = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 19 + y * 23 + z * 11) % 29) as f64 * 0.5 - 6.0
        });
        let bounds = BoundarySpec::uniform(boundary);
        let mut serial =
            StencilSim::new(initial.clone(), stencil.clone(), bounds).with_exec(Exec::Serial);
        for _ in 0..7 {
            serial.step();
        }
        let cfg = DistConfig::<f64>::new(ranks, 7)
            .with_grid_spec(spec)
            .with_mode(mode);
        let rep = run_distributed(&initial, &stencil, &bounds, None, &cfg).expect("valid config");
        prop_assert_eq!(&rep.global, serial.current());
    }
}
