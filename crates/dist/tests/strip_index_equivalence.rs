//! Property test of the strip-index claim: the strip-indexed ghost path
//! resolves **every** halo cell to the identical payload slot the PR 3
//! `HashMap` path produced, for every grid spec × halo depth × boundary
//! the distributed substrate supports — including x×y×z brick grids,
//! whose halo shells add z-face, z-edge and z-corner cells.
//!
//! The hash witness only exists in debug builds (release builds strip it
//! from the hot path entirely), so this file is compiled under the same
//! cfg. Debug builds additionally cross-check strip vs. hash inside
//! `HaloIndex::slot` on every ghost read of every other test in the
//! workspace — this file is the exhaustive, directed version of that
//! proof.
#![cfg(debug_assertions)]

use abft_dist::{auto_grid, run_distributed, DistConfig, GridSpec, HaloMode, HaloPlan, Partition3};
use abft_grid::{Boundary, BoundarySpec, Grid3D};
use abft_stencil::{Exec, Stencil2D, Stencil3D, StencilSim};
use proptest::prelude::*;

/// Resolve a [`GridSpec`] the way `run_distributed` does.
fn shape(spec: GridSpec, ranks: usize, nx: usize, ny: usize) -> (usize, usize, usize) {
    match spec {
        GridSpec::Slabs => (1, ranks, 1),
        GridSpec::Auto => {
            let (rx, ry) = auto_grid(ranks, nx, ny);
            (rx, ry, 1)
        }
        GridSpec::Explicit { rx, ry, rz } => (rx, ry, rz),
    }
}

proptest! {
    // CI raises the case count through PROPTEST_CASES (the vendored shim
    // honours it, like real proptest); 8 keeps local `cargo test` quick.
    #![proptest_config(ProptestConfig::with_cases_env(8))]

    /// Every cell of every rank's halo plan resolves to the same slot
    /// through the strip table and the hash map — and every non-halo
    /// coordinate misses in both.
    #[test]
    fn strip_and_hash_resolve_every_ghost_cell_identically(
        nx in 8usize..=15,
        ny in 8usize..=15,
        nz in 2usize..=5,
        halo in 1usize..=3,
        rx in 1usize..=3,
        ry in 1usize..=3,
        rz in 1usize..=2,
        spec_kind in 0usize..3,
        boundary in prop_oneof![Just(Boundary::Clamp), Just(Boundary::Periodic)],
    ) {
        let spec = match spec_kind {
            0 => GridSpec::Slabs,
            1 => GridSpec::Auto,
            _ => GridSpec::Explicit { rx, ry, rz },
        };
        let ranks = match spec {
            GridSpec::Slabs => ry,
            _ => rx * ry * rz,
        };
        let (grx, gry, grz) = shape(spec, ranks, nx, ny);
        prop_assume!(grx <= nx && gry <= ny && grz <= nz);
        let bounds = BoundarySpec::<f64>::uniform(boundary);
        let part = Partition3::new(nx, ny, nz, grx, gry, grz);
        // Mirror run_distributed: an axis only becomes a halo axis when
        // it is actually decomposed.
        let hx = if grx > 1 { halo } else { 0 };
        let hz = if grz > 1 { halo } else { 0 };
        for r in 0..part.ranks() {
            let brick = part.brick(r);
            let plan = HaloPlan::new(&brick, r, &part, (hx, halo, hz), (nx, ny, nz), &bounds);
            let mut planned = std::collections::BTreeSet::new();
            let mut slot = 0usize;
            for (_, group) in &plan.groups {
                for &(x, y, z) in group {
                    prop_assert_eq!(
                        plan.index.slot_strip(x, y, z),
                        Some(slot),
                        "strip slot broke payload order at ({}, {}, {}) rank {}", x, y, z, r
                    );
                    prop_assert_eq!(
                        plan.index.slot_hash(x, y, z),
                        Some(slot),
                        "hash slot broke payload order at ({}, {}, {}) rank {}", x, y, z, r
                    );
                    planned.insert((x, y, z));
                    slot += 1;
                }
            }
            prop_assert_eq!(slot, plan.index.len());
            // Sweep the whole domain plus a guard band: hits agree with
            // the plan, misses miss in both paths.
            for z in 0..nz + 2 {
                for y in 0..ny + 2 {
                    for x in 0..nx + 2 {
                        let strip = plan.index.slot_strip(x, y, z);
                        let hash = plan.index.slot_hash(x, y, z);
                        prop_assert_eq!(
                            strip, hash,
                            "divergence at ({}, {}, {}) rank {}", x, y, z, r
                        );
                        prop_assert_eq!(strip.is_some(), planned.contains(&(x, y, z)));
                    }
                }
            }
        }
    }

    /// End-to-end: a corner-hungry kernel driven through the strip index
    /// stays bitwise equal to the serial reference over sampled grid
    /// specs (in debug builds each of these ghost reads also cross-checks
    /// against the hash path internally).
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
