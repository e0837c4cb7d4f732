//! The 2-D (x×y) rank-grid decomposition must be **bitwise**
//! interchangeable with the serial reference and across halo modes for
//! every grid shape — slabs, columns, squares and unbalanced rectangles —
//! under clamp and periodic global boundaries.
//!
//! The domain extents (13×14) are deliberately not divisible by the rank
//! counts, so every multi-rank axis produces unbalanced tiles and the
//! channel topology has to cope with unequal producer/consumer extents.

use abft_core::AbftConfig;
use abft_dist::{run_distributed, DistConfig, DistReport, HaloMode};
use abft_grid::{Boundary, BoundarySpec, Grid3D};
use abft_stencil::{Exec, Stencil3D, StencilSim};

const GRIDS: [(usize, usize); 5] = [(1, 4), (4, 1), (2, 2), (2, 3), (3, 3)];

fn wavy(nx: usize, ny: usize, nz: usize) -> Grid3D<f64> {
    Grid3D::from_fn(nx, ny, nz, |x, y, z| {
        ((x * 19 + y * 23 + z * 11) % 29) as f64 * 0.5 - 6.0
    })
}

/// Asymmetric in x *and* y, with a diagonal tap: left/right column strips,
/// up/down row strips and the corner patches all carry distinct weights,
/// so any halo mix-up breaks bitwise equality.
fn asymmetric_2d_stencil() -> Stencil3D<f64> {
    Stencil3D::from_tuples(&[
        (0, 0, 0, 0.34f64),
        (-1, 0, 0, 0.2),
        (1, 0, 0, 0.08),
        (0, -1, 0, 0.17),
        (0, 1, 0, 0.06),
        (1, 1, 0, 0.05),
        (0, 0, 1, 0.1),
    ])
}

fn serial(
    initial: &Grid3D<f64>,
    stencil: &Stencil3D<f64>,
    bounds: &BoundarySpec<f64>,
    iters: usize,
) -> Grid3D<f64> {
    let mut sim =
        StencilSim::new(initial.clone(), stencil.clone(), *bounds).with_exec(Exec::Serial);
    for _ in 0..iters {
        sim.step();
    }
    sim.current().clone()
}

fn run(
    initial: &Grid3D<f64>,
    stencil: &Stencil3D<f64>,
    bounds: &BoundarySpec<f64>,
    cfg: &DistConfig<f64>,
) -> DistReport<f64> {
    run_distributed(initial, stencil, bounds, None, cfg).expect("valid dist config")
}

/// The acceptance matrix: pipelined ≡ snapshot ≡ serial, bitwise, for
/// every grid shape × boundary, on non-divisible extents.
#[test]
fn grids_match_serial_bitwise_across_boundaries_and_halo_widths() {
    let initial = wavy(13, 14, 2);
    let stencil = asymmetric_2d_stencil();
    for boundary in [Boundary::Clamp, Boundary::Periodic] {
        let bounds = BoundarySpec::uniform(boundary);
        let expect = serial(&initial, &stencil, &bounds, 9);
        for (rx, ry) in GRIDS {
            let base = DistConfig::<f64>::new(rx * ry, 9).with_grid(rx, ry);
            let pipe = run(
                &initial,
                &stencil,
                &bounds,
                &base.clone().with_mode(HaloMode::Pipelined),
            );
            let snap = run(
                &initial,
                &stencil,
                &bounds,
                &base.with_mode(HaloMode::Snapshot),
            );
            assert_eq!(pipe.grid, (rx, ry, 1));
            assert_eq!(
                pipe.global, expect,
                "{rx}x{ry} pipelined diverged from serial ({boundary:?})"
            );
            assert_eq!(
                snap.global, expect,
                "{rx}x{ry} snapshot diverged from serial ({boundary:?})"
            );
        }
    }
}

/// Wide (extent-2) stencils force multi-cell halos on both axes through
/// the corner-aware topology.
#[test]
fn wide_stencils_match_serial_on_2d_grids() {
    let initial = wavy(13, 11, 2);
    let stencil = Stencil3D::from_tuples(&[
        (0, 0, 0, 0.3f64),
        (-2, 0, 0, 0.15),
        (2, 0, 0, 0.1),
        (0, -2, 0, 0.15),
        (0, 2, 0, 0.1),
        (1, -1, 0, 0.1),
        (0, 1, 0, 0.1),
    ]);
    for boundary in [Boundary::Clamp, Boundary::Periodic] {
        let bounds = BoundarySpec::uniform(boundary);
        let expect = serial(&initial, &stencil, &bounds, 6);
        for (rx, ry) in [(2usize, 2usize), (3, 2)] {
            for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
                let rep = run(
                    &initial,
                    &stencil,
                    &bounds,
                    &DistConfig::<f64>::new(rx * ry, 6)
                        .with_grid(rx, ry)
                        .with_mode(mode),
                );
                assert_eq!(
                    rep.global, expect,
                    "{rx}x{ry} wide-stencil run diverged ({boundary:?}, {mode:?})"
                );
            }
        }
    }
}

/// The library's first-class corner-halo workloads — the 9-point
/// convection kernel and the 27-point diffusion box — run bitwise
/// through every grid shape: their diagonal taps make the corner patches
/// load-bearing in every channel direction at once.
#[test]
fn library_corner_kernels_match_serial_on_all_grids() {
    use abft_stencil::Stencil2D;
    let initial = wavy(13, 14, 2);
    let kernels = [
        (
            "9pt",
            Stencil2D::<f64>::convection_9pt(0.18, 0.08, -0.05).into_3d(),
        ),
        ("27pt", Stencil3D::<f64>::diffusion_27pt(0.21)),
    ];
    for (name, stencil) in &kernels {
        for boundary in [Boundary::Clamp, Boundary::Periodic] {
            let bounds = BoundarySpec::uniform(boundary);
            let expect = serial(&initial, stencil, &bounds, 8);
            for (rx, ry) in GRIDS {
                for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
                    let rep = run(
                        &initial,
                        stencil,
                        &bounds,
                        &DistConfig::<f64>::new(rx * ry, 8)
                            .with_grid(rx, ry)
                            .with_mode(mode),
                    );
                    assert_eq!(
                        rep.global, expect,
                        "{name} diverged on {rx}x{ry} ({boundary:?}, {mode:?})"
                    );
                }
            }
        }
    }
}

/// Mixed global boundaries: the x and y axes resolve out-of-domain reads
/// differently, and tile corners see both.
#[test]
fn mixed_boundaries_match_serial_on_2d_grids() {
    let initial = wavy(12, 13, 2);
    let stencil = asymmetric_2d_stencil();
    let bounds = BoundarySpec {
        x: Boundary::Reflect,
        y: Boundary::Constant(1.25),
        z: Boundary::Clamp,
    };
    let expect = serial(&initial, &stencil, &bounds, 8);
    for (rx, ry) in GRIDS {
        for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
            let rep = run(
                &initial,
                &stencil,
                &bounds,
                &DistConfig::<f64>::new(rx * ry, 8)
                    .with_grid(rx, ry)
                    .with_mode(mode),
            );
            assert_eq!(
                rep.global, expect,
                "{rx}x{ry} diverged under mixed boundaries ({mode:?})"
            );
        }
    }
}

/// Per-rank protection across 2-D grids: a clean protected run must not
/// perturb the data (bitwise) and must raise no alarms — row and column
/// checksum interpolation now crosses rank boundaries in both directions.
#[test]
fn protected_clean_runs_are_exact_with_zero_detections_on_all_grids() {
    let initial = Grid3D::from_fn(13, 14, 2, |x, y, z| {
        80.0 + ((x * 5 + y * 7 + z * 3) % 11) as f64 * 0.4
    });
    let stencil = asymmetric_2d_stencil();
    let bounds = BoundarySpec::clamp();
    let expect = serial(&initial, &stencil, &bounds, 10);
    for (rx, ry) in GRIDS {
        for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
            let rep = run(
                &initial,
                &stencil,
                &bounds,
                &DistConfig::new(rx * ry, 10)
                    .with_grid(rx, ry)
                    .with_abft(AbftConfig::<f64>::paper_defaults())
                    .with_mode(mode),
            );
            assert_eq!(
                rep.total_stats().detections,
                0,
                "false positive on a clean {rx}x{ry} run ({mode:?})"
            );
            assert_eq!(
                rep.global, expect,
                "protection perturbed a clean {rx}x{ry} run ({mode:?})"
            );
        }
    }
}
