//! The 3-D (x×y×z) rank-brick decomposition must be **bitwise**
//! interchangeable with the serial reference and across halo modes for
//! every brick shape — z-slabs, y×z sheets and full bricks — under clamp
//! and periodic global boundaries; and the per-rank ABFT protection must
//! contain a bit-flip at every structurally distinct site of a brick's
//! z-surface (z-faces, the xz/yz-edges, the xyz-corners) exactly as it
//! does in the interior.
//!
//! The domain extents (13×11×7) are deliberately not divisible by the
//! rank counts, so every multi-rank axis produces unbalanced bricks and
//! the channel topology has to cope with unequal producer/consumer
//! extents — including z-neighbour channels with different layer counts.

use abft_core::AbftConfig;
use abft_dist::{run_distributed, DistConfig, DistReport, HaloMode};
use abft_fault::BitFlip;
use abft_grid::{Boundary, BoundarySpec, Grid3D};
use abft_stencil::{Exec, Stencil3D, StencilSim};

/// The acceptance brick shapes: a pure z-split, the full 2×2×2 brick
/// grid and an unbalanced y×z sheet with three z-ranks.
const BRICKS: [(usize, usize, usize); 3] = [(1, 1, 2), (2, 2, 2), (1, 2, 3)];

fn wavy(nx: usize, ny: usize, nz: usize) -> Grid3D<f64> {
    Grid3D::from_fn(nx, ny, nz, |x, y, z| {
        ((x * 19 + y * 23 + z * 11) % 29) as f64 * 0.5 - 6.0
    })
}

/// Asymmetric on all three axes, with an xyz-diagonal tap: every face,
/// edge and corner channel carries a distinct weight, so any halo mix-up
/// — including a swapped z-neighbour — breaks bitwise equality.
fn asymmetric_3d_stencil() -> Stencil3D<f64> {
    Stencil3D::from_tuples(&[
        (0, 0, 0, 0.28f64),
        (-1, 0, 0, 0.16),
        (1, 0, 0, 0.07),
        (0, -1, 0, 0.13),
        (0, 1, 0, 0.06),
        (0, 0, -1, 0.12),
        (0, 0, 1, 0.05),
        (1, 1, 1, 0.05),
        (-1, 0, -1, 0.08),
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
/// every brick shape × boundary, on non-divisible extents.
#[test]
fn bricks_match_serial_bitwise_across_boundaries_and_halo_widths() {
    let initial = wavy(13, 11, 7);
    let stencil = asymmetric_3d_stencil();
    for boundary in [Boundary::Clamp, Boundary::Periodic] {
        let bounds = BoundarySpec::uniform(boundary);
        let expect = serial(&initial, &stencil, &bounds, 9);
        for (rx, ry, rz) in BRICKS {
            let base = DistConfig::<f64>::new(rx * ry * rz, 9).with_grid3(rx, ry, rz);
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
            assert_eq!(pipe.grid, (rx, ry, rz));
            assert_eq!(
                pipe.global, expect,
                "{rx}x{ry}x{rz} pipelined diverged from serial ({boundary:?})"
            );
            assert_eq!(
                snap.global, expect,
                "{rx}x{ry}x{rz} snapshot diverged from serial ({boundary:?})"
            );
        }
    }
}

/// The library's 27-point diffusion box makes the z-corner channels
/// load-bearing in every direction at once: all 26 neighbour channels of
/// an interior brick carry values every sweep.
#[test]
fn twenty_seven_point_kernel_matches_serial_on_all_brick_shapes() {
    let initial = wavy(13, 11, 7);
    let stencil = Stencil3D::<f64>::diffusion_27pt(0.21);
    for boundary in [Boundary::Clamp, Boundary::Periodic] {
        let bounds = BoundarySpec::uniform(boundary);
        let expect = serial(&initial, &stencil, &bounds, 8);
        for (rx, ry, rz) in BRICKS {
            for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
                let rep = run(
                    &initial,
                    &stencil,
                    &bounds,
                    &DistConfig::<f64>::new(rx * ry * rz, 8)
                        .with_grid3(rx, ry, rz)
                        .with_mode(mode),
                );
                assert_eq!(
                    rep.global, expect,
                    "27pt diverged on {rx}x{ry}x{rz} ({boundary:?}, {mode:?})"
                );
                if rz > 1 {
                    assert!(
                        rep.total_traffic().zface_cells > 0,
                        "{rx}x{ry}x{rz} must exchange z-faces"
                    );
                }
            }
        }
    }
}

/// Mixed global boundaries: the x, y and z axes resolve out-of-domain
/// reads differently, and brick corners see all three at once.
#[test]
fn mixed_boundaries_match_serial_on_brick_grids() {
    let initial = wavy(12, 13, 6);
    let stencil = asymmetric_3d_stencil();
    let bounds = BoundarySpec {
        x: Boundary::Reflect,
        y: Boundary::Constant(1.25),
        z: Boundary::Zero,
    };
    let expect = serial(&initial, &stencil, &bounds, 8);
    for (rx, ry, rz) in BRICKS {
        for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
            let rep = run(
                &initial,
                &stencil,
                &bounds,
                &DistConfig::<f64>::new(rx * ry * rz, 8)
                    .with_grid3(rx, ry, rz)
                    .with_mode(mode),
            );
            assert_eq!(
                rep.global, expect,
                "{rx}x{ry}x{rz} diverged under mixed boundaries ({mode:?})"
            );
        }
    }
}

/// Per-rank protection across brick grids: a clean protected run must
/// not perturb the data (bitwise) and must raise no alarms — the
/// checksum interpolation's phantom sums now cross rank boundaries in
/// the z direction too.
#[test]
fn protected_clean_runs_are_exact_with_zero_detections_on_all_bricks() {
    let initial = Grid3D::from_fn(13, 11, 7, |x, y, z| {
        80.0 + ((x * 5 + y * 7 + z * 3) % 11) as f64 * 0.4
    });
    let stencil = asymmetric_3d_stencil();
    let bounds = BoundarySpec::clamp();
    let expect = serial(&initial, &stencil, &bounds, 10);
    for (rx, ry, rz) in BRICKS {
        for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
            let rep = run(
                &initial,
                &stencil,
                &bounds,
                &DistConfig::new(rx * ry * rz, 10)
                    .with_grid3(rx, ry, rz)
                    .with_abft(AbftConfig::<f64>::paper_defaults())
                    .with_mode(mode),
            );
            assert_eq!(
                rep.total_stats().detections,
                0,
                "false positive on a clean {rx}x{ry}x{rz} run ({mode:?})"
            );
            assert_eq!(
                rep.global, expect,
                "protection perturbed a clean {rx}x{ry}x{rz} run ({mode:?})"
            );
        }
    }
}

// --- Fault-injection matrix over the 2×2×2 brick grid. ------------------

const NX: usize = 12;
const NY: usize = 12;
const NZ: usize = 4;
const ITERS: usize = 10;

fn matrix_initial() -> Grid3D<f64> {
    Grid3D::from_fn(NX, NY, NZ, |x, y, z| {
        80.0 + ((x * 3 + y * 5 + z * 7) % 13) as f64 * 0.6
    })
}

fn matrix_serial(stencil: &Stencil3D<f64>) -> Grid3D<f64> {
    let mut sim = StencilSim::new(matrix_initial(), stencil.clone(), BoundarySpec::clamp())
        .with_exec(Exec::Serial);
    for _ in 0..ITERS {
        sim.step();
    }
    sim.current().clone()
}

/// Brick-local injection sites for a 6×6×2 brick (12×12×4 over 2×2×2):
/// `(x, y, z, label)`. Every z-surface class is hit: both z-faces, an
/// xz-edge, a yz-edge, the near and far xyz-corners, and the x/y
/// interior of both layers.
fn sites() -> Vec<(usize, usize, usize, &'static str)> {
    vec![
        (3, 3, 0, "z-face low"),
        (2, 3, 1, "z-face high"),
        (0, 3, 0, "xz-edge"),
        (3, 0, 1, "yz-edge"),
        (0, 0, 0, "xyz-corner near"),
        (5, 5, 1, "xyz-corner far"),
        (3, 2, 1, "interior"),
    ]
}

/// Aim a bit-flip at every structurally distinct site of every rank's
/// brick: each run must show **exactly one** detection and one
/// correction in the targeted rank (zero false negatives), **zero**
/// detections anywhere else (zero false positives), and exact recovery
/// to the serial trajectory, in both halo modes.
fn run_matrix(stencil: &Stencil3D<f64>) {
    let expect = matrix_serial(stencil);
    let modes = [HaloMode::Pipelined, HaloMode::Snapshot];
    for rank in 0..8 {
        for (x, y, z, site) in sites() {
            for mode in modes {
                let flip = BitFlip {
                    iteration: 4,
                    x,
                    y,
                    z,
                    bit: 51,
                };
                let cfg = DistConfig::new(8, ITERS)
                    .with_grid3(2, 2, 2)
                    .with_abft(AbftConfig::<f64>::paper_defaults())
                    .with_flip(rank, flip)
                    .with_mode(mode);
                let rep = run_distributed(
                    &matrix_initial(),
                    stencil,
                    &BoundarySpec::clamp(),
                    None,
                    &cfg,
                )
                .expect("valid dist config");
                let total = rep.total_stats();
                let ctx = format!("rank {rank}, {site} ({x},{y},{z}), {mode:?}");
                // Zero false negatives: the flip must be seen and repaired.
                assert_eq!(total.detections, 1, "missed detection at {ctx}");
                assert_eq!(total.corrections, 1, "missed correction at {ctx}");
                assert_eq!(
                    rep.ranks[rank].stats.corrections, 1,
                    "correction landed in the wrong rank at {ctx}"
                );
                // Zero false positives: no other rank may raise an alarm.
                for (r, report) in rep.ranks.iter().enumerate() {
                    if r != rank {
                        assert_eq!(
                            report.stats.detections, 0,
                            "false positive in rank {r} at {ctx}"
                        );
                    }
                }
                // Exact recovery: the correction lands before the next
                // halo post, so no neighbour — x, y, z or diagonal —
                // ever consumes the corruption, and it recomputes the
                // cell, so the grid is bitwise.
                assert_eq!(rep.global, expect, "repaired grid at {ctx}");
            }
        }
    }
}

/// The matrix under the paper's 7-point star: z-faces feed the z
/// neighbours' face strips, edges feed two face strips each.
#[test]
fn star_stencil_fault_matrix_2x2x2() {
    run_matrix(&Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1));
}

/// The matrix under the library's 27-point diffusion box: a corrupted
/// xyz-corner cell would be consumed through face, edge *and* corner
/// halos by up to seven neighbour bricks at the next exchange — the
/// widest blast radius the decomposition admits. The correction must
/// still land before any of those posts.
#[test]
fn twenty_seven_point_fault_matrix_2x2x2() {
    run_matrix(&Stencil3D::diffusion_27pt(0.21));
}

/// False-positive guard: long clean protected runs on the 2×2×2 grid
/// must never alarm in either mode.
#[test]
fn clean_brick_runs_raise_no_alarms() {
    let stencil = Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1);
    let expect = matrix_serial(&stencil);
    for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
        let cfg = DistConfig::new(8, ITERS)
            .with_grid3(2, 2, 2)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_mode(mode);
        let rep = run_distributed(
            &matrix_initial(),
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &cfg,
        )
        .expect("valid dist config");
        assert_eq!(rep.total_stats().detections, 0, "{mode:?}");
        assert_eq!(rep.global, expect, "{mode:?}");
    }
}
