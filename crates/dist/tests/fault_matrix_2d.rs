//! Fault-injection matrix over a 2×2 rank grid: a bit-flip is aimed at
//! every structurally distinct site of every rank's tile — all four
//! corners, the x-edges (columns exchanged with x-neighbours), the
//! y-edges (rows exchanged with y-neighbours) and the interior — and each
//! run must show **exactly one** detection and one correction in the
//! targeted rank (zero false negatives), **zero** detections anywhere
//! else (zero false positives), and exact recovery to the serial
//! trajectory, in both halo modes.
//!
//! Corner sites are the new surface a 2-D decomposition opens: a
//! corrupted corner cell is owed to up to three neighbours (x, y and
//! diagonal) at the next exchange, so the per-rank correction must land
//! before the next halo post in *all* of those directions.

use abft_core::AbftConfig;
use abft_dist::{run_distributed, DistConfig, HaloMode};
use abft_fault::BitFlip;
use abft_grid::{BoundarySpec, Grid3D};
use abft_stencil::{Exec, Stencil3D, StencilSim};

const NX: usize = 12;
const NY: usize = 12;
const NZ: usize = 2;
const ITERS: usize = 10;

fn initial() -> Grid3D<f64> {
    Grid3D::from_fn(NX, NY, NZ, |x, y, z| {
        80.0 + ((x * 3 + y * 5 + z * 7) % 13) as f64 * 0.6
    })
}

fn serial(stencil: &Stencil3D<f64>) -> Grid3D<f64> {
    let mut sim =
        StencilSim::new(initial(), stencil.clone(), BoundarySpec::clamp()).with_exec(Exec::Serial);
    for _ in 0..ITERS {
        sim.step();
    }
    sim.current().clone()
}

/// Tile-local injection sites for a 6×6 tile (12×12 over a 2×2 grid):
/// `(x, y, z, label)`.
fn sites() -> Vec<(usize, usize, usize, &'static str)> {
    vec![
        (0, 0, 0, "corner NW"),
        (5, 0, 1, "corner NE"),
        (0, 5, 1, "corner SW"),
        (5, 5, 0, "corner SE"),
        (0, 2, 1, "x-edge W"),
        (5, 3, 0, "x-edge E"),
        (2, 0, 1, "y-edge N"),
        (3, 5, 0, "y-edge S"),
        (3, 3, 0, "interior"),
    ]
}

fn run_matrix(stencil: &Stencil3D<f64>) {
    let expect = serial(stencil);
    let modes = [HaloMode::Pipelined, HaloMode::Snapshot];
    for rank in 0..4 {
        for (x, y, z, site) in sites() {
            for mode in modes {
                let flip = BitFlip {
                    iteration: 4,
                    x,
                    y,
                    z,
                    bit: 51,
                };
                let cfg = DistConfig::new(4, ITERS)
                    .with_grid(2, 2)
                    .with_abft(AbftConfig::<f64>::paper_defaults())
                    .with_flip(rank, flip)
                    .with_mode(mode);
                let rep = run_distributed(&initial(), stencil, &BoundarySpec::clamp(), None, &cfg)
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
                // halo post, so no neighbour ever consumes the corruption,
                // and it recomputes the cell, so the grid is bitwise.
                assert_eq!(rep.global, expect, "repaired grid at {ctx}");
            }
        }
    }
}

/// The matrix under the paper's 7-point star: corners feed the x/y
/// neighbours' strips, edges feed one strip each.
#[test]
fn star_stencil_fault_matrix_2x2() {
    run_matrix(&Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1));
}

/// The matrix under a 9-point-style kernel with diagonal taps: a
/// corrupted corner would be consumed through the *corner* halo by the
/// diagonal neighbour one iteration later, so this pins down that
/// corrections reach the corner exchange too.
#[test]
fn diagonal_stencil_fault_matrix_2x2() {
    run_matrix(&Stencil3D::from_tuples(&[
        (0, 0, 0, 0.32f64),
        (-1, -1, 0, 0.1),
        (1, -1, 0, 0.08),
        (-1, 1, 0, 0.09),
        (1, 1, 0, 0.07),
        (-1, 0, 0, 0.1),
        (1, 0, 0, 0.06),
        (0, -1, 0, 0.1),
        (0, 1, 0, 0.08),
    ]))
}

/// The matrix under the library's 27-point diffusion box: every off-axis
/// tap class is populated, so a corrupted corner cell would be consumed
/// through row, column *and* corner halos on two z-layers at the next
/// exchange — the widest blast radius a width-1 kernel can have. The
/// correction must still land before any of those posts.
#[test]
fn twenty_seven_point_fault_matrix_2x2() {
    run_matrix(&Stencil3D::diffusion_27pt(0.21));
}

/// False-positive guard: long clean protected runs on the same grid must
/// never alarm in either mode.
#[test]
fn clean_runs_raise_no_alarms() {
    let stencil = Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1);
    let expect = serial(&stencil);
    for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
        let cfg = DistConfig::new(4, ITERS)
            .with_grid(2, 2)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_mode(mode);
        let rep = run_distributed(&initial(), &stencil, &BoundarySpec::clamp(), None, &cfg)
            .expect("valid dist config");
        assert_eq!(rep.total_stats().detections, 0, "{mode:?}");
        assert_eq!(rep.global, expect, "{mode:?}");
    }
}
