//! The pipelined (threaded) and snapshot (lock-step) drivers must be
//! **bitwise** interchangeable: same halo values, same sweep results, same
//! ABFT decisions — across boundary conditions, kernel reaches, rank
//! counts and mid-pipeline fault injection. The two drive the same step machine,
//! so every matrix also pins both to a serial `StencilSim` loop — the
//! reference that shares none of that code.

use abft_core::AbftConfig;
use abft_dist::{run_distributed, DistConfig, HaloMode};
use abft_fault::BitFlip;
use abft_grid::{Boundary, BoundarySpec, Grid3D};
use abft_stencil::{Exec, Stencil3D, StencilSim};

fn wavy(nx: usize, ny: usize, nz: usize) -> Grid3D<f64> {
    Grid3D::from_fn(nx, ny, nz, |x, y, z| {
        ((x * 17 + y * 29 + z * 11) % 31) as f64 * 0.5 - 7.0
    })
}

/// The independent reference: one undecomposed serial simulation.
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

/// y-asymmetric 7-point-ish kernel so every halo row carries a distinct
/// weight (a symmetric kernel could mask up/down swaps).
fn asymmetric_stencil() -> Stencil3D<f64> {
    Stencil3D::from_tuples(&[
        (0, 0, 0, 0.38f64),
        (0, -1, 0, 0.27),
        (0, 1, 0, 0.13),
        (-1, 0, 0, 0.08),
        (1, 0, 0, 0.06),
        (0, 0, 1, 0.08),
    ])
}

/// Pipelined and snapshot execution agree bitwise across clamp/periodic
/// global boundaries and several rank counts (the halo is one kernel
/// reach wide; the wide-stencil test below doubles it).
#[test]
fn pipelined_matches_snapshot_bitwise_across_boundaries_and_halo_widths() {
    let initial = wavy(9, 24, 3);
    let stencil = asymmetric_stencil();
    for boundary in [Boundary::Clamp, Boundary::Periodic] {
        let bounds = BoundarySpec {
            x: Boundary::Clamp,
            y: boundary,
            z: Boundary::Clamp,
        };
        let expect = serial(&initial, &stencil, &bounds, 11);
        for ranks in [2usize, 3, 5] {
            let base = DistConfig::<f64>::new(ranks, 11);
            let snap = run_distributed(
                &initial,
                &stencil,
                &bounds,
                None,
                &base.clone().with_mode(HaloMode::Snapshot),
            )
            .unwrap();
            let pipe = run_distributed(
                &initial,
                &stencil,
                &bounds,
                None,
                &base.with_mode(HaloMode::Pipelined),
            )
            .unwrap();
            assert_eq!(
                snap.global, pipe.global,
                "{ranks} ranks diverged under y = {boundary:?}"
            );
            assert_eq!(
                snap.global, expect,
                "{ranks} ranks left the serial trajectory under y = {boundary:?}"
            );
        }
    }
}

/// A wide (extent-2) stencil forces multi-row halos through the pipeline.
#[test]
fn pipelined_matches_snapshot_for_wide_stencils() {
    let initial = wavy(7, 20, 2);
    let stencil = Stencil3D::from_tuples(&[
        (0, 0, 0, 0.4f64),
        (0, -2, 0, 0.2),
        (0, 2, 0, 0.15),
        (0, 1, 0, 0.15),
        (0, -1, 0, 0.1),
    ]);
    for boundary in [Boundary::Clamp, Boundary::Periodic] {
        let bounds = BoundarySpec::uniform(boundary);
        let expect = serial(&initial, &stencil, &bounds, 7);
        for ranks in [2usize, 4] {
            let base = DistConfig::<f64>::new(ranks, 7);
            let snap = run_distributed(
                &initial,
                &stencil,
                &bounds,
                None,
                &base.clone().with_mode(HaloMode::Snapshot),
            )
            .unwrap();
            let pipe = run_distributed(&initial, &stencil, &bounds, None, &base).unwrap();
            assert_eq!(snap.global, pipe.global, "{ranks} ranks, y = {boundary:?}");
            assert_eq!(snap.global, expect, "{ranks} ranks, y = {boundary:?}");
        }
    }
}

/// Mid-pipeline flip injection + ABFT correction: both modes must detect
/// and correct identically, and converge to the same (repaired) grid.
#[test]
fn flip_injection_and_correction_agree_mid_pipeline() {
    let initial = Grid3D::from_fn(10, 18, 2, |x, y, z| {
        75.0 + ((x * 5 + y * 3 + z * 7) % 13) as f64 * 0.6
    });
    let stencil = Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1);
    let bounds = BoundarySpec::clamp();
    // One flip in an edge row (exchanged as a halo) and one interior.
    let flips = [
        (
            1usize,
            BitFlip {
                iteration: 3,
                x: 2,
                y: 0,
                z: 1,
                bit: 51,
            },
        ),
        (
            2usize,
            BitFlip {
                iteration: 8,
                x: 7,
                y: 3,
                z: 0,
                bit: 52,
            },
        ),
    ];
    let mut cfg = DistConfig::new(3, 12).with_abft(AbftConfig::<f64>::paper_defaults());
    for (rank, flip) in flips {
        cfg = cfg.with_flip(rank, flip);
    }
    let snap = run_distributed(
        &initial,
        &stencil,
        &bounds,
        None,
        &cfg.clone().with_mode(HaloMode::Snapshot),
    )
    .unwrap();
    let pipe = run_distributed(&initial, &stencil, &bounds, None, &cfg).unwrap();

    assert_eq!(snap.total_stats().detections, 2);
    assert_eq!(pipe.total_stats().detections, 2);
    assert_eq!(snap.total_stats().corrections, 2);
    assert_eq!(pipe.total_stats().corrections, 2);
    for r in 0..3 {
        assert_eq!(
            snap.ranks[r].stats.corrections, pipe.ranks[r].stats.corrections,
            "rank {r} corrected differently"
        );
    }
    assert_eq!(snap.global, pipe.global, "repaired grids diverged");
    // The repair recomputes the cell, so both are the fault-free grid.
    assert_eq!(snap.global, serial(&initial, &stencil, &bounds, 12));
}

/// Unbalanced decompositions (slabs of different heights) and many ranks:
/// the channel topology must stay correct when edge slabs differ in size.
#[test]
fn pipelined_matches_snapshot_on_unbalanced_decompositions() {
    let initial = wavy(6, 23, 2); // 23 rows over 6 ranks: 4,4,4,4,4,3
    let stencil = asymmetric_stencil();
    let bounds = BoundarySpec::clamp();
    let base = DistConfig::<f64>::new(6, 9);
    let snap = run_distributed(
        &initial,
        &stencil,
        &bounds,
        None,
        &base.clone().with_mode(HaloMode::Snapshot),
    )
    .unwrap();
    let pipe = run_distributed(&initial, &stencil, &bounds, None, &base).unwrap();
    assert_eq!(snap.global, pipe.global);
    assert_eq!(snap.global, serial(&initial, &stencil, &bounds, 9));
}
