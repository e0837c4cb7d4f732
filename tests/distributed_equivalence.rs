//! Integration tests of the distributed-memory substrate against the
//! serial reference, with and without per-rank protection, on the
//! HotSpot3D workload.

use proptest::prelude::*;
use stencil_abft::dist::{run_distributed, DistConfig, HaloMode};
use stencil_abft::hotspot::HotspotParams;
use stencil_abft::prelude::*;

fn hotspot_pieces(nx: usize, ny: usize, nz: usize) -> (Grid3D<f64>, Stencil3D<f64>, Grid3D<f64>) {
    let params = HotspotParams::new(nx, ny, nz);
    let power = stencil_abft::hotspot::synthetic_power::<f64>(nx, ny, nz, 17);
    let temp0 = stencil_abft::hotspot::initial_temperature(&params, &power);
    let c = params.coefficients();
    let constant = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
        c.step_div_cap * power.at(x, y, z) + c.ct * params.amb_temp
    });
    (temp0, params.stencil::<f64>(), constant)
}

fn serial_run(
    initial: &Grid3D<f64>,
    stencil: &Stencil3D<f64>,
    constant: &Grid3D<f64>,
    iters: usize,
) -> Grid3D<f64> {
    let mut sim = StencilSim::new(initial.clone(), stencil.clone(), BoundarySpec::clamp())
        .with_constant(constant.clone())
        .with_exec(Exec::Serial);
    for _ in 0..iters {
        sim.step();
    }
    sim.current().clone()
}

#[test]
fn hotspot_distributed_matches_serial_bitwise() {
    let (initial, stencil, constant) = hotspot_pieces(16, 24, 4);
    let expect = serial_run(&initial, &stencil, &constant, 20);
    for ranks in [1usize, 2, 4, 6] {
        for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
            let cfg = DistConfig::<f64>::new(ranks, 20).with_mode(mode);
            let rep = run_distributed(
                &initial,
                &stencil,
                &BoundarySpec::clamp(),
                Some(&constant),
                &cfg,
            )
            .expect("valid config");
            assert_eq!(rep.global, expect, "{ranks} ranks diverged ({mode:?})");
        }
    }
}

#[test]
fn hotspot_distributed_protected_is_clean_and_exact() {
    let (initial, stencil, constant) = hotspot_pieces(16, 24, 4);
    let expect = serial_run(&initial, &stencil, &constant, 20);
    let cfg = DistConfig::new(3, 20).with_abft(AbftConfig::<f64>::paper_defaults());
    let rep = run_distributed(
        &initial,
        &stencil,
        &BoundarySpec::clamp(),
        Some(&constant),
        &cfg,
    )
    .expect("valid config");
    assert_eq!(rep.global, expect);
    assert_eq!(rep.total_stats().detections, 0);
}

#[test]
fn faults_in_multiple_ranks_are_corrected_independently() {
    let (initial, stencil, constant) = hotspot_pieces(16, 30, 4);
    let expect = serial_run(&initial, &stencil, &constant, 24);
    let cfg = DistConfig::new(3, 24)
        .with_abft(AbftConfig::<f64>::paper_defaults())
        .with_flip(
            0,
            BitFlip {
                iteration: 5,
                x: 3,
                y: 4,
                z: 1,
                bit: 52,
            },
        )
        .with_flip(
            2,
            BitFlip {
                iteration: 13,
                x: 10,
                y: 2,
                z: 3,
                bit: 51,
            },
        );
    let rep = run_distributed(
        &initial,
        &stencil,
        &BoundarySpec::clamp(),
        Some(&constant),
        &cfg,
    )
    .expect("valid config");
    let total = rep.total_stats();
    assert_eq!(total.detections, 2);
    assert_eq!(total.corrections, 2);
    assert_eq!(rep.ranks[0].stats.corrections, 1);
    assert_eq!(rep.ranks[2].stats.corrections, 1);
    assert_eq!(rep.global, expect, "grid after dual correction");
}

#[test]
fn hotspot_2d_grid_matches_serial_bitwise() {
    let (initial, stencil, constant) = hotspot_pieces(18, 24, 4);
    let expect = serial_run(&initial, &stencil, &constant, 16);
    for (rx, ry) in [(2usize, 2usize), (3, 2), (2, 3)] {
        for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
            let cfg = DistConfig::<f64>::new(rx * ry, 16)
                .with_grid(rx, ry)
                .with_mode(mode);
            let rep = run_distributed(
                &initial,
                &stencil,
                &BoundarySpec::clamp(),
                Some(&constant),
                &cfg,
            )
            .expect("valid config");
            assert_eq!(rep.grid, (rx, ry, 1));
            assert_eq!(rep.global, expect, "{rx}x{ry} grid diverged ({mode:?})");
        }
    }
}

#[test]
fn hotspot_3d_brick_grid_matches_serial_bitwise() {
    let (initial, stencil, constant) = hotspot_pieces(18, 24, 4);
    let expect = serial_run(&initial, &stencil, &constant, 16);
    for (rx, ry, rz) in [(1usize, 2usize, 2usize), (2, 2, 2), (1, 1, 2)] {
        for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
            let cfg = DistConfig::<f64>::new(rx * ry * rz, 16)
                .with_grid3(rx, ry, rz)
                .with_mode(mode);
            let rep = run_distributed(
                &initial,
                &stencil,
                &BoundarySpec::clamp(),
                Some(&constant),
                &cfg,
            )
            .expect("valid config");
            assert_eq!(rep.grid, (rx, ry, rz));
            assert_eq!(
                rep.global, expect,
                "{rx}x{ry}x{rz} bricks diverged ({mode:?})"
            );
        }
    }
}

proptest! {
    // CI raises the case count through PROPTEST_CASES (see the vendored
    // shim's `with_cases_env`); 12 keeps local `cargo test` quick.
    #![proptest_config(ProptestConfig::with_cases_env(12))]

    #[test]
    fn distributed_equivalence_over_rank_grids(
        rx in 1usize..=3,
        ry in 1usize..=3,
        // Sweeps per halo exchange: k > 1 exchanges a depth-k·r shell
        // once per epoch and decays it locally, and must stay bitwise
        // interchangeable with the per-step protocol.
        k in 1usize..=3,
        iters in 1usize..=12,
        boundary in prop_oneof![
            Just(Boundary::Clamp),
            Just(Boundary::Periodic),
            Just(Boundary::Zero),
            Just(Boundary::Reflect),
        ],
        mode in prop_oneof![Just(HaloMode::Pipelined), Just(HaloMode::Snapshot)],
    ) {
        let (initial, stencil, constant) = hotspot_pieces(10, 18, 3);
        let bounds = BoundarySpec { x: Boundary::Clamp, y: boundary, z: Boundary::Clamp };
        let mut sim = StencilSim::new(initial.clone(), stencil.clone(), bounds)
            .with_constant(constant.clone())
            .with_exec(Exec::Serial);
        for _ in 0..iters {
            sim.step();
        }
        let cfg = DistConfig::<f64>::new(rx * ry, iters)
            .with_grid(rx, ry)
            .with_steps_per_exchange(k)
            .with_mode(mode);
        let rep = run_distributed(&initial, &stencil, &bounds, Some(&constant), &cfg)
            .expect("valid config");
        prop_assert_eq!(rep.grid, (rx, ry, 1));
        prop_assert_eq!(rep.steps_per_exchange, k);
        prop_assert_eq!(&rep.global, sim.current());
    }
}
