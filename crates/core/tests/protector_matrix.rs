//! Cross-configuration matrix tests of the two protectors: every
//! (boundary, float-type) combination must detect and handle a standard
//! fault without false positives.

use abft_core::{AbftConfig, OfflineAbft, OnlineAbft};
use abft_grid::{Boundary, BoundarySpec, Grid3D};
use abft_num::Real;
use abft_stencil::{Exec, NoHook, Stencil3D, StencilSim};

fn sim_for<T: Real>(bounds: BoundarySpec<T>) -> StencilSim<T> {
    let g = Grid3D::from_fn(12, 10, 3, |x, y, z| {
        T::from_f64(60.0 + ((x * 7 + y * 5 + z * 3) % 13) as f64 * 0.6)
    });
    let stencil = Stencil3D::seven_point(
        T::from_f64(0.4),
        T::from_f64(0.12),
        T::from_f64(0.08),
        T::from_f64(0.1),
    );
    StencilSim::new(g, stencil, bounds).with_exec(Exec::Serial)
}

fn boundary_matrix<T: Real>() -> Vec<BoundarySpec<T>> {
    vec![
        BoundarySpec::clamp(),
        BoundarySpec::periodic(),
        BoundarySpec::zero(),
        BoundarySpec::uniform(Boundary::Constant(T::from_f64(60.0))),
        BoundarySpec::uniform(Boundary::Reflect),
        BoundarySpec {
            x: Boundary::Clamp,
            y: Boundary::Reflect,
            z: Boundary::Zero,
        },
    ]
}

/// One fault, detected once and repaired in place: the final grid is
/// bitwise an unprotected run's.
fn online_case<T: Real>(bounds: BoundarySpec<T>) {
    let mut sim = sim_for::<T>(bounds);
    let mut unprotected = sim_for::<T>(bounds);
    let mut abft = OnlineAbft::new(&sim, AbftConfig::<T>::paper_defaults());
    let hook = |x: usize, y: usize, z: usize, v: T| {
        if (x, y, z) == (6, 5, 1) {
            v + T::from_f64(40.0)
        } else {
            v
        }
    };
    let mut detected = 0;
    for t in 0..12 {
        let out = if t == 5 {
            abft.step(&mut sim, &hook)
        } else {
            abft.step(&mut sim, &NoHook)
        };
        unprotected.step();
        if t != 5 {
            assert!(out.is_clean(), "false positive at t={t} ({bounds:?})");
        }
        detected += out.detections;
    }
    assert_eq!(detected, 1, "missed fault ({bounds:?})");
    let bits = |g: &Grid3D<T>| {
        g.as_slice()
            .iter()
            .map(|v| v.to_bits_u64())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(sim.current()),
        bits(unprotected.current()),
        "not repaired bitwise ({bounds:?})"
    );
}

#[test]
fn online_matrix_f64() {
    for bounds in boundary_matrix::<f64>() {
        online_case::<f64>(bounds);
    }
}

#[test]
fn online_matrix_f32() {
    for bounds in boundary_matrix::<f32>() {
        online_case::<f32>(bounds);
    }
}

#[test]
fn offline_matrix_f64() {
    for bounds in boundary_matrix::<f64>() {
        for period in [3usize, 7] {
            let mut sim = sim_for::<f64>(bounds);
            let reference = {
                let mut r = sim_for::<f64>(bounds);
                for _ in 0..14 {
                    r.step();
                }
                r.current().clone()
            };
            let cfg = AbftConfig::<f64>::paper_defaults().with_period(period);
            let mut abft = OfflineAbft::new(&sim, cfg);
            let hook = |x: usize, y: usize, z: usize, v: f64| {
                if (x, y, z) == (6, 5, 1) {
                    v + 40.0
                } else {
                    v
                }
            };
            for t in 0..14 {
                if t == 5 {
                    abft.step(&mut sim, &hook);
                } else {
                    abft.step(&mut sim, &NoHook);
                }
            }
            abft.finalize(&mut sim);
            let stats = abft.stats();
            assert!(stats.detections >= 1, "missed ({bounds:?}, Δ={period})");
            assert_eq!(stats.rollbacks, 1, "({bounds:?}, Δ={period})");
            assert_eq!(
                sim.current(),
                &reference,
                "not erased ({bounds:?}, Δ={period})"
            );
        }
    }
}

#[test]
fn online_matrix_f32_with_f32_scale_fault() {
    // f32 end-to-end including the correction algebra at f32 precision.
    let mut sim = sim_for::<f32>(BoundarySpec::clamp());
    let mut reference = sim_for::<f32>(BoundarySpec::clamp());
    let mut abft = OnlineAbft::new(&sim, AbftConfig::<f32>::paper_defaults());
    let hook = |x: usize, y: usize, z: usize, v: f32| {
        if (x, y, z) == (3, 3, 2) {
            -v
        } else {
            v
        }
    };
    for t in 0..10 {
        if t == 4 {
            abft.step(&mut sim, &hook);
        } else {
            abft.step(&mut sim, &NoHook);
        }
        reference.step();
    }
    assert_eq!(abft.stats().corrections, 1);
    let resid = sim.current().max_abs_diff(reference.current());
    assert!(resid < 1e-2, "f32 residual too large: {resid}");
}
