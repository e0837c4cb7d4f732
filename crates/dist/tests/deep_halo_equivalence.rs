//! Temporal tiling acceptance matrix: with `steps_per_exchange = k` the
//! ranks exchange a depth-`k·r` halo once per epoch and sweep `k` steps
//! locally while the ghost shell decays — and the result must stay
//! **bitwise** identical to the per-step protocol and to the serial
//! reference, for every rank grid × boundary × kernel, on non-divisible
//! extents and with epochs that do not divide the iteration count.
//!
//! The matrix also pins the communication contract (halo messages fall
//! as `1/k` while each payload grows with the deep shell), the clean
//! protected runs (zero false positives), and the intra-epoch fault
//! story: flips at every sweep offset inside an epoch — interior and
//! interpolation-boundary-strip brick cells alike — and flips into
//! mid-decay ghost-shell cells are detected and corrected exactly once,
//! in the right rank, by the protector of the window the sweep wrote.
//!
//! A property test then draws what the matrix does not enumerate — every
//! boundary kind per axis, a reach-2 kernel, `k = 4`, bricks thinner than
//! the shell, a constant field — and holds each draw to the same
//! equality, unprotected and protected.

use abft_core::AbftConfig;
use abft_dist::{run_distributed, DistConfig, DistError, DistReport, HaloMode};
use abft_fault::BitFlip;
use abft_grid::{Boundary, BoundarySpec, Grid3D};
use abft_stencil::{Exec, Stencil2D, Stencil3D, StencilSim};
use proptest::prelude::*;

/// The acceptance rank grids: a pure y-split, an x×y sheet and the full
/// 2×2×2 brick grid.
const GRIDS: [(usize, usize, usize); 3] = [(1, 4, 1), (2, 2, 1), (2, 2, 2)];

fn wavy(nx: usize, ny: usize, nz: usize) -> Grid3D<f64> {
    Grid3D::from_fn(nx, ny, nz, |x, y, z| {
        ((x * 19 + y * 23 + z * 11) % 29) as f64 * 0.5 - 6.0
    })
}

/// Asymmetric 9-tap star: every face channel carries a distinct weight
/// and the diagonal taps make edge/corner halos load-bearing.
fn nine_point() -> Stencil3D<f64> {
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

fn kernels() -> [Stencil3D<f64>; 3] {
    [
        Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1),
        nine_point(),
        Stencil3D::diffusion_27pt(0.21),
    ]
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

/// The tentpole acceptance matrix: pipelined ≡ snapshot ≡ serial,
/// bitwise, for k ∈ {1, 2, 3} × rank grid × boundary × kernel. 7
/// iterations leave a ragged final epoch for k ∈ {2, 3}.
#[test]
fn k_sweeps_match_serial_bitwise_across_grids_boundaries_and_kernels() {
    let initial = wavy(13, 13, 5);
    for stencil in &kernels() {
        for boundary in [Boundary::Clamp, Boundary::Periodic] {
            let bounds = BoundarySpec::uniform(boundary);
            let expect = serial(&initial, stencil, &bounds, 7);
            for (rx, ry, rz) in GRIDS {
                for k in [1usize, 2, 3] {
                    let base = DistConfig::<f64>::new(rx * ry * rz, 7)
                        .with_grid3(rx, ry, rz)
                        .with_steps_per_exchange(k);
                    for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
                        let rep = run(&initial, stencil, &bounds, &base.clone().with_mode(mode));
                        assert_eq!(rep.steps_per_exchange, k);
                        assert_eq!(
                            rep.global,
                            expect,
                            "k={k} {rx}x{ry}x{rz} {mode:?} diverged from serial \
                             ({boundary:?}, {} taps)",
                            stencil.len()
                        );
                    }
                }
            }
        }
    }
}

/// The communication contract: with `iters` divisible by every `k` and
/// bricks thicker than the deepest shell (so the producer set is the
/// same at every depth), the total halo message count falls exactly as
/// `1/k` in both modes, while per-epoch payloads grow with the deep
/// shell (total wire bytes never fall as fast as the message count).
#[test]
fn halo_messages_scale_inversely_with_epoch_length() {
    let initial = wavy(13, 17, 9);
    let stencil = Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1);
    let bounds = BoundarySpec::clamp();
    for (rx, ry, rz) in GRIDS {
        for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
            let msgs = |k: usize| -> (u64, u64) {
                let rep = run(
                    &initial,
                    &stencil,
                    &bounds,
                    &DistConfig::<f64>::new(rx * ry * rz, 12)
                        .with_grid3(rx, ry, rz)
                        .with_steps_per_exchange(k)
                        .with_mode(mode),
                );
                let sent: u64 = rep.ranks.iter().map(|r| r.timing.halo_msgs_sent).sum();
                let recv: u64 = rep.ranks.iter().map(|r| r.timing.halo_msgs_recv).sum();
                assert_eq!(
                    sent, recv,
                    "every message has one producer and one consumer"
                );
                let bytes: u64 = rep.ranks.iter().map(|r| r.timing.halo_bytes_sent).sum();
                (sent, bytes)
            };
            let (m1, b1) = msgs(1);
            assert!(m1 > 0, "{rx}x{ry}x{rz} must exchange halos");
            for k in [2u64, 3, 4] {
                let (mk, bk) = msgs(k as usize);
                assert_eq!(
                    mk * k,
                    m1,
                    "{rx}x{ry}x{rz} {mode:?}: epoch messages must be per-step messages / {k}"
                );
                assert!(
                    bk * k > b1,
                    "{rx}x{ry}x{rz} {mode:?} k={k}: deep-shell payloads must grow per message \
                     (bytes {bk} vs per-step {b1})"
                );
            }
        }
    }
}

/// Clean protected runs: bitwise-exact results and zero detections (no
/// false positives from verifying the brick or the pad cells a sweep
/// writes).
#[test]
fn protected_clean_runs_are_exact_with_zero_false_positives() {
    let initial = Grid3D::from_fn(13, 13, 5, |x, y, z| {
        80.0 + ((x * 5 + y * 7 + z * 3) % 11) as f64 * 0.4
    });
    let stencil = Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1);
    let bounds = BoundarySpec::clamp();
    let expect = serial(&initial, &stencil, &bounds, 6);
    for (rx, ry, rz) in GRIDS {
        for k in [2usize, 3] {
            for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
                let rep = run(
                    &initial,
                    &stencil,
                    &bounds,
                    &DistConfig::new(rx * ry * rz, 6)
                        .with_grid3(rx, ry, rz)
                        .with_steps_per_exchange(k)
                        .with_abft(AbftConfig::<f64>::paper_defaults())
                        .with_mode(mode),
                );
                let ctx = format!("{rx}x{ry}x{rz} k={k} {mode:?}");
                assert_eq!(
                    rep.total_stats().detections,
                    0,
                    "false positive on a clean run ({ctx})"
                );
                assert_eq!(
                    rep.global, expect,
                    "protection perturbed a clean run ({ctx})"
                );
            }
        }
    }
}

// --- Intra-epoch fault matrix over a 2×2×1 grid with k = 3. -------------

const NX: usize = 12;
const NY: usize = 12;
const NZ: usize = 2;
const ITERS: usize = 9;
const K: usize = 3;

fn matrix_initial() -> Grid3D<f64> {
    Grid3D::from_fn(NX, NY, NZ, |x, y, z| {
        80.0 + ((x * 3 + y * 5 + z * 7) % 13) as f64 * 0.6
    })
}

fn matrix_stencil() -> Stencil3D<f64> {
    Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1)
}

fn matrix_serial() -> Grid3D<f64> {
    serial(
        &matrix_initial(),
        &matrix_stencil(),
        &BoundarySpec::clamp(),
        ITERS,
    )
}

/// Brick-cell flips at **every sweep offset inside an epoch** (the
/// exchange sweep, both interior sweeps) in every rank: exactly one
/// detection and one correction, in the right rank, exact recovery —
/// the per-step protection is oblivious to where the epoch boundaries
/// fall. Besides an interior cell, the flips strike the interpolation
/// boundary strip of each rank's 6×6 brick, the cells whose expected
/// checksums read the ghost shell: a cell on the face toward the
/// y-neighbour, one on the face toward the x-neighbour in the bottom
/// layer (an edge of the 6×6×2 brick), and the corner where both faces
/// meet.
#[test]
fn intra_epoch_brick_flips_are_corrected_at_every_sweep_offset() {
    let expect = matrix_serial();
    for rank in 0..4 {
        // Rank `px + 2·py` of the 2×2×1 grid: its ghost faces are the
        // high ends of a low brick and the low ends of a high one.
        let x_in = if rank % 2 == 0 { NX / 2 - 1 } else { 0 };
        let y_in = if rank / 2 == 0 { NY / 2 - 1 } else { 0 };
        let sites = [(3, 2, 1), (3, y_in, 1), (x_in, 2, 0), (x_in, y_in, 1)];
        // Iterations 3, 4, 5 cover epoch offsets j = 0, 1, 2 of the
        // middle epoch.
        for ((x, y, z), iteration) in sites
            .into_iter()
            .flat_map(|s| [(s, 3usize), (s, 4), (s, 5)])
        {
            for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
                let flip = BitFlip {
                    iteration,
                    x,
                    y,
                    z,
                    bit: 51,
                };
                let rep = run(
                    &matrix_initial(),
                    &matrix_stencil(),
                    &BoundarySpec::clamp(),
                    &DistConfig::new(4, ITERS)
                        .with_grid3(2, 2, 1)
                        .with_steps_per_exchange(K)
                        .with_abft(AbftConfig::<f64>::paper_defaults())
                        .with_flip(rank, flip)
                        .with_mode(mode),
                );
                let ctx = format!("rank {rank}, ({x}, {y}, {z}), iteration {iteration}, {mode:?}");
                let total = rep.total_stats();
                assert_eq!(total.detections, 1, "missed detection at {ctx}");
                assert_eq!(total.corrections, 1, "missed correction at {ctx}");
                assert_eq!(
                    rep.ranks[rank].stats.corrections, 1,
                    "correction landed in the wrong rank at {ctx}"
                );
                for (r, report) in rep.ranks.iter().enumerate() {
                    if r != rank {
                        assert_eq!(
                            report.stats.detections, 0,
                            "false positive in rank {r} at {ctx}"
                        );
                    }
                }
                assert_eq!(rep.global, expect, "repaired grid at {ctx}");
            }
        }
    }
}

/// Flips into **ghost-shell cells mid-decay**: sweep `j` of an epoch
/// writes the brick grown by `k − 1 − j` reaches, and the struck rank's
/// protector verifies that whole window as one box, so a pad cell is
/// detected and repaired by sweeping its layer again like a brick cell.
/// Rank 2 of the 2×2×1 grid owns the brick at (0..6, 6..12, 0..2); the
/// flips strike its y-low face, its x-high face and the corner pad cell
/// where the two meet, at every depth the sweep writes, at both sweep
/// offsets of the middle epoch that write pad cells (iterations 3 and 4).
/// Each is one detection and one correction, in rank 2 alone, and the
/// answer is the serial one.
/// Unprotected, the same flip propagates into the answer. The kernel is
/// the 27-point one: under a star, a corner pad cell feeds no brick
/// cell, so its strike could not show in the unprotected answer.
#[test]
fn mid_decay_shell_flips_are_corrected_once_in_the_struck_rank() {
    let stencil = Stencil3D::diffusion_27pt(0.21);
    let expect = serial(&matrix_initial(), &stencil, &BoundarySpec::clamp(), ITERS);
    for j in 0..K - 1 {
        // The window of sweep `j` reaches `g` cells past each cut face.
        let g = K - 1 - j;
        for depth in 1..=g {
            let (below, beside) = (NY / 2 - depth, NX / 2 - 1 + depth);
            let cells = [(3, below), (beside, 8), (beside, below)];
            for ((x, y), mode) in cells
                .into_iter()
                .flat_map(|c| [(c, HaloMode::Pipelined), (c, HaloMode::Snapshot)])
            {
                let flip = BitFlip {
                    iteration: K + j,
                    x,
                    y,
                    z: 1,
                    bit: 51,
                };
                let base = DistConfig::new(4, ITERS)
                    .with_grid3(2, 2, 1)
                    .with_steps_per_exchange(K)
                    .with_shell_flip(2, flip)
                    .with_mode(mode);
                let protected = run(
                    &matrix_initial(),
                    &stencil,
                    &BoundarySpec::clamp(),
                    &base.clone().with_abft(AbftConfig::<f64>::paper_defaults()),
                );
                let ctx = format!("({x}, {y}, 1) at iteration {}, {mode:?}", K + j);
                let total = protected.total_stats();
                assert_eq!(total.detections, 1, "missed detection at {ctx}");
                assert_eq!(total.corrections, 1, "missed correction at {ctx}");
                assert_eq!(
                    protected.ranks[2].stats.corrections, 1,
                    "correction landed in the wrong rank at {ctx}"
                );
                for r in [0usize, 1, 3] {
                    assert_eq!(
                        protected.ranks[r].stats.detections, 0,
                        "false positive in rank {r} at {ctx}"
                    );
                }
                assert_eq!(protected.global, expect, "repaired grid at {ctx}");

                let unprotected = run(&matrix_initial(), &stencil, &BoundarySpec::clamp(), &base);
                assert_ne!(
                    unprotected.global, expect,
                    "unprotected shell corruption must propagate at {ctx}"
                );
            }
        }
    }
}

/// Snapshots must land on exchange boundaries: a checkpoint period that
/// is not a multiple of `k` is a typed error, not a skewed rollback.
#[test]
fn checkpoint_period_must_align_with_epochs() {
    use abft_checkpoint::CheckpointPolicy;
    let err = run_distributed(
        &matrix_initial(),
        &matrix_stencil(),
        &BoundarySpec::clamp(),
        None,
        &DistConfig::<f64>::new(4, ITERS)
            .with_grid3(2, 2, 1)
            .with_steps_per_exchange(K)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_checkpoint(CheckpointPolicy::every(4)),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        DistError::CheckpointEpochMismatch {
            period: 4,
            steps_per_exchange: 3
        }
    ));
}

/// Shell-flip plans are validated up front: a boundary-sweep iteration,
/// a cell outside the shell and a `k = 1` run are all typed errors.
#[test]
fn shell_flip_validation_rejects_boundary_sweeps_and_foreign_cells() {
    let cell = |iteration: usize, x: usize, y: usize| BitFlip {
        iteration,
        x,
        y,
        z: 1,
        bit: 51,
    };
    let build = |k: usize, flip: BitFlip| {
        run_distributed(
            &matrix_initial(),
            &matrix_stencil(),
            &BoundarySpec::clamp(),
            None,
            &DistConfig::<f64>::new(4, ITERS)
                .with_grid3(2, 2, 1)
                .with_steps_per_exchange(k)
                .with_shell_flip(2, flip),
        )
    };
    // Iteration 5 is the last sweep of its epoch: there is no advance
    // after it to host the flip.
    assert!(matches!(
        build(K, cell(5, 3, 5)),
        Err(DistError::ShellFlipAtBoundary { .. })
    ));
    // k = 1 has no decaying shell at all.
    assert!(matches!(
        build(1, cell(3, 3, 5)),
        Err(DistError::ShellFlipAtBoundary { .. })
    ));
    // A brick-interior cell is not in the shell.
    assert!(matches!(
        build(K, cell(3, 3, 8)),
        Err(DistError::ShellFlipOutsideHalo { .. })
    ));
}

fn any_boundary() -> impl Strategy<Value = Boundary<f64>> {
    prop_oneof![
        Just(Boundary::Clamp),
        Just(Boundary::Periodic),
        Just(Boundary::Zero),
        Just(Boundary::Constant(1.5)),
        Just(Boundary::Reflect),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(24))]

    /// The deep shell's proof obligation at run level: whatever the rank
    /// grid (1×4 cuts 13 rows into bricks of 3–4, thinner than any shell
    /// drawn here but the shallowest), the boundary on each axis, the
    /// epoch length, the kernel (flat 5-point, asymmetric 9-point, reach-2
    /// 13-point, dense 27-point) and the constant field, a job ends on the
    /// serial grid bitwise under both drivers — and a protected one has
    /// detected nothing on the way, in the brick or in the shell.
    #[test]
    fn any_boundary_kernel_and_epoch_matches_serial_bitwise(
        grid in prop_oneof![Just((1, 2, 1)), Just((2, 2, 1)), Just((1, 4, 1)), Just((2, 2, 2))],
        bounds in (any_boundary(), any_boundary(), any_boundary()),
        k in 2usize..=4,
        kernel in 0usize..4,
        with_constant in any::<bool>(),
    ) {
        let (rx, ry, rz) = grid;
        let stencil = match kernel {
            0 => Stencil2D::five_point(0.4, 0.15, 0.1).into_3d(),
            1 => nine_point(),
            2 => Stencil3D::diffusion_13pt_4th_order(0.02),
            _ => Stencil3D::diffusion_27pt(0.21),
        };
        // Deep enough for a reach-2, k = 4 shell on every split axis.
        let initial = wavy(11, 13, if rz > 1 { 10 } else { 3 });
        let (nx, ny, nz) = initial.dims();
        let constant = with_constant
            .then(|| Grid3D::from_fn(nx, ny, nz, |x, y, z| ((x + 2 * y + 3 * z) % 7) as f64 * 0.05));
        let bounds = BoundarySpec { x: bounds.0, y: bounds.1, z: bounds.2 };
        let iters = k + 3;
        let mut sim = StencilSim::new(initial.clone(), stencil.clone(), bounds)
            .with_exec(Exec::Serial);
        if let Some(c) = &constant {
            sim = sim.with_constant(c.clone());
        }
        for _ in 0..iters {
            sim.step();
        }
        let base = DistConfig::<f64>::new(rx * ry * rz, iters)
            .with_grid3(rx, ry, rz)
            .with_steps_per_exchange(k);
        for protected in [false, true] {
            for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
                let mut cfg = base.clone().with_mode(mode);
                if protected {
                    cfg = cfg.with_abft(AbftConfig::paper_defaults());
                }
                let rep = run_distributed(&initial, &stencil, &bounds, constant.as_ref(), &cfg)
                    .expect("valid dist config");
                let ctx = format!(
                    "{rx}x{ry}x{rz} k={k} {bounds:?} {} taps constant={with_constant} \
                     protected={protected} {mode:?}",
                    stencil.len()
                );
                prop_assert_eq!(rep.total_stats().detections, 0, "false positive ({})", ctx);
                prop_assert!(rep.global == *sim.current(), "diverged from serial ({})", ctx);
            }
        }
    }
}
