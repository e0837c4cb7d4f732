//! Rank-loss recovery matrix: a whole simulated rank is killed mid-run
//! and the job must roll every rank back to the newest common checkpoint
//! epoch, replay, and finish **bitwise-identical** to the fault-free
//! trajectory — in both halo modes, on 2-D and 3-D rank grids, under
//! clamped and periodic boundaries. Survivor ranks must never raise an
//! ABFT alarm over the loss (a vanished neighbour is fail-stop, not data
//! corruption), and a kill without a checkpoint policy must surface as
//! a typed error rather than a hang or a wrong answer.

use abft_checkpoint::CheckpointPolicy;
use abft_core::AbftConfig;
use abft_dist::{
    run_distributed, DistConfig, DistError, DistReport, DistService, HaloMode, JobSpec,
};
use abft_fault::{random_flips_at_bit, random_kills, BitFlip, RankKill};
use abft_grid::{BoundarySpec, Grid3D};
use abft_stencil::{Exec, Stencil3D, StencilSim};
use proptest::prelude::*;

const NX: usize = 12;
const NY: usize = 12;
const NZ: usize = 6;
const ITERS: usize = 10;

fn initial() -> Grid3D<f64> {
    Grid3D::from_fn(NX, NY, NZ, |x, y, z| {
        40.0 + ((x * 5 + y * 3 + z * 11) % 17) as f64 * 0.4
    })
}

fn stencil() -> Stencil3D<f64> {
    Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1)
}

fn run(cfg: &DistConfig<f64>, bounds: &BoundarySpec<f64>) -> DistReport<f64> {
    run_distributed(&initial(), &stencil(), bounds, None, cfg).expect("valid dist config")
}

/// Fault-free reference on the same rank grid (no checkpointing, no
/// faults) — the trajectory every recovered run must reproduce exactly.
fn reference(
    grid: (usize, usize, usize),
    bounds: &BoundarySpec<f64>,
    mode: HaloMode,
) -> Grid3D<f64> {
    let cfg = DistConfig::new(grid.0 * grid.1 * grid.2, ITERS)
        .with_grid3(grid.0, grid.1, grid.2)
        .with_abft(AbftConfig::<f64>::paper_defaults())
        .with_mode(mode);
    run(&cfg, bounds).global
}

/// Checkpointing a clean run is pure observation: snapshots are taken on
/// schedule but the trajectory is bitwise-unchanged, on 2-D and 3-D
/// bricks under both boundary families.
#[test]
fn clean_checkpointed_runs_are_bitwise_identical() {
    let grids = [(2, 2, 1), (1, 2, 2)];
    let bounds = [BoundarySpec::clamp(), BoundarySpec::periodic()];
    for grid in grids {
        for bounds in &bounds {
            for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
                let expect = reference(grid, bounds, mode);
                let cfg = DistConfig::new(4, ITERS)
                    .with_grid3(grid.0, grid.1, grid.2)
                    .with_abft(AbftConfig::<f64>::paper_defaults())
                    .with_checkpoint(CheckpointPolicy::every(3))
                    .with_mode(mode);
                let rep = run(&cfg, bounds);
                let ctx = format!("{grid:?} {mode:?}");
                assert_eq!(
                    rep.global, expect,
                    "checkpointing perturbed the run at {ctx}"
                );
                assert!(rep.recovery.is_clean(), "phantom rollback at {ctx}");
                assert!(
                    rep.recovery.checkpoints_stored >= 4 * (ITERS / 3),
                    "missing snapshots at {ctx}: {}",
                    rep.recovery.checkpoints_stored
                );
                assert_eq!(
                    rep.recovery.checkpoint_period, 3,
                    "period tag lost at {ctx}"
                );
            }
        }
    }
}

/// The kill matrix: every rank of a 2×2 grid is killed early (before the
/// first non-trivial epoch), mid-run, and on the final iteration, in
/// both halo modes. Each run must detect exactly one loss, roll back,
/// and converge bitwise to the fault-free grid with zero ABFT alarms in
/// the survivors.
#[test]
fn kill_matrix_2x2_recovers_bitwise() {
    for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
        let expect = reference((2, 2, 1), &BoundarySpec::clamp(), mode);
        for rank in 0..4 {
            for iter in [1, 5, ITERS - 1] {
                let cfg = DistConfig::new(4, ITERS)
                    .with_grid(2, 2)
                    .with_abft(AbftConfig::<f64>::paper_defaults())
                    .with_checkpoint(CheckpointPolicy::every(3))
                    .with_rank_kill(RankKill::new(rank, iter))
                    .with_mode(mode);
                let rep = run(&cfg, &BoundarySpec::clamp());
                let ctx = format!("rank {rank} killed at t={iter}, {mode:?}");
                assert_eq!(rep.global, expect, "inexact recovery at {ctx}");
                assert_eq!(rep.recovery.rank_losses, 1, "loss not counted at {ctx}");
                assert!(rep.recovery.rollbacks >= 1, "no rollback at {ctx}");
                assert!(
                    rep.recovery.steps_lost <= 4 * ITERS,
                    "impossible steps_lost at {ctx}: {}",
                    rep.recovery.steps_lost
                );
                // Zero false positives: a fail-stop loss is not data
                // corruption, so no rank may raise an ABFT alarm.
                for (r, report) in rep.ranks.iter().enumerate() {
                    assert_eq!(
                        report.stats.detections, 0,
                        "false positive in rank {r} at {ctx}"
                    );
                }
            }
        }
    }
}

/// Rank loss on a 3-D (1×2×2) brick grid: the z-halo channels are the
/// ones that observe the disconnect, under both boundary families.
#[test]
fn kill_on_3d_brick_grid_recovers_bitwise() {
    for bounds in [BoundarySpec::clamp(), BoundarySpec::periodic()] {
        for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
            let expect = reference((1, 2, 2), &bounds, mode);
            for rank in 0..4 {
                let cfg = DistConfig::new(4, ITERS)
                    .with_grid3(1, 2, 2)
                    .with_abft(AbftConfig::<f64>::paper_defaults())
                    .with_checkpoint(CheckpointPolicy::every(4))
                    .with_rank_kill(RankKill::new(rank, 6))
                    .with_mode(mode);
                let rep = run(&cfg, &bounds);
                let ctx = format!("rank {rank}, {mode:?}, {bounds:?}");
                assert_eq!(rep.global, expect, "inexact recovery at {ctx}");
                assert_eq!(rep.recovery.rank_losses, 1, "loss not counted at {ctx}");
            }
        }
    }
}

/// Deep pipeline, tight checkpoint periods: on a 1×4 slab grid (rank-graph
/// diameter 3) with Δ ∈ {1, 2}, pipeline skew spans several checkpoint
/// periods, so at kill time survivors retain epochs *newer* than the
/// common rollback target and the replay re-stores those epochs. The
/// rollback must truncate the stale copies first — this is the regression
/// case where the ring's in-order assert used to panic a worker on
/// replay, turning a recoverable loss into `RankPanicked`. The skew at
/// kill time varies with thread scheduling, hence the repeated rounds.
#[test]
fn deep_pipeline_kill_with_tight_periods_recovers_bitwise() {
    let expect = reference((1, 4, 1), &BoundarySpec::clamp(), HaloMode::Pipelined);
    for period in [1, 2] {
        for round in 0..6 {
            let cfg = DistConfig::new(4, ITERS)
                .with_grid(1, 4)
                .with_abft(AbftConfig::<f64>::paper_defaults())
                .with_checkpoint(CheckpointPolicy::every(period))
                .with_rank_kill(RankKill::new(0, 5))
                .with_mode(HaloMode::Pipelined);
            let rep = run(&cfg, &BoundarySpec::clamp());
            let ctx = format!("period {period}, round {round}");
            assert_eq!(rep.global, expect, "inexact recovery at {ctx}");
            assert_eq!(rep.recovery.rank_losses, 1, "loss not counted at {ctx}");
            assert!(rep.recovery.rollbacks >= 1, "no rollback at {ctx}");
        }
    }
}

/// An explicitly pinned ring depth too shallow for the pipeline's epoch
/// skew must never hang the service or panic the scheduler. Depending on
/// the skew at kill time the rings either still share an epoch (the run
/// recovers bitwise) or share none — which must surface as the typed
/// `NoCommonEpoch` error, with the pool alive for the next round.
#[test]
fn too_shallow_keep_is_a_typed_error_not_a_hang() {
    let expect = reference((1, 4, 1), &BoundarySpec::clamp(), HaloMode::Pipelined);
    for round in 0..6 {
        let cfg = DistConfig::new(4, ITERS)
            .with_grid(1, 4)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_checkpoint(CheckpointPolicy::every(1).with_keep(1))
            .with_rank_kill(RankKill::new(0, 5))
            .with_mode(HaloMode::Pipelined);
        match run_distributed(&initial(), &stencil(), &BoundarySpec::clamp(), None, &cfg) {
            Ok(rep) => assert_eq!(rep.global, expect, "inexact recovery at round {round}"),
            Err(DistError::NoCommonEpoch { keep }) => assert_eq!(keep, 1, "round {round}"),
            Err(other) => panic!("expected NoCommonEpoch at round {round}, got {other:?}"),
        }
    }
}

/// A kill with no checkpoint policy must not hang, panic, or return a
/// wrong grid: it surfaces as `DistError::RankLost` carrying the victim
/// and the iteration, in both modes.
#[test]
fn kill_without_checkpoint_policy_is_a_typed_error() {
    for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
        let cfg = DistConfig::new(4, ITERS)
            .with_grid(2, 2)
            .with_rank_kill(RankKill::new(2, 5))
            .with_mode(mode);
        let err = run_distributed(&initial(), &stencil(), &BoundarySpec::clamp(), None, &cfg)
            .expect_err("an unprotected kill must fail the job");
        match err {
            DistError::RankLost { rank, iter } => {
                assert_eq!(rank, 2, "{mode:?}");
                assert_eq!(iter, 5, "{mode:?}");
            }
            other => panic!("expected RankLost, got {other:?} under {mode:?}"),
        }
    }
}

/// Mixed storm: a correctable bit-flip (repaired in place by a re-sweep) and
/// a rank kill (repaired by rollback) in the same run. The flip must not
/// replay after the rollback rewinds past its iteration — injected
/// faults are physical one-shot events — and the final grid is still
/// bitwise fault-free.
#[test]
fn mixed_flip_and_kill_recover_together() {
    for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
        let expect = reference((2, 2, 1), &BoundarySpec::clamp(), mode);
        let flip = BitFlip {
            iteration: 4,
            x: 3,
            y: 2,
            z: 1,
            bit: 51,
        };
        let cfg = DistConfig::new(4, ITERS)
            .with_grid(2, 2)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_checkpoint(CheckpointPolicy::every(3))
            .with_flip(1, flip)
            .with_rank_kill(RankKill::new(3, 7))
            .with_mode(mode);
        let rep = run(&cfg, &BoundarySpec::clamp());
        assert_eq!(rep.global, expect, "inexact mixed recovery under {mode:?}");
        assert_eq!(rep.recovery.rank_losses, 1, "{mode:?}");
        assert!(rep.recovery.rollbacks >= 1, "{mode:?}");
        // The flip fired exactly once (before or after rollback, never
        // twice): exactly one detection and one correction job-wide.
        let total = rep.total_stats();
        assert_eq!(
            total.detections, 1,
            "flip replayed or vanished under {mode:?}"
        );
        assert_eq!(total.corrections, 1, "{mode:?}");
    }
}

/// Two same-layer flips in one iteration: the layer is flagged once, and
/// sweeping it again repairs both in place. The job never rolls back, and
/// ends bitwise on the fault-free grid. (Escalation to a rollback, which
/// a re-sweep cannot avoid for a strike at rest, is
/// `step::tests::a_strike_at_rest_rolls_back_to_the_serial_grid`.)
#[test]
fn same_layer_storm_is_repaired_in_place() {
    for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
        let expect = reference((2, 2, 1), &BoundarySpec::clamp(), mode);
        let storm = [
            BitFlip {
                iteration: 5,
                x: 1,
                y: 2,
                z: 1,
                bit: 53,
            },
            BitFlip {
                iteration: 5,
                x: 4,
                y: 4,
                z: 1,
                bit: 53,
            },
        ];
        let mut cfg = DistConfig::new(4, ITERS)
            .with_grid(2, 2)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_checkpoint(CheckpointPolicy::every(3))
            .with_mode(mode);
        for flip in storm {
            cfg = cfg.with_flip(2, flip);
        }
        let rep = run(&cfg, &BoundarySpec::clamp());
        let ctx = format!("{mode:?}");
        assert_eq!(rep.global, expect, "storm leaked at {ctx}");
        assert_eq!(rep.recovery.rollbacks, 0, "{ctx}");
        assert_eq!(
            rep.recovery.rank_losses, 0,
            "storm is not a rank loss at {ctx}"
        );
        let total = rep.total_stats();
        let counts = (total.detections, total.corrections, total.uncorrectable);
        assert_eq!(counts, (1, 2, 0), "one flagged layer, two repairs at {ctx}");
    }
}

/// Simultaneous loss of two ranks is one rollback round: both victims
/// rewind with the survivors to a single common epoch.
#[test]
fn double_kill_in_one_iteration_is_one_rollback_round() {
    for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
        let expect = reference((2, 2, 1), &BoundarySpec::clamp(), mode);
        let cfg = DistConfig::new(4, ITERS)
            .with_grid(2, 2)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_checkpoint(CheckpointPolicy::every(3))
            .with_rank_kill(RankKill::new(0, 6))
            .with_rank_kill(RankKill::new(3, 6))
            .with_mode(mode);
        let rep = run(&cfg, &BoundarySpec::clamp());
        assert_eq!(rep.global, expect, "{mode:?}");
        assert_eq!(rep.recovery.rank_losses, 2, "{mode:?}");
    }
}

/// A pool hands one job's snapshot grids to the next checkpointing job
/// on the same bricks, whose rings store into them. So a twin over
/// another field runs first through the same service, and the killed
/// job after it must roll back to its own snapshots, never the twin's
/// values, and end on the serial grid, bitwise. The 1×4 slabs at Δ = 1
/// also truncate epochs that ran ahead, whose re-stores reuse the
/// dropped grids.
#[test]
fn a_killed_job_after_a_differently_valued_twin_recovers_bitwise() {
    let mut sim =
        StencilSim::new(initial(), stencil(), BoundarySpec::clamp()).with_exec(Exec::Serial);
    for _ in 0..ITERS {
        sim.step();
    }
    let twin = Grid3D::from_fn(NX, NY, NZ, |x, y, z| {
        -(((x * 7 + y * 13 + z) % 23) as f64) * 0.3
    });
    for ((rx, ry), period) in [((2, 2), 3), ((1, 4), 1)] {
        for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
            let job = |field| {
                JobSpec::over(field, stencil())
                    .with_ranks(4)
                    .with_grid(rx, ry)
                    .with_iters(ITERS)
                    .with_abft(AbftConfig::<f64>::paper_defaults())
                    .with_checkpoint(CheckpointPolicy::every(period))
                    .with_mode(mode)
            };
            let ctx = format!("{rx}×{ry}, period {period}, {mode:?}");
            let service = DistService::<f64>::new(4).unwrap();
            let first = service.submit(job(twin.clone())).unwrap().wait().unwrap();
            assert!(first.recovery.is_clean(), "{ctx}");
            let killed = job(initial()).with_rank_kill(RankKill::new(2, 7));
            let rep = service.submit(killed).unwrap().wait().unwrap();
            assert_eq!(rep.recovery.rank_losses, 1, "{ctx}");
            assert!(rep.recovery.rollbacks >= 1, "{ctx}");
            assert_eq!(&rep.global, sim.current(), "inexact recovery at {ctx}");
            service.shutdown();
        }
    }
}

/// Kill validation mirrors flip validation: out-of-range victims and
/// iterations are rejected before any thread spawns.
#[test]
fn kill_specs_are_validated_up_front() {
    let cfg = DistConfig::<f64>::new(4, ITERS)
        .with_grid(2, 2)
        .with_checkpoint(CheckpointPolicy::every(3))
        .with_rank_kill(RankKill::new(4, 1));
    let err = run_distributed(&initial(), &stencil(), &BoundarySpec::clamp(), None, &cfg)
        .expect_err("rank 4 does not exist");
    assert!(matches!(err, DistError::KillRank { rank: 4, ranks: 4 }));

    let cfg = DistConfig::<f64>::new(4, ITERS)
        .with_grid(2, 2)
        .with_checkpoint(CheckpointPolicy::every(3))
        .with_rank_kill(RankKill::new(1, ITERS));
    let err = run_distributed(&initial(), &stencil(), &BoundarySpec::clamp(), None, &cfg)
        .expect_err("iteration never runs");
    assert!(matches!(
        err,
        DistError::KillIteration {
            iter: ITERS,
            iters: ITERS
        }
    ));
}

/// Mixed storm under temporal tiling (`k = 2`): a correctable bit-flip
/// on a mid-epoch sweep of one rank plus a later kill of another. The
/// flip is repaired in place before the kill's rollback, the rollback
/// lands on an exchange-aligned epoch (so the decayed shells rebuild
/// cleanly), and the job ends bitwise on the fault-free grid.
#[test]
fn mixed_flip_and_kill_recover_with_deep_halos() {
    for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
        let expect = reference((2, 2, 1), &BoundarySpec::clamp(), mode);
        let cfg = DistConfig::new(4, ITERS)
            .with_grid(2, 2)
            .with_steps_per_exchange(2)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_checkpoint(CheckpointPolicy::every(4))
            .with_flip(
                1,
                BitFlip {
                    iteration: 3,
                    x: 3,
                    y: 2,
                    z: 1,
                    bit: 51,
                },
            )
            .with_rank_kill(RankKill::new(2, 6))
            .with_mode(mode);
        let rep = run(&cfg, &BoundarySpec::clamp());
        let ctx = format!("{mode:?}");
        assert_eq!(rep.global, expect, "{ctx}");
        assert_eq!(rep.recovery.rank_losses, 1, "{ctx}");
        assert!(rep.recovery.rollbacks >= 1, "{ctx}");
        // The flip fired exactly once: it was repaired at t = 3, and the
        // kill's rollback (to epoch 4) never replays it.
        let total = rep.total_stats();
        assert_eq!(total.detections, 1, "flip replayed or vanished at {ctx}");
        assert_eq!(total.corrections, 1, "{ctx}");
    }
}

/// The same storm under temporal tiling: two same-layer flips on a
/// mid-epoch sweep are repaired in place by sweeping their layer again,
/// with no rollback, and the job ends bitwise on the fault-free grid.
#[test]
fn same_layer_storm_is_repaired_in_place_with_deep_halos() {
    for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
        let expect = reference((2, 2, 1), &BoundarySpec::clamp(), mode);
        let mut cfg = DistConfig::new(4, ITERS)
            .with_grid(2, 2)
            .with_steps_per_exchange(2)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_checkpoint(CheckpointPolicy::every(2))
            .with_mode(mode);
        for x in [1, 4] {
            cfg = cfg.with_flip(
                2,
                BitFlip {
                    iteration: 5,
                    x,
                    y: 2 + x / 2,
                    z: 1,
                    bit: 53,
                },
            );
        }
        let rep = run(&cfg, &BoundarySpec::clamp());
        let ctx = format!("{mode:?}");
        assert_eq!(rep.global, expect, "storm leaked at {ctx}");
        assert_eq!(rep.recovery.rollbacks, 0, "{ctx}");
        assert_eq!(rep.recovery.rank_losses, 0, "{ctx}");
        let total = rep.total_stats();
        let counts = (total.detections, total.corrections, total.uncorrectable);
        assert_eq!(counts, (1, 2, 0), "one flagged layer, two repairs at {ctx}");
    }
}

proptest! {
    // A handful of storms locally; CI runs 64 through PROPTEST_CASES, and
    // a failing storm's seed lands in proptest-regressions/.
    #![proptest_config(ProptestConfig::with_cases_env(6))]

    /// The storm campaign: one seeded kill — in mixed storms with two
    /// correctable flips on top — on the 2×2 grid and on the 1×4 slab
    /// grid, whose rank-graph diameter of 3 lets the pipeline's epoch
    /// skew cross checkpoint boundaries under tight periods. Every sweep
    /// is verified, and at `k > 1` the rollback lands on an exchange
    /// boundary, whose first post rebuilds the ghost shell the snapshot
    /// does not hold. Every storm must replay to the fault-free grid
    /// **bitwise**, mixed ones too: a flip's layer is flagged and swept
    /// again. A storm that ends in any
    /// `DistError` fails the test.
    #[test]
    fn seeded_flip_and_kill_storms_always_recover(
        slabs in any::<bool>(),
        k in 1usize..=2,
        period in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        mode in prop_oneof![Just(HaloMode::Pipelined), Just(HaloMode::Snapshot)],
        mixed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Snapshots must land on exchange boundaries.
        prop_assume!(period % k == 0);
        let (rx, ry) = if slabs { (1, 4) } else { (2, 2) };
        let mut cfg = DistConfig::new(4, ITERS)
            .with_grid(rx, ry)
            .with_steps_per_exchange(k)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_checkpoint(CheckpointPolicy::every(period))
            .with_rank_kill(random_kills(seed, 1, 4, ITERS)[0])
            .with_mode(mode);
        if mixed {
            let brick = (NX / rx, NY / ry, NZ);
            let flips = random_flips_at_bit(seed ^ 0x5a5a, 2, ITERS, brick, 51);
            for (i, flip) in flips.into_iter().enumerate() {
                cfg = cfg.with_flip((seed as usize).wrapping_add(i * 7) % 4, flip);
            }
        }
        let rep = run(&cfg, &BoundarySpec::clamp());
        let expect = reference((rx, ry, 1), &BoundarySpec::clamp(), mode);
        prop_assert_eq!(&rep.global, &expect);
        prop_assert_eq!(rep.recovery.rank_losses, 1);
        prop_assert!(rep.recovery.rollbacks >= 1);
    }
}
