//! The serving layer must be **invisible** in the results: any sequence
//! of heterogeneous jobs pushed through one pooled [`DistService`] has
//! to come back job-by-job bitwise identical to dedicated
//! [`run_distributed`] calls — pooled workers, cached channel
//! topologies, queued admission and **concurrent co-scheduling** may
//! change *when* work happens, never *what* it computes. Fault plans
//! are job-scoped: a flip injected into job *k* is detected and
//! corrected inside job *k* and leaves zero trace in its neighbours,
//! even while they run side by side on the same pool.

use abft_checkpoint::CheckpointPolicy;
use abft_core::AbftConfig;
use abft_dist::{run_distributed, DistService, HaloMode, JobHandle, JobSpec};
use abft_fault::{BitFlip, RankKill};
use abft_grid::{Boundary, BoundarySpec, Grid3D};
use abft_stencil::{Stencil2D, Stencil3D};
use proptest::prelude::*;

fn wavy(nx: usize, ny: usize, nz: usize, seed: usize) -> Grid3D<f64> {
    Grid3D::from_fn(nx, ny, nz, |x, y, z| {
        ((x * 17 + y * 29 + z * 11 + seed * 7) % 31) as f64 * 0.5 - 7.0
    })
}

fn y_periodic() -> BoundarySpec<f64> {
    BoundarySpec {
        x: Boundary::Clamp,
        y: Boundary::Periodic,
        z: Boundary::Clamp,
    }
}

/// A deliberately mixed job catalogue: shapes, kernels (7-point star,
/// 27-point box, wide 13-point star), boundaries, protection, halo
/// modes, rank demands and one mid-job fault — nothing two consecutive
/// jobs agree on, so concurrent admission constantly re-packs the pool.
fn catalogue() -> Vec<(&'static str, JobSpec<f64>)> {
    vec![
        (
            "7pt clamp unprotected",
            JobSpec::over(
                wavy(10, 16, 2, 0),
                Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1),
            )
            .with_ranks(4)
            .with_iters(8),
        ),
        (
            "27pt periodic protected bricks",
            JobSpec::over(wavy(12, 12, 4, 1), Stencil3D::diffusion_27pt(0.19f64))
                .with_bounds(y_periodic())
                .with_ranks(4)
                .with_iters(6)
                .with_grid3(1, 2, 2)
                .with_abft(AbftConfig::<f64>::paper_defaults()),
        ),
        (
            "7pt periodic with mid-job flip",
            JobSpec::over(
                wavy(9, 24, 3, 2),
                Stencil3D::seven_point(0.38f64, 0.08, 0.27, 0.08),
            )
            .with_bounds(y_periodic())
            .with_ranks(3)
            .with_iters(9)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_flip(
                1,
                BitFlip {
                    iteration: 3,
                    x: 2,
                    y: 3,
                    z: 1,
                    bit: 51,
                },
            ),
        ),
        (
            "13pt wide halo protected",
            JobSpec::over(
                wavy(14, 10, 4, 3),
                Stencil3D::diffusion_13pt_4th_order(0.02f64),
            )
            .with_ranks(2)
            .with_iters(5)
            .with_abft(AbftConfig::<f64>::paper_defaults()),
        ),
        (
            "7pt snapshot mode",
            JobSpec::over(
                wavy(10, 16, 2, 4),
                Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1),
            )
            .with_ranks(4)
            .with_iters(8)
            .with_mode(HaloMode::Snapshot),
        ),
        (
            "27pt small bricks with flip",
            JobSpec::over(wavy(8, 8, 2, 5), Stencil3D::diffusion_27pt(0.15f64))
                .with_ranks(4)
                .with_iters(7)
                .with_grid3(2, 2, 1)
                .with_abft(AbftConfig::<f64>::paper_defaults())
                .with_flip(
                    2,
                    BitFlip {
                        iteration: 2,
                        x: 1,
                        y: 2,
                        z: 1,
                        bit: 50,
                    },
                ),
        ),
    ]
}

fn fresh(spec: &JobSpec<f64>) -> abft_dist::DistReport<f64> {
    run_distributed(
        &spec.initial,
        &spec.stencil,
        &spec.bounds,
        spec.constant.as_ref(),
        &spec.cfg,
    )
    .expect("catalogue jobs are valid")
}

/// Every catalogue job, submitted twice in interleaved order on one
/// service (first pass builds each topology, second pass reuses it),
/// matches a dedicated `run_distributed` run bitwise — global state,
/// rank count, ABFT stats and halo traffic alike.
#[test]
fn interleaved_heterogeneous_jobs_match_fresh_one_shot_runs() {
    let jobs = catalogue();
    let service = DistService::<f64>::new(4).unwrap();
    // Two passes over the catalogue: pass 0 misses the topology cache,
    // pass 1 hits it. Both must be invisible in the results.
    let handles: Vec<_> = (0..2)
        .flat_map(|pass| jobs.iter().map(move |(name, spec)| (pass, name, spec)))
        .map(|(pass, name, spec)| (pass, name, service.submit(spec.clone()).unwrap()))
        .collect();
    for (pass, name, handle) in handles {
        let (_, spec) = jobs.iter().find(|(n, _)| n == name).unwrap();
        let served = handle.wait().unwrap();
        let expect = fresh(spec);
        let ctx = format!("{name} (pass {pass})");
        assert_eq!(served.global, expect.global, "{ctx} diverged");
        assert_eq!(
            served.grid, expect.grid,
            "{ctx} picked a different rank grid"
        );
        assert_eq!(served.ranks.len(), expect.ranks.len(), "{ctx}");
        for (s, e) in served.ranks.iter().zip(&expect.ranks) {
            assert_eq!(s.stats.detections, e.stats.detections, "{ctx}");
            assert_eq!(s.stats.corrections, e.stats.corrections, "{ctx}");
            assert_eq!(s.traffic.remote_cells, e.traffic.remote_cells, "{ctx}");
            assert_eq!(s.traffic.row_cells, e.traffic.row_cells, "{ctx}");
        }
    }
    let stats = service.stats();
    assert_eq!(stats.jobs_completed, 2 * jobs.len() as u64);
    assert_eq!(stats.jobs_failed, 0);
    // Pass 1 reused every distinct topology from pass 0. (Two catalogue
    // entries share a key on purpose: same domain, same decomposition.)
    assert_eq!(stats.topology_misses, 5, "{stats:?}");
    assert_eq!(stats.topology_hits, 7, "{stats:?}");
    service.shutdown();
}

/// The fault in job *k* must be detected and corrected in job *k* and
/// nowhere else: its protected neighbours k−1 and k+1 report zero
/// detections and stay bitwise equal to their dedicated runs.
#[test]
fn faults_in_one_job_leave_no_trace_in_neighbours() {
    let jobs = catalogue();
    let service = DistService::<f64>::new(4).unwrap();
    let handles: Vec<_> = jobs
        .iter()
        .map(|(_, spec)| service.submit(spec.clone()).unwrap())
        .collect();
    let reports: Vec<_> = handles
        .into_iter()
        .map(|handle| handle.wait().unwrap())
        .collect();
    service.shutdown();

    // Jobs 2 and 5 carry the flips; everything else must stay silent.
    for (k, (name, spec)) in jobs.iter().enumerate() {
        let total = reports[k].total_stats();
        if spec.cfg.flips.is_empty() {
            assert_eq!(total.detections, 0, "fault leaked into `{name}` (job {k})");
        } else {
            let (rank, _) = spec.cfg.flips[0];
            assert_eq!(total.detections, 1, "missed detection in `{name}`");
            assert_eq!(total.corrections, 1, "missed correction in `{name}`");
            assert_eq!(
                reports[k].ranks[rank].stats.corrections, 1,
                "correction landed in the wrong rank for `{name}`"
            );
        }
        assert_eq!(reports[k].global, fresh(spec).global, "`{name}` diverged");
    }
}

/// Kernels of one reach share a topology key on a `1 × 2 × 1` grid (the
/// halo is `k` rows either way), but not a Theorem 1 plan: the 7-point
/// star reads the z neighbours' checksums, the 9-point convection the
/// diagonal lines and, being asymmetric in x under clamp, β corrections.
/// Interleaved on one pool, over `k = 1` and `k = 2`, each with one
/// flip, every job must come back bitwise its dedicated run.
#[test]
fn kernels_sharing_a_topology_keep_their_own_interpolation_plans() {
    let kernels = [
        Stencil3D::diffusion_7pt(0.1f64),
        Stencil2D::convection_9pt(0.18f64, 0.08, -0.05).into_3d(),
    ];
    let flip = BitFlip {
        iteration: 2,
        x: 3,
        y: 2,
        z: 1,
        bit: 51,
    };
    let specs: Vec<JobSpec<f64>> = (0..2)
        .flat_map(|_| [1, 2])
        .flat_map(|k| kernels.iter().map(move |s| (k, s.clone())))
        .enumerate()
        .map(|(i, (k, stencil))| {
            JobSpec::over(wavy(12, 16, 3, i), stencil)
                .with_ranks(2)
                .with_grid(1, 2)
                .with_iters(5)
                .with_steps_per_exchange(k)
                .with_abft(AbftConfig::<f64>::paper_defaults())
                .with_flip(i % 2, flip)
        })
        .collect();
    let service = DistService::<f64>::new(2).unwrap();
    let handles: Vec<_> = specs
        .iter()
        .map(|spec| service.submit(spec.clone()).unwrap())
        .collect();
    let served: Vec<_> = handles.into_iter().map(JobHandle::wait).collect();
    let stats = service.stats();
    service.shutdown();
    for (i, (spec, served)) in specs.iter().zip(served).enumerate() {
        let served = served.unwrap_or_else(|e| panic!("job {i} failed: {e}"));
        let expect = fresh(spec);
        assert_eq!(served.global, expect.global, "job {i} diverged");
        assert_eq!(served.total_stats().corrections, 1, "job {i}");
        for (s, e) in served.ranks.iter().zip(&expect.ranks) {
            assert_eq!(s.stats, e.stats, "job {i} changed its outcome");
        }
    }
    assert_eq!(
        (stats.topology_misses, stats.topology_hits),
        (2, 6),
        "{stats:?}"
    );
}

/// Build the sampled job for one `(shape, kernel, periodic, ranks,
/// snapshot, faulty, k)` pick — shared by both proptests below. `k` is
/// the sampled `steps_per_exchange`: temporal tiling must be invisible
/// to the serving layer.
fn sampled_job(i: usize, pick: (usize, usize, bool, usize, bool, bool, usize)) -> JobSpec<f64> {
    let (shape, kernel, periodic, ranks, snapshot, faulty, k) = pick;
    let (nx, ny, nz) = [(10, 16, 2), (12, 12, 4), (8, 10, 3)][shape];
    let stencil = if kernel == 0 {
        Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1)
    } else {
        Stencil3D::diffusion_27pt(0.19f64)
    };
    let mut spec = JobSpec::over(wavy(nx, ny, nz, i), stencil)
        .with_ranks([2, 4][ranks])
        .with_iters(3 + (i % 5))
        .with_steps_per_exchange(k);
    if periodic {
        spec = spec.with_bounds(y_periodic());
    }
    if snapshot {
        spec = spec.with_mode(HaloMode::Snapshot);
    }
    if faulty {
        // Protection is required to survive the flip; the site
        // (0, 1, 1) sits inside every sampled brick. Every other job
        // also checkpoints, so the pool carries snapshot grids across
        // jobs, and one that runs past the first checkpoint after the
        // flip loses a rank there. Every rank stores that epoch before
        // any can fail, so the rollback target, and with it the grid, is
        // the same however the pool times the ranks.
        if i.is_multiple_of(2) {
            spec = spec.with_checkpoint(CheckpointPolicy::every(k));
            let kill = k.max(2);
            if 3 + (i % 5) > kill {
                spec = spec.with_rank_kill(RankKill::new(1, kill));
            }
        }
        spec = spec
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_flip(
                0,
                BitFlip {
                    iteration: 1,
                    x: 0,
                    y: 1,
                    z: 1,
                    bit: 51,
                },
            );
    }
    spec
}

proptest! {
    // CI raises the case count through PROPTEST_CASES (the vendored shim
    // honours it, like real proptest); 8 keeps local `cargo test` quick.
    #![proptest_config(ProptestConfig::with_cases_env(8))]

    /// Random job sequences — shape, kernel, boundary, rank count, halo
    /// mode, protection and an optional mid-job flip sampled per job —
    /// through one shared service match dedicated runs bitwise, job by
    /// job, in every sampled order.
    #[test]
    fn sampled_job_sequences_serve_bitwise_identically(
        picks in proptest::collection::vec(
            (0usize..3, 0usize..2, any::<bool>(), 0usize..2, any::<bool>(), any::<bool>(),
             1usize..=3),
            1..6,
        ),
    ) {
        let service = DistService::<f64>::new(4).unwrap();
        let specs: Vec<JobSpec<f64>> = picks
            .iter()
            .enumerate()
            .map(|(i, &pick)| sampled_job(i, pick))
            .collect();
        let handles: Vec<JobHandle<f64>> = specs
            .iter()
            .map(|spec| service.submit(spec.clone()).unwrap())
            .collect();
        for (k, (spec, handle)) in specs.iter().zip(handles).enumerate() {
            let served = handle.wait().unwrap();
            let expect = fresh(spec);
            prop_assert_eq!(&served.global, &expect.global, "job {} diverged", k);
            prop_assert_eq!(
                served.total_stats().detections,
                expect.total_stats().detections,
                "job {} changed its ABFT verdict", k
            );
        }
        service.shutdown();
    }

    /// The tentpole's determinism proof: random job mixes forced into
    /// **guaranteed concurrent interleavings**. A sacrificial first job
    /// parks the scheduler inside its completion callback while the
    /// whole sampled batch (including faulty and snapshot jobs) is
    /// submitted; releasing the gate hands the scheduler every
    /// submission at once, so its admission pass packs as many jobs
    /// side by side as their sampled rank demands allow. Every report
    /// must still be bitwise identical to a dedicated
    /// `run_distributed` call, and every fault must stay inside the
    /// job that carries it.
    #[test]
    fn randomized_concurrent_mixes_serve_bitwise_identically(
        picks in proptest::collection::vec(
            (0usize..3, 0usize..2, any::<bool>(), 0usize..2, any::<bool>(), any::<bool>(),
             1usize..=3),
            2..7,
        ),
    ) {
        let service = DistService::<f64>::new(8).unwrap();
        // Park the scheduler so the whole batch queues before any of it
        // can start: the admission pass then co-schedules maximally.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let sacrificial = JobSpec::over(
            wavy(10, 16, 2, 99),
            Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1),
        )
        .with_ranks(1)
        .with_iters(400);
        service.submit(sacrificial).unwrap().on_complete(move |result| {
            assert!(result.is_ok());
            entered_tx.send(()).unwrap();
            let _ = gate_rx.recv();
        });
        entered_rx.recv().unwrap();

        let specs: Vec<JobSpec<f64>> = picks
            .iter()
            .enumerate()
            .map(|(i, &pick)| sampled_job(i, pick))
            .collect();
        let handles: Vec<JobHandle<f64>> = specs
            .iter()
            .map(|spec| service.submit(spec.clone()).unwrap())
            .collect();
        gate_tx.send(()).unwrap();

        for (k, (spec, handle)) in specs.iter().zip(handles).enumerate() {
            let served = handle.wait().unwrap();
            let expect = fresh(spec);
            prop_assert_eq!(&served.global, &expect.global, "job {} diverged", k);
            prop_assert_eq!(
                served.total_stats().detections,
                expect.total_stats().detections,
                "job {} changed its ABFT verdict", k
            );
            prop_assert_eq!(
                served.total_stats().corrections,
                expect.total_stats().corrections,
                "job {} changed its correction count", k
            );
        }
        let stats = service.stats();
        prop_assert_eq!(stats.jobs_failed, 0);
        // Any two pipelined jobs fit the 8-slot pool at once (max
        // sampled demand is 4), and the gate guaranteed their Submit
        // events all preceded any completion — so whenever the batch
        // holds two pipelined jobs, they really did run side by side.
        // (Snapshot jobs run inline on the scheduler and cannot overlap
        // each other, so an all-snapshot batch legitimately peaks at 1.)
        let pipelined = specs
            .iter()
            .filter(|s| s.cfg.mode == HaloMode::Pipelined)
            .count();
        if pipelined >= 2 {
            prop_assert!(
                stats.peak_concurrent >= 2,
                "{} pipelined jobs never overlapped (peak {})",
                pipelined,
                stats.peak_concurrent
            );
        }
        service.shutdown();
    }
}
