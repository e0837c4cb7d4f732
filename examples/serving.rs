//! Serving a stream of protected stencil jobs from one rank pool.
//!
//! `run_distributed` spawns ranks, builds a channel topology, runs one
//! simulation and tears everything down — the right shape for a single
//! experiment, the wrong one for a deployment where small jobs arrive
//! back to back. [`DistService`] keeps the pool alive instead: workers
//! park between jobs, the scheduler packs jobs onto free worker slots
//! side by side, channel topologies are cached by `(domain shape, rank
//! grid, halo, boundary spec)` and reused, and every job still gets
//! fresh rank state — its own simulators, its own ABFT protectors, its
//! own fault plan — so co-scheduling never changes a single bit of any
//! result.
//!
//! Six heterogeneous jobs go through one 4-worker pool below: mixed
//! domain shapes, kernels (7-point star, 27-point box, wide 13-point
//! star), clamp and periodic boundaries, snapshot and pipelined halo
//! modes — and job 4 carries an injected bit flip that its per-rank
//! online ABFT must detect and correct *inside that job* while the
//! neighbours stay silent. Each `submit` returns a [`JobHandle`]; the
//! example claims one report by polling (`try_result`), streams another
//! from the scheduler thread (`on_complete`), and blocks on the rest
//! (`wait`).
//!
//! Run with: `cargo run --release --example serving`

use std::sync::mpsc;
use std::time::Duration;

use stencil_abft::dist::{DistService, HaloMode, JobHandle, JobSpec};
use stencil_abft::prelude::*;

fn wavy(nx: usize, ny: usize, nz: usize, seed: usize) -> Grid3D<f64> {
    Grid3D::from_fn(nx, ny, nz, |x, y, z| {
        80.0 + ((x * 3 + y * 7 + z * 5 + seed * 11) % 13) as f64 * 0.5
    })
}

fn y_periodic() -> BoundarySpec<f64> {
    BoundarySpec {
        x: Boundary::Clamp,
        y: Boundary::Periodic,
        z: Boundary::Clamp,
    }
}

fn main() {
    let service = DistService::<f64>::new(4).expect("non-empty pool");
    println!(
        "serving on a {}-worker pool: 6 mixed jobs, one with an injected flip\n",
        service.pool_size()
    );

    let jobs: Vec<(&str, JobSpec<f64>)> = vec![
        (
            "7pt star, clamp, 4 slabs",
            JobSpec::over(
                wavy(48, 64, 4, 0),
                Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1),
            )
            .with_ranks(4)
            .with_iters(32)
            .with_abft(AbftConfig::<f64>::paper_defaults()),
        ),
        (
            "27pt box, periodic y, 2x2 grid",
            JobSpec::over(wavy(32, 32, 6, 1), Stencil3D::diffusion_27pt(0.15f64))
                .with_bounds(y_periodic())
                .with_ranks(4)
                .with_iters(24)
                .with_grid(2, 2)
                .with_abft(AbftConfig::<f64>::paper_defaults()),
        ),
        (
            "13pt wide star, halo 2, 2 slabs",
            JobSpec::over(
                wavy(40, 48, 6, 2),
                Stencil3D::diffusion_13pt_4th_order(0.02f64),
            )
            .with_ranks(2)
            .with_iters(24)
            .with_abft(AbftConfig::<f64>::paper_defaults()),
        ),
        (
            "7pt star with mid-job flip",
            JobSpec::over(
                wavy(48, 64, 4, 3),
                Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1),
            )
            .with_ranks(4)
            .with_iters(32)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_flip(
                2,
                BitFlip {
                    iteration: 13,
                    x: 24,
                    y: 7,
                    z: 2,
                    bit: 52,
                },
            ),
        ),
        (
            "7pt star, snapshot halo mode",
            JobSpec::over(
                wavy(48, 64, 4, 4),
                Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1),
            )
            .with_ranks(4)
            .with_iters(32)
            .with_mode(HaloMode::Snapshot)
            .with_abft(AbftConfig::<f64>::paper_defaults()),
        ),
        (
            "7pt star, clamp, 4 slabs (repeat shape)",
            JobSpec::over(
                wavy(48, 64, 4, 5),
                Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1),
            )
            .with_ranks(4)
            .with_iters(32)
            .with_abft(AbftConfig::<f64>::paper_defaults()),
        ),
    ];

    // Submit everything up front — admission validates each job
    // synchronously and hands back a handle; the scheduler starts jobs
    // as worker slots free up (the 2-rank job can share the pool with
    // nothing else here, but the 0-slot snapshot job overlaps freely).
    let mut handles: Vec<JobHandle<f64>> = Vec::new();
    for (name, spec) in &jobs {
        let handle = service.submit(spec.clone()).expect("valid job");
        println!("submitted {}: {name}", handle.id());
        handles.push(handle);
    }
    println!();

    // Three ways to claim a report. (1) Stream: the flip job's report is
    // pushed from the scheduler thread the moment it completes — the
    // callback must stay short, so it just forwards through a channel.
    let (flip_tx, flip_rx) = mpsc::channel();
    let flip_handle = handles.remove(3);
    let flip_id = flip_handle.id();
    flip_handle.on_complete(move |result| {
        let _ = flip_tx.send(result);
    });

    // (2) Poll: claim the first report without ever blocking.
    let mut first = handles.remove(0);
    let first_report = loop {
        if let Some(result) = first.try_result() {
            break result.clone().expect("job completes");
        }
        std::thread::sleep(Duration::from_millis(1));
    };

    // (3) Block: `wait` consumes the handle and yields the report.
    let mut reports = vec![("7pt star, clamp, 4 slabs", 0usize, first_report)];
    for ((name, spec), handle) in jobs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 0 && *i != 3)
        .map(|(_, j)| j)
        .zip(handles)
    {
        let expect = usize::from(!spec.cfg.flips.is_empty());
        reports.push((name, expect, handle.wait().expect("job completes")));
    }
    let flip_report = flip_rx
        .recv()
        .expect("callback fires")
        .expect("flip job completes");
    println!("streamed {flip_id} from the scheduler thread via on_complete\n");
    reports.push(("7pt star with mid-job flip", 1, flip_report));

    for (name, expect, report) in &reports {
        println!("=== {name} ===");
        println!("{report}");
        println!(
            "    latency split: {:.6} s queued + {:.6} s executing",
            report.queue_wait_s, report.exec_s
        );
        let total = report.total_stats();
        assert_eq!(
            total.detections, *expect,
            "{name}: fault handling leaked across jobs"
        );
        assert_eq!(total.corrections, *expect, "{name}: flip was not repaired");
        println!();
    }

    let stats = service.stats();
    println!(
        "served {} jobs ({} running at peak): {} topology builds, {} cache reuses",
        stats.jobs_completed, stats.peak_concurrent, stats.topology_misses, stats.topology_hits
    );
    // Jobs 1, 4, 5 and 6 share one topology (same shape, ranks, halo,
    // bounds); jobs 2 and 3 each bring their own. The counts are
    // independent of how the scheduler interleaved the jobs.
    assert_eq!(stats.jobs_completed, 6);
    assert_eq!(stats.topology_misses, 3);
    assert_eq!(stats.topology_hits, 3);
    service.shutdown();
    println!("pool drained, workers joined. all assertions passed.");
}
