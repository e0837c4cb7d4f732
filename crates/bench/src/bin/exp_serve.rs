//! **Serving-layer experiment** — jobs/sec and per-job latency of the
//! pooled [`DistService`] versus per-job rank spawning, across pool
//! size and fault rate, plus the concurrent-scheduler headroom on a
//! mixed-size job stream.
//!
//! Each matrix point pushes a batch of same-shape jobs (distinct
//! initial data, a fraction carrying an injected bit flip under ABFT
//! protection) through two paths:
//!
//! * **pooled** — one `DistService` serves the whole batch: workers are
//!   spawned once, channel topologies are built once and reused.
//! * **spawn** — each job is a fresh `run_distributed` call, paying
//!   thread start/join and topology construction every time.
//!
//! Per-job latency is split into its two components — queue wait
//! (admitted but not started) and execution — via
//! `abft_metrics::LatencySplit`, because on a saturated pool the tail
//! lives almost entirely in the queue and a single end-to-end number
//! hides that.
//!
//! The final **concurrency** point feeds a mixed 1-rank/4-rank stream
//! to an 8-slot pool and records the most jobs the slot-packing
//! scheduler ever had in flight at once; CI gates that count at ≥ 2 (a
//! count, not a wall-time ratio: a 1-core host legitimately shows no
//! speedup from overlapping jobs, but the scheduler overlaps them all the
//! same).
//!
//! Expected shape: pooled throughput ≥ spawn throughput once the batch
//! amortises pool start-up (CI gates `reuse_speedup` at 8+ jobs), and
//! the p99/p50 execution-latency ratio stays small — jobs are uniform,
//! so the execution tail is set by the slowest sweep, not by
//! serving-layer jitter. Timings are min-of-reps; latency quantiles
//! stream through the P² estimator.

use abft_bench::{Cli, KernelArg};
use abft_core::AbftConfig;
use abft_dist::{run_distributed, DistService, JobHandle, JobSpec};
use abft_fault::BitFlip;
use abft_grid::Grid3D;
use abft_metrics::{write_csv, LatencySplit, Table, Timer};
use abft_stencil::Stencil3D;

/// Jobs per batch. Above the 8-job threshold where CI asserts pooled
/// serving beats per-job spawning.
const JOBS: usize = 12;

/// Pool slots for the concurrency point: room for one 4-rank job and
/// four 1-rank jobs side by side.
const CONCURRENCY_POOL: usize = 8;

struct Point {
    pool: usize,
    fault_rate: f64,
    pooled_jobs_per_s: f64,
    spawn_jobs_per_s: f64,
    latency: LatencySplit,
}

struct ConcurrencyPoint {
    concurrent_jobs_per_s: f64,
    peak_concurrent: u64,
}

fn initial(nx: usize, ny: usize, nz: usize, seed: usize) -> Grid3D<f64> {
    Grid3D::from_fn(nx, ny, nz, |x, y, z| {
        ((x * 17 + y * 29 + z * 11 + seed * 13) % 31) as f64 * 0.5 - 7.0
    })
}

/// The batch for one matrix point: same shape and kernel throughout
/// (that is what makes topology reuse possible), distinct initial data
/// per job, and — at `fault_rate` — an ABFT-protected job with one
/// injected mid-run flip.
fn batch(
    dims: (usize, usize, usize),
    stencil: &Stencil3D<f64>,
    pool: usize,
    iters: usize,
    fault_rate: f64,
) -> Vec<JobSpec<f64>> {
    let every = if fault_rate > 0.0 {
        (1.0 / fault_rate).round() as usize
    } else {
        usize::MAX
    };
    (0..JOBS)
        .map(|i| {
            let mut spec = JobSpec::over(initial(dims.0, dims.1, dims.2, i), stencil.clone())
                .with_ranks(pool)
                .with_iters(iters);
            if i % every == 0 {
                spec = spec
                    .with_abft(AbftConfig::<f64>::paper_defaults())
                    .with_flip(
                        i % pool,
                        BitFlip {
                            iteration: 1 + i % iters.max(2),
                            x: 1,
                            y: 1,
                            z: 1,
                            bit: 51,
                        },
                    );
            }
            spec
        })
        .collect()
}

/// The mixed-size stream for the concurrency point: alternating 1-rank
/// and 4-rank jobs, so the slot-packing scheduler can run several small
/// jobs beside a big one.
fn mixed_batch(
    dims: (usize, usize, usize),
    stencil: &Stencil3D<f64>,
    iters: usize,
) -> Vec<JobSpec<f64>> {
    (0..JOBS)
        .map(|i| {
            JobSpec::over(initial(dims.0, dims.1, dims.2, 100 + i), stencil.clone())
                .with_ranks(if i % 2 == 0 { 1 } else { 4 })
                .with_iters(iters)
        })
        .collect()
}

/// Run one batch through a fresh `pool`-slot service; returns the wall
/// time and the pool's peak concurrent job count.
fn run_batch(jobs: &[JobSpec<f64>], pool: usize) -> (f64, u64) {
    let t = Timer::start();
    let service = DistService::<f64>::new(pool).expect("non-empty pool");
    let handles: Vec<JobHandle<f64>> = jobs
        .iter()
        .map(|j| service.submit(j.clone()).expect("valid job"))
        .collect();
    for handle in handles {
        handle.wait().expect("job completes");
    }
    let stats = service.stats();
    service.shutdown();
    assert_eq!(stats.jobs_completed, jobs.len() as u64);
    (t.seconds(), stats.peak_concurrent)
}

fn main() {
    let cli = Cli::parse();
    let dims = if cli.large {
        (128, 256, 8)
    } else {
        (48, 96, 4)
    };
    let iters = cli.iters.unwrap_or(16);
    let reps = cli.reps.max(3);
    let kernel = cli.kernel.unwrap_or(KernelArg::Star7);
    let stencil = kernel.stencil::<f64>();
    let kernel_name = kernel.name();
    let (nx, ny, nz) = dims;

    eprintln!(
        "[exp_serve] {nx}x{ny}x{nz}, kernel {kernel_name}, {iters} iterations, \
         {JOBS} jobs per batch, {reps} reps per point"
    );
    println!(
        "{:<5} {:>6} {:>6} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10}",
        "pool",
        "jobs",
        "fault",
        "pooled j/s",
        "spawn j/s",
        "reuse",
        "p50 (ms)",
        "p99 (ms)",
        "q50 (ms)"
    );
    let mut table = Table::new(vec![
        "pool",
        "jobs",
        "grid",
        "kernel",
        "fault_rate",
        "pooled_jobs_per_s",
        "spawn_jobs_per_s",
        "reuse_speedup",
        "p50_ms",
        "p99_ms",
        "queue_p50_ms",
        "exec_p50_ms",
    ]);
    let mut points: Vec<Point> = Vec::new();

    for pool in [2usize, 4] {
        for fault_rate in [0.0f64, 0.25] {
            let jobs = batch(dims, &stencil, pool, iters, fault_rate);
            let flips = jobs.iter().filter(|j| !j.cfg.flips.is_empty()).count();
            let mut pooled_best = f64::INFINITY;
            let mut spawn_best = f64::INFINITY;
            let mut latency = LatencySplit::new();
            for _ in 0..reps {
                // Pooled path: one service for the whole batch, pool
                // start-up and shutdown included (that is the price the
                // reuse argument has to beat).
                let t = Timer::start();
                let service = DistService::<f64>::new(pool).expect("non-empty pool");
                let handles: Vec<JobHandle<f64>> = jobs
                    .iter()
                    .map(|j| service.submit(j.clone()).expect("valid job"))
                    .collect();
                let reports: Vec<_> = handles
                    .into_iter()
                    .map(|h| h.wait().expect("job completes"))
                    .collect();
                let stats = service.stats();
                service.shutdown();
                pooled_best = pooled_best.min(t.seconds());
                for rep in &reports {
                    latency.push(rep.queue_wait_s, rep.exec_s);
                }
                // Self-check: every flip was corrected in its own job,
                // clean jobs stayed silent, and the batch hit the
                // topology cache after the first job.
                let corrected: usize = reports.iter().map(|r| r.total_stats().corrections).sum();
                assert_eq!(corrected, flips, "pool {pool}: missed corrections");
                assert_eq!(stats.topology_misses, 1, "pool {pool}: cache never warmed");
                assert_eq!(stats.topology_hits, (JOBS - 1) as u64);

                // Spawn path: identical specs, fresh ranks per job.
                let t = Timer::start();
                let mut corrected = 0usize;
                for j in &jobs {
                    let rep = run_distributed(&j.initial, &j.stencil, &j.bounds, None, &j.cfg)
                        .expect("valid job");
                    corrected += rep.total_stats().corrections;
                }
                spawn_best = spawn_best.min(t.seconds());
                assert_eq!(corrected, flips, "spawn {pool}: missed corrections");
            }
            let pooled_jps = JOBS as f64 / pooled_best;
            let spawn_jps = JOBS as f64 / spawn_best;
            let reuse = pooled_jps / spawn_jps;
            println!(
                "{:<5} {:>6} {:>6.2} {:>12.1} {:>12.1} {:>8.2} {:>10.3} {:>10.3} {:>10.3}",
                pool,
                JOBS,
                fault_rate,
                pooled_jps,
                spawn_jps,
                reuse,
                latency.total().p50() * 1e3,
                latency.total().p99() * 1e3,
                latency.queue().p50() * 1e3,
            );
            table.row(vec![
                pool.to_string(),
                JOBS.to_string(),
                format!("{nx}x{ny}x{nz}"),
                kernel_name.to_string(),
                format!("{fault_rate:.2}"),
                format!("{pooled_jps:.2}"),
                format!("{spawn_jps:.2}"),
                format!("{reuse:.3}"),
                format!("{:.4}", latency.total().p50() * 1e3),
                format!("{:.4}", latency.total().p99() * 1e3),
                format!("{:.4}", latency.queue().p50() * 1e3),
                format!("{:.4}", latency.exec().p50() * 1e3),
            ]);
            points.push(Point {
                pool,
                fault_rate,
                pooled_jobs_per_s: pooled_jps,
                spawn_jobs_per_s: spawn_jps,
                latency,
            });
        }
    }

    // Concurrency point: the mixed stream on the slot-packing scheduler.
    let mixed = mixed_batch(dims, &stencil, iters);
    let mut concurrent_best = f64::INFINITY;
    let mut peak = 0u64;
    for _ in 0..reps {
        let (secs, p) = run_batch(&mixed, CONCURRENCY_POOL);
        concurrent_best = concurrent_best.min(secs);
        peak = peak.max(p);
    }
    let concurrency = ConcurrencyPoint {
        concurrent_jobs_per_s: JOBS as f64 / concurrent_best,
        peak_concurrent: peak,
    };
    println!(
        "\nconcurrency (pool {CONCURRENCY_POOL}, mixed 1/4-rank jobs): \
         {:.1} j/s, peak {} jobs in flight",
        concurrency.concurrent_jobs_per_s, concurrency.peak_concurrent,
    );

    let path = format!("{}/exp_serve.csv", cli.out);
    write_csv(&table, &path).expect("write CSV");
    println!("\n[csv] {path}");

    if let Some(json_path) = &cli.json {
        let rows: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "    {{\"grid\": [{nx}, {ny}, {nz}], \"kernel\": \"{kernel_name}\", \
                     \"pool\": {}, \"jobs\": {JOBS}, \"fault_rate\": {:.2}, \
                     \"pooled_jobs_per_s\": {:.3}, \"spawn_jobs_per_s\": {:.3}, \
                     \"reuse_speedup\": {:.4}, \
                     \"p50_latency_s\": {:.6}, \"p99_latency_s\": {:.6}, \
                     \"queue_p50_s\": {:.6}, \"queue_p99_s\": {:.6}, \
                     \"exec_p50_s\": {:.6}, \"exec_p99_s\": {:.6}}}",
                    p.pool,
                    p.fault_rate,
                    p.pooled_jobs_per_s,
                    p.spawn_jobs_per_s,
                    p.pooled_jobs_per_s / p.spawn_jobs_per_s,
                    p.latency.total().p50(),
                    p.latency.total().p99(),
                    p.latency.queue().p50(),
                    p.latency.queue().p99(),
                    p.latency.exec().p50(),
                    p.latency.exec().p99(),
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"experiment\": \"exp_serve\",\n  \"grid\": [{nx}, {ny}, {nz}],\n  \
             \"kernel\": \"{kernel_name}\",\n  \"pool\": [2, 4],\n  \"jobs\": {JOBS},\n  \
             \"iters\": {iters},\n  \"points\": [\n{}\n  ],\n  \
             \"concurrency\": {{\"pool\": {CONCURRENCY_POOL}, \"jobs\": {JOBS}, \
             \"concurrent_jobs_per_s\": {:.3}, \"peak_concurrent\": {}}}\n}}\n",
            rows.join(",\n"),
            concurrency.concurrent_jobs_per_s,
            concurrency.peak_concurrent,
        );
        if let Some(dir) = std::path::Path::new(json_path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create JSON output dir");
            }
        }
        std::fs::write(json_path, json).expect("write JSON");
        println!("[json] {json_path}");
    }
}
