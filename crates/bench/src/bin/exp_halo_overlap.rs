//! **Halo-overlap experiment** — the two drivers of the rank step
//! machine against each other: the pipelined one (a pooled thread per
//! rank, double-buffered channels, interior sweep overlapping the
//! exchange) and the snapshot one (the same ranks advanced in lock-step
//! from one thread), on the HotSpot3D workload by default or any library
//! kernel via `--kernel star7|9pt|27pt|13pt` (wide-footprint kernels
//! drive the corner-halo channels every sweep).
//!
//! For each rank count the harness times three configurations —
//! snapshot (unprotected), pipelined (unprotected) and pipelined with
//! per-rank online ABFT — verifies all of them bitwise against the serial
//! reference, and reports per-iteration wall time, iterations/sec,
//! `speedup` — **threads vs one-thread lock-step**: what a thread per
//! rank buys over running the identical steps from one thread, so about
//! 1 on a one-core host and at most the rank count — and the per-rank
//! halo-wait fraction (the slice of busy time a rank spends blocked on
//! neighbour rows, i.e. communication *not* hidden by computation).
//!
//! `--json PATH` additionally writes a machine-readable record tagged
//! with the kernel and grid shape; CI's bench-smoke job uses this to
//! publish `BENCH_dist*.json` per PR so the perf trajectory of the halo
//! pipeline is tracked over time.
//!
//! `--steps-per-exchange K` switches to the **deep-halo mode**: instead
//! of sweeping rank counts, the harness pins one rank grid and sweeps
//! the epoch length `k` over a doubling ladder up to `K`, measuring the
//! crossover temporal tiling buys — messages drop as `1/k` (one deep
//! exchange serves `k` sweeps) while bytes per exchange and the local
//! shell-decay arithmetic grow with the shell depth `k·r`. Every point
//! is verified bitwise against the serial reference and the message
//! ledger self-asserts the `1/k` law; `--json` publishes
//! `BENCH_deep_halo.json` with a `steps_per_exchange` tag on every
//! point, which CI's message-count gate re-checks.

use abft_bench::{Cli, GridArg};
use abft_core::AbftConfig;
use abft_dist::{run_distributed, DistConfig, DistReport, GridSpec, HaloMode};
use abft_grid::{BoundarySpec, Grid3D};
use abft_hotspot::{initial_temperature, synthetic_power, HotspotParams};
use abft_metrics::{write_csv, Table, Welford};
use abft_stencil::{Exec, Stencil3D, StencilSim};

struct Point {
    ranks: usize,
    grid: (usize, usize, usize),
    snapshot_s: f64,
    pipelined_s: f64,
    abft_s: f64,
    wait_frac_mean: f64,
    wait_frac_max: f64,
}

/// The benchmark workload shared by both modes: the HotSpot3D tile (with
/// its power-term constant) or a library kernel on the same temperature
/// field.
struct Workload {
    dims: (usize, usize, usize),
    kernel: &'static str,
    stencil: Stencil3D<f32>,
    constant: Option<Grid3D<f32>>,
    initial: Grid3D<f32>,
}

fn workload(cli: &Cli) -> Workload {
    // Default decomposition is y-slabs (`--grid RXxRY[xRZ]|auto` selects
    // a 2-D tile or 3-D brick rank grid and pins the sweep to its rank
    // count). `--large` selects the paper-scale 512×512 grid the CI
    // acceptance gate runs on.
    let (nx, ny, nz) = if cli.large {
        (512, 512, 8)
    } else {
        (64, 256, 4)
    };
    let params = HotspotParams::new(nx, ny, nz);
    let power = synthetic_power::<f32>(nx, ny, nz, cli.seed);
    let temp0 = initial_temperature(&params, &power);
    // `--kernel` swaps the HotSpot3D star for a library kernel on the
    // same temperature field (the power-term constant only applies to
    // the HotSpot workload).
    let (kernel, stencil, constant) = match cli.kernel {
        None => {
            let coeff = params.coefficients();
            let constant = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
                (coeff.step_div_cap * power.at(x, y, z) as f64 + coeff.ct * params.amb_temp) as f32
            });
            ("hotspot3d", params.stencil::<f32>(), Some(constant))
        }
        Some(k) => (k.name(), k.stencil::<f32>(), None),
    };
    Workload {
        dims: (nx, ny, nz),
        kernel,
        stencil,
        constant,
        initial: temp0,
    }
}

fn main() {
    let cli = Cli::parse();
    if cli.steps_per_exchange.is_some() {
        return deep_halo_mode(&cli);
    }
    let w = workload(&cli);
    let (nx, ny, nz) = w.dims;
    let (kernel_name, stencil, constant, temp0) = (w.kernel, w.stencil, w.constant, w.initial);
    let iters = cli.iters.unwrap_or(48);
    let reps = cli.reps.div_ceil(10).max(3);
    let bounds = BoundarySpec::<f32>::clamp();

    // Serial reference for the bitwise equivalence check.
    let mut serial =
        StencilSim::new(temp0.clone(), stencil.clone(), bounds).with_exec(Exec::Serial);
    if let Some(c) = &constant {
        serial = serial.with_constant(c.clone());
    }
    for _ in 0..iters {
        serial.step();
    }

    eprintln!(
        "[exp_halo_overlap] {nx}x{ny}x{nz}, kernel {kernel_name}, {iters} iterations, \
         {reps} reps per point"
    );
    println!(
        "{:<6} {:>7} {:>14} {:>14} {:>9} {:>14} {:>10}",
        "ranks", "grid", "snapshot (s)", "pipelined (s)", "speedup", "abft pipe (s)", "wait (%)"
    );
    let mut table = Table::new(vec![
        "ranks",
        "grid",
        "kernel",
        "snapshot_s",
        "pipelined_s",
        "speedup",
        "abft_pipelined_s",
        "halo_wait_frac_mean",
        "halo_wait_frac_max",
    ]);
    let mut points = Vec::new();

    for ranks in cli.rank_counts() {
        // Wall times use the min over reps: on a timeshared host the min
        // is the least-noisy estimator of the achievable per-iteration
        // cost, which is what the CI perf gate tracks.
        let mut snap_t = f64::INFINITY;
        let mut pipe_t = f64::INFINITY;
        let mut abft_t = f64::INFINITY;
        let mut wait_mean = Welford::new();
        let mut wait_max = 0.0f64;
        let mut grid = (1, ranks, 1);
        for _ in 0..reps {
            let run = |cfg: DistConfig<f32>| -> DistReport<f32> {
                run_distributed(&temp0, &stencil, &bounds, constant.as_ref(), &cfg)
                    .expect("valid dist config")
            };
            let base = || DistConfig::<f32>::new(ranks, iters).with_grid_spec(cli.grid_spec());

            let snap = run(base().with_mode(HaloMode::Snapshot));
            snap_t = snap_t.min(snap.wall_s);
            assert_eq!(snap.global, *serial.current(), "snapshot diverged");
            grid = snap.grid;

            let pipe = run(base().with_mode(HaloMode::Pipelined));
            pipe_t = pipe_t.min(pipe.wall_s);
            assert_eq!(pipe.global, *serial.current(), "pipelined diverged");
            let mean_frac = pipe
                .ranks
                .iter()
                .map(|r| r.timing.halo_wait_fraction())
                .sum::<f64>()
                / ranks as f64;
            wait_mean.push(mean_frac);
            wait_max = wait_max.max(pipe.max_halo_wait_fraction());

            let prot = run(base()
                .with_abft(AbftConfig::<f32>::paper_defaults())
                .with_mode(HaloMode::Pipelined));
            abft_t = abft_t.min(prot.wall_s);
            assert_eq!(
                prot.total_stats().detections,
                0,
                "false positive at {ranks} ranks"
            );
        }

        let point = Point {
            ranks,
            grid,
            snapshot_s: snap_t,
            pipelined_s: pipe_t,
            abft_s: abft_t,
            wait_frac_mean: wait_mean.mean(),
            wait_frac_max: wait_max,
        };
        println!(
            "{:<6} {:>7} {:>14.4} {:>14.4} {:>8.2}x {:>14.4} {:>10.1}",
            point.ranks,
            format!("{}x{}x{}", point.grid.0, point.grid.1, point.grid.2),
            point.snapshot_s,
            point.pipelined_s,
            point.snapshot_s / point.pipelined_s,
            point.abft_s,
            100.0 * point.wait_frac_mean,
        );
        table.row(vec![
            point.ranks.to_string(),
            format!("{}x{}x{}", point.grid.0, point.grid.1, point.grid.2),
            kernel_name.to_string(),
            format!("{:.6}", point.snapshot_s),
            format!("{:.6}", point.pipelined_s),
            format!("{:.4}", point.snapshot_s / point.pipelined_s),
            format!("{:.6}", point.abft_s),
            format!("{:.4}", point.wait_frac_mean),
            format!("{:.4}", point.wait_frac_max),
        ]);
        points.push(point);
    }

    // Suffixed with every CLI axis that varies across CI's bench-smoke
    // steps (kernel, domain, rank-grid spec) so back-to-back runs never
    // clobber each other's trend data.
    let grid_tag = match cli.grid {
        None => "slabs".to_string(),
        Some(GridArg::Auto) => "auto".to_string(),
        Some(GridArg::Explicit(rx, ry, 1)) => format!("{rx}x{ry}"),
        Some(GridArg::Explicit(rx, ry, rz)) => format!("{rx}x{ry}x{rz}"),
    };
    let path = format!(
        "{}/exp_halo_overlap_{kernel_name}_{nx}x{ny}x{nz}_{grid_tag}.csv",
        cli.out
    );
    write_csv(&table, &path).expect("write CSV");
    println!("\n[csv] {path}");

    if let Some(json_path) = &cli.json {
        let json = render_json(nx, ny, nz, kernel_name, iters, reps, &points);
        if let Some(dir) = std::path::Path::new(json_path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create JSON output dir");
            }
        }
        std::fs::write(json_path, json).expect("write JSON");
        println!("[json] {json_path}");
    }
}

/// Hand-rolled JSON (the workspace vendors no serde): one record per rank
/// count with per-iteration wall times, iterations/sec and halo-wait
/// fractions — the schema CI's `BENCH_dist*.json` artifacts track per
/// PR. Every record (and the top level) is tagged with the kernel and
/// the grid shape; CI's schema check fails the job if those tags drift.
fn render_json(
    nx: usize,
    ny: usize,
    nz: usize,
    kernel: &str,
    iters: usize,
    reps: usize,
    points: &[Point],
) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\"ranks\": {}, ",
                    "\"grid\": [{}, {}, {}], ",
                    "\"kernel\": \"{}\", ",
                    "\"snapshot_s_per_iter\": {:.6e}, ",
                    "\"pipelined_s_per_iter\": {:.6e}, ",
                    "\"speedup\": {:.4}, ",
                    "\"snapshot_iters_per_s\": {:.3}, ",
                    "\"pipelined_iters_per_s\": {:.3}, ",
                    "\"abft_pipelined_iters_per_s\": {:.3}, ",
                    "\"halo_wait_fraction_mean\": {:.4}, ",
                    "\"halo_wait_fraction_max\": {:.4}}}"
                ),
                p.ranks,
                p.grid.0,
                p.grid.1,
                p.grid.2,
                kernel,
                p.snapshot_s / iters as f64,
                p.pipelined_s / iters as f64,
                p.snapshot_s / p.pipelined_s,
                iters as f64 / p.snapshot_s,
                iters as f64 / p.pipelined_s,
                iters as f64 / p.abft_s,
                p.wait_frac_mean,
                p.wait_frac_max,
            )
        })
        .collect();
    format!(
        "{{\n  \"experiment\": \"exp_halo_overlap\",\n  \"grid\": [{nx}, {ny}, {nz}],\n  \
         \"kernel\": \"{kernel}\",\n  \
         \"iters\": {iters},\n  \"reps\": {reps},\n  \"points\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// One epoch-length point of the deep-halo crossover study.
struct DeepPoint {
    k: usize,
    grid: (usize, usize, usize),
    snapshot_s: f64,
    pipelined_s: f64,
    abft_s: f64,
    msgs_sent: u64,
    msgs_recv: u64,
    epoch_messages: usize,
    wire_bytes_per_exchange: usize,
    wait_frac_max: f64,
}

/// The `--steps-per-exchange K` study: one rank grid, epoch lengths
/// swept over the doubling ladder `{1, 2, 4, …} ∪ {K}`. Each point runs
/// snapshot/pipelined/protected configs, verifies bitwise against the
/// serial reference, and reads the halo message ledger off the pipelined
/// report. With `iters` divisible by `k` the run posts exactly
/// `iters / k` exchanges, so total messages must scale as exactly `1/k`
/// — asserted here and re-checked by CI's gate on the published
/// `BENCH_deep_halo.json`.
fn deep_halo_mode(cli: &Cli) {
    let w = workload(cli);
    let (nx, ny, nz) = w.dims;
    let kmax = cli.steps_per_exchange.unwrap_or(1);
    let mut ks = vec![1usize];
    while ks.last().unwrap() * 2 <= kmax {
        ks.push(ks.last().unwrap() * 2);
    }
    if *ks.last().unwrap() != kmax {
        ks.push(kmax);
    }
    let iters = cli.iters.unwrap_or(24);
    let reps = cli.reps.div_ceil(10).max(3);
    // The crossover needs one fixed decomposition; an explicit `--grid`
    // pins it, the default is 4 y-slabs (bricks much thicker than the
    // deepest shell, so no extra producer bricks are recruited and the
    // message law is exact).
    let ranks = match cli.grid_spec() {
        GridSpec::Explicit { rx, ry, rz } => rx * ry * rz,
        _ => 4,
    };
    let bounds = BoundarySpec::<f32>::clamp();

    let mut serial =
        StencilSim::new(w.initial.clone(), w.stencil.clone(), bounds).with_exec(Exec::Serial);
    if let Some(c) = &w.constant {
        serial = serial.with_constant(c.clone());
    }
    for _ in 0..iters {
        serial.step();
    }

    eprintln!(
        "[exp_halo_overlap] deep-halo mode: {nx}x{ny}x{nz}, kernel {}, {ranks} ranks, \
         {iters} iterations, k in {ks:?}, {reps} reps per point",
        w.kernel
    );
    println!(
        "{:<3} {:>7} {:>13} {:>13} {:>13} {:>10} {:>10} {:>14} {:>9}",
        "k",
        "grid",
        "snapshot (s)",
        "pipelined (s)",
        "abft (s)",
        "msgs sent",
        "msgs/epoch",
        "wire B/exch",
        "wait (%)"
    );
    let mut table = Table::new(vec![
        "steps_per_exchange",
        "grid",
        "kernel",
        "snapshot_s",
        "pipelined_s",
        "abft_pipelined_s",
        "halo_msgs_sent",
        "halo_msgs_recv",
        "epoch_messages",
        "wire_bytes_per_exchange",
        "halo_wait_frac_max",
    ]);
    let mut points: Vec<DeepPoint> = Vec::new();

    for &k in &ks {
        let mut snap_t = f64::INFINITY;
        let mut pipe_t = f64::INFINITY;
        let mut abft_t = f64::INFINITY;
        let mut wait_max = 0.0f64;
        let mut grid = (1, ranks, 1);
        let mut msgs_sent = 0u64;
        let mut msgs_recv = 0u64;
        let mut epoch_messages = 0usize;
        let mut wire_bytes = 0usize;
        for _ in 0..reps {
            let run = |cfg: DistConfig<f32>| -> DistReport<f32> {
                run_distributed(&w.initial, &w.stencil, &bounds, w.constant.as_ref(), &cfg)
                    .expect("valid dist config")
            };
            let base = || {
                DistConfig::<f32>::new(ranks, iters)
                    .with_grid_spec(cli.grid_spec())
                    .with_steps_per_exchange(k)
            };

            let snap = run(base().with_mode(HaloMode::Snapshot));
            snap_t = snap_t.min(snap.wall_s);
            assert_eq!(snap.global, *serial.current(), "snapshot diverged at k={k}");

            let pipe = run(base().with_mode(HaloMode::Pipelined));
            pipe_t = pipe_t.min(pipe.wall_s);
            assert_eq!(
                pipe.global,
                *serial.current(),
                "pipelined diverged at k={k}"
            );
            assert_eq!(pipe.steps_per_exchange, k);
            grid = pipe.grid;
            wait_max = wait_max.max(pipe.max_halo_wait_fraction());
            msgs_sent = pipe.ranks.iter().map(|r| r.timing.halo_msgs_sent).sum();
            msgs_recv = pipe.ranks.iter().map(|r| r.timing.halo_msgs_recv).sum();
            let traffic = pipe.total_traffic();
            epoch_messages = traffic.epoch_messages;
            wire_bytes = traffic.wire_bytes();

            let prot = run(base()
                .with_abft(AbftConfig::<f32>::paper_defaults())
                .with_mode(HaloMode::Pipelined));
            abft_t = abft_t.min(prot.wall_s);
            assert_eq!(prot.total_stats().detections, 0, "false positive at k={k}");
        }

        // The 1/k message law, exact when every epoch is full-length.
        if iters.is_multiple_of(k) {
            let m1 = points.first().map_or(msgs_sent, |p| p.msgs_sent);
            assert_eq!(
                msgs_sent * k as u64,
                m1,
                "messages did not scale as 1/k at k={k}"
            );
            assert_eq!(msgs_sent, msgs_recv, "send/recv ledger mismatch at k={k}");
        }

        let point = DeepPoint {
            k,
            grid,
            snapshot_s: snap_t,
            pipelined_s: pipe_t,
            abft_s: abft_t,
            msgs_sent,
            msgs_recv,
            epoch_messages,
            wire_bytes_per_exchange: wire_bytes,
            wait_frac_max: wait_max,
        };
        println!(
            "{:<3} {:>7} {:>13.4} {:>13.4} {:>13.4} {:>10} {:>10} {:>14} {:>9.1}",
            point.k,
            format!("{}x{}x{}", point.grid.0, point.grid.1, point.grid.2),
            point.snapshot_s,
            point.pipelined_s,
            point.abft_s,
            point.msgs_sent,
            point.epoch_messages,
            point.wire_bytes_per_exchange,
            100.0 * point.wait_frac_max,
        );
        table.row(vec![
            point.k.to_string(),
            format!("{}x{}x{}", point.grid.0, point.grid.1, point.grid.2),
            w.kernel.to_string(),
            format!("{:.6}", point.snapshot_s),
            format!("{:.6}", point.pipelined_s),
            format!("{:.6}", point.abft_s),
            point.msgs_sent.to_string(),
            point.msgs_recv.to_string(),
            point.epoch_messages.to_string(),
            point.wire_bytes_per_exchange.to_string(),
            format!("{:.4}", point.wait_frac_max),
        ]);
        points.push(point);
    }
    println!("\nhalo messages scaled as 1/k on every full-epoch ladder point");

    let path = format!("{}/exp_deep_halo_{}_{nx}x{ny}x{nz}.csv", cli.out, w.kernel);
    write_csv(&table, &path).expect("write CSV");
    println!("[csv] {path}");

    if let Some(json_path) = &cli.json {
        let kernel = w.kernel;
        let rows: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    concat!(
                        "    {{\"ranks\": {}, ",
                        "\"grid\": [{}, {}, {}], ",
                        "\"kernel\": \"{}\", ",
                        "\"steps_per_exchange\": {}, ",
                        "\"halo_msgs_sent\": {}, ",
                        "\"halo_msgs_recv\": {}, ",
                        "\"epoch_messages\": {}, ",
                        "\"wire_bytes_per_exchange\": {}, ",
                        "\"snapshot_iters_per_s\": {:.3}, ",
                        "\"pipelined_iters_per_s\": {:.3}, ",
                        "\"abft_pipelined_iters_per_s\": {:.3}, ",
                        "\"speedup_vs_k1\": {:.4}, ",
                        "\"halo_wait_fraction_max\": {:.4}}}"
                    ),
                    ranks,
                    p.grid.0,
                    p.grid.1,
                    p.grid.2,
                    kernel,
                    p.k,
                    p.msgs_sent,
                    p.msgs_recv,
                    p.epoch_messages,
                    p.wire_bytes_per_exchange,
                    iters as f64 / p.snapshot_s,
                    iters as f64 / p.pipelined_s,
                    iters as f64 / p.abft_s,
                    points[0].pipelined_s / p.pipelined_s,
                    p.wait_frac_max,
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"experiment\": \"exp_deep_halo\",\n  \"grid\": [{nx}, {ny}, {nz}],\n  \
             \"kernel\": \"{kernel}\",\n  \"steps_per_exchange\": {kmax},\n  \
             \"iters\": {iters},\n  \"reps\": {reps},\n  \"points\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
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
