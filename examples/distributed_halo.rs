//! Distributed-memory run: the global domain is decomposed over
//! persistent ranks (threads standing in for MPI processes) that pipeline
//! their time-`t` halo cells over bounded channels — posting boundaries,
//! sweeping the ghost-free interior while halos are in flight, then
//! finishing the edge frame — and each rank protects its own chunk with
//! online ABFT: the "intrinsically parallel" deployment the paper argues
//! for in §3.2.
//!
//! Four decompositions run back to back on the same domain:
//!
//! 1. the classic `1×ranks` **y-slab** split with a mid-run bit flip,
//! 2. a **2×2 rank grid** (column strips + corner patches in the halo)
//!    with the flip aimed at a tile *corner* — the cell owed to three
//!    neighbours at once, the hardest containment site —
//! 3. the same 2×2 grid under the library's **9-point convection
//!    kernel**, whose diagonal taps consume the corner patches every
//!    sweep, again with a corner flip; the report's per-channel traffic
//!    summary shows the row/column/corner split the exchange carried —
//!    and
//! 4. a **2×2×2 brick grid** under the library's **27-point diffusion
//!    kernel**, whose z-diagonal taps consume the z-face, z-edge and
//!    z-corner channels every sweep, with the flip at a brick's
//!    xyz-corner — the cell owed to seven neighbours at once.
//!
//! Run with: `cargo run --release --example distributed_halo -- [ranks]`

use stencil_abft::dist::{run_distributed, DistConfig, DistReport};
use stencil_abft::prelude::*;

fn report_ranks(report: &DistReport<f64>) {
    println!(
        "{:<6} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "rank", "brick", "origin", "detections", "corrections", "halo-wait"
    );
    for r in &report.ranks {
        println!(
            "{:<6} {:>12} {:>10} {:>12} {:>12} {:>11.1}%",
            r.rank,
            format!("{}x{}x{}", r.x_len, r.y_len, r.z_len),
            format!("({},{},{})", r.x0, r.y0, r.z0),
            r.stats.detections,
            r.stats.corrections,
            100.0 * r.timing.halo_wait_fraction()
        );
    }
}

fn main() {
    let ranks: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("ranks must be a number"))
        .unwrap_or(4);

    // Global domain and kernel.
    let (nx, ny, nz) = (48usize, 64usize, 4usize);
    let initial = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
        80.0 + ((x * 3 + y * 7 + z * 5) % 13) as f64 * 0.5
    });
    let stencil = Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1);
    let bounds = BoundarySpec::clamp();
    let iters = 40;

    // Serial reference for equivalence checking.
    let mut serial =
        StencilSim::new(initial.clone(), stencil.clone(), bounds).with_exec(Exec::Serial);
    for _ in 0..iters {
        serial.step();
    }

    // --- 1. y-slab decomposition, fault in rank 1's chunk. -------------
    let flip = BitFlip {
        iteration: 17,
        x: 20,
        y: 3,
        z: 2,
        bit: 52,
    };
    let cfg = DistConfig::new(ranks, iters)
        .with_abft(AbftConfig::<f64>::paper_defaults())
        .with_flip(1.min(ranks - 1), flip);
    let report =
        run_distributed(&initial, &stencil, &bounds, None, &cfg).expect("valid dist config");

    println!(
        "== {ranks} y-slab ranks x {iters} iterations, one bit-flip in rank {} ==\n",
        1.min(ranks - 1)
    );
    report_ranks(&report);

    let l2 = l2_error(serial.current(), &report.global);
    let total = report.total_stats();
    println!("\nglobal l2 vs serial run: {l2:.3e}");
    println!(
        "total: {} detections, {} corrections across ranks",
        total.detections, total.corrections
    );
    assert_eq!(total.corrections, 1);
    assert_eq!(
        l2, 0.0,
        "corrected distributed run must be bitwise the serial one"
    );

    // --- 2. 2×2 rank grid, fault at a tile corner. ---------------------
    // Rank 3's tile origin is the domain centre; its local (0, 0) corner
    // cell is owed to ranks 0 (diagonal), 1 (row strip) and 2 (column
    // strip) at every halo exchange.
    let corner_flip = BitFlip {
        iteration: 23,
        x: 0,
        y: 0,
        z: 1,
        bit: 52,
    };
    let cfg = DistConfig::new(4, iters)
        .with_grid(2, 2)
        .with_abft(AbftConfig::<f64>::paper_defaults())
        .with_flip(3, corner_flip);
    let report =
        run_distributed(&initial, &stencil, &bounds, None, &cfg).expect("valid dist config");

    println!("\n== 2x2 rank grid x {iters} iterations, bit-flip at rank 3's tile corner ==\n");
    report_ranks(&report);

    let l2 = l2_error(serial.current(), &report.global);
    let total = report.total_stats();
    println!("\nglobal l2 vs serial run: {l2:.3e}");
    println!("{report}");
    assert_eq!(report.grid, (2, 2, 1));
    assert_eq!(total.corrections, 1);
    assert_eq!(report.ranks[3].stats.corrections, 1);
    assert_eq!(l2, 0.0, "corrected 2-D run must be bitwise the serial one");

    // --- 3. 2×2 rank grid, 9-point kernel, fault at a tile corner. -----
    // The convection kernel's diagonal taps make the corner patches
    // load-bearing: the corrupted corner cell would be consumed through
    // the row, column *and* corner channels at the next exchange, so the
    // per-rank correction has to land before all three posts.
    let nine_point = Stencil2D::convection_9pt(0.18f64, 0.08, -0.05).into_3d();
    let mut serial9 =
        StencilSim::new(initial.clone(), nine_point.clone(), bounds).with_exec(Exec::Serial);
    for _ in 0..iters {
        serial9.step();
    }
    // Rank 0's far corner abuts the domain centre where all four tiles
    // meet — its cell is owed to every other rank at once.
    let centre_corner_flip = BitFlip {
        iteration: 23,
        x: nx / 2 - 1,
        y: ny / 2 - 1,
        z: 1,
        bit: 52,
    };
    let cfg = DistConfig::new(4, iters)
        .with_grid(2, 2)
        .with_abft(AbftConfig::<f64>::paper_defaults())
        .with_flip(0, centre_corner_flip);
    let report =
        run_distributed(&initial, &nine_point, &bounds, None, &cfg).expect("valid dist config");

    println!("\n== 2x2 rank grid x {iters} iterations, 9-point kernel, corner bit-flip ==\n");
    report_ranks(&report);

    let l2 = l2_error(serial9.current(), &report.global);
    let total = report.total_stats();
    println!("\nglobal l2 vs serial run: {l2:.3e}");
    println!("{report}");
    let traffic = report.total_traffic();
    assert!(
        traffic.corner_cells > 0,
        "a 2-D grid must exchange corner patches"
    );
    assert_eq!(total.corrections, 1);
    assert_eq!(report.ranks[0].stats.corrections, 1);
    assert_eq!(
        l2, 0.0,
        "corrected 9-point run must be bitwise the serial one"
    );

    // --- 4. 2×2×2 brick grid, 27-point kernel, fault at a brick corner. -
    // The z axis is decomposed too: rank 7's brick origin is the domain
    // centre, so its local (0, 0, 0) cell sits at the meeting point of
    // all eight bricks — owed to every other rank through x/y/z faces,
    // edges *and* the xyz-corner channel — and the 27-point kernel's
    // z-diagonal taps consume all of them the very next sweep.
    let twenty_seven = Stencil3D::diffusion_27pt(0.21f64);
    let mut serial27 =
        StencilSim::new(initial.clone(), twenty_seven.clone(), bounds).with_exec(Exec::Serial);
    for _ in 0..iters {
        serial27.step();
    }
    let brick_corner_flip = BitFlip {
        iteration: 23,
        x: 0,
        y: 0,
        z: 0,
        bit: 52,
    };
    let cfg = DistConfig::new(8, iters)
        .with_grid3(2, 2, 2)
        .with_abft(AbftConfig::<f64>::paper_defaults())
        .with_flip(7, brick_corner_flip);
    let report =
        run_distributed(&initial, &twenty_seven, &bounds, None, &cfg).expect("valid dist config");

    println!("\n== 2x2x2 rank bricks x {iters} iterations, 27-point kernel, corner bit-flip ==\n");
    report_ranks(&report);

    let l2 = l2_error(serial27.current(), &report.global);
    let total = report.total_stats();
    println!("\nglobal l2 vs serial run: {l2:.3e}");
    println!("{report}");
    let traffic = report.total_traffic();
    assert_eq!(report.grid, (2, 2, 2));
    assert!(
        traffic.zface_cells > 0 && traffic.zcorner_cells > 0,
        "a 3-D brick grid must exchange z-face and z-corner patches"
    );
    assert_eq!(total.corrections, 1);
    assert_eq!(report.ranks[7].stats.corrections, 1);
    assert_eq!(
        l2, 0.0,
        "corrected 27-point brick run must be bitwise the serial one"
    );
    println!("\ndistributed + per-rank ABFT matches the serial reference in all four runs");
}
