//! The halo-traffic accounting, checked from outside: for every library
//! kernel × epoch length `k` on a 2-D and a 3-D rank grid, each rank's
//! reported per-channel cell counts equal the pad-width products computed
//! here, independently, from the clamp-boundary geometry. `k` sweeps the
//! shell depth (`k` kernel reaches per decomposed axis) through shallow,
//! brick-deep and clipped windows. Every run is also pinned bitwise to a
//! serial `StencilSim` loop, and its protected twin must raise no alarm.

use abft_core::AbftConfig;
use abft_dist::{run_distributed, DistConfig, Partition3};
use abft_grid::{BoundarySpec, Grid3D};
use abft_stencil::{Exec, Stencil2D, Stencil3D, StencilSim};

const DIMS: (usize, usize, usize) = (16, 14, 8);
const ITERS: usize = 6;

/// Pad cells on the two sides of depth `h` around `t0..t0 + t_len` under
/// a **clamp** boundary: a domain-edge side has no pad (the grid's own
/// boundary resolves reads past it, 0 cells); an interior side pads `h`
/// neighbour cells, clipped to what the domain holds on that side.
fn clamp_window_len(t0: usize, t_len: usize, n: usize, h: usize) -> usize {
    let low = h.min(t0);
    let high = h.min(n - t0 - t_len);
    low + high
}

#[test]
fn channel_volumes_match_window_products_for_every_library_kernel() {
    let (nx, ny, nz) = DIMS;
    let kernels: [(&str, Stencil3D<f32>); 4] = [
        ("star7", Stencil3D::diffusion_7pt(0.12)),
        (
            "9pt",
            Stencil2D::convection_9pt(0.18, 0.08, -0.05).into_3d(),
        ),
        ("27pt", Stencil3D::diffusion_27pt(0.21)),
        ("13pt", Stencil3D::diffusion_13pt_4th_order(0.02)),
    ];
    let initial = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
        80.0 + ((x * 3 + y * 7 + z * 5) % 13) as f32 * 0.5
    });
    let bounds = BoundarySpec::<f32>::clamp();
    for (name, stencil) in &kernels {
        let mut serial =
            StencilSim::new(initial.clone(), stencil.clone(), bounds).with_exec(Exec::Serial);
        for _ in 0..ITERS {
            serial.step();
        }
        for (rx, ry, rz) in [(2, 2, 1), (2, 2, 2)] {
            let part = Partition3::new(nx, ny, nz, rx, ry, rz);
            for k in 1..=3 {
                let at = format!("{name}, {rx}x{ry}x{rz} ranks, k = {k}");
                let cfg = DistConfig::<f32>::new(rx * ry * rz, ITERS)
                    .with_grid3(rx, ry, rz)
                    .with_steps_per_exchange(k);
                let rep = run_distributed(&initial, stencil, &bounds, None, &cfg)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(rep.global, *serial.current(), "{at}: diverged from serial");
                // z exchanges only when it is split.
                let hz = if rz > 1 { k * stencil.extent_z() } else { 0 };
                for r in &rep.ranks {
                    let b = part.brick(r.rank);
                    let wx = clamp_window_len(b.x0, b.x_len, nx, k * stencil.extent_x());
                    let wy = clamp_window_len(b.y0, b.y_len, ny, k * stencil.extent_y());
                    let wz = clamp_window_len(b.z0, b.z_len, nz, hz);
                    let t = r.traffic;
                    assert_eq!(
                        (t.row_cells, t.col_cells, t.corner_cells),
                        (
                            b.x_len * wy * b.z_len,
                            wx * b.y_len * b.z_len,
                            wx * wy * b.z_len
                        ),
                        "{at}: rank {} x/y channels",
                        r.rank
                    );
                    assert_eq!(
                        (t.zface_cells, t.zedge_cells, t.zcorner_cells),
                        (
                            b.x_len * b.y_len * wz,
                            (wx * b.y_len + b.x_len * wy) * wz,
                            wx * wy * wz
                        ),
                        "{at}: rank {} z channels",
                        r.rank
                    );
                }
                let protected = cfg.with_abft(AbftConfig::paper_defaults());
                let rep = run_distributed(&initial, stencil, &bounds, None, &protected)
                    .unwrap_or_else(|e| panic!("{at}, protected: {e}"));
                assert_eq!(rep.total_stats().detections, 0, "{at}: false positive");
            }
        }
    }
}
