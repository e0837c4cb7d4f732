//! `dist-halo`: altitude 2 — one pooled `DistService`, one 2-rank (1×2)
//! pipelined job at a time, `k = 1`: 27-point diffusion, f64, clamped, on
//! thin bricks (512×16×8 split into two 512×8×8 slabs), 24 sweeps. `P`
//! adds per-rank ABFT and a checkpoint every 8 sweeps; `F` adds one flip
//! per rank and one rank kill (rollback + respawn). Why it exists: on thin
//! bricks every row is an edge row, so halo pack, ghost reads through
//! `HaloIndex`, assembly and per-brick verification dominate and the
//! interior kernel does not — the opposite balance to the serial workloads.

use abft_dist::JobSpec;
use abft_grid::{BoundarySpec, Grid3D};
use abft_stencil::Stencil3D;

use super::field;
use super::service::{Job, Role, Served, ServedConfig};
use crate::lab::Tags;

pub const DIMS: (usize, usize, usize) = (512, 16, 8);
pub const SWEEPS: usize = 24;
/// Checkpoint period Δ of the protected job.
pub const PERIOD: usize = 8;

/// The workload's problem at any size (the reference sweep's unit tests
/// use a small one).
pub fn problem(
    seed: u64,
    dims: (usize, usize, usize),
) -> (Grid3D<f64>, Stencil3D<f64>, BoundarySpec<f64>) {
    (
        field(seed, DistHalo::STREAM, dims),
        Stencil3D::diffusion_27pt(0.3),
        BoundarySpec::clamp(),
    )
}

/// The one job, with `k` sweeps per halo exchange.
pub fn job(seed: u64, k: usize) -> Job {
    let (initial, stencil, bounds) = problem(seed, DIMS);
    Job {
        label: format!("dist-halo 27pt 512x16x8 2 ranks k={k}"),
        spec: JobSpec::over(initial, stencil)
            .with_bounds(bounds)
            .with_ranks(2)
            .with_grid(1, 2)
            .with_iters(SWEEPS)
            .with_steps_per_exchange(k),
        tags: Tags {
            ranks: 2,
            k,
            ..Tags::default()
        },
        role: Role::FlipsAndKill,
    }
}

pub struct DistHalo;

impl ServedConfig for DistHalo {
    const NAME: &'static str = "dist-halo";
    const CLIENTS: usize = 1;
    const PERIOD: usize = PERIOD;
    const GROUPS: usize = 1;
    const YARD_SWEEPS: usize = 24;
    const YARD_JOB: usize = 0;
    const STREAM: u64 = 0x4448;

    fn batch(seed: u64) -> Vec<Job> {
        vec![job(seed, 1)]
    }
}

pub type Workload = Served<DistHalo>;
