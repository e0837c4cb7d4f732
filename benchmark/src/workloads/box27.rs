//! `box27-cube`: 27-point diffusion, f64, periodic on every axis, on a
//! 160×160×48 cube (two 9.8 MB buffers, above the 4 MiB L2), one thread.
//! Why it exists: it drives the same stencil/grid/core layers as
//! `hotspot-tile` the other way — the dense 27-tap generic path, wrap-around
//! edges, f64, no constant term — so a star-7 specialisation that costs the
//! generic kernel shows here; it is also the cleanest single-thread kernel
//! number for ROADMAP item 2.

use abft_grid::{BoundarySpec, Grid3D};
use abft_stencil::{Exec, Stencil3D, StencilSim};

use super::field;
use super::serial::{Serial, SerialConfig};

pub const DIMS: (usize, usize, usize) = (160, 160, 48);

/// The workload's problem at any size (the reference sweep's unit tests
/// use a small one).
pub fn problem(
    seed: u64,
    dims: (usize, usize, usize),
) -> (Grid3D<f64>, Stencil3D<f64>, BoundarySpec<f64>) {
    (
        field(seed, Box27Cube::STREAM, dims),
        Stencil3D::diffusion_27pt(0.3),
        BoundarySpec::periodic(),
    )
}

pub struct Box27Cube;

impl SerialConfig for Box27Cube {
    type T = f64;
    const SWEEPS: usize = 6;
    const YARD_SWEEPS: usize = 3;
    const STREAM: u64 = 0x4232;

    fn sim(seed: u64) -> StencilSim<f64> {
        let (initial, stencil, bounds) = problem(seed, DIMS);
        StencilSim::new(initial, stencil, bounds).with_exec(Exec::Serial)
    }
}

pub type Workload = Serial<Box27Cube>;
