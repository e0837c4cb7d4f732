//! `hotspot-tile`: the paper's own experiment (§5.2, Fig. 8) — HotSpot3D on
//! a 512×512×8 tile, f32, clamped, 7-point kernel plus the constant power
//! term, one thread. Why it exists: it is the number the paper reports
//! ("< 8 % overhead"), at altitude 1, on the kernel the star-shaped fast
//! paths are written for; `abft-stencil` is ≈ 95 % of its time and
//! `abft-core` the rest, `abft-dist` is idle.

use abft_hotspot::{build_sim, HotspotParams};
use abft_stencil::{Exec, StencilSim};

use super::serial::{Serial, SerialConfig};

/// The paper's large tile (Table 1, second column).
pub const DIMS: (usize, usize, usize) = (512, 512, 8);

/// HotSpot3D at reduced size (the reference sweep's unit tests).
pub fn small_sim(seed: u64, dims: (usize, usize, usize)) -> StencilSim<f32> {
    build_sim::<f32>(
        &HotspotParams::new(dims.0, dims.1, dims.2),
        seed,
        Exec::Serial,
    )
}

pub struct HotspotTile;

impl SerialConfig for HotspotTile {
    type T = f32;
    const SWEEPS: usize = 4;
    const YARD_SWEEPS: usize = 4;
    const STREAM: u64 = 0x4853;

    fn sim(seed: u64) -> StencilSim<f32> {
        small_sim(seed, DIMS)
    }
}

pub type Workload = Serial<HotspotTile>;
